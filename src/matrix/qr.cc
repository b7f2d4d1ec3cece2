#include "matrix/qr.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "matrix/parallel.h"
#include "matrix/simd.h"

namespace rma {

namespace {

/// Work threshold below which reflector applications stay sequential
/// (thread-spawn latency would dominate).
constexpr int64_t kParallelWork = int64_t{1} << 18;

// The factorization walks down columns, so every kernel below works on
// column pointers (double* const* cols, each column m contiguous doubles):
// the layout of BAT tails, which the QQR path factors in place.

// Applies the reflector in `vd` (m entries, scaled so v[j] = 1, entries
// below j) to columns [c_begin, c_end) of `cols`. With SIMD enabled each
// column is one vector dot plus one vector axpy over the sub-diagonal range;
// the scalar fallback processes columns four at a time so each pass over `v`
// feeds four accumulators — the register blocking that lets the dense path
// outrun the column-at-a-time BAT algorithm.
void ApplyReflector(const double* vd, int64_t m, int64_t j, double beta,
                    double* const* cols, int64_t c_begin, int64_t c_end) {
  if (simd::Enabled()) {
    const int64_t len = m - j - 1;
    int64_t c4 = c_begin;
    // Four columns per pass so `v` is streamed once per group, matching the
    // memory traffic of the scalar register-blocked path below.
    for (; c4 + 3 < c_end; c4 += 4) {
      double* c0 = cols[c4];
      double* c1 = cols[c4 + 1];
      double* c2 = cols[c4 + 2];
      double* c3 = cols[c4 + 3];
      double s[4];
      simd::Dot4(vd + j + 1, c0 + j + 1, c1 + j + 1, c2 + j + 1, c3 + j + 1,
                 len, s);
      s[0] = (c0[j] + s[0]) * beta;
      s[1] = (c1[j] + s[1]) * beta;
      s[2] = (c2[j] + s[2]) * beta;
      s[3] = (c3[j] + s[3]) * beta;
      c0[j] -= s[0];
      c1[j] -= s[1];
      c2[j] -= s[2];
      c3[j] -= s[3];
      const double neg[4] = {-s[0], -s[1], -s[2], -s[3]};
      simd::AxpyTo4(neg, vd + j + 1, c0 + j + 1, c1 + j + 1, c2 + j + 1,
                    c3 + j + 1, len);
    }
    for (int64_t c = c4; c < c_end; ++c) {
      double* cc = cols[c];
      double s = cc[j] + simd::Dot(vd + j + 1, cc + j + 1, len);
      s *= beta;
      cc[j] -= s;
      simd::Axpy(-s, vd + j + 1, cc + j + 1, len);
    }
    return;
  }
  int64_t c = c_begin;
  for (; c + 3 < c_end; c += 4) {
    double* c0 = cols[c];
    double* c1 = cols[c + 1];
    double* c2 = cols[c + 2];
    double* c3 = cols[c + 3];
    double s0 = c0[j];
    double s1 = c1[j];
    double s2 = c2[j];
    double s3 = c3[j];
    for (int64_t i = j + 1; i < m; ++i) {
      const double vi = vd[i];
      s0 += vi * c0[i];
      s1 += vi * c1[i];
      s2 += vi * c2[i];
      s3 += vi * c3[i];
    }
    s0 *= beta;
    s1 *= beta;
    s2 *= beta;
    s3 *= beta;
    c0[j] -= s0;
    c1[j] -= s1;
    c2[j] -= s2;
    c3[j] -= s3;
    for (int64_t i = j + 1; i < m; ++i) {
      const double vi = vd[i];
      c0[i] -= s0 * vi;
      c1[i] -= s1 * vi;
      c2[i] -= s2 * vi;
      c3[i] -= s3 * vi;
    }
  }
  for (; c < c_end; ++c) {
    double* cc = cols[c];
    double s = cc[j];
    for (int64_t i = j + 1; i < m; ++i) s += vd[i] * cc[i];
    s *= beta;
    cc[j] -= s;
    for (int64_t i = j + 1; i < m; ++i) cc[i] -= s * vd[i];
  }
}

// Householder factorization in place over m×k columns: reflectors below the
// diagonal (scaled so v[j] = 1) + `betas`, R in the upper triangle. The
// trailing-matrix update distributes columns across `threads` workers
// (columns are independent given the reflector) — the "MKL leverages the
// hardware" behaviour of Sec. 8.3.
void HouseholderInPlace(double* const* cols, int64_t m, int64_t k,
                        double* betas, int threads) {
  std::fill(betas, betas + k, 0.0);
  for (int64_t j = 0; j < k; ++j) {
    double* cj = cols[j];
    // Build the reflector for column j below the diagonal.
    const double norm2 = simd::SumSquares(cj + j, m - j);
    const double norm = std::sqrt(norm2);
    if (norm == 0.0) continue;  // zero column: nothing to eliminate
    const double x0 = cj[j];
    const double alpha = x0 >= 0 ? -norm : norm;
    // v = x - alpha*e1, normalized so v[j] = 1.
    const double v0 = x0 - alpha;
    if (v0 == 0.0) {  // already in e1 direction
      cj[j] = alpha;
      continue;
    }
    for (int64_t i = j + 1; i < m; ++i) cj[i] /= v0;
    const double beta = -v0 / alpha;  // 2/(vᵀv) with v[j]=1 scaling
    betas[j] = beta;
    cj[j] = alpha;
    // Apply the reflector to the remaining columns.
    const int64_t cols_left = k - j - 1;
    if (threads != 1 && cols_left > 1 && (m - j) * cols_left > kParallelWork) {
      ParallelFor(
          j + 1, k,
          [&](int64_t lo, int64_t hi) {
            ApplyReflector(cj, m, j, beta, cols, lo, hi);
          },
          /*min_chunk=*/1, threads);
    } else {
      ApplyReflector(cj, m, j, beta, cols, j + 1, k);
    }
  }
}

// Q := H_0 · … · H_{k-1} · Q for the m×qcols columns `q`: the reflectors of
// `h` (as HouseholderInPlace leaves them) applied in reverse order. Started
// from the identity this accumulates the Householder Q.
void ApplyReflectorsReverse(const double* const* h, const double* betas,
                            int64_t m, int64_t k, double* const* q,
                            int64_t qcols, int threads) {
  for (int64_t j = k - 1; j >= 0; --j) {
    const double beta = betas[j];
    if (beta == 0.0) continue;
    if (threads != 1 && qcols > 1 && (m - j) * qcols > kParallelWork) {
      ParallelFor(
          0, qcols,
          [&](int64_t lo, int64_t hi) {
            ApplyReflector(h[j], m, j, beta, q, lo, hi);
          },
          /*min_chunk=*/1, threads);
    } else {
      ApplyReflector(h[j], m, j, beta, q, 0, qcols);
    }
  }
}

// Pointers to the columns of a column-major buffer with leading dimension m.
std::vector<double*> ColumnPointers(double* data, int64_t m, int64_t cols) {
  std::vector<double*> out(static_cast<size_t>(cols));
  for (int64_t j = 0; j < cols; ++j) out[static_cast<size_t>(j)] = data + j * m;
  return out;
}

// Column-major copy of `a` (the layout HouseholderQrInPlace factors).
std::vector<double> ColumnMajor(const DenseMatrix& a) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  std::vector<double> out(static_cast<size_t>(m * k));
  for (int64_t i = 0; i < m; ++i) {
    const double* row = a.row_ptr(i);
    for (int64_t j = 0; j < k; ++j) out[static_cast<size_t>(j * m + i)] = row[j];
  }
  return out;
}

DenseMatrix FromColumnMajor(const std::vector<double>& data, int64_t m,
                            int64_t k) {
  DenseMatrix out(m, k);
  for (int64_t i = 0; i < m; ++i) {
    double* row = out.row_ptr(i);
    for (int64_t j = 0; j < k; ++j) row[j] = data[static_cast<size_t>(j * m + i)];
  }
  return out;
}

}  // namespace

int64_t QrRowBlocks(int64_t m, int64_t k) {
  const int64_t nb = m / kTsqrBlockRows;
  return nb >= 2 && k <= kTsqrMaxCols ? nb : 1;
}

Status HouseholderQrInPlace(double* const* cols, int64_t m, int64_t k,
                            double* const* r_cols, bool form_q, int threads) {
  if (m < k) return Status::Invalid("qr: requires rows >= cols");
  const int64_t nb = QrRowBlocks(m, k);
  const auto block_lo = [m, nb](int64_t b) { return m * b / nb; };
  // A single block keeps the caller's budget for its reflector updates;
  // with several, the blocks are the unit of parallelism and each is
  // factored by one worker while it sits in that core's cache.
  const int inner = nb == 1 ? threads : 1;
  const auto block_cols = [&](int64_t b, std::vector<double*>* out) {
    for (int64_t j = 0; j < k; ++j) {
      (*out)[static_cast<size_t>(j)] = cols[j] + block_lo(b);
    }
  };

  // Phase 1: factor every row block in place.
  std::vector<double> betas(static_cast<size_t>(nb * k));
  ParallelFor(
      0, nb,
      [&](int64_t lo, int64_t hi) {
        std::vector<double*> bc(static_cast<size_t>(k));
        for (int64_t b = lo; b < hi; ++b) {
          block_cols(b, &bc);
          HouseholderInPlace(bc.data(), block_lo(b + 1) - block_lo(b), k,
                             betas.data() + b * k, inner);
        }
      },
      /*min_chunk=*/1, threads);

  // Phase 2: R of the stacked nb·k×k block R factors (their zero lower
  // triangles included). One block needs no merge: its R is the result.
  const int64_t sm = nb * k;
  std::vector<double> stack;
  std::vector<double*> top(cols, cols + k);
  std::vector<double> stack_betas(static_cast<size_t>(k));
  if (nb > 1) {
    stack.assign(static_cast<size_t>(sm * k), 0.0);
    top = ColumnPointers(stack.data(), sm, k);
    for (int64_t b = 0; b < nb; ++b) {
      for (int64_t j = 0; j < k; ++j) {
        const double* src = cols[j] + block_lo(b);
        std::copy(src, src + j + 1, top[static_cast<size_t>(j)] + b * k);
      }
    }
    HouseholderInPlace(top.data(), sm, k, stack_betas.data(), 1);
  }
  // Sign-normalize: diag(R) ≥ 0, flipping the matching columns of Q below.
  std::vector<char> flip(static_cast<size_t>(k));
  for (int64_t j = 0; j < k; ++j) {
    const double* src = top[static_cast<size_t>(j)];
    std::copy(src, src + j + 1, r_cols[j]);
    std::fill(r_cols[j] + j + 1, r_cols[j] + k, 0.0);
  }
  for (int64_t i = 0; i < k; ++i) {
    flip[static_cast<size_t>(i)] = r_cols[i][i] < 0.0;
    if (!flip[static_cast<size_t>(i)]) continue;
    for (int64_t c = i; c < k; ++c) r_cols[c][i] = -r_cols[c][i];
  }
  if (!form_q) return Status::OK();

  // The merged Q (sm×k): the identity for one block, else accumulated from
  // the stacked factorization. Block b's slice is rows [b·k, b·k + k).
  std::vector<double> merged(static_cast<size_t>(sm * k), 0.0);
  std::vector<double*> mq = ColumnPointers(merged.data(), sm, k);
  for (int64_t j = 0; j < k; ++j) mq[static_cast<size_t>(j)][j] = 1.0;
  if (nb > 1) {
    ApplyReflectorsReverse(top.data(), stack_betas.data(), sm, k, mq.data(), k,
                           1);
  }

  // Phase 3: block b's Q = its reflectors applied to [slice_b; 0]. The
  // reflectors share storage with the output, so each worker copies a
  // block's reflectors to scratch before overwriting the block.
  ParallelFor(
      0, nb,
      [&](int64_t lo, int64_t hi) {
        // Block heights are m / nb or one more.
        std::vector<double> scratch(static_cast<size_t>((m / nb + 1) * k));
        std::vector<double*> bc(static_cast<size_t>(k));
        for (int64_t b = lo; b < hi; ++b) {
          const int64_t rows = block_lo(b + 1) - block_lo(b);
          std::vector<double*> h = ColumnPointers(scratch.data(), rows, k);
          block_cols(b, &bc);
          for (int64_t j = 0; j < k; ++j) {
            double* c = bc[static_cast<size_t>(j)];
            std::copy(c, c + rows, h[static_cast<size_t>(j)]);
            const double* s = mq[static_cast<size_t>(j)] + b * k;
            std::copy(s, s + k, c);
            std::fill(c + k, c + rows, 0.0);
          }
          ApplyReflectorsReverse(h.data(), betas.data() + b * k, rows, k,
                                 bc.data(), k, inner);
          for (int64_t j = 0; j < k; ++j) {
            if (!flip[static_cast<size_t>(j)]) continue;
            double* c = bc[static_cast<size_t>(j)];
            for (int64_t i = 0; i < rows; ++i) c[i] = -c[i];
          }
        }
      },
      /*min_chunk=*/1, threads);
  return Status::OK();
}

Status HouseholderQr(const DenseMatrix& a, DenseMatrix* q, DenseMatrix* r,
                     int threads) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  if (m < k) return Status::Invalid("qr: requires rows >= cols");
  std::vector<double> h = ColumnMajor(a);
  std::vector<double> rr(static_cast<size_t>(k * k));
  RMA_RETURN_NOT_OK(HouseholderQrInPlace(ColumnPointers(h.data(), m, k).data(),
                                         m, k,
                                         ColumnPointers(rr.data(), k, k).data(),
                                         /*form_q=*/true, threads));
  *r = FromColumnMajor(rr, k, k);
  *q = FromColumnMajor(h, m, k);
  return Status::OK();
}

Status GramSchmidtQr(const DenseMatrix& a, DenseMatrix* q, DenseMatrix* r) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  if (m < k) return Status::Invalid("qr: requires rows >= cols");
  *q = a;
  *r = DenseMatrix(k, k, 0.0);
  for (int64_t j = 0; j < k; ++j) {
    // Modified Gram-Schmidt: orthogonalize column j against q_0..q_{j-1}.
    for (int64_t i = 0; i < j; ++i) {
      double s = 0.0;
      for (int64_t p = 0; p < m; ++p) s += (*q)(p, i) * (*q)(p, j);
      (*r)(i, j) = s;
      for (int64_t p = 0; p < m; ++p) (*q)(p, j) -= s * (*q)(p, i);
    }
    double norm2 = 0.0;
    for (int64_t p = 0; p < m; ++p) norm2 += (*q)(p, j) * (*q)(p, j);
    const double norm = std::sqrt(norm2);
    (*r)(j, j) = norm;
    if (norm > 0.0) {
      for (int64_t p = 0; p < m; ++p) (*q)(p, j) /= norm;
    }
  }
  // Flips signs so diag(R) >= 0 (columns of Q flip accordingly).
  for (int64_t j = 0; j < k; ++j) {
    if ((*r)(j, j) < 0.0) {
      for (int64_t c = j; c < k; ++c) (*r)(j, c) = -(*r)(j, c);
      for (int64_t i = 0; i < m; ++i) (*q)(i, j) = -(*q)(i, j);
    }
  }
  return Status::OK();
}

Status FullQ(const DenseMatrix& a, DenseMatrix* q_full, int threads) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  if (m < k) return Status::Invalid("qr: requires rows >= cols");
  std::vector<double> h = ColumnMajor(a);
  const std::vector<double*> hc = ColumnPointers(h.data(), m, k);
  std::vector<double> betas(static_cast<size_t>(k));
  HouseholderInPlace(hc.data(), m, k, betas.data(), threads);
  std::vector<double> q(static_cast<size_t>(m * m), 0.0);
  const std::vector<double*> qc = ColumnPointers(q.data(), m, m);
  for (int64_t i = 0; i < m; ++i) qc[static_cast<size_t>(i)][i] = 1.0;
  ApplyReflectorsReverse(hc.data(), betas.data(), m, k, qc.data(), m, threads);
  // Match the sign convention of HouseholderQr on the first k columns.
  for (int64_t j = 0; j < k; ++j) {
    if (hc[static_cast<size_t>(j)][j] < 0.0) {
      double* c = qc[static_cast<size_t>(j)];
      for (int64_t i = 0; i < m; ++i) c[i] = -c[i];
    }
  }
  *q_full = FromColumnMajor(q, m, m);
  return Status::OK();
}

}  // namespace rma
