#include "core/kernels.h"

#include <algorithm>
#include <cmath>

#include "matrix/blas.h"
#include "matrix/cholesky.h"
#include "matrix/eigen.h"
#include "matrix/lu.h"
#include "matrix/qr.h"
#include "matrix/svd.h"
#include "storage/bat_ops.h"

namespace rma::kernel {

int64_t NumRows(const Columns& c) {
  return c.empty() ? 0 : static_cast<int64_t>(c[0].size());
}

DenseMatrix ColumnsToMatrix(const Columns& c) {
  const int64_t n = NumRows(c);
  const int64_t k = static_cast<int64_t>(c.size());
  DenseMatrix m(n, k);
  std::vector<const double*> ptrs(c.size());
  for (size_t j = 0; j < c.size(); ++j) ptrs[j] = c[j].data();
  bat_ops::PackColumnsRowMajor(ptrs.data(), k, /*perm=*/nullptr, n, m.data());
  return m;
}

Columns MatrixToColumns(const DenseMatrix& m) {
  const int64_t n = m.rows();
  const int64_t k = m.cols();
  Columns c(static_cast<size_t>(k),
            std::vector<double>(static_cast<size_t>(n)));
  std::vector<double*> ptrs(c.size());
  for (size_t j = 0; j < c.size(); ++j) ptrs[j] = c[j].data();
  bat_ops::UnpackRowMajorToColumns(m.data(), n, k, ptrs.data());
  return c;
}

Status BatInv(Columns* a) {
  const int64_t n = NumRows(*a);
  if (static_cast<int64_t>(a->size()) != n) {
    return Status::Invalid("inv: matrix must be square");
  }
  Columns& b = *a;
  // BR starts as the identity (Algorithm 2, IDmatrix).
  Columns br(static_cast<size_t>(n),
             std::vector<double>(static_cast<size_t>(n), 0.0));
  for (int64_t i = 0; i < n; ++i) br[static_cast<size_t>(i)][static_cast<size_t>(i)] = 1.0;
  for (int64_t i = 0; i < n; ++i) {
    // Column pivoting: pick the column with the largest |value| in row i.
    int64_t p = i;
    double best = std::fabs(b[static_cast<size_t>(i)][static_cast<size_t>(i)]);
    for (int64_t j = i + 1; j < n; ++j) {
      const double v = std::fabs(b[static_cast<size_t>(j)][static_cast<size_t>(i)]);
      if (v > best) {
        best = v;
        p = j;
      }
    }
    if (best == 0.0) return Status::NumericError("inv: singular matrix");
    if (p != i) {
      std::swap(b[static_cast<size_t>(i)], b[static_cast<size_t>(p)]);
      std::swap(br[static_cast<size_t>(i)], br[static_cast<size_t>(p)]);
    }
    // v1 <- sel(B_i, i); B_i <- B_i / v1; BR_i <- BR_i / v1.
    const double v1 = b[static_cast<size_t>(i)][static_cast<size_t>(i)];
    bat_ops::Scale(1.0 / v1, &b[static_cast<size_t>(i)]);
    bat_ops::Scale(1.0 / v1, &br[static_cast<size_t>(i)]);
    // For j != i: v2 <- sel(B_j, i); B_j -= B_i*v2; BR_j -= BR_i*v2.
    for (int64_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double v2 = b[static_cast<size_t>(j)][static_cast<size_t>(i)];
      if (v2 == 0.0) continue;
      bat_ops::Axpy(-v2, b[static_cast<size_t>(i)], &b[static_cast<size_t>(j)]);
      bat_ops::Axpy(-v2, br[static_cast<size_t>(i)], &br[static_cast<size_t>(j)]);
    }
  }
  *a = std::move(br);
  return Status::OK();
}

Status BatQr(const Columns& a, Columns* q, Columns* r) {
  const int64_t n = NumRows(a);
  const int64_t k = static_cast<int64_t>(a.size());
  if (n < k) return Status::Invalid("qr: requires rows >= cols");
  *q = a;
  *r = Columns(static_cast<size_t>(k),
               std::vector<double>(static_cast<size_t>(k), 0.0));
  for (int64_t j = 0; j < k; ++j) {
    auto& qj = (*q)[static_cast<size_t>(j)];
    for (int64_t i = 0; i < j; ++i) {
      const auto& qi = (*q)[static_cast<size_t>(i)];
      const double s = bat_ops::Dot(qi, qj);
      (*r)[static_cast<size_t>(j)][static_cast<size_t>(i)] = s;  // R[i][j]
      bat_ops::Axpy(-s, qi, &qj);
    }
    const double norm = std::sqrt(bat_ops::Dot(qj, qj));
    (*r)[static_cast<size_t>(j)][static_cast<size_t>(j)] = norm;
    if (norm > 0.0) bat_ops::Scale(1.0 / norm, &qj);
  }
  return Status::OK();
}

Result<double> BatDet(Columns a) {
  const int64_t n = NumRows(a);
  if (static_cast<int64_t>(a.size()) != n) {
    return Status::Invalid("det: matrix must be square");
  }
  double det = 1.0;
  for (int64_t i = 0; i < n; ++i) {
    int64_t p = i;
    double best = std::fabs(a[static_cast<size_t>(i)][static_cast<size_t>(i)]);
    for (int64_t j = i + 1; j < n; ++j) {
      const double v = std::fabs(a[static_cast<size_t>(j)][static_cast<size_t>(i)]);
      if (v > best) {
        best = v;
        p = j;
      }
    }
    if (best == 0.0) return 0.0;
    if (p != i) {
      std::swap(a[static_cast<size_t>(i)], a[static_cast<size_t>(p)]);
      det = -det;
    }
    const double pivot = a[static_cast<size_t>(i)][static_cast<size_t>(i)];
    det *= pivot;
    for (int64_t j = i + 1; j < n; ++j) {
      const double f = a[static_cast<size_t>(j)][static_cast<size_t>(i)] / pivot;
      if (f == 0.0) continue;
      bat_ops::Axpy(-f, a[static_cast<size_t>(i)], &a[static_cast<size_t>(j)]);
    }
  }
  return det;
}

Result<Columns> BatMmu(const Columns& a, const Columns& b) {
  const int64_t inner = static_cast<int64_t>(a.size());
  if (inner != NumRows(b)) {
    return Status::Invalid("mmu: inner dimensions differ");
  }
  const int64_t n = NumRows(a);
  Columns c(b.size(), std::vector<double>(static_cast<size_t>(n), 0.0));
  // Result column j = sum_k B[k][j] * A_col_k — a linear combination of A's
  // columns, evaluated with vectorized axpy.
  for (size_t j = 0; j < b.size(); ++j) {
    for (int64_t p = 0; p < inner; ++p) {
      const double w = b[j][static_cast<size_t>(p)];
      if (w == 0.0) continue;
      bat_ops::Axpy(w, a[static_cast<size_t>(p)], &c[j]);
    }
  }
  return c;
}

Result<Columns> BatCpd(const std::vector<BatPtr>& a,
                       const std::vector<BatPtr>& b) {
  if (a.empty() || b.empty() || a[0]->size() != b[0]->size()) {
    return Status::Invalid("cpd: row counts differ");
  }
  const int64_t n = a[0]->size();
  Columns c(b.size(), std::vector<double>(a.size(), 0.0));
  for (size_t j = 0; j < b.size(); ++j) {
    const Bat& bj = *b[j];
    for (size_t i = 0; i < a.size(); ++i) {
      const Bat& ai = *a[i];
      // Element-at-a-time fetches (MonetDB BUNfetch): cpd does not reduce
      // to whole-column BAT operations.
      double s = 0.0;
      for (int64_t row = 0; row < n; ++row) {
        s += ai.GetDouble(row) * bj.GetDouble(row);
      }
      c[j][i] = s;
    }
  }
  return c;
}

Result<Columns> BatSol(const Columns& a, const Columns& b) {
  const int64_t k = static_cast<int64_t>(a.size());
  if (NumRows(a) != NumRows(b)) {
    return Status::Invalid("sol: row counts differ");
  }
  Columns q;
  Columns r;
  RMA_RETURN_NOT_OK(BatQr(a, &q, &r));
  Columns x(b.size(), std::vector<double>(static_cast<size_t>(k), 0.0));
  for (size_t col = 0; col < b.size(); ++col) {
    // Qᵀ b, then back substitution with R (stored column-wise).
    std::vector<double> qtb(static_cast<size_t>(k), 0.0);
    for (int64_t i = 0; i < k; ++i) {
      qtb[static_cast<size_t>(i)] = bat_ops::Dot(q[static_cast<size_t>(i)], b[col]);
    }
    for (int64_t i = k - 1; i >= 0; --i) {
      double s = qtb[static_cast<size_t>(i)];
      for (int64_t p = i + 1; p < k; ++p) {
        s -= r[static_cast<size_t>(p)][static_cast<size_t>(i)] *
             x[col][static_cast<size_t>(p)];
      }
      const double d = r[static_cast<size_t>(i)][static_cast<size_t>(i)];
      if (d == 0.0) return Status::NumericError("sol: rank-deficient system");
      x[col][static_cast<size_t>(i)] = s / d;
    }
  }
  return x;
}

bool HasBatKernel(MatrixOp op) {
  switch (op) {
    case MatrixOp::kAdd:
    case MatrixOp::kSub:
    case MatrixOp::kEmu:
    case MatrixOp::kInv:
    case MatrixOp::kQqr:
    case MatrixOp::kRqr:
    case MatrixOp::kDet:
    case MatrixOp::kMmu:
    case MatrixOp::kCpd:
    case MatrixOp::kSol:
    case MatrixOp::kTra:
      return true;
    default:
      return false;
  }
}

Status DenseQr(Columns* a, Columns* r, bool form_q) {
  std::vector<double*> ac(a->size());
  for (size_t j = 0; j < a->size(); ++j) ac[j] = (*a)[j].data();
  std::vector<double*> rc(r->size());
  for (size_t j = 0; j < r->size(); ++j) rc[j] = (*r)[j].data();
  return HouseholderQrInPlace(ac.data(), NumRows(*a),
                              static_cast<int64_t>(a->size()), rc.data(),
                              form_q);
}

namespace {

DenseMatrix DiagFromSigma(const std::vector<double>& sigma, int64_t k) {
  DenseMatrix d(k, k, 0.0);
  for (int64_t i = 0; i < std::min<int64_t>(k, static_cast<int64_t>(sigma.size())); ++i) {
    d(i, i) = sigma[static_cast<size_t>(i)];
  }
  return d;
}

DenseMatrix PadColumns(const DenseMatrix& m, int64_t cols) {
  if (m.cols() == cols) return m;
  DenseMatrix out(m.rows(), cols, 0.0);
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = 0; j < m.cols(); ++j) out(i, j) = m(i, j);
  }
  return out;
}

DenseMatrix Scalar(double v) {
  DenseMatrix m(1, 1);
  m(0, 0) = v;
  return m;
}

}  // namespace

Result<DenseMatrix> DenseCompute(MatrixOp op, const DenseMatrix& a,
                                 const DenseMatrix* b) {
  switch (op) {
    case MatrixOp::kAdd:
      return blas::Add(a, *b);
    case MatrixOp::kSub:
      return blas::Sub(a, *b);
    case MatrixOp::kEmu:
      return blas::ElemMul(a, *b);
    case MatrixOp::kMmu:
      return blas::MatMul(a, *b);
    case MatrixOp::kCpd:
      return blas::CrossProd(a, *b);
    case MatrixOp::kOpd:
      return blas::OuterProd(a, *b);
    case MatrixOp::kTra:
      return a.Transposed();
    case MatrixOp::kSol:
      return SolveLeastSquares(a, *b);
    case MatrixOp::kInv:
      return Inverse(a);
    case MatrixOp::kDet: {
      RMA_ASSIGN_OR_RETURN(double d, Determinant(a));
      return Scalar(d);
    }
    case MatrixOp::kRnk: {
      RMA_ASSIGN_OR_RETURN(int64_t r, MatrixRank(a));
      return Scalar(static_cast<double>(r));
    }
    case MatrixOp::kQqr: {
      DenseMatrix q;
      DenseMatrix r;
      RMA_RETURN_NOT_OK(HouseholderQr(a, &q, &r));
      return q;
    }
    case MatrixOp::kRqr: {
      DenseMatrix q;
      DenseMatrix r;
      RMA_RETURN_NOT_OK(HouseholderQr(a, &q, &r));
      return r;
    }
    case MatrixOp::kChf:
      return Cholesky(a);
    case MatrixOp::kEvc: {
      if (!IsSymmetric(a)) {
        return Status::NumericError(
            "evc: eigenvectors require a symmetric matrix (general "
            "eigenvectors may be complex)");
      }
      std::vector<double> values;
      DenseMatrix vectors;
      RMA_RETURN_NOT_OK(SymmetricEigen(a, &values, &vectors));
      return vectors;
    }
    case MatrixOp::kEvl: {
      std::vector<double> values;
      RMA_RETURN_NOT_OK(Eigenvalues(a, &values));
      DenseMatrix m(static_cast<int64_t>(values.size()), 1);
      for (size_t i = 0; i < values.size(); ++i) {
        m(static_cast<int64_t>(i), 0) = values[i];
      }
      return m;
    }
    case MatrixOp::kDsv: {
      RMA_ASSIGN_OR_RETURN(SvdResult s, Svd(a));
      return DiagFromSigma(s.sigma, a.cols());
    }
    case MatrixOp::kUsv:
      return SvdFullU(a);
    case MatrixOp::kVsv: {
      RMA_ASSIGN_OR_RETURN(SvdResult s, Svd(a));
      return PadColumns(s.v, a.cols());
    }
  }
  return Status::Invalid("unknown matrix operation");
}

}  // namespace rma::kernel
