#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "harness.h"

namespace rmabench {
namespace {

/// Calls fn(row, value) for every row of a numeric column, pinning an
/// out-of-core column for the duration so its data is read in place.
template <typename Fn>
void ForEachDouble(const rma::Bat& col, Fn fn) {
  const bool pinned = col.PinData().ok();
  const double* p = pinned ? col.ContiguousDoubleData() : nullptr;
  const int64_t n = col.size();
  if (p != nullptr) {
    for (int64_t i = 0; i < n; ++i) fn(i, p[i]);
  } else {
    for (int64_t i = 0; i < n; ++i) fn(i, col.GetDouble(i));
  }
  if (pinned) col.UnpinData();
}

int FindColumn(const rma::Relation& r, const std::string& name) {
  auto idx = r.ColumnIndex(name);
  return idx.ok() ? *idx : -1;
}

class MatrixCheckImpl final : public ResultCheck {
 public:
  explicit MatrixCheckImpl(const LabelledMatrix& want) : want_(want) {
    for (size_t i = 0; i < want_.row_labels.size(); ++i) {
      row_of_[want_.row_labels[i]] = static_cast<int>(i);
    }
    for (double v : want_.values) scale_ = std::max(scale_, std::fabs(v));
    seen_.assign(want_.row_labels.size(), false);
  }

  void Consume(const rma::Relation& batch) override {
    const int label = FindColumn(batch, "C");
    std::vector<int> cols;
    for (const std::string& c : want_.col_names) {
      cols.push_back(FindColumn(batch, c));
    }
    if (label < 0 || std::count(cols.begin(), cols.end(), -1) > 0 ||
        batch.num_columns() != static_cast<int>(cols.size()) + 1) {
      ok_ = false;
      rows_ += batch.num_rows();
      return;
    }
    const size_t ncols = want_.col_names.size();
    for (int64_t i = 0; i < batch.num_rows(); ++i, ++rows_) {
      auto it = row_of_.find(batch.column(label)->GetString(i));
      if (it == row_of_.end() || seen_[static_cast<size_t>(it->second)]) {
        ok_ = false;
        continue;
      }
      const size_t r = static_cast<size_t>(it->second);
      seen_[r] = true;
      for (size_t j = 0; j < ncols; ++j) {
        const double got = batch.column(cols[j])->GetDouble(i);
        const double want = want_.values[r * ncols + j];
        if (!(std::fabs(got - want) <= want_.rel_tol * scale_)) ok_ = false;
        if (!want_.band_row.empty() && want_.row_labels[r] == want_.band_row &&
            want_.col_names[j] == want_.band_col &&
            !(got >= want_.band_lo && got <= want_.band_hi)) {
          ok_ = false;
        }
      }
    }
  }

  bool Passed() const override {
    return ok_ && rows_ == static_cast<int64_t>(want_.row_labels.size()) &&
           std::all_of(seen_.begin(), seen_.end(), [](bool s) { return s; });
  }

 private:
  const LabelledMatrix want_;
  std::map<std::string, int> row_of_;
  std::vector<bool> seen_;
  double scale_ = 0;
  bool ok_ = true;
};

class KeyedSumCheckImpl final : public ResultCheck {
 public:
  explicit KeyedSumCheckImpl(const KeyedSum& want) : want_(want) {}

  void Consume(const rma::Relation& batch) override {
    const int key = FindColumn(batch, want_.key_col);
    if (key < 0) {
      ok_ = false;
      rows_ += batch.num_rows();
      return;
    }
    std::vector<int64_t> keys(static_cast<size_t>(batch.num_rows()));
    ForEachDouble(*batch.column(key), [&](int64_t i, double v) {
      keys[static_cast<size_t>(i)] = static_cast<int64_t>(v);
    });
    for (size_t j = 0; j < want_.value_cols.size(); ++j) {
      const int c = FindColumn(batch, want_.value_cols[j]);
      if (c < 0) {
        ok_ = false;
        continue;
      }
      const int col = static_cast<int>(j);
      ForEachDouble(*batch.column(c), [&](int64_t i, double v) {
        sum_ += Weight(keys[static_cast<size_t>(i)], col) * v;
      });
    }
    rows_ += batch.num_rows();
  }

  bool Passed() const override {
    return ok_ && rows_ == want_.rows &&
           std::fabs(sum_ - want_.sum) <=
               want_.rel_tol * std::max(want_.abs_sum, 1.0);
  }

 private:
  const KeyedSum want_;
  double sum_ = 0;
  bool ok_ = true;
};

class RowCountCheckImpl final : public ResultCheck {
 public:
  explicit RowCountCheckImpl(int64_t rows) : want_(rows) {}
  void Consume(const rma::Relation& batch) override {
    rows_ += batch.num_rows();
  }
  bool Passed() const override { return rows_ == want_; }

 private:
  const int64_t want_;
};

}  // namespace

std::unique_ptr<ResultCheck> RowCountCheck(int64_t rows) {
  return std::make_unique<RowCountCheckImpl>(rows);
}

std::unique_ptr<ResultCheck> MatrixCheck(const LabelledMatrix& want) {
  return std::make_unique<MatrixCheckImpl>(want);
}

std::unique_ptr<ResultCheck> KeyedSumCheck(const KeyedSum& want) {
  return std::make_unique<KeyedSumCheckImpl>(want);
}

std::vector<double> DoubleColumn(const rma::Relation& r,
                                 const std::string& name) {
  std::vector<double> out;
  const int c = FindColumn(r, name);
  if (c < 0) return out;
  out.resize(static_cast<size_t>(r.num_rows()));
  ForEachDouble(*r.column(c),
                [&](int64_t i, double v) { out[static_cast<size_t>(i)] = v; });
  return out;
}

uint64_t RowHash(const std::vector<double>& values) {
  uint64_t h = kFnvBasis;
  for (double v : values) HashBytes(&h, &v, sizeof(v));
  return h;
}

TableFingerprint Fingerprint(const rma::Relation& r) {
  const size_t n = static_cast<size_t>(r.num_rows());
  std::vector<uint64_t> row_hash(n, kFnvBasis);
  for (const rma::BatPtr& col : r.columns()) {
    if (col->type() == rma::DataType::kString) {
      for (size_t i = 0; i < n; ++i) {
        const std::string s = col->GetString(static_cast<int64_t>(i));
        HashBytes(&row_hash[i], s.data(), s.size());
      }
    } else {
      ForEachDouble(*col, [&](int64_t i, double v) {
        HashBytes(&row_hash[static_cast<size_t>(i)], &v, sizeof(v));
      });
    }
  }
  TableFingerprint fp;
  fp.rows = r.num_rows();
  for (uint64_t h : row_hash) fp.hash += h;
  return fp;
}

std::vector<double> Gram(const std::vector<double>& x, int64_t n, int k) {
  const size_t kk = static_cast<size_t>(k);
  std::vector<double> g(kk * kk, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    const double* row = x.data() + static_cast<size_t>(i) * kk;
    for (size_t a = 0; a < kk; ++a) {
      for (size_t b = a; b < kk; ++b) g[a * kk + b] += row[a] * row[b];
    }
  }
  for (size_t a = 0; a < kk; ++a) {
    for (size_t b = 0; b < a; ++b) g[a * kk + b] = g[b * kk + a];
  }
  return g;
}

std::vector<double> CrossVec(const std::vector<double>& x,
                             const std::vector<double>& y, int64_t n, int k) {
  const size_t kk = static_cast<size_t>(k);
  std::vector<double> out(kk, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    const double* row = x.data() + static_cast<size_t>(i) * kk;
    for (size_t a = 0; a < kk; ++a) out[a] += row[a] * y[static_cast<size_t>(i)];
  }
  return out;
}

bool Cholesky(const std::vector<double>& g, int k, std::vector<double>* r) {
  const size_t kk = static_cast<size_t>(k);
  r->assign(kk * kk, 0.0);
  std::vector<double>& u = *r;
  for (size_t j = 0; j < kk; ++j) {
    double d = g[j * kk + j];
    for (size_t p = 0; p < j; ++p) d -= u[p * kk + j] * u[p * kk + j];
    if (!(d > 0)) return false;
    u[j * kk + j] = std::sqrt(d);
    for (size_t c = j + 1; c < kk; ++c) {
      double s = g[j * kk + c];
      for (size_t p = 0; p < j; ++p) s -= u[p * kk + j] * u[p * kk + c];
      u[j * kk + c] = s / u[j * kk + j];
    }
  }
  return true;
}

std::vector<double> CholeskySolve(const std::vector<double>& r, int k,
                                  const std::vector<double>& rhs) {
  const size_t kk = static_cast<size_t>(k);
  // R^T z = rhs (forward), then R b = z (backward).
  std::vector<double> z(kk), b(kk);
  for (size_t i = 0; i < kk; ++i) {
    double s = rhs[i];
    for (size_t p = 0; p < i; ++p) s -= r[p * kk + i] * z[p];
    z[i] = s / r[i * kk + i];
  }
  for (size_t i = kk; i-- > 0;) {
    double s = z[i];
    for (size_t p = i + 1; p < kk; ++p) s -= r[i * kk + p] * b[p];
    b[i] = s / r[i * kk + i];
  }
  return b;
}

void SolveRowUpper(const std::vector<double>& r, int k, const double* x,
                   double* q) {
  // q R = x  =>  q_j = (x_j - sum_{p<j} q_p R_pj) / R_jj.
  const size_t kk = static_cast<size_t>(k);
  for (size_t j = 0; j < kk; ++j) {
    double s = x[j];
    for (size_t p = 0; p < j; ++p) s -= q[p] * r[p * kk + j];
    q[j] = s / r[j * kk + j];
  }
}

}  // namespace rmabench
