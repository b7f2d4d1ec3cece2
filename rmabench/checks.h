// Result checks and the references they compare against. References are
// computed once at set-up with plain loops over the generated inputs, not
// through the program, and every statement's result is checked against
// them. A check consumes a result batch by batch, so a result streamed from
// the server is verified without materializing it.
#ifndef RMABENCH_CHECKS_H_
#define RMABENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/relation.h"

namespace rmabench {

/// Verifies one statement's result; an in-process result is one batch.
class ResultCheck {
 public:
  virtual ~ResultCheck() = default;
  virtual void Consume(const rma::Relation& batch) = 0;
  /// True when the consumed rows match the reference.
  virtual bool Passed() const = 0;

 protected:
  int64_t rows_ = 0;  ///< rows consumed so far
};

/// A small labelled matrix result such as CPD's or OLS's: one row per label
/// in the string column C, one value per named column.
struct LabelledMatrix {
  std::vector<std::string> row_labels;
  std::vector<std::string> col_names;
  std::vector<double> values;  ///< row-major, rows x cols
  double rel_tol = 1e-9;       ///< relative to the largest |value|
  /// Optional plausibility band for one cell (the OLS slope); inactive when
  /// band_row is empty.
  std::string band_row, band_col;
  double band_lo = 0, band_hi = 0;
};
std::unique_ptr<ResultCheck> MatrixCheck(const LabelledMatrix& want);

/// Row count plus a key-weighted checksum sum_r sum_j Weight(key_r, j) *
/// value_rj over `value_cols`: it catches wrong values, rows matched to the
/// wrong key and swapped columns, whatever order the rows arrive in.
struct KeyedSum {
  std::string key_col;
  std::vector<std::string> value_cols;
  int64_t rows = 0;
  double sum = 0;
  double abs_sum = 0;     ///< sum of |terms|, the tolerance's scale
  double rel_tol = 1e-9;
};
std::unique_ptr<ResultCheck> KeyedSumCheck(const KeyedSum& want);

/// Only the row count (the empty result of DROP TABLE).
std::unique_ptr<ResultCheck> RowCountCheck(int64_t rows);

/// Weight of value column `col` in a row whose key is `key`.
inline double Weight(int64_t key, int col) {
  const uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull +
                     static_cast<uint64_t>(col) * 0xC2B2AE3D27D4EB4Full;
  return 1.0 + static_cast<double>((h >> 40) % 1021) / 1021.0;
}

/// Accumulates the reference side of a KeyedSum.
inline void AddKeyedTerm(KeyedSum* s, int64_t key, int col, double value) {
  const double term = Weight(key, col) * value;
  s->sum += term;
  s->abs_sum += term < 0 ? -term : term;
}

/// Column `name` of `r` as doubles (contiguous fast path when available).
std::vector<double> DoubleColumn(const rma::Relation& r,
                                 const std::string& name);

/// Order-independent, bit-exact fingerprint of a table: row count and the
/// wrapping sum of one FNV-1a hash per row over every value's bits.
struct TableFingerprint {
  int64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const TableFingerprint& o) const {
    return rows == o.rows && hash == o.hash;
  }
};
TableFingerprint Fingerprint(const rma::Relation& r);
/// The hash Fingerprint gives a row of numeric values.
uint64_t RowHash(const std::vector<double>& values);

// --- small dense linear algebra for the references ---------------------------

/// G = X^T X for row-major X (n x k).
std::vector<double> Gram(const std::vector<double>& x, int64_t n, int k);
/// X^T y for row-major X (n x k).
std::vector<double> CrossVec(const std::vector<double>& x,
                             const std::vector<double>& y, int64_t n, int k);
/// Upper-triangular R with positive diagonal and G = R^T R; false when G is
/// not positive definite.
bool Cholesky(const std::vector<double>& g, int k, std::vector<double>* r);
/// Solves G b = rhs given G's Cholesky factor R.
std::vector<double> CholeskySolve(const std::vector<double>& r, int k,
                                  const std::vector<double>& rhs);
/// Row `x` (length k) times R^{-1}: the row of the unique thin Q factor
/// with positive diag(R), since X = Q R.
void SolveRowUpper(const std::vector<double>& r, int k, const double* x,
                   double* q);

}  // namespace rmabench

#endif  // RMABENCH_CHECKS_H_
