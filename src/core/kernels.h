#ifndef RMA_CORE_KERNELS_H_
#define RMA_CORE_KERNELS_H_

#include <vector>

#include "core/ops.h"
#include "matrix/dense_matrix.h"
#include "storage/bat.h"
#include "util/result.h"

namespace rma::kernel {

/// Column-major working format of the BAT execution path: one double vector
/// per application column (a sorted BAT tail). No copy into a contiguous
/// 2-D array is needed — this is the "no-copy" RMA+BAT mode of Sec. 7.3.
using Columns = std::vector<std::vector<double>>;

int64_t NumRows(const Columns& c);

/// Gather to row-major (the BATs -> "MKL format" copy of Fig. 14).
DenseMatrix ColumnsToMatrix(const Columns& c);
/// Scatter a dense result back to columns (the copy back to BATs).
Columns MatrixToColumns(const DenseMatrix& m);

// --- column-at-a-time (BAT) kernels ---------------------------------------

/// Gauss-Jordan inversion over columns: the paper's Algorithm 2, extended
/// with column pivoting for numerical robustness. In/out: `a` holds the
/// square matrix as columns and is replaced by its inverse.
Status BatInv(Columns* a);

/// Modified Gram-Schmidt QR over columns (the Gander baseline the paper
/// runs on BATs, Sec. 8.3). Produces thin Q and R (as columns), with
/// diag(R) >= 0 to match the dense Householder kernel.
Status BatQr(const Columns& a, Columns* q, Columns* r);

/// Determinant by Gaussian elimination over columns (column pivoting).
Result<double> BatDet(Columns a);

/// Matrix product A·B where each result column is a linear combination of
/// A's columns (vectorized per column).
Result<Columns> BatMmu(const Columns& a, const Columns& b);

/// Cross product AᵀB over BATs. The paper observes that cpd cannot be
/// reduced to whole-column BAT operations: every result cell is a dot
/// product fetched element by element (BUNfetch). The per-element virtual
/// accessor models that cost, which is why delegating cpd to the contiguous
/// kernels pays off 24-70x on wide relations (Sec. 8.6(3), Fig. 17b).
Result<Columns> BatCpd(const std::vector<BatPtr>& a,
                       const std::vector<BatPtr>& b);

/// Least-squares / exact solve on columns (via BatQr + back substitution).
Result<Columns> BatSol(const Columns& a, const Columns& b);

/// True if the op has a genuine column-at-a-time implementation; the
/// remaining complex ops (svd/eigen/chf/opd) fall back to the contiguous
/// kernels even under KernelPolicy::kBat (counted as transform time).
bool HasBatKernel(MatrixOp op);

// --- contiguous (dense) kernel dispatch ------------------------------------

/// Householder QR over the columns themselves (HouseholderQrInPlace: TSQR
/// for tall inputs). `a` becomes the thin Q when `form_q`, scratch
/// otherwise; `r` must hold k columns of k rows and receives R.
Status DenseQr(Columns* a, Columns* r, bool form_q);

/// Computes the base result of `op` on dense input(s); `b` is null for
/// unary operations. Shape prerequisites are validated by the caller.
Result<DenseMatrix> DenseCompute(MatrixOp op, const DenseMatrix& a,
                                 const DenseMatrix* b);

}  // namespace rma::kernel

#endif  // RMA_CORE_KERNELS_H_
