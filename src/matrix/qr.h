#ifndef RMA_MATRIX_QR_H_
#define RMA_MATRIX_QR_H_

#include <cstdint>

#include "matrix/dense_matrix.h"
#include "util/result.h"

namespace rma {

/// Row-block height of the tall-skinny QR (TSQR): a block of this many rows
/// and a few dozen columns stays resident in a core's L2 while it is
/// factored.
constexpr int64_t kTsqrBlockRows = 4096;
/// Widest input that takes the TSQR path. Wider inputs make the serial
/// merge of the stacked R factors a large share of the work: on 4 cores
/// TSQR beat the plain Householder by 1.35x at 50 000×256 but only by 1.05x
/// at 30 000×400.
constexpr int64_t kTsqrMaxCols = 256;

/// Number of row blocks the in-place QR splits an m×k input into: m /
/// kTsqrBlockRows when that is at least two and k ≤ kTsqrMaxCols, else 1 (the
/// plain Householder). Depends on the shape alone, never on threads.
int64_t QrRowBlocks(int64_t m, int64_t k);

/// Householder QR of the m×k matrix (m ≥ k) stored as k columns of m
/// contiguous doubles — the layout of BAT tails, so callers factor gathered
/// columns without a row-major copy. On return `r_cols[j][0..k)` holds column
/// j of R (k×k upper triangular, diag(R) ≥ 0); with `form_q` the input
/// columns hold the thin Q, otherwise they hold scratch.
///
/// With QrRowBlocks(m, k) = nb > 1 this is TSQR: each row block
/// [m·b/nb, m·(b+1)/nb) is factored in place (blocks in parallel), the
/// stacked nb·k×k block R factors get one serial Householder QR that yields
/// R, and each block's Q is its reflectors applied to its k×k slice of the
/// merged Q. Block boundaries depend on m and k only, so results are
/// bit-identical across thread budgets; they agree with the unblocked
/// factorization to rounding (both are backward stable). With nb = 1 the
/// plain Householder runs, its reflector updates spread over `threads`
/// workers (0 = the ambient budget, 1 = sequential).
Status HouseholderQrInPlace(double* const* cols, int64_t m, int64_t k,
                            double* const* r_cols, bool form_q,
                            int threads = 0);

/// Householder QR of an m×k matrix with m ≥ k. Produces the thin factors:
/// Q is m×k with orthonormal columns, R is k×k upper triangular. A wrapper
/// over HouseholderQrInPlace on a column-major copy of `a`.
///
/// The factorization is sign-normalized (diag(R) ≥ 0), which makes it unique
/// for full-rank inputs. Uniqueness is what allows the `qqr` sort-avoidance
/// optimization (Sec. 8.1): QR of a row permutation P·A yields P·Q with the
/// same R, so results agree up to row order, which origins capture.
///
/// `threads` caps the workers (0 = the ambient budget, 1 = sequential — the
/// competitor simulations use 1 to model R's single-threaded LINPACK qr()).
Status HouseholderQr(const DenseMatrix& a, DenseMatrix* q, DenseMatrix* r,
                     int threads = 0);

/// Modified Gram-Schmidt QR with the same contract as HouseholderQr. This is
/// the column-at-a-time algorithm the paper runs over BATs (Sec. 8.3, the
/// Gander baseline); exposed here for testing both against each other.
Status GramSchmidtQr(const DenseMatrix& a, DenseMatrix* q, DenseMatrix* r);

/// Full orthogonal factor: m×m Q whose first k columns equal the plain
/// (unblocked) Householder thin Q (used to complete USV's full
/// left-singular basis).
Status FullQ(const DenseMatrix& a, DenseMatrix* q_full, int threads = 0);

}  // namespace rma

#endif  // RMA_MATRIX_QR_H_
