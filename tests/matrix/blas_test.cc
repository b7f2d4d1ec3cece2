// Level-3 kernels: golden values and agreement with naive reference loops
// over randomized shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "matrix/blas.h"
#include "matrix/parallel.h"
#include "test_util.h"
#include "util/random.h"

namespace rma {
namespace {

DenseMatrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-3, 3);
  }
  return m;
}

DenseMatrix NaiveMatMul(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c(a.rows(), b.cols(), 0.0);
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (int64_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
  }
  return c;
}

struct GemmCase {
  int64_t m;
  int64_t k;
  int64_t n;
  uint64_t seed;
};

class GemmProperty : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmProperty, MatchesNaiveReference) {
  const GemmCase c = GetParam();
  const DenseMatrix a = RandomMatrix(c.m, c.k, c.seed);
  const DenseMatrix b = RandomMatrix(c.k, c.n, c.seed + 100);
  const DenseMatrix fast = blas::MatMul(a, b).ValueOrDie();
  EXPECT_TRUE(fast.AllClose(NaiveMatMul(a, b), 1e-9));
}

TEST_P(GemmProperty, CrossProdIsTransposedMatMul) {
  const GemmCase c = GetParam();
  const DenseMatrix a = RandomMatrix(c.k, c.m, c.seed);
  const DenseMatrix b = RandomMatrix(c.k, c.n, c.seed + 200);
  const DenseMatrix cp = blas::CrossProd(a, b).ValueOrDie();
  EXPECT_TRUE(cp.AllClose(NaiveMatMul(a.Transposed(), b), 1e-9));
}

TEST_P(GemmProperty, OuterProdIsMatMulWithTranspose) {
  const GemmCase c = GetParam();
  const DenseMatrix a = RandomMatrix(c.m, c.k, c.seed);
  const DenseMatrix b = RandomMatrix(c.n, c.k, c.seed + 300);
  const DenseMatrix op = blas::OuterProd(a, b).ValueOrDie();
  EXPECT_TRUE(op.AllClose(NaiveMatMul(a, b.Transposed()), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmProperty,
    ::testing::Values(GemmCase{1, 1, 1, 1}, GemmCase{3, 4, 5, 2},
                      GemmCase{16, 16, 16, 3}, GemmCase{33, 7, 12, 4},
                      GemmCase{64, 100, 17, 5}, GemmCase{200, 2, 3, 6}));

TEST(Blas, SyrkMatchesCrossProdWithSelf) {
  const DenseMatrix a = RandomMatrix(40, 12, 7);
  const DenseMatrix syrk = blas::Syrk(a);
  const DenseMatrix ref = blas::CrossProd(a, a).ValueOrDie();
  EXPECT_TRUE(syrk.AllClose(ref, 1e-9));
  for (int64_t i = 0; i < 12; ++i) {
    for (int64_t j = 0; j < 12; ++j) EXPECT_EQ(syrk(i, j), syrk(j, i));
  }
}

TEST(Blas, ZeroCoefficientSkipsNonFiniteRows) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // k = 6: coefficients 0..3 take the grouped rank-4 path, 4..5 the scalar
  // tail. A zero coefficient must skip its B row entirely in both, so
  // inf/NaN parked there never reach the output (0 * inf would be NaN).
  DenseMatrix a(2, 6, 1.0);
  a(0, 1) = 0.0;  // inside the rank-4 group
  a(0, 5) = 0.0;  // in the scalar tail
  DenseMatrix b(6, 3, 1.0);
  for (int64_t j = 0; j < 3; ++j) {
    b(1, j) = inf;
    b(5, j) = nan;
  }
  const DenseMatrix c = blas::MatMul(a, b).ValueOrDie();
  for (int64_t j = 0; j < 3; ++j) EXPECT_EQ(c(0, j), 4.0);
  // Nonzero coefficients still see the non-finite rows.
  EXPECT_TRUE(std::isnan(c(1, 0)));

  // CrossProd groups over rows of A and B: zeros in a column of A must skip
  // the matching B row.
  DenseMatrix a2(6, 2, 1.0);
  a2(1, 0) = 0.0;
  a2(5, 0) = 0.0;
  const DenseMatrix cp = blas::CrossProd(a2, b).ValueOrDie();
  for (int64_t j = 0; j < 3; ++j) EXPECT_EQ(cp(0, j), 4.0);
  EXPECT_TRUE(std::isnan(cp(1, 0)));

  // Syrk: a zero entry must skip the matching row of A itself, even when
  // that row holds inf in another column of the same rank-4 group.
  DenseMatrix a3(6, 2, 1.0);
  a3(1, 0) = 0.0;
  a3(1, 1) = inf;
  const DenseMatrix sy = blas::Syrk(a3);
  EXPECT_EQ(sy(0, 0), 5.0);
  EXPECT_EQ(sy(0, 1), 5.0);
  EXPECT_EQ(sy(1, 0), 5.0);
  EXPECT_TRUE(std::isinf(sy(1, 1)));
}

TEST(Blas, DimensionMismatchesRejected) {
  EXPECT_STATUS(kInvalidArgument,
                blas::MatMul(DenseMatrix(2, 3), DenseMatrix(4, 2)));
  EXPECT_STATUS(kInvalidArgument,
                blas::CrossProd(DenseMatrix(2, 3), DenseMatrix(4, 2)));
  EXPECT_STATUS(kInvalidArgument,
                blas::OuterProd(DenseMatrix(2, 3), DenseMatrix(2, 4)));
  EXPECT_STATUS(kInvalidArgument,
                blas::Add(DenseMatrix(2, 3), DenseMatrix(3, 2)));
  EXPECT_STATUS(kInvalidArgument,
                blas::MatVec(DenseMatrix(2, 3), std::vector<double>(2)));
}

TEST(Blas, ElementwiseOps) {
  DenseMatrix a(2, 2);
  DenseMatrix b(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  b(0, 0) = 10;
  b(0, 1) = 20;
  b(1, 0) = 30;
  b(1, 1) = 40;
  const DenseMatrix sum = blas::Add(a, b).ValueOrDie();
  const DenseMatrix diff = blas::Sub(b, a).ValueOrDie();
  const DenseMatrix prod = blas::ElemMul(a, b).ValueOrDie();
  EXPECT_EQ(sum(1, 1), 44);
  EXPECT_EQ(diff(0, 1), 18);
  EXPECT_EQ(prod(1, 0), 90);
}

TEST(Blas, ThreadCountsAreBitIdentical) {
  // Each kernel splits its output rows across workers; every output element
  // must follow one accumulation order whatever the split. The shapes give
  // every kernel several chunks at 2, 3 and 4 workers and leave ragged tails
  // in the rank-4 row groups (203 rows) and in the vector lanes (29, 67 and
  // 301 columns).
  const DenseMatrix a = RandomMatrix(1003, 37, 71);
  const DenseMatrix b = RandomMatrix(37, 29, 72);
  const DenseMatrix wide = RandomMatrix(203, 750, 73);
  const DenseMatrix narrow = RandomMatrix(203, 67, 74);
  const DenseMatrix sq = RandomMatrix(203, 301, 75);
  const auto run = [&](int threads) {
    ScopedThreadBudget budget(threads);
    return std::vector<DenseMatrix>{blas::MatMul(a, b).ValueOrDie(),
                                    blas::CrossProd(wide, narrow).ValueOrDie(),
                                    blas::Syrk(sq)};
  };
  const std::vector<DenseMatrix> one = run(1);
  for (int threads : {2, 3, 4}) {
    const std::vector<DenseMatrix> got = run(threads);
    for (size_t i = 0; i < one.size(); ++i) {
      ASSERT_EQ(got[i].rows(), one[i].rows());
      ASSERT_EQ(got[i].cols(), one[i].cols());
      EXPECT_EQ(std::memcmp(got[i].data(), one[i].data(),
                            static_cast<size_t>(one[i].rows() * one[i].cols()) *
                                sizeof(double)),
                0)
          << "kernel " << i << " threads=" << threads;
    }
  }
}

TEST(Blas, MatVec) {
  DenseMatrix a(2, 3);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) a(i, j) = i * 3 + j + 1.0;
  }
  const std::vector<double> y =
      blas::MatVec(a, {1.0, 0.0, -1.0}).ValueOrDie();
  EXPECT_NEAR(y[0], 1 - 3, 1e-12);
  EXPECT_NEAR(y[1], 4 - 6, 1e-12);
}

TEST(Blas, FrobeniusNorm) {
  DenseMatrix a(2, 2);
  a(0, 0) = 3;
  a(1, 1) = 4;
  EXPECT_NEAR(blas::FrobeniusNorm(a), 5.0, 1e-12);
}

TEST(DenseMatrix, TransposeRoundTrip) {
  const DenseMatrix a = RandomMatrix(13, 29, 8);
  EXPECT_TRUE(a.Transposed().Transposed().AllClose(a, 0.0));
  const DenseMatrix t = a.Transposed();
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) EXPECT_EQ(t(j, i), a(i, j));
  }
}

TEST(DenseMatrix, ColRowAccessors) {
  DenseMatrix a(3, 2);
  a(0, 0) = 1;
  a(1, 0) = 2;
  a(2, 0) = 3;
  a(0, 1) = 4;
  a(1, 1) = 5;
  a(2, 1) = 6;
  EXPECT_EQ(a.Col(0), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(a.Row(1), (std::vector<double>{2, 5}));
  a.SetCol(1, {7, 8, 9});
  EXPECT_EQ(a(2, 1), 9);
}

TEST(DenseMatrix, FromRowMajorWrapsBuffer) {
  const DenseMatrix m =
      DenseMatrix::FromRowMajor(2, 2, {1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

}  // namespace
}  // namespace rma
