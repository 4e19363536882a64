// Unit tests for the tensor library.
#include <gtest/gtest.h>

#include "tensor/tensor.hpp"
#include "util/error.hpp"

namespace pfi {
namespace {

TEST(Tensor, DefaultIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(Tensor, ZerosShapeAndContents) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.numel(), 120);
  EXPECT_EQ(t.dim(), 4);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 5);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FullAndOnes) {
  EXPECT_EQ(Tensor::full({3}, 2.5f)[1], 2.5f);
  EXPECT_EQ(Tensor::ones({3})[2], 1.0f);
}

TEST(Tensor, ArangeValues) {
  const Tensor t = Tensor::arange(5);
  for (std::int64_t i = 0; i < 5; ++i) EXPECT_EQ(t[i], static_cast<float>(i));
}

TEST(Tensor, CopySharesStorageCloneDoesNot) {
  Tensor a({4});
  Tensor b = a;        // shares (torch semantics)
  Tensor c = a.clone();
  b[0] = 42.0f;
  EXPECT_EQ(a[0], 42.0f);
  EXPECT_EQ(c[0], 0.0f);
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_FALSE(a.shares_storage_with(c));
}

TEST(Tensor, NchwAccessorRoundTrip) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t.at(1, 2, 3, 4), 7.0f);
  EXPECT_EQ(t[t.offset_of(1, 2, 3, 4)], 7.0f);
  // Last element of the buffer.
  EXPECT_EQ(t.offset_of(1, 2, 3, 4), t.numel() - 1);
}

TEST(Tensor, AccessorBoundsChecked) {
  Tensor t({2, 3, 4, 5});
  EXPECT_THROW(t.at(2, 0, 0, 0), Error);
  EXPECT_THROW(t.at(0, 3, 0, 0), Error);
  EXPECT_THROW(t.at(0, 0, 4, 0), Error);
  EXPECT_THROW(t.at(0, 0, 0, 5), Error);
  EXPECT_THROW(t.at(-1, 0, 0, 0), Error);
  EXPECT_THROW(t[120], Error);
}

TEST(Tensor, ReshapeSharesAndValidates) {
  Tensor t({2, 6});
  Tensor r = t.reshape({3, 4});
  EXPECT_TRUE(t.shares_storage_with(r));
  r.at(0, 0) = 9.0f;
  EXPECT_EQ(t.at(0, 0), 9.0f);
  EXPECT_THROW(t.reshape({5, 5}), Error);
}

TEST(Tensor, BatchRowCopiesOneRowAndCopyRowFromWritesIt) {
  Tensor t = Tensor::arange(24).reshape({3, 2, 2, 2});
  const Tensor row = t.batch_row(1);
  EXPECT_EQ(row.shape(), (Shape{1, 2, 2, 2}));
  EXPECT_FALSE(row.shares_storage_with(t));
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(row[i], 8.0f + i);
  EXPECT_THROW(t.batch_row(3), Error);
  EXPECT_THROW(t.batch_row(-1), Error);

  t.copy_row_from(2, row);
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(t[16 + i], 8.0f + i);
    EXPECT_EQ(t[i], static_cast<float>(i)) << "other rows untouched";
  }
  EXPECT_THROW(t.copy_row_from(3, row), Error);
  EXPECT_THROW(t.copy_row_from(0, Tensor({1, 2, 2, 1})), Error);
  EXPECT_THROW(t.copy_row_from(0, Tensor({2, 2, 2, 2})), Error);
}

TEST(Tensor, FillCopyFromAdd) {
  Tensor a({3}), b({3});
  a.fill(2.0f);
  b.fill(3.0f);
  a.add_(b, 2.0f);
  EXPECT_EQ(a[0], 8.0f);
  a.copy_from(b);
  EXPECT_EQ(a[1], 3.0f);
  Tensor c({4});
  EXPECT_THROW(a.copy_from(c), Error);
  EXPECT_THROW(a.add_(c), Error);
}

TEST(Tensor, Reductions) {
  Tensor t({4}, std::vector<float>{1.0f, -2.0f, 3.0f, 0.5f});
  EXPECT_FLOAT_EQ(t.sum(), 2.5f);
  EXPECT_FLOAT_EQ(t.mean(), 0.625f);
  EXPECT_EQ(t.max(), 3.0f);
  EXPECT_EQ(t.min(), -2.0f);
  EXPECT_EQ(t.argmax(), 2);
  EXPECT_FLOAT_EQ(t.squared_norm(), 1.0f + 4.0f + 9.0f + 0.25f);
}

TEST(Tensor, ApplyAndScale) {
  Tensor t({3}, std::vector<float>{1.0f, 2.0f, 3.0f});
  t.apply_([](float v) { return v * v; });
  EXPECT_EQ(t[2], 9.0f);
  t.scale_(0.5f);
  EXPECT_EQ(t[2], 4.5f);
}

TEST(Tensor, MatmulKnownValues) {
  Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Tensor, MatmulValidatesShapes) {
  Tensor a({2, 3}), b({4, 2});
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(Tensor, MatmulIdentity) {
  Rng rng(1);
  Tensor a = Tensor::rand({5, 5}, rng, -1.0f, 1.0f);
  Tensor eye({5, 5});
  for (int i = 0; i < 5; ++i) eye.at(i, i) = 1.0f;
  EXPECT_TRUE(allclose(matmul(a, eye), a));
  EXPECT_TRUE(allclose(matmul(eye, a), a));
}

TEST(Tensor, AddMulFreeFunctions) {
  Tensor a({2}, std::vector<float>{1.0f, 2.0f});
  Tensor b({2}, std::vector<float>{3.0f, 4.0f});
  EXPECT_EQ(add(a, b)[1], 6.0f);
  EXPECT_EQ(mul(a, b)[1], 8.0f);
  // Inputs unchanged.
  EXPECT_EQ(a[1], 2.0f);
}

TEST(Tensor, AllcloseRespectsShapeAndTolerance) {
  Tensor a({2}), b({2}), c({3});
  b[0] = 1e-6f;
  EXPECT_TRUE(allclose(a, b, 1e-5f));
  EXPECT_FALSE(allclose(a, b, 1e-7f));
  EXPECT_FALSE(allclose(a, c));
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a({3}, std::vector<float>{1.0f, 2.0f, 3.0f});
  Tensor b({3}, std::vector<float>{1.5f, 2.0f, 2.0f});
  EXPECT_FLOAT_EQ(a.max_abs_diff(b), 1.0f);
}

TEST(Tensor, RandWithinBoundsAndSeeded) {
  Rng r1(42), r2(42);
  Tensor a = Tensor::rand({100}, r1, -2.0f, 2.0f);
  Tensor b = Tensor::rand({100}, r2, -2.0f, 2.0f);
  EXPECT_TRUE(allclose(a, b, 0.0f));
  for (float v : a.data()) {
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 2.0f);
  }
}

TEST(Tensor, ShapeToString) {
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
  EXPECT_EQ(Tensor({2, 3}).to_string(), "Tensor[2, 3]");
}

TEST(Tensor, NegativeDimensionRejected) {
  EXPECT_THROW(Tensor({-1, 3}), Error);
}

}  // namespace
}  // namespace pfi
