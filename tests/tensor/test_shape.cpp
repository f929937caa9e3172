#include "nodetr/tensor/shape.hpp"

#include <gtest/gtest.h>

namespace nt = nodetr::tensor;

TEST(Shape, RankAndDims) {
  nt::Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(1), 3);
  EXPECT_EQ(s.dim(2), 4);
  EXPECT_EQ(s[2], 4);
}

TEST(Shape, NegativeAxisCountsFromBack) {
  nt::Shape s{2, 3, 4};
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.dim(-3), 2);
}

TEST(Shape, OutOfRangeAxisThrows) {
  nt::Shape s{2, 3};
  EXPECT_THROW((void)s.dim(2), std::out_of_range);
  EXPECT_THROW((void)s.dim(-3), std::out_of_range);
}

TEST(Shape, Numel) {
  EXPECT_EQ((nt::Shape{2, 3, 4}).numel(), 24);
  EXPECT_EQ((nt::Shape{}).numel(), 1);  // rank-0 scalar
  EXPECT_EQ((nt::Shape{0, 5}).numel(), 0);
}

TEST(Shape, RowMajorStrides) {
  nt::Shape s{2, 3, 4};
  auto st = s.strides();
  ASSERT_EQ(st.size(), 3u);
  EXPECT_EQ(st[0], 12);
  EXPECT_EQ(st[1], 4);
  EXPECT_EQ(st[2], 1);
}

TEST(Shape, Equality) {
  EXPECT_EQ((nt::Shape{2, 3}), (nt::Shape{2, 3}));
  EXPECT_NE((nt::Shape{2, 3}), (nt::Shape{3, 2}));
}

TEST(Shape, NegativeExtentRejected) {
  EXPECT_THROW(nt::Shape({2, -1}), std::invalid_argument);
}

TEST(Shape, ToString) { EXPECT_EQ((nt::Shape{2, 3}).to_string(), "[2, 3]"); }
