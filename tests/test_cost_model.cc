#include "optimizer/cost_model.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace pdx {
namespace {

using testing::SmallTpcdSchema;

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest() : schema_(SmallTpcdSchema()), model_(schema_) {}
  Schema schema_;
  CostModel model_;
};

TEST_F(CostModelTest, HeapScanGrowsWithTableSize) {
  EXPECT_GT(model_.HeapScanCost(kLineitem), model_.HeapScanCost(kOrders));
  EXPECT_GT(model_.HeapScanCost(kOrders), model_.HeapScanCost(kNation));
  EXPECT_GT(model_.HeapScanCost(kRegion), 0.0);
}

TEST_F(CostModelTest, SeekCheaperThanScanForSelectivePredicates) {
  Index i;
  i.table = kCustomer;
  i.key_columns = {0};  // c_custkey
  double seek = model_.IndexSeekCost(i, 1.0, /*covering=*/false);
  // An order of magnitude at the small test scale factor; the full-scale
  // schema gives several orders (checked in the what-if tests).
  EXPECT_LT(seek, model_.HeapScanCost(kCustomer) / 10.0);
}

TEST_F(CostModelTest, SeekCostGrowsWithMatchingRows) {
  Index i;
  i.table = kOrders;
  i.key_columns = {1};
  double few = model_.IndexSeekCost(i, 10.0, true);
  double many = model_.IndexSeekCost(i, 10000.0, true);
  EXPECT_GT(many, few);
}

TEST_F(CostModelTest, NonCoveringSeekAddsLookups) {
  Index i;
  i.table = kOrders;
  i.key_columns = {1};
  EXPECT_GT(model_.IndexSeekCost(i, 500.0, false),
            model_.IndexSeekCost(i, 500.0, true));
}

TEST_F(CostModelTest, RangeScanGrowsWithFraction) {
  Index i;
  i.table = kLineitem;
  i.key_columns = {10};
  double narrow = model_.IndexRangeScanCost(i, 0.01, 1000.0, true);
  double wide = model_.IndexRangeScanCost(i, 0.5, 50000.0, true);
  EXPECT_GT(wide, narrow);
}

TEST_F(CostModelTest, SortSuperlinear) {
  double s1 = model_.SortCost(1000.0);
  double s2 = model_.SortCost(2000.0);
  EXPECT_GT(s2, 2.0 * s1);
  EXPECT_EQ(model_.SortCost(1.0), 0.0);
  EXPECT_EQ(model_.SortCost(0.0), 0.0);
}

TEST_F(CostModelTest, HashJoinLinearInInputs) {
  double base = model_.HashJoinCost(1000.0, 1000.0);
  EXPECT_NEAR(model_.HashJoinCost(2000.0, 2000.0), 2.0 * base, 1e-9);
}

TEST_F(CostModelTest, JoinCardinalityContainment) {
  // orders JOIN lineitem on orderkey: every lineitem matches one order, so
  // output ~ |lineitem|.
  double card = model_.JoinCardinality(
      static_cast<double>(schema_.table(kOrders).row_count),
      static_cast<double>(schema_.table(kLineitem).row_count),
      {static_cast<TableId>(kOrders), 0},
      {static_cast<TableId>(kLineitem), 0});
  double lineitem_rows = static_cast<double>(schema_.table(kLineitem).row_count);
  EXPECT_NEAR(card, lineitem_rows, lineitem_rows * 0.05);
}

TEST_F(CostModelTest, GroupCardinalityCappedByRows) {
  ColumnRef flag{static_cast<TableId>(kLineitem),
                 schema_.table(kLineitem).FindColumn("l_returnflag")};
  const ColumnRef by_flag[] = {flag};
  EXPECT_LE(model_.GroupCardinality(10.0, by_flag), 10.0);
  EXPECT_NEAR(model_.GroupCardinality(1e9, by_flag), 3.0, 1e-9);
  EXPECT_EQ(model_.GroupCardinality(100.0, {}), 1.0);
}

TEST_F(CostModelTest, ScanPagesCostAtLeastOnePage) {
  EXPECT_GE(model_.ScanPagesCost(0.0, 0.0), model_.constants().seq_page);
}

TEST_F(CostModelTest, HashAggregateCheaperThanSortForManyRows) {
  double rows = 1e6;
  EXPECT_LT(model_.HashAggregateCost(rows, 100.0), model_.SortCost(rows));
}

}  // namespace
}  // namespace pdx
