// Unit tests for the Volcano operators, driven directly (no optimizer):
// scans, filters, sorts, all join algorithms, grouping, distinct, project.

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "common/random.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "exec/order_check.h"
#include "storage/database.h"

namespace ordopt {
namespace {

class RowSource : public Operator {
 public:
  RowSource(std::vector<ColumnId> layout, std::vector<Row> rows) {
    layout_ = std::move(layout);
    rows_ = std::move(rows);
  }
  void OpenImpl() override { pos_ = 0; }
  bool NextBatchImpl(RowBatch* out) override {
    return FillBatch(out, [this](Row* row) {
      if (pos_ >= rows_.size()) return false;
      *row = rows_[pos_++];
      return true;
    });
  }

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

std::vector<Row> Drain(Operator* op) {
  op->Open();
  std::vector<Row> out;
  Row row;
  while (op->Next(&row)) out.push_back(row);
  op->Close();
  return out;
}

Row R(std::initializer_list<int64_t> vals) {
  Row row;
  for (int64_t v : vals) row.push_back(Value::Int(v));
  return row;
}

std::unique_ptr<Table> MakeTable(int rows, bool clustered_index) {
  TableDef def;
  def.name = "t";
  def.columns = {{"k", DataType::kInt64}, {"v", DataType::kInt64}};
  def.AddUniqueKey({"k"});
  def.AddIndex("t_k", {"k"}, /*unique=*/true, clustered_index);
  auto t = std::make_unique<Table>(std::move(def));
  // Insert in reverse so clustered reordering is observable.
  for (int i = rows - 1; i >= 0; --i) {
    t->AppendRow({Value::Int(i), Value::Int(i * 2)});
  }
  ORDOPT_CHECK(t->BuildIndexes().ok());
  return t;
}

TEST(ExecScan, TableScanCountsPages) {
  auto t = MakeTable(200, true);
  RuntimeMetrics m;
  TableScanOp scan(*t, 0, &m);
  std::vector<Row> rows = Drain(&scan);
  EXPECT_EQ(rows.size(), 200u);
  EXPECT_EQ(m.rows_scanned, 200);
  // 200 rows / 64 per page = 4 pages; first access counts as random.
  EXPECT_EQ(m.seq_pages + m.random_pages, 4);
}

TEST(ExecScan, IndexScanOrderedAndReverse) {
  auto t = MakeTable(100, false);
  RuntimeMetrics m;
  IndexScanOp fwd(*t, 0, 0, /*reverse=*/false, {}, &m);
  std::vector<Row> rows = Drain(&fwd);
  ASSERT_EQ(rows.size(), 100u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].AsInt(), static_cast<int64_t>(i));
  }
  IndexScanOp rev(*t, 0, 0, /*reverse=*/true, {}, &m);
  rows = Drain(&rev);
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(rows[0][0].AsInt(), 99);
  EXPECT_EQ(rows[99][0].AsInt(), 0);
}

Predicate MakeRangePred(ColumnId col, BinOp op, int64_t bound) {
  BoundExpr e = BoundExpr::Binary(
      op, BoundExpr::Column(col, DataType::kInt64, "c"),
      BoundExpr::Literal(Value::Int(bound)), DataType::kInt64);
  return ClassifyPredicate(std::move(e));
}

TEST(ExecScan, IndexRangeScans) {
  auto t = MakeTable(100, true);
  RuntimeMetrics m;
  {
    IndexScanOp op(*t, 0, 0, false, {MakeRangePred({0, 0}, BinOp::kGt, 89)},
                   &m);
    std::vector<Row> rows = Drain(&op);
    ASSERT_EQ(rows.size(), 10u);
    EXPECT_EQ(rows[0][0].AsInt(), 90);
  }
  {
    IndexScanOp op(*t, 0, 0, false, {MakeRangePred({0, 0}, BinOp::kGe, 90)},
                   &m);
    EXPECT_EQ(Drain(&op).size(), 10u);
  }
  {
    IndexScanOp op(*t, 0, 0, false, {MakeRangePred({0, 0}, BinOp::kLt, 10)},
                   &m);
    std::vector<Row> rows = Drain(&op);
    ASSERT_EQ(rows.size(), 10u);
    EXPECT_EQ(rows.back()[0].AsInt(), 9);
  }
  {
    IndexScanOp op(*t, 0, 0, false, {MakeRangePred({0, 0}, BinOp::kEq, 42)},
                   &m);
    std::vector<Row> rows = Drain(&op);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][1].AsInt(), 84);
  }
}

TEST(ExecSort, SortsWithDirectionsAndCountsComparisons) {
  std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  auto src = std::make_unique<RowSource>(
      layout, std::vector<Row>{R({2, 1}), R({1, 5}), R({2, 0}), R({1, 2})});
  RuntimeMetrics m;
  SortOp sort(std::move(src),
              OrderSpec{{ColumnId(0, 0)},
                        {ColumnId(0, 1), SortDirection::kDescending}},
              &m);
  std::vector<Row> rows = Drain(&sort);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], R({1, 5}));
  EXPECT_EQ(rows[1], R({1, 2}));
  EXPECT_EQ(rows[2], R({2, 1}));
  EXPECT_EQ(rows[3], R({2, 0}));
  EXPECT_GT(m.comparisons, 0);
  EXPECT_EQ(m.sorts_performed, 1);
  EXPECT_EQ(m.rows_sorted, 4);
}

TEST(ExecMergeJoin, ManyToManyGroups) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}, {1, 1}};
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{R({1}), R({2}), R({2}), R({4})});
  auto inner = std::make_unique<RowSource>(
      li, std::vector<Row>{R({2, 10}), R({2, 20}), R({3, 30}), R({4, 40})});
  RuntimeMetrics m;
  MergeJoinOp join(std::move(outer), std::move(inner),
                   {{ColumnId(0, 0), ColumnId(1, 0)}}, JoinKind::kInner, &m);
  std::vector<Row> rows = Drain(&join);
  // 2 outer 2s x 2 inner 2s + 1x1 for key 4 = 5 rows.
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0], R({2, 2, 10}));
  EXPECT_EQ(rows[1], R({2, 2, 20}));
  EXPECT_EQ(rows[4], R({4, 4, 40}));
}

TEST(ExecMergeJoin, NullKeysNeverMatch) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}};
  Row null_row;
  null_row.push_back(Value::Null());
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{null_row, R({1})});
  auto inner = std::make_unique<RowSource>(
      li, std::vector<Row>{null_row, R({1})});
  RuntimeMetrics m;
  MergeJoinOp join(std::move(outer), std::move(inner),
                   {{ColumnId(0, 0), ColumnId(1, 0)}}, JoinKind::kInner, &m);
  EXPECT_EQ(Drain(&join).size(), 1u);
}

TEST(ExecHashJoin, MatchesAndNulls) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}, {1, 1}};
  Row null_row;
  null_row.push_back(Value::Null());
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{R({5}), null_row, R({6})});
  auto inner = std::make_unique<RowSource>(
      li, std::vector<Row>{R({5, 1}), R({5, 2}), R({7, 3})});
  HashJoinOp join(std::move(outer), std::move(inner),
                  {{ColumnId(0, 0), ColumnId(1, 0)}}, JoinKind::kInner);
  std::vector<Row> rows = Drain(&join);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 5);
}

TEST(ExecIndexNLJoin, ProbesAndConcatenates) {
  auto t = MakeTable(50, true);
  std::vector<ColumnId> lo = {{9, 0}};
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{R({3}), R({3}), R({49}), R({77})});
  RuntimeMetrics m;
  IndexNLJoinOp join(std::move(outer), *t, 0, 0,
                     {{ColumnId(9, 0), ColumnId(0, 0)}}, &m);
  std::vector<Row> rows = Drain(&join);
  ASSERT_EQ(rows.size(), 3u);  // 77 misses
  EXPECT_EQ(rows[0], R({3, 3, 6}));
  EXPECT_EQ(rows[2], R({49, 49, 98}));
  EXPECT_EQ(m.index_probes, 4);
}

TEST(ExecNestedLoopJoin, CrossProduct) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}};
  auto outer =
      std::make_unique<RowSource>(lo, std::vector<Row>{R({1}), R({2})});
  auto inner =
      std::make_unique<RowSource>(li, std::vector<Row>{R({10}), R({20})});
  NestedLoopJoinOp join(std::move(outer), std::move(inner), JoinKind::kInner);
  EXPECT_EQ(Drain(&join).size(), 4u);
}

TEST(ExecMergeLeftJoin, PadsUnmatchedAndNullKeys) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}, {1, 1}};
  Row null_row;
  null_row.push_back(Value::Null());
  // Outer (sorted, NULL first): NULL, 1, 2, 2, 4.
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{null_row, R({1}), R({2}), R({2}), R({4})});
  // Inner (sorted): 2x2, 3, 4.
  auto inner = std::make_unique<RowSource>(
      li, std::vector<Row>{R({2, 10}), R({2, 20}), R({3, 30}), R({4, 40})});
  RuntimeMetrics m;
  MergeJoinOp join(std::move(outer), std::move(inner),
                   {{ColumnId(0, 0), ColumnId(1, 0)}}, JoinKind::kLeftOuter,
                   &m);
  std::vector<Row> rows = Drain(&join);
  // NULL -> padded; 1 -> padded; 2 -> two matches each (x2 outers);
  // 4 -> one match. Total 1 + 1 + 4 + 1 = 7, in outer order.
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_TRUE(rows[0][1].is_null());  // padded inner
  EXPECT_EQ(rows[1][0].AsInt(), 1);
  EXPECT_TRUE(rows[1][2].is_null());
  EXPECT_EQ(rows[2], R({2, 2, 10}));
  EXPECT_EQ(rows[3], R({2, 2, 20}));
  EXPECT_EQ(rows[4], R({2, 2, 10}));
  EXPECT_EQ(rows[5], R({2, 2, 20}));
  EXPECT_EQ(rows[6], R({4, 4, 40}));
}

TEST(ExecHashLeftJoin, PadsUnmatched) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}};
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{R({7}), R({8})});
  auto inner = std::make_unique<RowSource>(li, std::vector<Row>{R({8})});
  HashJoinOp join(std::move(outer), std::move(inner),
                  {{ColumnId(0, 0), ColumnId(1, 0)}}, JoinKind::kLeftOuter);
  std::vector<Row> rows = Drain(&join);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0][1].is_null());
  EXPECT_EQ(rows[1][1].AsInt(), 8);
}

TEST(ExecNestedLoopLeftJoin, ArbitraryOnCondition) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}};
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{R({1}), R({5})});
  auto inner = std::make_unique<RowSource>(
      li, std::vector<Row>{R({2}), R({3}), R({9})});
  // ON outer.c0 < inner.c0 and inner.c0 < 9.
  BoundExpr cond = BoundExpr::Binary(
      BinOp::kAnd,
      BoundExpr::Binary(BinOp::kLt,
                        BoundExpr::Column({0, 0}, DataType::kInt64, "o"),
                        BoundExpr::Column({1, 0}, DataType::kInt64, "i"),
                        DataType::kInt64),
      BoundExpr::Binary(BinOp::kLt,
                        BoundExpr::Column({1, 0}, DataType::kInt64, "i"),
                        BoundExpr::Literal(Value::Int(9)), DataType::kInt64),
      DataType::kInt64);
  NestedLoopJoinOp join(std::move(outer), std::move(inner),
                        JoinKind::kLeftOuter,
                        {ClassifyPredicate(std::move(cond))});
  std::vector<Row> rows = Drain(&join);
  // outer 1 matches inner 2 and 3; outer 5 matches nothing -> padded.
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], R({1, 2}));
  EXPECT_EQ(rows[1], R({1, 3}));
  EXPECT_EQ(rows[2][0].AsInt(), 5);
  EXPECT_TRUE(rows[2][1].is_null());
}

// Every join algorithm runs both kinds over one input with NULL keys and
// duplicate key groups on both sides and unmatched outers (below, between
// and above the inner keys). Both sides are sorted, NULLs first, so the
// merge join can run it too. Column 1 tags each row.
TEST(ExecJoinKinds, LeftOuterIsInnerPlusPaddedOuters) {
  const std::vector<ColumnId> lo = {{0, 0}, {0, 1}};
  const std::vector<ColumnId> li = {{1, 0}, {1, 1}};
  auto keyed = [](std::optional<int64_t> key, int64_t tag) {
    return Row{key ? Value::Int(*key) : Value::Null(), Value::Int(tag)};
  };
  const std::vector<Row> outer_rows = {
      keyed(std::nullopt, 0), keyed(1, 1), keyed(2, 2), keyed(2, 3),
      keyed(4, 4),            keyed(5, 5), keyed(5, 6), keyed(7, 7),
      keyed(9, 8)};
  const std::vector<Row> inner_rows = {
      keyed(std::nullopt, 100), keyed(2, 101), keyed(2, 102), keyed(3, 103),
      keyed(5, 104),            keyed(5, 105), keyed(7, 106), keyed(8, 107)};
  const std::vector<std::pair<ColumnId, ColumnId>> pairs = {
      {ColumnId(0, 0), ColumnId(1, 0)}};
  BoundExpr on = BoundExpr::Binary(
      BinOp::kEq, BoundExpr::Column({0, 0}, DataType::kInt64, "o"),
      BoundExpr::Column({1, 0}, DataType::kInt64, "i"), DataType::kInt64);
  const Predicate on_pred = ClassifyPredicate(std::move(on));

  enum class Algo { kMerge, kHash, kNestedLoop };
  auto run = [&](Algo algo, JoinKind kind) {
    RuntimeMetrics m;
    auto outer = std::make_unique<RowSource>(lo, outer_rows);
    auto inner = std::make_unique<RowSource>(li, inner_rows);
    OperatorPtr join;
    switch (algo) {
      case Algo::kMerge:
        join = std::make_unique<MergeJoinOp>(std::move(outer),
                                             std::move(inner), pairs, kind,
                                             &m);
        break;
      case Algo::kHash:
        join = std::make_unique<HashJoinOp>(std::move(outer), std::move(inner),
                                            pairs, kind, &m);
        break;
      case Algo::kNestedLoop:
        join = std::make_unique<NestedLoopJoinOp>(
            std::move(outer), std::move(inner), kind,
            std::vector<Predicate>{on_pred}, &m);
        break;
    }
    return Drain(join.get());
  };

  // 2x2 pairs for key 2, 2x2 for key 5, one for key 7, in outer order.
  const std::vector<Row> expected_inner = {
      R({2, 2, 2, 101}), R({2, 2, 2, 102}), R({2, 3, 2, 101}),
      R({2, 3, 2, 102}), R({5, 5, 5, 104}), R({5, 5, 5, 105}),
      R({5, 6, 5, 104}), R({5, 6, 5, 105}), R({7, 7, 7, 106})};
  for (Algo algo : {Algo::kMerge, Algo::kHash, Algo::kNestedLoop}) {
    SCOPED_TRACE(static_cast<int>(algo));
    std::vector<Row> inner = run(algo, JoinKind::kInner);
    EXPECT_EQ(inner, expected_inner);

    std::vector<Row> left = run(algo, JoinKind::kLeftOuter);
    std::vector<Row> matched;
    std::vector<int64_t> padded_tags;
    for (const Row& row : left) {
      ASSERT_EQ(row.size(), 4u);
      if (row[3].is_null()) {
        EXPECT_TRUE(row[2].is_null());
        padded_tags.push_back(row[1].AsInt());
      } else {
        matched.push_back(row);
      }
    }
    // Left minus its padded rows is the inner output, row for row; the
    // padded rows are the NULL-keyed outer and the three unmatched ones.
    EXPECT_EQ(matched, inner);
    EXPECT_EQ(padded_tags, (std::vector<int64_t>{0, 1, 4, 8}));
    EXPECT_EQ(left.size(), inner.size() + 4);
  }
}

TEST(ExecUnion, AllAndMerge) {
  std::vector<ColumnId> layout = {{0, 0}};
  std::vector<ColumnId> out_layout = {{9, 0}};
  {
    std::vector<OperatorPtr> kids;
    kids.push_back(std::make_unique<RowSource>(
        layout, std::vector<Row>{R({1}), R({3})}));
    kids.push_back(std::make_unique<RowSource>(
        layout, std::vector<Row>{R({2})}));
    UnionAllOp u(std::move(kids), out_layout);
    std::vector<Row> rows = Drain(&u);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0][0].AsInt(), 1);  // branch order
    EXPECT_EQ(rows[2][0].AsInt(), 2);
  }
  {
    RuntimeMetrics m;
    std::vector<OperatorPtr> kids;
    kids.push_back(std::make_unique<RowSource>(
        layout, std::vector<Row>{R({1}), R({3}), R({5})}));
    kids.push_back(std::make_unique<RowSource>(
        layout, std::vector<Row>{R({2}), R({3})}));
    MergeUnionOp u(std::move(kids), out_layout, &m);
    std::vector<Row> rows = Drain(&u);
    ASSERT_EQ(rows.size(), 5u);
    for (size_t i = 1; i < rows.size(); ++i) {
      EXPECT_LE(rows[i - 1][0].AsInt(), rows[i][0].AsInt());
    }
  }
}

TEST(ExecTopN, KeepsSmallestUnderSpec) {
  std::vector<ColumnId> layout = {{0, 0}};
  std::vector<Row> data;
  Rng rng(77);
  for (int i = 0; i < 500; ++i) data.push_back(R({rng.Uniform(0, 10000)}));
  RuntimeMetrics m;
  TopNOp top(std::make_unique<RowSource>(layout, data),
             OrderSpec{{ColumnId(0, 0), SortDirection::kDescending}}, 10, &m);
  std::vector<Row> rows = Drain(&top);
  ASSERT_EQ(rows.size(), 10u);
  // Equals the full sort's first 10.
  std::sort(data.begin(), data.end(), [](const Row& a, const Row& b) {
    return a[0].AsInt() > b[0].AsInt();
  });
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rows[i][0].AsInt(), data[i][0].AsInt());
  }
  // Zero limit yields nothing.
  TopNOp empty(std::make_unique<RowSource>(layout, data),
               OrderSpec{{ColumnId(0, 0)}}, 0, &m);
  EXPECT_TRUE(Drain(&empty).empty());
}

AggregateSpec MakeAgg(AggFunc func, ColumnId arg, ColumnId out,
                      bool distinct = false, bool star = false) {
  AggregateSpec spec;
  spec.func = func;
  spec.distinct = distinct;
  spec.count_star = star;
  if (!star) spec.arg = BoundExpr::Column(arg, DataType::kInt64, "arg");
  spec.output = out;
  spec.name = "agg";
  return spec;
}

TEST(ExecGroupBy, StreamingGroups) {
  std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  auto src = std::make_unique<RowSource>(
      layout,
      std::vector<Row>{R({1, 10}), R({1, 20}), R({2, 5}), R({3, 7}),
                       R({3, 0})});
  RuntimeMetrics m;
  StreamGroupByOp group(
      std::move(src), {ColumnId(0, 0)},
      {MakeAgg(AggFunc::kSum, {0, 1}, {5, 0}),
       MakeAgg(AggFunc::kCount, {0, 1}, {5, 1}, false, /*star=*/true),
       MakeAgg(AggFunc::kMin, {0, 1}, {5, 2}),
       MakeAgg(AggFunc::kMax, {0, 1}, {5, 3})},
      &m);
  std::vector<Row> rows = Drain(&group);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], R({1, 30, 2, 10, 20}));
  EXPECT_EQ(rows[1], R({2, 5, 1, 5, 5}));
  EXPECT_EQ(rows[2], R({3, 7, 2, 0, 7}));
}

TEST(ExecGroupBy, GlobalAggregateOnEmptyInput) {
  std::vector<ColumnId> layout = {{0, 0}};
  auto src = std::make_unique<RowSource>(layout, std::vector<Row>{});
  RuntimeMetrics m;
  StreamGroupByOp group(std::move(src), {},
                        {MakeAgg(AggFunc::kCount, {0, 0}, {5, 0}, false,
                                 /*star=*/true),
                         MakeAgg(AggFunc::kSum, {0, 0}, {5, 1})},
                        &m);
  std::vector<Row> rows = Drain(&group);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 0);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST(ExecGroupBy, DistinctAggregatesAndNulls) {
  std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  Row with_null = R({1, 0});
  with_null[1] = Value::Null();
  auto src = std::make_unique<RowSource>(
      layout,
      std::vector<Row>{R({1, 5}), R({1, 5}), R({1, 7}), with_null});
  RuntimeMetrics m;
  StreamGroupByOp group(
      std::move(src), {ColumnId(0, 0)},
      {MakeAgg(AggFunc::kSum, {0, 1}, {5, 0}, /*distinct=*/true),
       MakeAgg(AggFunc::kCount, {0, 1}, {5, 1}),
       MakeAgg(AggFunc::kCount, {0, 1}, {5, 2}, /*distinct=*/true)},
      &m);
  std::vector<Row> rows = Drain(&group);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].AsInt(), 12);  // sum(distinct 5, 7)
  EXPECT_EQ(rows[0][2].AsInt(), 3);   // count non-null
  EXPECT_EQ(rows[0][3].AsInt(), 2);   // count distinct
}

// Hash and stream grouping share one aggregation core, so over the same
// rows (the stream's input stably sorted by key, keeping each group's
// accumulation order) they emit identical rows — DISTINCT aggregates, NULL
// keys and arguments, MIN/MAX, a double column and the empty-input global
// aggregate included. The hash path charges what stream grouping spends
// (k key comparisons per row joining its group, one per group emitted)
// and buffers one entry per group, not its input.
TEST(ExecGroupBy, HashMatchesStream) {
  const std::vector<ColumnId> layout = {{0, 0}, {0, 1}, {0, 2}};
  std::vector<Row> data;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const int64_t key = rng.Uniform(0, 5);
    const int64_t v = rng.Uniform(0, 20);
    data.push_back({key == 5 ? Value::Null() : Value::Int(key),
                    v % 7 == 0 ? Value::Null() : Value::Int(v),
                    Value::Double(static_cast<double>(rng.Uniform(0, 1000)) /
                                  8.0)});
  }
  auto agg = [](AggFunc func, int col, int out, bool distinct = false) {
    AggregateSpec spec = MakeAgg(func, {0, col}, {5, out}, distinct);
    if (col == 2) spec.arg = BoundExpr::Column({0, 2}, DataType::kDouble, "d");
    return spec;
  };
  const std::vector<AggregateSpec> plain = {
      agg(AggFunc::kSum, 1, 0),  agg(AggFunc::kAvg, 1, 1),
      agg(AggFunc::kMin, 1, 2),  agg(AggFunc::kMax, 1, 3),
      agg(AggFunc::kCount, 1, 4), MakeAgg(AggFunc::kCount, {0, 1}, {5, 5},
                                          false, /*star=*/true),
      agg(AggFunc::kSum, 2, 6),  agg(AggFunc::kAvg, 2, 7),
      agg(AggFunc::kMin, 2, 8),  agg(AggFunc::kMax, 2, 9)};
  std::vector<AggregateSpec> with_distinct = plain;
  with_distinct.push_back(agg(AggFunc::kSum, 1, 10, /*distinct=*/true));
  with_distinct.push_back(agg(AggFunc::kCount, 1, 11, /*distinct=*/true));
  with_distinct.push_back(agg(AggFunc::kAvg, 2, 12, /*distinct=*/true));

  std::vector<Row> sorted = data;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Row& a, const Row& b) {
                     return a[0].Compare(b[0]) < 0;
                   });

  struct Case {
    const char* name;
    const std::vector<Row>* rows;
    std::vector<ColumnId> group_columns;
    const std::vector<AggregateSpec>* aggs;
  };
  const std::vector<Row> empty;
  const std::vector<Case> cases = {
      {"grouped", &data, {ColumnId(0, 0)}, &plain},
      {"grouped+distinct", &data, {ColumnId(0, 0)}, &with_distinct},
      {"global", &data, {}, &with_distinct},
      {"global over empty input", &empty, {}, &with_distinct},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RuntimeMetrics hm;
    HashGroupByOp hash(std::make_unique<RowSource>(layout, *c.rows),
                       c.group_columns, *c.aggs, &hm);
    std::vector<Row> hashed = Drain(&hash);

    RuntimeMetrics sm;
    StreamGroupByOp stream(
        std::make_unique<RowSource>(
            layout, c.rows == &data ? sorted : *c.rows),
        c.group_columns, *c.aggs, &sm);
    std::vector<Row> streamed = Drain(&stream);

    ASSERT_EQ(hashed.size(), streamed.size());
    for (size_t i = 0; i < hashed.size(); ++i) {
      ASSERT_EQ(hashed[i].size(), streamed[i].size());
      for (size_t col = 0; col < hashed[i].size(); ++col) {
        EXPECT_EQ(hashed[i][col].type(), streamed[i][col].type());
        EXPECT_EQ(hashed[i][col].Compare(streamed[i][col]), 0)
            << "row " << i << " col " << col;
      }
    }

    const int64_t rows = static_cast<int64_t>(c.rows->size());
    const int64_t groups = static_cast<int64_t>(hashed.size());
    const int64_t k = static_cast<int64_t>(c.group_columns.size());
    EXPECT_EQ(hm.comparisons, k * (rows - groups) + groups);

    // Peak of the operator's accounts: one entry per group, or the DISTINCT
    // values all groups retain at once when those outnumber the groups.
    int64_t distinct_retained = 0;
    for (const AggregateSpec& a : *c.aggs) {
      if (!a.distinct) continue;
      std::set<std::pair<Row, Row>> seen;  // (group key, argument)
      for (const Row& row : *c.rows) {
        const Value& arg = row[static_cast<size_t>(a.arg.column().column)];
        if (arg.is_null()) continue;
        Row key;
        for (const ColumnId& g : c.group_columns) {
          key.push_back(row[static_cast<size_t>(g.column)]);
        }
        seen.insert({key, Row{arg}});
      }
      distinct_retained += static_cast<int64_t>(seen.size());
    }
    EXPECT_EQ(hash.stats().buffered_rows_peak,
              std::max(groups, distinct_retained));
  }
}

TEST(ExecDistinct, StreamAndHash) {
  std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  std::vector<Row> sorted_dups = {R({1, 9}), R({1, 9}), R({2, 9}), R({2, 8}),
                                  R({2, 8})};
  StreamDistinctOp stream(std::make_unique<RowSource>(layout, sorted_dups),
                          ColumnSet{{0, 0}, {0, 1}});
  EXPECT_EQ(Drain(&stream).size(), 3u);

  std::vector<Row> unsorted = {R({2, 8}), R({1, 9}), R({2, 8}), R({1, 9})};
  HashDistinctOp hash(std::make_unique<RowSource>(layout, unsorted),
                      ColumnSet{{0, 0}, {0, 1}});
  EXPECT_EQ(Drain(&hash).size(), 2u);

  // Distinct on a column subset.
  StreamDistinctOp subset(std::make_unique<RowSource>(layout, sorted_dups),
                          ColumnSet{{0, 0}});
  EXPECT_EQ(Drain(&subset).size(), 2u);
}

TEST(ExecFilterProject, EvaluateExpressions) {
  std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  auto src = std::make_unique<RowSource>(
      layout, std::vector<Row>{R({1, 10}), R({5, 2}), R({9, 30})});
  FilterOp filter(std::move(src),
                  {MakeRangePred({0, 0}, BinOp::kGt, 2)});
  std::vector<Row> rows = Drain(&filter);
  ASSERT_EQ(rows.size(), 2u);

  OutputColumn oc;
  oc.expr = BoundExpr::Binary(
      BinOp::kMul, BoundExpr::Column({0, 0}, DataType::kInt64, "k"),
      BoundExpr::Literal(Value::Int(3)), DataType::kInt64);
  oc.name = "k3";
  oc.id = ColumnId(7, 0);
  ProjectOp project(
      std::make_unique<RowSource>(layout, std::vector<Row>{R({2, 0})}),
      {oc});
  rows = Drain(&project);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 6);
}

// --- Order verification at batch granularity -------------------------------

// RowSource with a caller-controlled ExecContext, so tests can pick the
// batch size the stream is produced at and share a guard with the checker.
class BatchedSource : public Operator {
 public:
  BatchedSource(std::vector<ColumnId> layout, std::vector<Row> rows,
                ExecContext ctx)
      : Operator(ctx), rows_(std::move(rows)) {
    layout_ = std::move(layout);
  }
  void OpenImpl() override { pos_ = 0; }
  bool NextBatchImpl(RowBatch* out) override {
    return FillBatch(out, [this](Row* row) {
      if (pos_ >= rows_.size()) return false;
      *row = rows_[pos_++];
      return true;
    });
  }

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

PlanNode SortClaimNode(OrderSpec spec) {
  PlanNode node;
  node.kind = OpKind::kSort;
  node.sort_spec = spec;
  node.props.order = std::move(spec);
  return node;
}

TEST(OrderCheckBatches, DescDuplicateRunsAcrossBatchBoundaries) {
  std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  // DESC on col0 with 5-row duplicate runs; batch size 3 guarantees every
  // run and most run transitions straddle a batch boundary. NULL keys go
  // last: DESC negates Compare wholesale, NULLs included.
  std::vector<Row> rows;
  for (int64_t k = 9; k >= 0; --k) {
    for (int64_t j = 0; j < 5; ++j) rows.push_back(R({k, j}));
  }
  rows.push_back({Value::Null(), Value::Int(0)});
  rows.push_back({Value::Null(), Value::Int(1)});

  RuntimeMetrics m;
  QueryGuard guard;
  ExecContext ctx(&m, &guard, nullptr);
  ctx.batch_rows = 3;
  PlanNode node = SortClaimNode(
      OrderSpec{{ColumnId(0, 0), SortDirection::kDescending}});
  OrderCheckOp check(std::make_unique<BatchedSource>(layout, rows, ctx), node,
                     ctx);
  guard.Arm();
  std::vector<Row> out = Drain(&check);
  EXPECT_TRUE(guard.ok()) << guard.status().ToString();
  EXPECT_EQ(out.size(), rows.size());
}

TEST(OrderCheckBatches, AscDuplicatesWithLeadingNulls) {
  std::vector<ColumnId> layout = {{0, 0}};
  std::vector<Row> rows = {{Value::Null()}, {Value::Null()}, {Value::Int(0)},
                           {Value::Int(0)}, {Value::Int(0)}, {Value::Int(1)},
                           {Value::Int(1)}, {Value::Int(2)}};
  RuntimeMetrics m;
  QueryGuard guard;
  ExecContext ctx(&m, &guard, nullptr);
  ctx.batch_rows = 3;
  PlanNode node = SortClaimNode(OrderSpec{{ColumnId(0, 0)}});
  OrderCheckOp check(std::make_unique<BatchedSource>(layout, rows, ctx), node,
                     ctx);
  guard.Arm();
  EXPECT_EQ(Drain(&check).size(), rows.size());
  EXPECT_TRUE(guard.ok()) << guard.status().ToString();
}

TEST(OrderCheckBatches, ViolationExactlyAtBatchBoundary) {
  std::vector<ColumnId> layout = {{0, 0}};
  // Sorted within each batch of 3, but the boundary pair 3 -> 2 violates
  // the ASC claim — only the cross-batch check can catch it.
  std::vector<Row> rows = {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)},
                           {Value::Int(2)}, {Value::Int(3)}, {Value::Int(4)}};
  RuntimeMetrics m;
  QueryGuard guard;
  ExecContext ctx(&m, &guard, nullptr);
  ctx.batch_rows = 3;
  PlanNode node = SortClaimNode(OrderSpec{{ColumnId(0, 0)}});
  OrderCheckOp check(std::make_unique<BatchedSource>(layout, rows, ctx), node,
                     ctx);
  guard.Arm();
  Drain(&check);
  ASSERT_FALSE(guard.ok());
  EXPECT_NE(guard.status().message().find("order verification failed"),
            std::string::npos)
      << guard.status().ToString();
  EXPECT_NE(guard.status().message().find("rows 2/3"), std::string::npos)
      << guard.status().ToString();
}

TEST(OrderCheckBatches, DescViolationWithinBatch) {
  std::vector<ColumnId> layout = {{0, 0}};
  std::vector<Row> rows = {{Value::Int(5)}, {Value::Int(5)}, {Value::Int(4)},
                           {Value::Int(6)}};
  RuntimeMetrics m;
  QueryGuard guard;
  ExecContext ctx(&m, &guard, nullptr);
  ctx.batch_rows = 1024;  // one batch: all pairs are within-batch
  PlanNode node = SortClaimNode(
      OrderSpec{{ColumnId(0, 0), SortDirection::kDescending}});
  OrderCheckOp check(std::make_unique<BatchedSource>(layout, rows, ctx), node,
                     ctx);
  guard.Arm();
  Drain(&check);
  ASSERT_FALSE(guard.ok());
  EXPECT_NE(guard.status().message().find("order verification failed"),
            std::string::npos)
      << guard.status().ToString();
}

}  // namespace
}  // namespace ordopt
