#ifndef ORDOPT_EXEC_OPERATORS_H_
#define ORDOPT_EXEC_OPERATORS_H_

#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/expr_eval.h"
#include "exec/runtime_metrics.h"
#include "exec/query_guard.h"
#include "exec/row_batch.h"
#include "exec/spill.h"
#include "optimizer/plan.h"
#include "storage/table.h"

namespace ordopt {

/// Volcano-style iterator over column-oriented batches. Each operator
/// declares its row layout (the ColumnId at each position) so parents can
/// bind expressions by identity.
///
/// Open()/NextBatch() are non-virtual wrappers around the
/// OpenImpl()/NextBatchImpl() hooks subclasses implement. When
/// ExecContext::collect_op_stats is set (EXPLAIN ANALYZE / full tracing),
/// the wrappers time each call and add the query-level RuntimeMetrics
/// delta across it to OperatorStats::metrics. The delta spans the whole
/// call — including nested child pulls — so stats are inclusive of the
/// subtree and a parent's self cost is its value minus the sum over its
/// children. When stats collection is off the wrappers cost one branch.
/// At batch granularity next_calls counts NextBatch invocations and
/// rows_out accumulates emitted batch sizes.
///
/// Next(Row*) survives as a row-compat shim draining an internal batch
/// cursor, so row-at-a-time consumers (operators whose inner logic is
/// per-row, tests, the oracles) work unchanged against batch producers.
class Operator {
 public:
  Operator() = default;
  explicit Operator(ExecContext ctx) : ctx_(ctx) {}
  virtual ~Operator() = default;

  void Open() {
    shim_pos_ = 0;
    shim_batch_.Reset(0, 1);
    if (!ctx_.collect_op_stats) {
      OpenImpl();
      return;
    }
    const RuntimeMetrics before = MetricsNow();
    auto start = std::chrono::steady_clock::now();
    OpenImpl();
    stats_.open_ns += ElapsedNs(start);
    stats_.metrics.AccumulateDelta(before, MetricsNow());
  }

  /// Produces the next batch of rows; false at end of stream (the batch is
  /// left empty). Producers Reset `out` to their own width, so a scratch
  /// batch can be reused across calls and across operators.
  bool NextBatch(RowBatch* out) {
    if (!ctx_.collect_op_stats) return NextBatchImpl(out);
    const RuntimeMetrics before = MetricsNow();
    auto start = std::chrono::steady_clock::now();
    bool produced = NextBatchImpl(out);
    stats_.next_ns += ElapsedNs(start);
    stats_.metrics.AccumulateDelta(before, MetricsNow());
    ++stats_.next_calls;
    if (produced) stats_.rows_out += out->size();
    return produced;
  }

  /// Row-compat shim: drains an internal batch cursor one row at a time,
  /// pulling a fresh batch (through the timed NextBatch wrapper, so stats
  /// accrue there) whenever the cursor is exhausted. Each row is consumed
  /// exactly once, so its values are moved out rather than copied.
  bool Next(Row* out) {
    while (true) {
      if (shim_pos_ < shim_batch_.size()) {
        shim_batch_.TakeRowInto(shim_pos_++, out);
        return true;
      }
      shim_pos_ = 0;
      if (!NextBatch(&shim_batch_)) {
        shim_batch_.Reset(0, 1);
        return false;
      }
    }
  }

  virtual void Close() {}

  const std::vector<ColumnId>& layout() const { return layout_; }
  const OperatorStats& stats() const { return stats_; }

  /// Folds another operator's stats into this one. Used by ExchangeOp at
  /// Close: workers 1..N-1 ran identical copies of the chain, and their
  /// per-operator stats aggregate into worker 0's registered operators so
  /// EXPLAIN ANALYZE reports the chain's total work.
  void AccumulateStats(const OperatorStats& other) { stats_.MergeFrom(other); }

 protected:
  virtual void OpenImpl() = 0;
  virtual bool NextBatchImpl(RowBatch* out) = 0;

  /// Rows per emitted batch for this query (ExecContext::batch_rows,
  /// clamped to at least 1).
  int64_t BatchCapacity() const {
    return ctx_.batch_rows > 0 ? ctx_.batch_rows : 1;
  }

  /// Adapter for operators whose inner logic is still row-at-a-time:
  /// fills `out` by repeatedly invoking `produce_row` (the old per-row
  /// NextImpl body) until the batch is full or the producer ends. The
  /// producer must tolerate calls after end-of-stream, as all Volcano
  /// NextImpl bodies here do.
  template <typename Fn>
  bool FillBatch(RowBatch* out, Fn&& produce_row) {
    out->Reset(layout_.size(), BatchCapacity());
    Row row;
    while (!out->full()) {
      if (!ctx_.GuardOk()) break;
      if (!produce_row(&row)) break;
      out->AppendRow(std::move(row));
      row.clear();
    }
    return !out->empty();
  }

  ExecContext ctx_;
  std::vector<ColumnId> layout_;
  OperatorStats stats_;

 private:
  /// The query-level counters as of now (zeros without metrics).
  RuntimeMetrics MetricsNow() const {
    return ctx_.metrics != nullptr ? *ctx_.metrics : RuntimeMetrics();
  }

  static int64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  // Row-compat shim state (see Next(Row*)).
  RowBatch shim_batch_;
  int64_t shim_pos_ = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Heap scan over a base table (sequential pages). When `required_columns`
/// is given, the scan emits only the table columns in that set (build-time
/// column pruning): pages and guard accounting still cover every row, but
/// unreferenced cells are never copied out of the heap.
///
/// Inside an exchange worker (`morsel_driver` with a MorselScheduler in the
/// context) the scan claims rid ranges from the shared scheduler instead of
/// walking [0, row_count); batches never cross a morsel boundary. With
/// `emit_provenance` the scan appends the hidden provenance column — the
/// rid, i.e. the serial emission ordinal — after the pruned table columns.
class TableScanOp : public Operator {
 public:
  TableScanOp(const Table& table, int table_id, ExecContext ctx,
              const ColumnSet* required_columns = nullptr,
              bool morsel_driver = false, bool emit_provenance = false);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;

 private:
  const Table& table_;
  PageTracker pages_;
  /// Table-column ordinal backing each emitted column (identity without
  /// pruning).
  std::vector<int32_t> src_ordinals_;
  bool morsel_driver_ = false;
  bool emit_provenance_ = false;
  int64_t rid_ = 0;
  int64_t limit_ = 0;  ///< end of the current morsel (serial: row_count)
};

/// Ordered index scan, optionally range-bounded by equality constants on a
/// key prefix plus at most one comparison on the next key column, and
/// optionally reversed (yields the reversed order, full scans only).
///
/// Inside an exchange worker (`morsel_driver`) the qualifying rids are
/// materialized once in index-walk order into the MorselScheduler's shared
/// vector (first worker walks, the rest reuse), and workers claim position
/// ranges of that vector — row materialization is what parallelizes, and
/// the provenance ordinal (the walk position) is the position claimed.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(const Table& table, int table_id, int index_ordinal,
              bool reverse, std::vector<Predicate> range_predicates,
              ExecContext ctx, const ColumnSet* required_columns = nullptr,
              bool morsel_driver = false, bool emit_provenance = false);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;

 private:
  bool EntryQualifies() const;
  /// Walks the cursor to completion, appending each qualifying rid. The
  /// walk accounts nothing: pages, rows_scanned, and the guard are charged
  /// by whichever path materializes the rows.
  void CollectRids(std::vector<int64_t>* rids);

  const Table& table_;
  int index_ordinal_;
  bool reverse_;
  std::vector<Predicate> range_predicates_;
  PageTracker pages_;
  /// Table-column ordinal backing each emitted column (see TableScanOp).
  std::vector<int32_t> src_ordinals_;
  BTreeIndex::Cursor cursor_;
  // Range bounds in index-key positions.
  IndexKey eq_prefix_;
  int cmp_position_ = -1;
  BinOp cmp_op_ = BinOp::kEq;
  Value cmp_bound_;
  bool done_ = false;
  bool morsel_driver_ = false;
  bool emit_provenance_ = false;
  int64_t ordinal_ = 0;  ///< serial mode: walk ordinal of the next row
  /// Morsel mode: shared qualifying rids plus the claimed [pos_, limit_).
  const std::vector<int64_t>* rids_ = nullptr;
  int64_t pos_ = 0;
  int64_t limit_ = 0;
  std::vector<int64_t> scratch_rids_;  ///< rids gathered for one batch
};

/// Predicate application.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, std::vector<Predicate> predicates,
           ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  std::vector<Predicate> predicates_;
  std::unique_ptr<ExprEvaluator> eval_;
  RowBatch input_;       ///< scratch batch pulled from the child
  SelectionVector sel_;  ///< surviving row indices within input_
};

/// ORDER BY via bounded-memory external-merge sort. Rows are buffered up
/// to the spill budget (SpillConfig::sort_memory_rows); each full buffer
/// is stable-sorted and written as a run file through the context's
/// SpillManager, and Next() k-way merges the runs with the in-memory
/// tail. Ties resolve to the earliest run in input order (the tail last),
/// so the merge is exactly as stable as the in-memory sort. Without a
/// SpillManager — or with the budget disabled — this degenerates to the
/// classic full in-memory sort.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, OrderSpec spec, ExecContext ctx);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  /// Resolves the OrderSpec against the child layout into
  /// positions_/descending_; poisons and returns false on a missing
  /// column.
  bool ResolveComparator();
  /// Strict-weak ordering under the spec; counts comparisons. Used by the
  /// k-way merge over run heads; the buffer sort itself goes through
  /// normalized keys (see SortBuffer).
  bool RowLess(const Row& a, const Row& b) const;
  /// Stable-sorts rows_ under the spec: encodes each row's sort key into a
  /// memcmp-comparable normalized byte string (Graefe), sorts an index
  /// vector with a branch-light memcmp comparator, then permutes rows_.
  void SortBuffer();
  /// One merge step of the spilled-run k-way merge (the per-row inner
  /// logic behind NextBatchImpl when merging_).
  bool MergeNext(Row* out);
  /// Stable-sorts the current buffer and writes it out as one run;
  /// poisons and returns false on spill failure.
  bool SpillCurrentRun();
  /// Parallel run generation (ExecContext::parallel_workers > 1): hands the
  /// current buffer to a worker thread that sorts and spills it through a
  /// private SpillManager while this thread keeps collecting input — §5.2's
  /// overlap of run formation with input production. The job's run lands in
  /// its reserved runs_ slot at join, keeping run order (and thus merge
  /// tie-breaking) identical to the serial spill order. Bounded: at most
  /// parallel_workers jobs in flight, then the oldest is joined.
  bool SpillRunAsync();
  /// Joins the oldest unjoined job, installs its run, merges its metrics,
  /// releases its buffer charge; poisons on job failure.
  void JoinOneJob();
  void JoinAllJobs();
  /// Winds the operator down after a mid-sort failure: drops buffered
  /// rows and removes every run file.
  void Abandon();
  void ReleaseRuns();

  /// One in-flight asynchronous run-formation job.
  struct RunJob {
    std::thread thread;
    std::vector<Row> rows;
    std::unique_ptr<RuntimeMetrics> metrics;  ///< private to the job thread
    std::unique_ptr<SpillManager> spill;
    std::unique_ptr<SpillRun> run;
    Status status;
    size_t slot = 0;  ///< reserved index in runs_
    int64_t charged_rows = 0;
    int64_t charged_bytes = 0;
  };

  OperatorPtr child_;
  OrderSpec spec_;
  BufferAccount buffer_;
  std::vector<int> positions_;
  std::vector<bool> descending_;
  std::vector<Row> rows_;  ///< in-memory rows (the merge's final run)
  size_t pos_ = 0;
  std::vector<std::unique_ptr<SpillRun>> runs_;  ///< spilled, input order
  std::vector<std::unique_ptr<RunJob>> jobs_;    ///< in-flight, oldest first
  size_t jobs_joined_ = 0;
  std::vector<Row> heads_;       ///< current head row per run
  std::vector<bool> head_valid_;
  bool merging_ = false;
};

/// Which rows a join emits. kInner: the matching (outer, inner) pairs;
/// NULL join keys never match. kLeftOuter: those pairs plus, once, every
/// outer row that matched nothing (NULL-keyed outers included), padded
/// with NULLs on the inner width.
enum class JoinKind { kInner, kLeftOuter };

/// What the two-input joins share: both children, the join kind, the
/// concatenated output layout (outer columns, then inner), the positions
/// of the equality pairs in each child, and the account charging buffered
/// inner rows. Each algorithm runs both join kinds; the left kind only adds
/// the padded rows (and, for the nested loop, the ON predicates).
class JoinOp : public Operator {
 public:
  void Close() override;

 protected:
  JoinOp(OperatorPtr outer, OperatorPtr inner,
         const std::vector<std::pair<ColumnId, ColumnId>>& pairs,
         JoinKind kind, ExecContext ctx);

  /// `*out` = the current outer row followed by `inner`.
  void Concat(const Row& inner, Row* out) const;
  /// `*out` = the current outer row padded with NULLs on the inner width.
  void Padded(Row* out) const;

  OperatorPtr outer_;
  OperatorPtr inner_;
  JoinKind kind_;
  std::vector<int> outer_positions_;
  std::vector<int> inner_positions_;
  BufferAccount buffer_;
  Row outer_row_;
};

/// Merge join of two streams sorted on the join keys (ascending). Handles
/// many-to-many groups by buffering the inner group. Preserves outer order.
class MergeJoinOp : public JoinOp {
 public:
  MergeJoinOp(OperatorPtr outer, OperatorPtr inner,
              std::vector<std::pair<ColumnId, ColumnId>> pairs, JoinKind kind,
              ExecContext ctx);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  bool ProduceRow(Row* out);
  int CompareKeys() const;
  bool OuterKeyEqualsGroup() const;
  /// Advances the inner past NULL keys and keys below the current outer
  /// row's; on an equal key buffers that key's group and returns true.
  bool SeekGroup();
  void LoadInnerGroup();

  bool outer_valid_ = false;
  bool outer_started_ = false;  ///< matched_ is computed for outer_row_
  bool matched_ = false;        ///< outer_row_ joins the buffered group
  Row inner_row_;
  bool inner_valid_ = false;
  std::vector<Row> group_;  ///< buffered inner rows with equal key
  std::vector<Value> group_key_;
  bool group_valid_ = false;
  size_t group_pos_ = 0;
};

/// Index nested-loop join: for each outer row, probe a base-table index on
/// the matched key prefix and emit concatenated matches. When the outer
/// stream is sorted on the probe key, page accesses arrive in order and the
/// tracker records them as (mostly) sequential — the paper's ordered
/// nested-loop join.
class IndexNLJoinOp : public Operator {
 public:
  /// `required_columns`, when given, prunes the inner-table half of the
  /// output layout to the columns ancestors reference; probing reads the
  /// index key, so the join itself needs none of the inner cells.
  IndexNLJoinOp(OperatorPtr outer, const Table& table, int table_id,
                int index_ordinal,
                std::vector<std::pair<ColumnId, ColumnId>> pairs,
                ExecContext ctx, const ColumnSet* required_columns = nullptr);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  /// Outcome of advancing the probe cursor within the current outer batch.
  enum class ProbeResult {
    kMatch,      ///< cursor positioned on a matching index entry
    kNeedBatch,  ///< current outer batch consumed; caller pulls the next
    kEnd,        ///< stream over (fault injected or guard poisoned)
  };
  ProbeResult Probe();     // advances within outer_batch_ and seeks
  bool RowProbe();         // legacy row-shim variant of Probe
  bool RowProduce(Row* out);  // legacy row-shim per-row production

  OperatorPtr outer_;
  const Table& table_;
  int index_ordinal_;
  std::vector<std::pair<ColumnId, ColumnId>> pairs_;
  std::vector<int> outer_positions_;
  /// Inner-table column ordinals emitted after the outer columns (all of
  /// them without pruning).
  std::vector<int32_t> inner_ordinals_;
  PageTracker pages_;

  RowBatch outer_batch_;       ///< current outer batch, consumed in place
  int64_t outer_pos_ = -1;     ///< cursor into outer_batch_
  Row row_outer_;              ///< current outer row (row-shim mode only)
  IndexKey probe_key_;
  BTreeIndex::Cursor cursor_;
  bool probing_ = false;
  /// Gathered (outer row, inner rid) match pairs for the batch being
  /// built; materialized column-at-a-time after the gather phase.
  std::vector<int32_t> match_outer_;
  std::vector<int64_t> match_rid_;
};

/// Nested-loop join: the inner is materialized once and rescanned per
/// outer row; each concatenated pair that passes the ON predicates is
/// emitted (with none, the cartesian product). Used for cartesian
/// products, non-equality joins, and left joins on arbitrary ON
/// conditions. Preserves outer order.
class NestedLoopJoinOp : public JoinOp {
 public:
  NestedLoopJoinOp(OperatorPtr outer, OperatorPtr inner, JoinKind kind,
                   std::vector<Predicate> on_predicates = {},
                   ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  bool ProduceRow(Row* out);
  bool PassesOn(const Row& row) const;

  std::vector<Predicate> on_predicates_;
  std::unique_ptr<ExprEvaluator> eval_;
  std::vector<Row> inner_rows_;
  bool outer_valid_ = false;
  bool matched_ = false;  ///< outer_row_ produced at least one pair
  size_t inner_pos_ = 0;
};

/// Hash join: builds on the inner, probes with the outer (outer order NOT
/// preserved by contract, although probing happens in outer order).
class HashJoinOp : public JoinOp {
 public:
  HashJoinOp(OperatorPtr outer, OperatorPtr inner,
             std::vector<std::pair<ColumnId, ColumnId>> pairs, JoinKind kind,
             ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  bool ProduceRow(Row* out);

  struct KeyHash {
    size_t operator()(const std::vector<Value>& key) const;
  };
  struct KeyEq {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const;
  };

  std::unordered_map<std::vector<Value>, std::vector<Row>, KeyHash, KeyEq>
      hash_table_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

/// The aggregation core both grouping operators share: one group's
/// accumulator state, fed input rows and finished into the group's output
/// row. In-stream and hash aggregation differ only in how they find a
/// row's group (Do, Graefe & Naughton): StreamGroupByOp keeps one group
/// open while keys stay equal, HashGroupByOp keeps one per key. DISTINCT
/// aggregates retain their value sets, charged to the owning operator.
class Aggregator {
 public:
  /// Accumulator of one aggregate within one group.
  struct State {
    double sum_d = 0.0;
    int64_t sum_i = 0;
    bool sum_is_int = true;
    bool saw_value = false;
    int64_t count = 0;
    Value min_v;
    Value max_v;
    std::map<std::vector<Value>, bool> distinct_values;
  };
  /// One group's accumulators, one State per aggregate.
  using Group = std::vector<State>;

  Aggregator(std::vector<AggregateSpec> aggregates, ExecContext ctx,
             OperatorStats* stats);

  /// Binds the aggregate arguments to the input layout and drops any
  /// DISTINCT charge left from an earlier run.
  void Open(const std::vector<ColumnId>& input_layout);
  Group NewGroup() const { return Group(aggregates_.size()); }
  /// Folds `row` into `group`. False once a DISTINCT value set trips a
  /// buffer limit (the guard is poisoned; the caller winds down).
  bool Accumulate(const Row& row, Group* group);
  /// Appends the group's aggregate values to `out` (which holds the group
  /// key) and charges the one comparison that closes a group.
  void Finish(Group* group, Row* out) const;
  /// Releases the charge for every DISTINCT value retained so far.
  void ReleaseDistinct() { distinct_buffer_.Release(); }

 private:
  std::vector<AggregateSpec> aggregates_;
  ExecContext ctx_;
  std::unique_ptr<ExprEvaluator> eval_;
  BufferAccount distinct_buffer_;
};

/// Streaming aggregation over an input whose order makes groups adjacent
/// (also used above an explicit Sort). Output layout: group columns then
/// aggregate outputs. With no group columns, emits exactly one row (the
/// SQL global-aggregate contract), even for empty input.
class StreamGroupByOp : public Operator {
 public:
  StreamGroupByOp(OperatorPtr child, std::vector<ColumnId> group_columns,
                  std::vector<AggregateSpec> aggregates, ExecContext ctx);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  bool ProduceRow(Row* out);
  /// Emits the open group: its key, then the aggregate values.
  void EmitGroup(Row* out);

  OperatorPtr child_;
  std::vector<ColumnId> group_columns_;
  std::vector<int> group_positions_;
  Aggregator aggregator_;

  std::vector<Value> current_key_;
  Aggregator::Group group_;
  Row pending_row_;
  bool pending_valid_ = false;
  bool done_ = false;
};

/// Hash aggregation (no order in, no order out): one aggregator group per
/// key, each input row folded into its group as it arrives. Groups live in
/// a key-ordered map so output order is deterministic.
class HashGroupByOp : public Operator {
 public:
  HashGroupByOp(OperatorPtr child, std::vector<ColumnId> group_columns,
                std::vector<AggregateSpec> aggregates, ExecContext ctx);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  std::vector<ColumnId> group_columns_;
  std::vector<int> group_positions_;
  Aggregator aggregator_;
  BufferAccount groups_buffer_;  ///< one charge per group
  std::map<std::vector<Value>, Aggregator::Group> groups_;
  std::map<std::vector<Value>, Aggregator::Group>::iterator next_;
};

/// Duplicate elimination on a column subset for inputs where duplicates are
/// adjacent (sorted or grouped); preserves order.
class StreamDistinctOp : public Operator {
 public:
  StreamDistinctOp(OperatorPtr child, ColumnSet distinct_columns,
                   ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  bool ProduceRow(Row* out);

  OperatorPtr child_;
  ColumnSet distinct_columns_;
  std::vector<int> positions_;
  std::vector<Value> last_key_;
  bool has_last_ = false;
};

/// Hash-based duplicate elimination (destroys order).
class HashDistinctOp : public Operator {
 public:
  HashDistinctOp(OperatorPtr child, ColumnSet distinct_columns,
                 ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  bool ProduceRow(Row* out);

  OperatorPtr child_;
  ColumnSet distinct_columns_;
  std::vector<int> positions_;
  BufferAccount buffer_;
  std::map<std::vector<Value>, bool> seen_;
};

/// Concatenates branch streams. Columns are positional: every child's row
/// has the same width; the operator's layout carries the union's fresh
/// output ColumnIds.
class UnionAllOp : public Operator {
 public:
  UnionAllOp(std::vector<OperatorPtr> children, std::vector<ColumnId> layout,
             ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

/// K-way merge of branch streams, each sorted ascending on all columns
/// (position-major); emits rows in that global order, enabling streaming
/// duplicate elimination for UNION and satisfying an ORDER BY for free.
class MergeUnionOp : public Operator {
 public:
  MergeUnionOp(std::vector<OperatorPtr> children,
               std::vector<ColumnId> layout, ExecContext ctx);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  bool ProduceRow(Row* out);
  int CompareRows(const Row& a, const Row& b) const;

  std::vector<OperatorPtr> children_;
  std::vector<Row> heads_;
  std::vector<bool> valid_;
};

/// Bounded-heap Top-N: keeps only the `limit` smallest rows under the
/// order specification while consuming the child, then emits them in
/// order. O(n log k) comparisons and O(k) memory instead of a full sort —
/// the classic ORDER BY + LIMIT fusion.
class TopNOp : public Operator {
 public:
  TopNOp(OperatorPtr child, OrderSpec spec, int64_t limit, ExecContext ctx);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  OrderSpec spec_;
  int64_t limit_;
  BufferAccount buffer_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Emits at most `limit` rows, then ends the stream.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit, ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  int64_t limit_;
  int64_t emitted_ = 0;
};

/// Final projection: evaluates the output expressions.
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<OutputColumn> projections,
            ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  std::vector<OutputColumn> projections_;
  std::unique_ptr<ExprEvaluator> eval_;
  RowBatch input_;  ///< scratch batch pulled from the child
};

}  // namespace ordopt

#endif  // ORDOPT_EXEC_OPERATORS_H_
