#include "exec/operators.h"

#include <algorithm>
#include <cstring>
#include <ctime>

#include "exec/sort_key.h"

#include "common/macros.h"
#include "common/str_util.h"
#include "exec/parallel/morsel.h"
#include "exec/spill.h"

namespace ordopt {

namespace {

// CPU time consumed by the calling thread, for parallel-run-generation job
// accounting (RuntimeMetrics::worker_busy_ns_*).
int64_t ThreadCpuNs() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Positions of `cols` within `layout`. A miss is a planner bug: with a
// guard the query degrades to Status::Internal (the poisoned tree is
// discarded by BuildOperatorTree before it can run); without one the
// historical abort stands.
std::vector<int> PositionsOf(const std::vector<ColumnId>& cols,
                             const std::vector<ColumnId>& layout,
                             const ExecContext& ctx) {
  ExprEvaluator eval(layout);
  std::vector<int> out;
  for (const ColumnId& c : cols) {
    int pos = eval.PositionOf(c);
    if (pos < 0) {
      ctx.Poison(Status::Internal(
          StrFormat("column %s missing from operator layout",
                    DefaultColumnName(c).c_str())));
      pos = 0;  // placeholder; the poisoned tree never executes
    }
    out.push_back(pos);
  }
  return out;
}

// True when any of `positions` in `row` holds NULL; such join keys never
// match.
bool KeyHasNull(const Row& row, const std::vector<int>& positions) {
  for (int p : positions) {
    if (row[static_cast<size_t>(p)].is_null()) return true;
  }
  return false;
}

// SUM/AVG accumulation: integer while every input is an integer, double
// from the first non-integer on.
void AddToSum(const Value& v, Aggregator::State* st) {
  if (v.type() == DataType::kInt64 && st->sum_is_int) {
    st->sum_i += v.AsInt();
    return;
  }
  if (st->sum_is_int) {
    st->sum_d = static_cast<double>(st->sum_i);
    st->sum_is_int = false;
  }
  st->sum_d += v.AsDouble();
}

// Layout of a base-table stream, optionally pruned to `required` (build-time
// column pruning). `src_ordinals`, when given, receives the table-column
// ordinal backing each emitted column.
std::vector<ColumnId> TableLayout(const Table& table, int table_id,
                                  const ColumnSet* required = nullptr,
                                  std::vector<int32_t>* src_ordinals = nullptr) {
  std::vector<ColumnId> layout;
  for (size_t i = 0; i < table.def().columns.size(); ++i) {
    ColumnId col(table_id, static_cast<int32_t>(i));
    if (required != nullptr && !required->Contains(col)) continue;
    layout.push_back(col);
    if (src_ordinals != nullptr) {
      src_ordinals->push_back(static_cast<int32_t>(i));
    }
  }
  return layout;
}

// Stable normalized-key sort of `rows` (Graefe): encode each row's sort key
// once into a contiguous arena of memcmp-comparable bytes, sort an index
// vector with a branch-light comparator, then gather rows into the new
// order. The index tie-break reproduces std::stable_sort's stability. Free
// function so SortOp's parallel run-generation jobs can run it on their own
// threads against a job-private comparison counter.
void SortRowsNormalized(std::vector<Row>* rows,
                        const std::vector<int>& positions,
                        const std::vector<bool>& descending,
                        int64_t* cmp_counter) {
  const size_t n = rows->size();
  if (n < 2) return;
  std::string arena;
  std::vector<size_t> offsets(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    AppendNormalizedKey((*rows)[i], positions, descending, &arena);
    offsets[i + 1] = arena.size();
  }
  std::vector<uint32_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<uint32_t>(i);
  const char* data = arena.data();
  std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    ++*cmp_counter;
    const size_t alen = offsets[a + 1] - offsets[a];
    const size_t blen = offsets[b + 1] - offsets[b];
    const int c = std::memcmp(data + offsets[a], data + offsets[b],
                              alen < blen ? alen : blen);
    if (c != 0) return c < 0;
    // Column encodings are self-delimiting, so equal-prefix keys of
    // different length cannot happen; the check is belt-and-braces.
    if (alen != blen) return alen < blen;
    return a < b;
  });
  std::vector<Row> sorted;
  sorted.reserve(n);
  for (uint32_t i : idx) sorted.push_back(std::move((*rows)[i]));
  *rows = std::move(sorted);
}

}  // namespace

// ---------------------------------------------------------------------------
// TableScanOp
// ---------------------------------------------------------------------------

TableScanOp::TableScanOp(const Table& table, int table_id, ExecContext ctx,
                         const ColumnSet* required_columns, bool morsel_driver,
                         bool emit_provenance)
    : Operator(ctx),
      table_(table),
      pages_(ctx.metrics, kRowsPerPage),
      morsel_driver_(morsel_driver && ctx.morsels != nullptr),
      emit_provenance_(emit_provenance) {
  layout_ = TableLayout(table, table_id, required_columns, &src_ordinals_);
  if (emit_provenance_) layout_.push_back(ProvenanceColumnId());
}

void TableScanOp::OpenImpl() {
  rid_ = 0;
  // Morsel mode starts with an empty range so the first NextBatch claims.
  limit_ = morsel_driver_ ? 0 : table_.row_count();
}

bool TableScanOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  if (morsel_driver_ && rid_ >= limit_) {
    if (ctx_.InjectFault("exec.parallel.morsel")) return false;
    if (!ctx_.GuardOk()) return false;
    if (!ctx_.morsels->ClaimRange(table_.row_count(), &rid_, &limit_)) {
      return false;
    }
  }
  // Account pages and the guard for the rid range first, then fill column
  // at a time: sequential writes into each output column instead of
  // striding across the full row width per row. Batches never cross a
  // morsel boundary (the loop stops at limit_), so every emitted batch is
  // a contiguous, ascending rid range.
  const int64_t start = rid_;
  const int64_t cap = out->capacity();
  int64_t n = 0;
  while (n < cap && rid_ < limit_) {
    pages_.Access(rid_);
    ++ctx_.metrics->rows_scanned;
    if (!ctx_.OnRowScanned()) break;  // tripped row: counted, not emitted
    ++rid_;
    ++n;
  }
  const size_t width = src_ordinals_.size();
  for (size_t c = 0; c < width; ++c) {
    const size_t ord = static_cast<size_t>(src_ordinals_[c]);
    for (int64_t i = 0; i < n; ++i) {
      out->AppendColumnValue(c, table_.row(start + i)[ord]);
    }
  }
  if (emit_provenance_) {
    // The provenance of a heap-scan row is its rid: the ordinal at which
    // the serial scan would have emitted it.
    for (int64_t i = 0; i < n; ++i) {
      out->AppendColumnValue(width, Value::Int(start + i));
    }
  }
  out->SetRowCount(n);
  return !out->empty();
}

// ---------------------------------------------------------------------------
// IndexScanOp
// ---------------------------------------------------------------------------

IndexScanOp::IndexScanOp(const Table& table, int table_id, int index_ordinal,
                         bool reverse, std::vector<Predicate> range_predicates,
                         ExecContext ctx, const ColumnSet* required_columns,
                         bool morsel_driver, bool emit_provenance)
    : Operator(ctx),
      table_(table),
      index_ordinal_(index_ordinal),
      reverse_(reverse),
      range_predicates_(std::move(range_predicates)),
      pages_(ctx.metrics, kRowsPerPage),
      morsel_driver_(morsel_driver && ctx.morsels != nullptr),
      emit_provenance_(emit_provenance) {
  layout_ = TableLayout(table, table_id, required_columns, &src_ordinals_);
  if (emit_provenance_) layout_.push_back(ProvenanceColumnId());
  if (reverse_ && !range_predicates_.empty()) {
    ctx_.Poison(Status::Internal(
        "reverse index scans do not support range bounds"));
  }
}

void IndexScanOp::OpenImpl() {
  done_ = true;
  ordinal_ = 0;
  pos_ = 0;
  limit_ = 0;
  rids_ = nullptr;
  if (!ctx_.GuardOk()) return;
  if (ctx_.InjectFault("storage.btree.read")) return;
  const BTreeIndex* index =
      table_.index(static_cast<size_t>(index_ordinal_));
  if (index == nullptr) {
    ctx_.Poison(Status::Internal("index scan over unbuilt index on table '" +
                                 table_.name() + "'"));
    return;
  }
  done_ = false;
  eq_prefix_.clear();
  cmp_position_ = -1;

  // Decompose range predicates along the index key: a chain of equalities
  // then at most one comparison (the planner guarantees this shape).
  const IndexDef& def =
      table_.def().indexes[static_cast<size_t>(index_ordinal_)];
  for (const Predicate& p : range_predicates_) {
    // Position of the predicate column within the index key.
    int key_pos = -1;
    for (size_t k = 0; k < def.column_ordinals.size(); ++k) {
      if (p.left_col.column == def.column_ordinals[k]) {
        key_pos = static_cast<int>(k);
        break;
      }
    }
    if (key_pos < 0) {
      ctx_.Poison(Status::Internal("range predicate off the index key"));
      done_ = true;
      return;
    }
    if (p.kind == Predicate::Kind::kColEqConst) {
      if (key_pos != static_cast<int>(eq_prefix_.size())) {
        ctx_.Poison(Status::Internal(
            "index range predicates do not form an equality prefix"));
        done_ = true;
        return;
      }
      eq_prefix_.push_back(p.constant);
    } else {
      cmp_position_ = key_pos;
      cmp_op_ = p.cmp;
      cmp_bound_ = p.constant;
    }
  }

  if (reverse_) {
    cursor_ = index->SeekLast();
    return;
  }
  IndexKey seek = eq_prefix_;
  if (cmp_position_ >= 0 &&
      (cmp_op_ == BinOp::kGt || cmp_op_ == BinOp::kGe)) {
    seek.push_back(cmp_bound_);
    cursor_ = cmp_op_ == BinOp::kGt ? index->SeekAfter(seek)
                                    : index->SeekAtLeast(seek);
  } else if (!seek.empty()) {
    cursor_ = index->SeekAtLeast(seek);
  } else {
    cursor_ = index->SeekFirst();
  }
}

bool IndexScanOp::EntryQualifies() const {
  const IndexKey& key = cursor_.key();
  for (size_t i = 0; i < eq_prefix_.size(); ++i) {
    if (key[i].Compare(eq_prefix_[i]) != 0) return false;
  }
  if (cmp_position_ >= 0) {
    const Value& v = key[static_cast<size_t>(cmp_position_)];
    if (v.is_null()) return false;
    int c = v.Compare(cmp_bound_);
    switch (cmp_op_) {
      case BinOp::kLt:
        return c < 0;
      case BinOp::kLe:
        return c <= 0;
      case BinOp::kGt:
        return c > 0;
      case BinOp::kGe:
        return c >= 0;
      default:
        return false;
    }
  }
  return true;
}

void IndexScanOp::CollectRids(std::vector<int64_t>* rids) {
  while (!done_ && cursor_.Valid()) {
    if (!EntryQualifies()) {
      done_ = true;
      break;
    }
    rids->push_back(cursor_.rid());
    if (reverse_) {
      cursor_.Prev();
    } else {
      cursor_.Next();
    }
  }
}

bool IndexScanOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  const int64_t cap = out->capacity();
  scratch_rids_.clear();
  int64_t first_ordinal = 0;
  if (morsel_driver_) {
    // The qualifying rids are materialized once, in index-walk order, into
    // the exchange's shared vector (the first worker to get here walks its
    // own cursor; the rest reuse). Workers then claim position ranges, so
    // a row's provenance ordinal is simply its walk position, and every
    // worker's stream stays ascending in it.
    if (pos_ >= limit_) {
      if (ctx_.InjectFault("exec.parallel.morsel")) return false;
      if (!ctx_.GuardOk()) return false;
      if (rids_ == nullptr) {
        rids_ = &ctx_.morsels->EnsureRids(
            [this](std::vector<int64_t>* rids) { CollectRids(rids); });
      }
      if (!ctx_.morsels->ClaimRange(static_cast<int64_t>(rids_->size()),
                                    &pos_, &limit_)) {
        return false;
      }
    }
    first_ordinal = pos_;
    while (static_cast<int64_t>(scratch_rids_.size()) < cap &&
           pos_ < limit_) {
      const int64_t rid = (*rids_)[static_cast<size_t>(pos_)];
      pages_.Access(rid);
      ++ctx_.metrics->rows_scanned;
      if (!ctx_.OnRowScanned()) break;  // tripped row: counted, not emitted
      scratch_rids_.push_back(rid);
      ++pos_;
    }
  } else {
    first_ordinal = ordinal_;
    while (static_cast<int64_t>(scratch_rids_.size()) < cap && !done_ &&
           cursor_.Valid()) {
      if (!EntryQualifies()) {
        // Keys are monotone: an equality-prefix mismatch or a violated
        // upper bound means no further entry qualifies; a violated lower
        // bound cannot happen (the seek skipped below-bound entries).
        done_ = true;
        break;
      }
      const int64_t rid = cursor_.rid();
      if (reverse_) {
        cursor_.Prev();
      } else {
        cursor_.Next();
      }
      pages_.Access(rid);
      ++ctx_.metrics->rows_scanned;
      if (!ctx_.OnRowScanned()) {
        done_ = true;
        break;
      }
      scratch_rids_.push_back(rid);
      ++ordinal_;
    }
  }
  // Materialize the gathered rids column at a time (cf. TableScanOp).
  const int64_t n = static_cast<int64_t>(scratch_rids_.size());
  const size_t width = src_ordinals_.size();
  for (size_t c = 0; c < width; ++c) {
    const size_t ord = static_cast<size_t>(src_ordinals_[c]);
    for (int64_t i = 0; i < n; ++i) {
      out->AppendColumnValue(c, table_.row(scratch_rids_[static_cast<size_t>(
                                    i)])[ord]);
    }
  }
  if (emit_provenance_) {
    for (int64_t i = 0; i < n; ++i) {
      out->AppendColumnValue(width, Value::Int(first_ordinal + i));
    }
  }
  out->SetRowCount(n);
  return !out->empty();
}

// ---------------------------------------------------------------------------
// FilterOp
// ---------------------------------------------------------------------------

FilterOp::FilterOp(OperatorPtr child, std::vector<Predicate> predicates,
                   ExecContext ctx)
    : Operator(ctx), child_(std::move(child)),
      predicates_(std::move(predicates)) {
  layout_ = child_->layout();
}

void FilterOp::OpenImpl() {
  child_->Open();
  eval_ = std::make_unique<ExprEvaluator>(layout_, ctx_.guard);
}

bool FilterOp::NextBatchImpl(RowBatch* out) {
  if (ctx_.row_shim) {
    // Legacy row-at-a-time shape: pull materialized rows through the
    // child's compat shim and evaluate each predicate row-wise.
    return FillBatch(out, [this](Row* row) {
      while (ctx_.GuardOk() && child_->Next(row)) {
        bool pass = true;
        for (const Predicate& p : predicates_) {
          if (!eval_->EvalPredicate(p, *row)) {
            pass = false;
            break;
          }
        }
        if (pass) return true;
      }
      return false;
    });
  }
  while (ctx_.GuardOk() && child_->NextBatch(&input_)) {
    const int64_t n = input_.size();
    sel_.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      sel_[static_cast<size_t>(i)] = static_cast<int32_t>(i);
    }
    for (const Predicate& p : predicates_) {
      if (sel_.empty()) break;
      eval_->FilterBatch(p, input_, &sel_);
    }
    if (sel_.empty()) continue;
    if (static_cast<int64_t>(sel_.size()) != n) {
      // Compact survivors in place (moves, no Value copies) — the child
      // batch is our scratch and is reset on the next pull anyway.
      input_.Compact(sel_);
    }
    swap(*out, input_);
    return true;
  }
  return false;
}

void FilterOp::Close() { child_->Close(); }

// ---------------------------------------------------------------------------
// SortOp
// ---------------------------------------------------------------------------

SortOp::SortOp(OperatorPtr child, OrderSpec spec, ExecContext ctx)
    : Operator(ctx), child_(std::move(child)), spec_(std::move(spec)),
      buffer_(ctx.guard, &stats_) {
  layout_ = child_->layout();
}

bool SortOp::ResolveComparator() {
  positions_.clear();
  descending_.clear();
  ExprEvaluator eval(layout_);
  for (const OrderElement& e : spec_) {
    int p = eval.PositionOf(e.col);
    if (p < 0) {
      ctx_.Poison(Status::Internal(
          StrFormat("sort column %s missing from layout",
                    DefaultColumnName(e.col).c_str())));
      return false;
    }
    positions_.push_back(p);
    descending_.push_back(e.dir == SortDirection::kDescending);
  }
  return true;
}

bool SortOp::RowLess(const Row& a, const Row& b) const {
  for (size_t i = 0; i < positions_.size(); ++i) {
    ++ctx_.metrics->comparisons;
    int c = a[static_cast<size_t>(positions_[i])].Compare(
        b[static_cast<size_t>(positions_[i])]);
    if (c != 0) return descending_[i] ? c > 0 : c < 0;
  }
  return false;
}

void SortOp::SortBuffer() {
  SortRowsNormalized(&rows_, positions_, descending_,
                     &ctx_.metrics->comparisons);
}

bool SortOp::SpillCurrentRun() {
  SortBuffer();
  Result<std::unique_ptr<SpillRun>> run = ctx_.spill->WriteRun(rows_);
  if (!run.ok()) {
    ctx_.Poison(run.status());
    return false;
  }
  runs_.push_back(std::move(run).value_unsafe());
  rows_.clear();
  buffer_.Release();
  return true;
}

bool SortOp::SpillRunAsync() {
  // Bound in-flight jobs by the worker knob; join oldest-first so the
  // collection thread blocks on the run most likely to have finished.
  while (jobs_.size() - jobs_joined_ >=
         static_cast<size_t>(ctx_.parallel_workers)) {
    JoinOneJob();
    if (!ctx_.GuardOk()) return false;
  }
  auto job = std::make_unique<RunJob>();
  job->rows = std::move(rows_);
  rows_.clear();
  job->metrics = std::make_unique<RuntimeMetrics>();
  job->spill = std::make_unique<SpillManager>(ctx_.spill->config(),
                                              job->metrics.get());
  // Reserve the run's slot now: runs_ keeps input order regardless of job
  // completion order, so merge tie-breaking (lowest run index wins) stays
  // identical to the serial spill order.
  job->slot = runs_.size();
  runs_.push_back(nullptr);
  // The job takes over the buffered rows' guard charge; it is released at
  // join, once the run is on disk and the rows are freed.
  job->charged_rows = buffer_.rows();
  job->charged_bytes = buffer_.bytes();
  buffer_.ForgetCharge();
  RunJob* j = job.get();
  j->thread = std::thread([this, j] {
    const int64_t start_ns = ThreadCpuNs();
    SortRowsNormalized(&j->rows, positions_, descending_,
                       &j->metrics->comparisons);
    Result<std::unique_ptr<SpillRun>> run = j->spill->WriteRun(j->rows);
    if (run.ok()) {
      j->run = std::move(run).value_unsafe();
    } else {
      j->status = run.status();
    }
    j->rows.clear();
    j->metrics->worker_busy_ns_max = ThreadCpuNs() - start_ns;
    j->metrics->worker_busy_ns_total = j->metrics->worker_busy_ns_max;
  });
  jobs_.push_back(std::move(job));
  return ctx_.GuardOk();
}

void SortOp::JoinOneJob() {
  RunJob* job = jobs_[jobs_joined_].get();
  if (job->thread.joinable()) job->thread.join();
  ++jobs_joined_;
  if (ctx_.metrics != nullptr) ctx_.metrics->MergeFrom(*job->metrics);
  if (ctx_.guard != nullptr) {
    ctx_.guard->OnBufferReleased(job->charged_rows, job->charged_bytes);
  }
  if (!job->status.ok()) {
    ctx_.Poison(job->status);
    return;
  }
  runs_[job->slot] = std::move(job->run);
}

void SortOp::JoinAllJobs() {
  while (jobs_joined_ < jobs_.size()) JoinOneJob();
  jobs_.clear();
  jobs_joined_ = 0;
}

void SortOp::Abandon() {
  JoinAllJobs();
  rows_.clear();
  buffer_.Release();
  heads_.clear();
  head_valid_.clear();
  merging_ = false;
  ReleaseRuns();
}

void SortOp::ReleaseRuns() {
  for (std::unique_ptr<SpillRun>& run : runs_) {
    // A failed/abandoned parallel job can leave its placeholder empty.
    if (run == nullptr) continue;
    // runs_ is only ever non-empty under an engine-provided SpillManager.
    Status st = ctx_.spill->ReleaseRun(std::move(run));
    if (!st.ok()) ctx_.Poison(std::move(st));
  }
  runs_.clear();
}

void SortOp::OpenImpl() {
  child_->Open();
  buffer_.Release();
  rows_.clear();
  ReleaseRuns();
  heads_.clear();
  head_valid_.clear();
  pos_ = 0;
  merging_ = false;
  if (!ResolveComparator()) return;
  const int64_t budget =
      ctx_.spill != nullptr ? ctx_.spill->config().sort_memory_rows : 0;
  // Parallel run generation (§5.2): with workers available, a full buffer
  // is sorted and spilled on a job thread while this thread keeps pulling
  // input — run formation overlaps input production. The row shim keeps
  // the historical strictly-serial shape (it is the baseline).
  const bool async_runs = ctx_.parallel_workers > 1 && !ctx_.row_shim;
  int64_t total_rows = 0;
  Row row;
  if (ctx_.row_shim) {
    // Legacy row-at-a-time collection through the child's compat shim.
    while (child_->Next(&row)) {
      if (!buffer_.Add(row)) return;  // buffer limit tripped: wind down
      rows_.push_back(std::move(row));
      ++total_rows;
      if (budget > 0 && static_cast<int64_t>(rows_.size()) >= budget) {
        if (!SpillCurrentRun()) {
          Abandon();
          return;
        }
      }
    }
  } else {
    RowBatch batch;
    while (child_->NextBatch(&batch)) {
      const int64_t n = batch.size();
      for (int64_t i = 0; i < n; ++i) {
        batch.TakeRowInto(i, &row);
        if (!buffer_.Add(row)) {  // buffer limit tripped: wind down
          JoinAllJobs();
          return;
        }
        rows_.push_back(std::move(row));
        ++total_rows;
        if (budget > 0 && static_cast<int64_t>(rows_.size()) >= budget) {
          if (!(async_runs ? SpillRunAsync() : SpillCurrentRun())) {
            Abandon();
            return;
          }
        }
      }
    }
  }
  JoinAllJobs();  // every reserved runs_ slot is installed past this point
  if (!ctx_.GuardOk()) {
    Abandon();
    return;
  }
  ++ctx_.metrics->sorts_performed;
  ctx_.metrics->rows_sorted += total_rows;
  SortBuffer();  // the tail — or the whole input when nothing spilled
  if (runs_.empty()) return;
  if (ctx_.InjectFault("exec.sort.spill.merge")) {
    Abandon();
    return;
  }
  heads_.resize(runs_.size());
  head_valid_.assign(runs_.size(), false);
  for (size_t i = 0; i < runs_.size(); ++i) {
    bool eof = false;
    Status st = ctx_.spill->ReadNext(runs_[i].get(), &heads_[i], &eof);
    if (!st.ok()) {
      ctx_.Poison(std::move(st));
      Abandon();
      return;
    }
    head_valid_[i] = !eof;
  }
  merging_ = true;
}

bool SortOp::NextBatchImpl(RowBatch* out) {
  if (merging_) {
    return FillBatch(out, [this](Row* row) { return MergeNext(row); });
  }
  out->Reset(layout_.size(), BatchCapacity());
  while (!out->full() && pos_ < rows_.size()) {
    out->AppendRow(std::move(rows_[pos_]));
    ++pos_;
  }
  return !out->empty();
}

bool SortOp::MergeNext(Row* out) {
  if (!ctx_.GuardOk()) return false;
  // Smallest run head wins; among equal heads the lowest run index (the
  // earliest rows in input order) wins, and the in-memory tail — the
  // newest rows — only wins strictly, which together preserve stability.
  int best = -1;
  for (size_t i = 0; i < heads_.size(); ++i) {
    if (!head_valid_[i]) continue;
    if (best < 0 || RowLess(heads_[i], heads_[static_cast<size_t>(best)])) {
      best = static_cast<int>(i);
    }
  }
  if (pos_ < rows_.size() &&
      (best < 0 || RowLess(rows_[pos_], heads_[static_cast<size_t>(best)]))) {
    *out = std::move(rows_[pos_++]);
    return true;
  }
  if (best < 0) return false;  // runs and tail both drained
  size_t b = static_cast<size_t>(best);
  *out = std::move(heads_[b]);
  bool eof = false;
  Status st = ctx_.spill->ReadNext(runs_[b].get(), &heads_[b], &eof);
  if (!st.ok()) {
    ctx_.Poison(std::move(st));
    Abandon();
    return false;
  }
  head_valid_[b] = !eof;
  return true;
}

void SortOp::Close() {
  child_->Close();
  JoinAllJobs();
  rows_.clear();
  heads_.clear();
  head_valid_.clear();
  merging_ = false;
  ReleaseRuns();
  buffer_.Release();
}

// ---------------------------------------------------------------------------
// JoinOp
// ---------------------------------------------------------------------------

JoinOp::JoinOp(OperatorPtr outer, OperatorPtr inner,
               const std::vector<std::pair<ColumnId, ColumnId>>& pairs,
               JoinKind kind, ExecContext ctx)
    : Operator(ctx), outer_(std::move(outer)), inner_(std::move(inner)),
      kind_(kind), buffer_(ctx.guard, &stats_) {
  layout_ = outer_->layout();
  for (const ColumnId& c : inner_->layout()) layout_.push_back(c);
  std::vector<ColumnId> ocols, icols;
  for (const auto& [o, i] : pairs) {
    ocols.push_back(o);
    icols.push_back(i);
  }
  outer_positions_ = PositionsOf(ocols, outer_->layout(), ctx_);
  inner_positions_ = PositionsOf(icols, inner_->layout(), ctx_);
}

void JoinOp::Concat(const Row& inner, Row* out) const {
  *out = outer_row_;
  out->insert(out->end(), inner.begin(), inner.end());
}

void JoinOp::Padded(Row* out) const {
  *out = outer_row_;
  out->resize(layout_.size());  // default Values are NULL
}

void JoinOp::Close() {
  outer_->Close();
  inner_->Close();
  buffer_.Release();
}

// ---------------------------------------------------------------------------
// MergeJoinOp
// ---------------------------------------------------------------------------

MergeJoinOp::MergeJoinOp(OperatorPtr outer, OperatorPtr inner,
                         std::vector<std::pair<ColumnId, ColumnId>> pairs,
                         JoinKind kind, ExecContext ctx)
    : JoinOp(std::move(outer), std::move(inner), pairs, kind, ctx) {}

void MergeJoinOp::OpenImpl() {
  outer_->Open();
  inner_->Open();
  outer_valid_ = outer_->Next(&outer_row_);
  inner_valid_ = inner_->Next(&inner_row_);
  outer_started_ = false;
  group_valid_ = false;
  group_pos_ = 0;
}

int MergeJoinOp::CompareKeys() const {
  for (size_t i = 0; i < outer_positions_.size(); ++i) {
    ++ctx_.metrics->comparisons;
    int c = outer_row_[static_cast<size_t>(outer_positions_[i])].Compare(
        inner_row_[static_cast<size_t>(inner_positions_[i])]);
    if (c != 0) return c;
  }
  return 0;
}

bool MergeJoinOp::OuterKeyEqualsGroup() const {
  for (size_t i = 0; i < outer_positions_.size(); ++i) {
    if (outer_row_[static_cast<size_t>(outer_positions_[i])].Compare(
            group_key_[i]) != 0) {
      return false;
    }
  }
  return true;
}

bool MergeJoinOp::SeekGroup() {
  group_valid_ = false;
  while (inner_valid_) {
    if (KeyHasNull(inner_row_, inner_positions_)) {
      inner_valid_ = inner_->Next(&inner_row_);
      continue;
    }
    int cmp = CompareKeys();
    if (cmp > 0) {
      inner_valid_ = inner_->Next(&inner_row_);
      continue;
    }
    // Cost accounting differs by kind: the inner kind charges its
    // equality test at the stop row as a second key comparison, the left
    // kind reuses the three-way result. Simulated time is built on these
    // counts, and the golden and benchmark queries pin both.
    if (kind_ == JoinKind::kInner) cmp = CompareKeys();
    if (cmp < 0) return false;
    LoadInnerGroup();
    return true;
  }
  return false;
}

void MergeJoinOp::LoadInnerGroup() {
  group_.clear();
  buffer_.Release();
  group_key_.clear();
  for (int p : inner_positions_) {
    group_key_.push_back(inner_row_[static_cast<size_t>(p)]);
  }
  while (inner_valid_) {
    bool same = true;
    for (size_t i = 0; i < inner_positions_.size(); ++i) {
      if (inner_row_[static_cast<size_t>(inner_positions_[i])].Compare(
              group_key_[i]) != 0) {
        same = false;
        break;
      }
    }
    if (!same) break;
    if (!buffer_.Add(inner_row_)) {
      inner_valid_ = false;  // buffer limit tripped: wind down
      break;
    }
    group_.push_back(inner_row_);
    inner_valid_ = inner_->Next(&inner_row_);
  }
  group_valid_ = true;
}

bool MergeJoinOp::NextBatchImpl(RowBatch* out) {
  return FillBatch(out, [this](Row* row) { return ProduceRow(row); });
}

bool MergeJoinOp::ProduceRow(Row* out) {
  while (outer_valid_) {
    if (!outer_started_) {
      outer_started_ = true;
      group_pos_ = 0;
      if (KeyHasNull(outer_row_, outer_positions_)) {
        matched_ = false;
      } else if (group_valid_ && OuterKeyEqualsGroup()) {
        matched_ = true;
      } else {
        matched_ = SeekGroup();
        if (!matched_ && !inner_valid_ && kind_ == JoinKind::kInner) {
          // Inner exhausted: no later outer row can match.
          outer_valid_ = false;
          return false;
        }
      }
    }
    if (matched_ && group_pos_ < group_.size()) {
      Concat(group_[group_pos_++], out);
      return true;
    }
    const bool pad = !matched_ && kind_ == JoinKind::kLeftOuter;
    if (pad) Padded(out);
    outer_valid_ = outer_->Next(&outer_row_);
    outer_started_ = false;
    if (pad) return true;
  }
  return false;
}

void MergeJoinOp::Close() {
  JoinOp::Close();
  group_.clear();
}

// ---------------------------------------------------------------------------
// IndexNLJoinOp
// ---------------------------------------------------------------------------

IndexNLJoinOp::IndexNLJoinOp(OperatorPtr outer, const Table& table,
                             int table_id, int index_ordinal,
                             std::vector<std::pair<ColumnId, ColumnId>> pairs,
                             ExecContext ctx,
                             const ColumnSet* required_columns)
    : Operator(ctx),
      outer_(std::move(outer)),
      table_(table),
      index_ordinal_(index_ordinal),
      pairs_(std::move(pairs)),
      pages_(ctx.metrics, kRowsPerPage) {
  layout_ = outer_->layout();
  for (const ColumnId& c :
       TableLayout(table, table_id, required_columns, &inner_ordinals_)) {
    layout_.push_back(c);
  }
  std::vector<ColumnId> ocols;
  for (const auto& [o, i] : pairs_) ocols.push_back(o);
  outer_positions_ = PositionsOf(ocols, outer_->layout(), ctx_);
}

void IndexNLJoinOp::OpenImpl() {
  outer_->Open();
  probing_ = false;
  outer_batch_.Reset(outer_->layout().size(), 1);
  outer_pos_ = -1;  // Probe pre-increments
}

IndexNLJoinOp::ProbeResult IndexNLJoinOp::Probe() {
  const BTreeIndex* index =
      table_.index(static_cast<size_t>(index_ordinal_));
  if (index == nullptr) {
    ctx_.Poison(Status::Internal("index join probe into unbuilt index on "
                                 "table '" + table_.name() + "'"));
    return ProbeResult::kEnd;
  }
  while (true) {
    ++outer_pos_;
    if (outer_pos_ >= outer_batch_.size()) return ProbeResult::kNeedBatch;
    if (ctx_.InjectFault("storage.btree.read")) return ProbeResult::kEnd;
    probe_key_.clear();
    bool has_null = false;
    for (int p : outer_positions_) {
      const size_t c = static_cast<size_t>(p);
      if (outer_batch_.IsNull(c, outer_pos_)) {
        has_null = true;
        break;
      }
      probe_key_.push_back(outer_batch_.At(c, outer_pos_));
    }
    if (has_null) continue;
    ++ctx_.metrics->index_probes;
    cursor_ = index->SeekAtLeast(probe_key_);
    if (cursor_.Valid() && index->CompareKeys(cursor_.key(), probe_key_) == 0) {
      probing_ = true;
      return ProbeResult::kMatch;
    }
  }
}

// Legacy row-shim variants: outer rows are materialized one at a time
// through the compat shim and each output row is built as a Row — the
// engine's pre-vectorization shape, kept as the sweep baseline.
bool IndexNLJoinOp::RowProbe() {
  const BTreeIndex* index =
      table_.index(static_cast<size_t>(index_ordinal_));
  if (index == nullptr) {
    ctx_.Poison(Status::Internal("index join probe into unbuilt index on "
                                 "table '" + table_.name() + "'"));
    return false;
  }
  while (outer_->Next(&row_outer_)) {
    if (ctx_.InjectFault("storage.btree.read")) return false;
    probe_key_.clear();
    bool has_null = false;
    for (int p : outer_positions_) {
      const Value& v = row_outer_[static_cast<size_t>(p)];
      if (v.is_null()) has_null = true;
      probe_key_.push_back(v);
    }
    if (has_null) continue;
    ++ctx_.metrics->index_probes;
    cursor_ = index->SeekAtLeast(probe_key_);
    if (cursor_.Valid() && index->CompareKeys(cursor_.key(), probe_key_) == 0) {
      probing_ = true;
      return true;
    }
  }
  return false;
}

bool IndexNLJoinOp::RowProduce(Row* out) {
  const BTreeIndex* index =
      table_.index(static_cast<size_t>(index_ordinal_));
  while (true) {
    if (!probing_) {
      if (!RowProbe()) return false;
    }
    if (cursor_.Valid() &&
        index->CompareKeys(cursor_.key(), probe_key_) == 0) {
      int64_t rid = cursor_.rid();
      cursor_.Next();
      pages_.Access(rid);
      ++ctx_.metrics->rows_scanned;
      if (!ctx_.OnRowScanned()) return false;
      *out = row_outer_;
      const Row& inner = table_.row(rid);
      for (int32_t ord : inner_ordinals_) {
        out->push_back(inner[static_cast<size_t>(ord)]);
      }
      return true;
    }
    probing_ = false;
  }
}

bool IndexNLJoinOp::NextBatchImpl(RowBatch* out) {
  if (ctx_.row_shim) {
    return FillBatch(out, [this](Row* row) { return RowProduce(row); });
  }
  const BTreeIndex* index =
      table_.index(static_cast<size_t>(index_ordinal_));
  out->Reset(layout_.size(), BatchCapacity());
  const size_t outer_width = outer_->layout().size();
  const int64_t cap = out->capacity();

  // Gather phase: collect (outer row, inner rid) match pairs. The pairs
  // only ever reference the *current* outer batch — when the outer batch
  // is exhausted mid-build, the gathered rows are materialized and the
  // batch goes out short (consumers must not assume fullness).
  match_outer_.clear();
  match_rid_.clear();
  while (static_cast<int64_t>(match_rid_.size()) < cap) {
    if (!ctx_.GuardOk()) break;
    if (!probing_) {
      ProbeResult r = Probe();
      if (r == ProbeResult::kEnd) break;
      if (r == ProbeResult::kNeedBatch) {
        if (!match_rid_.empty()) break;  // flush rows of the old batch first
        if (!outer_->NextBatch(&outer_batch_)) break;
        outer_pos_ = -1;
        continue;
      }
    }
    // Invariant while probing_: the cursor sits on an entry matching
    // probe_key_. Advancing it tells us up front whether this is the last
    // match for the current outer row.
    const int64_t rid = cursor_.rid();
    cursor_.Next();
    const bool last_match =
        !(cursor_.Valid() &&
          index->CompareKeys(cursor_.key(), probe_key_) == 0);
    pages_.Access(rid);
    ++ctx_.metrics->rows_scanned;
    probing_ = !last_match;
    if (!ctx_.OnRowScanned()) break;
    match_outer_.push_back(static_cast<int32_t>(outer_pos_));
    match_rid_.push_back(rid);
  }

  // Materialize phase, column at a time: sequential writes into each
  // output column instead of striding across the full output width per
  // row. Outer values are copied per match (one outer row fans out to
  // every matching inner row) except at each outer row's last gathered
  // use, where they are moved — the slot is never read again (probe_key_
  // holds its own copies of the key, and probing_ tells us whether the
  // final gathered row still has matches pending in the next batch).
  const size_t n = match_rid_.size();
  for (size_t c = 0; c < outer_width; ++c) {
    for (size_t i = 0; i < n; ++i) {
      const int64_t pos = match_outer_[i];
      const bool last_use =
          (i + 1 < n) ? (match_outer_[i + 1] != pos) : !probing_;
      if (last_use) {
        out->AppendColumnValue(c, std::move(*outer_batch_.MutableAt(c, pos)));
      } else {
        out->AppendColumnValue(c, outer_batch_.At(c, pos));
      }
    }
  }
  for (size_t c = 0; c < inner_ordinals_.size(); ++c) {
    const size_t ord = static_cast<size_t>(inner_ordinals_[c]);
    for (size_t i = 0; i < n; ++i) {
      out->AppendColumnValue(outer_width + c, table_.row(match_rid_[i])[ord]);
    }
  }
  out->SetRowCount(static_cast<int64_t>(n));
  return !out->empty();
}

void IndexNLJoinOp::Close() { outer_->Close(); }

// ---------------------------------------------------------------------------
// NestedLoopJoinOp
// ---------------------------------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr outer, OperatorPtr inner,
                                   JoinKind kind,
                                   std::vector<Predicate> on_predicates,
                                   ExecContext ctx)
    : JoinOp(std::move(outer), std::move(inner), {}, kind, ctx),
      on_predicates_(std::move(on_predicates)) {}

void NestedLoopJoinOp::OpenImpl() {
  outer_->Open();
  inner_->Open();
  if (!on_predicates_.empty()) {
    eval_ = std::make_unique<ExprEvaluator>(layout_, ctx_.guard);
  }
  inner_rows_.clear();
  buffer_.Release();
  inner_pos_ = 0;
  matched_ = false;
  Row row;
  while (inner_->Next(&row)) {
    if (!buffer_.Add(row)) {
      outer_valid_ = false;
      return;
    }
    inner_rows_.push_back(std::move(row));
  }
  outer_valid_ = outer_->Next(&outer_row_);
}

bool NestedLoopJoinOp::NextBatchImpl(RowBatch* out) {
  return FillBatch(out, [this](Row* row) { return ProduceRow(row); });
}

bool NestedLoopJoinOp::PassesOn(const Row& row) const {
  for (const Predicate& p : on_predicates_) {
    if (!eval_->EvalPredicate(p, row)) return false;
  }
  return true;
}

bool NestedLoopJoinOp::ProduceRow(Row* out) {
  while (outer_valid_) {
    while (inner_pos_ < inner_rows_.size()) {
      Concat(inner_rows_[inner_pos_++], out);
      if (PassesOn(*out)) {
        matched_ = true;
        return true;
      }
    }
    const bool pad = !matched_ && kind_ == JoinKind::kLeftOuter;
    if (pad) Padded(out);
    outer_valid_ = outer_->Next(&outer_row_);
    matched_ = false;
    inner_pos_ = 0;
    if (pad) return true;
  }
  return false;
}

void NestedLoopJoinOp::Close() {
  JoinOp::Close();
  inner_rows_.clear();
}

// ---------------------------------------------------------------------------
// HashJoinOp
// ---------------------------------------------------------------------------

size_t HashJoinOp::KeyHash::operator()(const std::vector<Value>& key) const {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : key) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool HashJoinOp::KeyEq::operator()(const std::vector<Value>& a,
                                   const std::vector<Value>& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

HashJoinOp::HashJoinOp(OperatorPtr outer, OperatorPtr inner,
                       std::vector<std::pair<ColumnId, ColumnId>> pairs,
                       JoinKind kind, ExecContext ctx)
    : JoinOp(std::move(outer), std::move(inner), pairs, kind, ctx) {}

void HashJoinOp::OpenImpl() {
  outer_->Open();
  inner_->Open();
  hash_table_.clear();
  buffer_.Release();
  Row row;
  while (inner_->Next(&row)) {
    if (KeyHasNull(row, inner_positions_)) continue;
    if (!buffer_.Add(row)) break;  // buffer limit tripped: wind down
    std::vector<Value> key;
    for (int p : inner_positions_) key.push_back(row[static_cast<size_t>(p)]);
    hash_table_[std::move(key)].push_back(std::move(row));
  }
  matches_ = nullptr;
  match_pos_ = 0;
}

bool HashJoinOp::NextBatchImpl(RowBatch* out) {
  return FillBatch(out, [this](Row* row) { return ProduceRow(row); });
}

bool HashJoinOp::ProduceRow(Row* out) {
  if (!ctx_.GuardOk()) return false;
  std::vector<Value> key;
  while (true) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      Concat((*matches_)[match_pos_++], out);
      return true;
    }
    matches_ = nullptr;
    if (!outer_->Next(&outer_row_)) return false;
    if (!KeyHasNull(outer_row_, outer_positions_)) {
      key.clear();
      for (int p : outer_positions_) {
        key.push_back(outer_row_[static_cast<size_t>(p)]);
      }
      auto it = hash_table_.find(key);
      if (it != hash_table_.end()) {
        matches_ = &it->second;
        match_pos_ = 0;
        continue;
      }
    }
    if (kind_ == JoinKind::kLeftOuter) {
      Padded(out);
      return true;
    }
  }
}

void HashJoinOp::Close() {
  JoinOp::Close();
  hash_table_.clear();
}

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

Aggregator::Aggregator(std::vector<AggregateSpec> aggregates, ExecContext ctx,
                       OperatorStats* stats)
    : aggregates_(std::move(aggregates)),
      ctx_(ctx),
      distinct_buffer_(ctx.guard, stats) {}

void Aggregator::Open(const std::vector<ColumnId>& input_layout) {
  eval_ = std::make_unique<ExprEvaluator>(input_layout, ctx_.guard);
  distinct_buffer_.Release();
}

bool Aggregator::Accumulate(const Row& row, Group* group) {
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    const AggregateSpec& spec = aggregates_[i];
    State& st = (*group)[i];
    if (spec.count_star) {
      ++st.count;
      continue;
    }
    Value v = eval_->Eval(spec.arg, row);
    if (v.is_null()) continue;
    if (spec.distinct) {
      auto inserted = st.distinct_values.emplace(std::vector<Value>{v}, true);
      // Each retained distinct value is buffered state.
      if (inserted.second && !distinct_buffer_.Add(inserted.first->first)) {
        return false;
      }
      continue;
    }
    st.saw_value = true;
    ++st.count;
    switch (spec.func) {
      case AggFunc::kSum:
      case AggFunc::kAvg:
        AddToSum(v, &st);
        break;
      case AggFunc::kMin:
        if (st.min_v.is_null() || v.Compare(st.min_v) < 0) st.min_v = v;
        break;
      case AggFunc::kMax:
        if (st.max_v.is_null() || v.Compare(st.max_v) > 0) st.max_v = v;
        break;
      case AggFunc::kCount:
        break;  // count accumulated above
    }
  }
  return true;
}

void Aggregator::Finish(Group* group, Row* out) const {
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    const AggregateSpec& spec = aggregates_[i];
    State& st = (*group)[i];
    if (spec.distinct) {
      // Fold the collected distinct values into a fresh state.
      State folded;
      folded.saw_value = !st.distinct_values.empty();
      folded.distinct_values = std::move(st.distinct_values);
      st = std::move(folded);
      for (const auto& [key, _] : st.distinct_values) {
        const Value& v = key[0];
        ++st.count;
        AddToSum(v, &st);
        if (st.min_v.is_null() || v.Compare(st.min_v) < 0) st.min_v = v;
        if (st.max_v.is_null() || v.Compare(st.max_v) > 0) st.max_v = v;
      }
    }
    switch (spec.func) {
      case AggFunc::kCount:
        out->push_back(Value::Int(st.count));
        break;
      case AggFunc::kSum:
        if (!st.saw_value) {
          out->push_back(Value::Null());
        } else if (st.sum_is_int) {
          out->push_back(Value::Int(st.sum_i));
        } else {
          out->push_back(Value::Double(st.sum_d));
        }
        break;
      case AggFunc::kAvg:
        if (!st.saw_value || st.count == 0) {
          out->push_back(Value::Null());
        } else {
          double total = st.sum_is_int ? static_cast<double>(st.sum_i)
                                       : st.sum_d;
          out->push_back(Value::Double(total / static_cast<double>(st.count)));
        }
        break;
      case AggFunc::kMin:
        out->push_back(st.min_v);
        break;
      case AggFunc::kMax:
        out->push_back(st.max_v);
        break;
    }
  }
  ++ctx_.metrics->comparisons;  // group-boundary detection work
}

// ---------------------------------------------------------------------------
// StreamGroupByOp
// ---------------------------------------------------------------------------

StreamGroupByOp::StreamGroupByOp(OperatorPtr child,
                                 std::vector<ColumnId> group_columns,
                                 std::vector<AggregateSpec> aggregates,
                                 ExecContext ctx)
    : Operator(ctx),
      child_(std::move(child)),
      group_columns_(std::move(group_columns)),
      aggregator_(aggregates, ctx, &stats_) {
  for (const ColumnId& c : group_columns_) layout_.push_back(c);
  for (const AggregateSpec& a : aggregates) layout_.push_back(a.output);
  group_positions_ = PositionsOf(group_columns_, child_->layout(), ctx_);
}

void StreamGroupByOp::OpenImpl() {
  child_->Open();
  aggregator_.Open(child_->layout());
  pending_valid_ = child_->Next(&pending_row_);
  done_ = false;
}

void StreamGroupByOp::EmitGroup(Row* out) {
  out->assign(current_key_.begin(), current_key_.end());
  aggregator_.Finish(&group_, out);
}

bool StreamGroupByOp::NextBatchImpl(RowBatch* out) {
  return FillBatch(out, [this](Row* row) { return ProduceRow(row); });
}

bool StreamGroupByOp::ProduceRow(Row* out) {
  if (done_ || !ctx_.GuardOk()) return false;
  // Open a new group. The previous group's DISTINCT sets are gone.
  group_ = aggregator_.NewGroup();
  aggregator_.ReleaseDistinct();
  current_key_.clear();
  if (!pending_valid_) {
    // Empty input: only a global aggregate emits a (single) row.
    done_ = true;
    if (!group_columns_.empty()) return false;
    EmitGroup(out);
    return true;
  }
  for (int p : group_positions_) {
    current_key_.push_back(pending_row_[static_cast<size_t>(p)]);
  }
  if (!aggregator_.Accumulate(pending_row_, &group_)) return false;
  Row row;
  while (child_->Next(&row)) {
    bool same = true;
    for (size_t i = 0; i < group_positions_.size(); ++i) {
      ++ctx_.metrics->comparisons;
      if (row[static_cast<size_t>(group_positions_[i])].Compare(
              current_key_[i]) != 0) {
        same = false;
        break;
      }
    }
    if (!same) {
      pending_row_ = std::move(row);
      EmitGroup(out);
      return true;
    }
    if (!aggregator_.Accumulate(row, &group_)) return false;
  }
  pending_valid_ = false;
  done_ = true;
  EmitGroup(out);
  return true;
}

void StreamGroupByOp::Close() {
  child_->Close();
  group_.clear();
  aggregator_.ReleaseDistinct();
}

// ---------------------------------------------------------------------------
// HashGroupByOp
// ---------------------------------------------------------------------------

HashGroupByOp::HashGroupByOp(OperatorPtr child,
                             std::vector<ColumnId> group_columns,
                             std::vector<AggregateSpec> aggregates,
                             ExecContext ctx)
    : Operator(ctx),
      child_(std::move(child)),
      group_columns_(std::move(group_columns)),
      aggregator_(aggregates, ctx, &stats_),
      groups_buffer_(ctx.guard, &stats_) {
  for (const ColumnId& c : group_columns_) layout_.push_back(c);
  for (const AggregateSpec& a : aggregates) layout_.push_back(a.output);
  group_positions_ = PositionsOf(group_columns_, child_->layout(), ctx_);
}

void HashGroupByOp::OpenImpl() {
  child_->Open();
  aggregator_.Open(child_->layout());
  groups_.clear();
  groups_buffer_.Release();
  next_ = groups_.end();

  // A row joining an existing group is charged the key comparisons that
  // stream grouping spends finding it equal to its predecessor.
  const int64_t same_group_comparisons =
      static_cast<int64_t>(group_positions_.size());
  Row row;
  std::vector<Value> key;
  while (child_->Next(&row)) {
    key.clear();
    for (int p : group_positions_) key.push_back(row[static_cast<size_t>(p)]);
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      if (!groups_buffer_.Add(key)) return;  // buffer limit tripped
      it = groups_.emplace(key, aggregator_.NewGroup()).first;
    } else {
      ctx_.metrics->comparisons += same_group_comparisons;
    }
    if (!aggregator_.Accumulate(row, &it->second)) return;
  }
  if (!ctx_.GuardOk()) return;
  if (groups_.empty() && group_columns_.empty()) {
    // A global aggregate over empty input still emits one row.
    if (!groups_buffer_.Add(Row())) return;
    groups_.emplace(std::vector<Value>(), aggregator_.NewGroup());
  }
  next_ = groups_.begin();
}

bool HashGroupByOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  Row row;
  while (!out->full() && next_ != groups_.end()) {
    row = next_->first;
    aggregator_.Finish(&next_->second, &row);
    out->AppendRow(std::move(row));
    ++next_;
  }
  return !out->empty();
}

void HashGroupByOp::Close() {
  child_->Close();
  groups_.clear();
  next_ = groups_.end();
  groups_buffer_.Release();
  aggregator_.ReleaseDistinct();
}

// ---------------------------------------------------------------------------
// StreamDistinctOp / HashDistinctOp
// ---------------------------------------------------------------------------

StreamDistinctOp::StreamDistinctOp(OperatorPtr child,
                                   ColumnSet distinct_columns, ExecContext ctx)
    : Operator(ctx), child_(std::move(child)),
      distinct_columns_(std::move(distinct_columns)) {
  layout_ = child_->layout();
  std::vector<ColumnId> cols(distinct_columns_.begin(),
                             distinct_columns_.end());
  positions_ = PositionsOf(cols, layout_, ctx_);
}

void StreamDistinctOp::OpenImpl() {
  child_->Open();
  has_last_ = false;
}

bool StreamDistinctOp::NextBatchImpl(RowBatch* out) {
  return FillBatch(out, [this](Row* row) { return ProduceRow(row); });
}

bool StreamDistinctOp::ProduceRow(Row* out) {
  Row row;
  while (child_->Next(&row)) {
    std::vector<Value> key;
    for (int p : positions_) key.push_back(row[static_cast<size_t>(p)]);
    if (has_last_) {
      bool same = true;
      for (size_t i = 0; i < key.size(); ++i) {
        if (key[i].Compare(last_key_[i]) != 0) {
          same = false;
          break;
        }
      }
      if (same) continue;
    }
    last_key_ = std::move(key);
    has_last_ = true;
    *out = std::move(row);
    return true;
  }
  return false;
}

void StreamDistinctOp::Close() { child_->Close(); }

HashDistinctOp::HashDistinctOp(OperatorPtr child, ColumnSet distinct_columns,
                               ExecContext ctx)
    : Operator(ctx), child_(std::move(child)),
      distinct_columns_(std::move(distinct_columns)), buffer_(ctx.guard, &stats_) {
  layout_ = child_->layout();
  std::vector<ColumnId> cols(distinct_columns_.begin(),
                             distinct_columns_.end());
  positions_ = PositionsOf(cols, layout_, ctx_);
}

void HashDistinctOp::OpenImpl() {
  child_->Open();
  seen_.clear();
  buffer_.Release();
}

bool HashDistinctOp::NextBatchImpl(RowBatch* out) {
  return FillBatch(out, [this](Row* row) { return ProduceRow(row); });
}

bool HashDistinctOp::ProduceRow(Row* out) {
  Row row;
  while (child_->Next(&row)) {
    std::vector<Value> key;
    for (int p : positions_) key.push_back(row[static_cast<size_t>(p)]);
    auto inserted = seen_.emplace(std::move(key), true);
    if (!inserted.second) continue;
    // The seen-set retains every distinct key: charge it as buffered.
    if (!buffer_.Add(inserted.first->first)) return false;
    *out = std::move(row);
    return true;
  }
  return false;
}

void HashDistinctOp::Close() {
  child_->Close();
  seen_.clear();
  buffer_.Release();
}

// ---------------------------------------------------------------------------
// UnionAllOp / MergeUnionOp
// ---------------------------------------------------------------------------

UnionAllOp::UnionAllOp(std::vector<OperatorPtr> children,
                       std::vector<ColumnId> layout, ExecContext ctx)
    : Operator(ctx), children_(std::move(children)) {
  layout_ = std::move(layout);
}

void UnionAllOp::OpenImpl() {
  for (OperatorPtr& c : children_) c->Open();
  current_ = 0;
}

bool UnionAllOp::NextBatchImpl(RowBatch* out) {
  // Batches are positional; a child batch is forwarded untouched even
  // though this operator's layout carries the union's fresh ColumnIds.
  while (current_ < children_.size()) {
    if (children_[current_]->NextBatch(out)) return true;
    ++current_;
  }
  return false;
}

void UnionAllOp::Close() {
  for (OperatorPtr& c : children_) c->Close();
}

MergeUnionOp::MergeUnionOp(std::vector<OperatorPtr> children,
                           std::vector<ColumnId> layout, ExecContext ctx)
    : Operator(ctx), children_(std::move(children)) {
  layout_ = std::move(layout);
}

void MergeUnionOp::OpenImpl() {
  heads_.assign(children_.size(), Row());
  valid_.assign(children_.size(), false);
  for (size_t i = 0; i < children_.size(); ++i) {
    children_[i]->Open();
    valid_[i] = children_[i]->Next(&heads_[i]);
  }
}

int MergeUnionOp::CompareRows(const Row& a, const Row& b) const {
  for (size_t i = 0; i < a.size(); ++i) {
    ++ctx_.metrics->comparisons;
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  return 0;
}

bool MergeUnionOp::NextBatchImpl(RowBatch* out) {
  return FillBatch(out, [this](Row* row) { return ProduceRow(row); });
}

bool MergeUnionOp::ProduceRow(Row* out) {
  int best = -1;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!valid_[i]) continue;
    if (best < 0 ||
        CompareRows(heads_[i], heads_[static_cast<size_t>(best)]) < 0) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) return false;
  size_t b = static_cast<size_t>(best);
  *out = std::move(heads_[b]);
  valid_[b] = children_[b]->Next(&heads_[b]);
  return true;
}

void MergeUnionOp::Close() {
  for (OperatorPtr& c : children_) c->Close();
}

// ---------------------------------------------------------------------------
// TopNOp
// ---------------------------------------------------------------------------

TopNOp::TopNOp(OperatorPtr child, OrderSpec spec, int64_t limit,
               ExecContext ctx)
    : Operator(ctx),
      child_(std::move(child)),
      spec_(std::move(spec)),
      limit_(limit),
      buffer_(ctx.guard, &stats_) {
  layout_ = child_->layout();
}

void TopNOp::OpenImpl() {
  child_->Open();
  rows_.clear();
  buffer_.Release();
  pos_ = 0;
  if (limit_ <= 0) return;

  std::vector<int> positions;
  std::vector<bool> descending;
  ExprEvaluator eval(layout_);
  for (const OrderElement& e : spec_) {
    int p = eval.PositionOf(e.col);
    if (p < 0) {
      ctx_.Poison(Status::Internal(
          StrFormat("top-n column %s missing from layout",
                    DefaultColumnName(e.col).c_str())));
      return;
    }
    positions.push_back(p);
    descending.push_back(e.dir == SortDirection::kDescending);
  }
  int64_t* cmp_counter = &ctx_.metrics->comparisons;
  auto less = [&positions, &descending, cmp_counter](const Row& a,
                                                     const Row& b) {
    for (size_t i = 0; i < positions.size(); ++i) {
      ++*cmp_counter;
      int c = a[static_cast<size_t>(positions[i])].Compare(
          b[static_cast<size_t>(positions[i])]);
      if (c != 0) return descending[i] ? c > 0 : c < 0;
    }
    return false;
  };

  // Max-heap of the current best `limit_` rows (heap top = worst kept).
  Row row;
  size_t cap = static_cast<size_t>(limit_);
  while (child_->Next(&row)) {
    if (rows_.size() < cap) {
      if (!buffer_.Add(row)) {
        rows_.clear();
        buffer_.Release();
        return;
      }
      rows_.push_back(std::move(row));
      std::push_heap(rows_.begin(), rows_.end(), less);
      continue;
    }
    if (less(row, rows_.front())) {
      std::pop_heap(rows_.begin(), rows_.end(), less);
      // Same row count, different payload: re-price the slot so string
      // growth across evictions can't drift away from the byte guardrail.
      if (!buffer_.Update(rows_.back(), row)) {
        rows_.clear();
        buffer_.Release();
        return;
      }
      rows_.back() = std::move(row);
      std::push_heap(rows_.begin(), rows_.end(), less);
    }
  }
  std::sort_heap(rows_.begin(), rows_.end(), less);
  ++ctx_.metrics->sorts_performed;
  ctx_.metrics->rows_sorted += static_cast<int64_t>(rows_.size());
}

bool TopNOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  while (!out->full() && pos_ < rows_.size()) {
    out->AppendRow(std::move(rows_[pos_]));
    ++pos_;
  }
  return !out->empty();
}

void TopNOp::Close() {
  child_->Close();
  rows_.clear();
  buffer_.Release();
}

// ---------------------------------------------------------------------------
// LimitOp
// ---------------------------------------------------------------------------

LimitOp::LimitOp(OperatorPtr child, int64_t limit, ExecContext ctx)
    : Operator(ctx), child_(std::move(child)), limit_(limit) {
  layout_ = child_->layout();
}

void LimitOp::OpenImpl() {
  child_->Open();
  emitted_ = 0;
}

bool LimitOp::NextBatchImpl(RowBatch* out) {
  while (emitted_ < limit_) {
    if (!child_->NextBatch(out)) return false;
    if (out->empty()) continue;
    const int64_t remaining = limit_ - emitted_;
    if (out->size() > remaining) out->Truncate(remaining);
    emitted_ += out->size();
    return true;
  }
  return false;
}

void LimitOp::Close() { child_->Close(); }

// ---------------------------------------------------------------------------
// ProjectOp
// ---------------------------------------------------------------------------

ProjectOp::ProjectOp(OperatorPtr child, std::vector<OutputColumn> projections,
                     ExecContext ctx)
    : Operator(ctx), child_(std::move(child)),
      projections_(std::move(projections)) {
  for (const OutputColumn& oc : projections_) layout_.push_back(oc.id);
}

void ProjectOp::OpenImpl() {
  child_->Open();
  eval_ = std::make_unique<ExprEvaluator>(child_->layout(), ctx_.guard);
}

bool ProjectOp::NextBatchImpl(RowBatch* out) {
  while (ctx_.GuardOk()) {
    if (!child_->NextBatch(&input_)) return false;
    out->Reset(projections_.size(),
               input_.size() > 0 ? input_.size() : int64_t{1});
    for (size_t j = 0; j < projections_.size(); ++j) {
      eval_->EvalColumn(projections_[j].expr, input_, out, j);
    }
    out->SetRowCount(input_.size());
    if (!out->empty()) return true;
  }
  return false;
}

void ProjectOp::Close() { child_->Close(); }

}  // namespace ordopt
