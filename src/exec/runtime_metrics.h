#ifndef ORDOPT_EXEC_RUNTIME_METRICS_H_
#define ORDOPT_EXEC_RUNTIME_METRICS_H_

#include <cstdint>
#include <string>
#include <unordered_set>

namespace ordopt {

/// Runtime counters collected during execution. Page counters come from a
/// per-scan locality tracker: a row fetch that stays on the current page is
/// free, a move to the next page counts as a sequential page read, and any
/// other move counts as a random page read — so clustered, ordered probe
/// sequences naturally cost sequential I/O (the §8.1 effect) without the
/// executor special-casing them.
struct RuntimeMetrics {
  int64_t rows_produced = 0;   ///< rows emitted by the plan root
  int64_t rows_scanned = 0;    ///< rows read from base tables
  int64_t comparisons = 0;     ///< sort + merge comparisons
  int64_t seq_pages = 0;       ///< sequential page reads
  int64_t random_pages = 0;    ///< random page reads
  int64_t index_probes = 0;    ///< nested-loop index probes
  int64_t sorts_performed = 0; ///< Sort operators that ran
  int64_t rows_sorted = 0;     ///< total rows passed through sorts
  /// Guardrail consumption high-water marks (filled by the QueryGuard so
  /// callers can compare consumption against configured limits even when
  /// the query tripped): peak rows / approximate bytes held at once in
  /// blocking operators (sorts, hash builds, materialized inners).
  int64_t rows_buffered_peak = 0;
  int64_t bytes_buffered_peak = 0;
  /// External-sort spill activity (SpillManager): sorted runs written to
  /// disk when a sort exceeds its row budget, and the rows/bytes they
  /// carried. Zero for queries that stayed in memory.
  int64_t spill_runs = 0;
  int64_t spill_rows = 0;
  int64_t spill_bytes = 0;
  /// Spill I/O attempts that were retried after a transient failure.
  int64_t spill_retries = 0;
  /// Reduce-cache statistics of the optimization that produced this
  /// query's plan (copied from the planner by the engine so trace export
  /// and the plan-bench gate see cache behavior alongside the runtime
  /// counters). 0/0 when the query was executed from a prebuilt plan.
  int64_t reduce_cache_hits = 0;
  int64_t reduce_cache_misses = 0;
  /// Morsel-parallel execution (src/exec/parallel/): worker count of the
  /// widest exchange that ran, batches forwarded through exchanges, and
  /// per-worker thread-CPU busy time (max = the parallel region's critical
  /// path, total = work that was distributed). All zero for serial plans.
  int64_t parallel_workers = 0;
  int64_t exchange_batches = 0;
  int64_t worker_busy_ns_max = 0;
  int64_t worker_busy_ns_total = 0;

  /// Accumulates a worker's counters into this (query-level) instance.
  /// Workers execute with private RuntimeMetrics so the hot paths never
  /// share cache lines; the exchange merges them at Close. Sums the
  /// additive counters, maxes the peaks, and leaves the plan-time fields
  /// (reduce-cache) alone — workers never plan.
  void MergeFrom(const RuntimeMetrics& worker);

  /// Adds what the additive counters accrued between two snapshots of one
  /// instance (`after - before`); peaks, the worker count and the
  /// plan-time fields are not accrued. This is how an operator's stats
  /// attribute query-level work to the calls that did it.
  void AccumulateDelta(const RuntimeMetrics& before,
                       const RuntimeMetrics& after);

  /// Simulated I/O time with 1996-style disk parameters: a random page
  /// pays a seek (~8 ms); sequential pages stream with big-block prefetch
  /// and I/O parallelism (~1 ms/page). The 8:1 ratio is kept close to the
  /// cost model's random:sequential ratio so plan rank order and simulated
  /// time agree.
  double SimulatedIoSeconds() const {
    return static_cast<double>(random_pages) * 0.008 +
           static_cast<double>(seq_pages) * 0.001;
  }

  /// Simulated CPU time on a 1996-class (66 MHz) processor. Row handling
  /// through an interpreted executor cost on the order of thousands of
  /// instructions: ~30 µs per row moved, ~5 µs per key comparison
  /// (calibrated against the paper's §8.1 numbers — 393 s for the
  /// scan-dominated disabled plan over a 1 GB database is ~60 µs/row).
  /// The paper's configuration drove the CPU to 100% utilization, so this
  /// work contributes elapsed time directly — a modern CPU would hide it.
  double SimulatedCpuSeconds() const {
    return static_cast<double>(comparisons) * 5e-6 +
           static_cast<double>(rows_scanned + rows_produced + rows_sorted) *
               30e-6;
  }

  /// Total simulated elapsed time (I/O + CPU) on the paper-era hardware.
  double SimulatedElapsedSeconds() const {
    return SimulatedIoSeconds() + SimulatedCpuSeconds();
  }

  std::string ToString() const;

  /// One JSON object with every counter plus the simulated-time rollups;
  /// embedded verbatim in the ORDOPT_TRACE event stream.
  std::string ToJson() const;
};

/// Per-operator runtime statistics, collected when a query runs under
/// EXPLAIN ANALYZE (ExecContext::collect_op_stats). `metrics` holds the
/// query-level RuntimeMetrics accrued across this operator's Open() and
/// NextBatch() calls. Those calls contain the nested child pulls, so the
/// counters are *inclusive* of the operator's subtree: stats roll up parent
/// -> child, and an operator's self cost is its value minus the sum over
/// its children.
struct OperatorStats {
  int64_t open_ns = 0;     ///< wall time inside Open() (blocking work)
  int64_t next_ns = 0;     ///< wall time across all NextBatch() calls
  int64_t next_calls = 0;  ///< NextBatch() calls (incl. the final false)
  int64_t rows_out = 0;    ///< rows this operator produced
  /// Additive RuntimeMetrics counters attributed to this subtree; its
  /// peak and plan-time fields stay zero.
  RuntimeMetrics metrics;
  /// Peak rows this operator held buffered at once (its BufferAccount).
  int64_t buffered_rows_peak = 0;

  int64_t total_ns() const { return open_ns + next_ns; }

  /// Accumulates another worker's stats for the same plan node: counters
  /// and times sum (total work across workers), peaks take the maximum.
  /// EXPLAIN ANALYZE of a parallel plan therefore shows aggregate work per
  /// operator, with wall time exceeding elapsed time when workers overlap.
  void MergeFrom(const OperatorStats& other) {
    open_ns += other.open_ns;
    next_ns += other.next_ns;
    next_calls += other.next_calls;
    rows_out += other.rows_out;
    metrics.MergeFrom(other.metrics);
    if (other.buffered_rows_peak > buffered_rows_peak) {
      buffered_rows_peak = other.buffered_rows_peak;
    }
  }
};

/// Tracks page-access locality for one scan or probe stream. A fetch on
/// the current page is free; a short forward move counts as a sequential
/// (prefetched) read — the disk arm sweeps forward, and the paper's
/// big-block I/O + striping configuration (§8.1) turns an ordered,
/// clustered probe sequence into sequential I/O even when pages are
/// skipped; anything else (backward moves, long jumps) is a random read.
class PageTracker {
 public:
  /// Forward jumps up to this many pages ride the prefetch window.
  static constexpr int64_t kPrefetchWindowPages = 32;

  PageTracker(RuntimeMetrics* metrics, int64_t rows_per_page)
      : metrics_(metrics), rows_per_page_(rows_per_page) {}

  /// Records the I/O for fetching row `rid`. Pages this operator already
  /// touched are buffer hits (free): the operator-local working set models
  /// the 512 MB buffer pool of the paper's configuration, which easily
  /// holds the hot pages of a repeatedly-probed table.
  void Access(int64_t rid) {
    int64_t page = rid / rows_per_page_;
    if (page == last_page_) return;
    if (resident_.insert(page).second == false) {
      last_page_ = page;  // buffer hit
      return;
    }
    if (page > last_page_ && page - last_page_ <= kPrefetchWindowPages &&
        last_page_ >= 0) {
      ++metrics_->seq_pages;
    } else {
      ++metrics_->random_pages;
    }
    last_page_ = page;
  }

 private:
  RuntimeMetrics* metrics_;
  int64_t rows_per_page_;
  int64_t last_page_ = -2;  // so the first access is random
  std::unordered_set<int64_t> resident_;
};

}  // namespace ordopt

#endif  // ORDOPT_EXEC_RUNTIME_METRICS_H_
