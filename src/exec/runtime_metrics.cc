#include "exec/runtime_metrics.h"

#include <algorithm>

#include "common/str_util.h"

namespace ordopt {

namespace {

// The counters that add up across workers and across time; MergeFrom sums
// them and AccumulateDelta accrues them. The rest are peaks (maxed on
// merge) or plan-time fields.
constexpr int64_t RuntimeMetrics::*kAdditiveCounters[] = {
    &RuntimeMetrics::rows_produced,    &RuntimeMetrics::rows_scanned,
    &RuntimeMetrics::comparisons,      &RuntimeMetrics::seq_pages,
    &RuntimeMetrics::random_pages,     &RuntimeMetrics::index_probes,
    &RuntimeMetrics::sorts_performed,  &RuntimeMetrics::rows_sorted,
    &RuntimeMetrics::spill_runs,       &RuntimeMetrics::spill_rows,
    &RuntimeMetrics::spill_bytes,      &RuntimeMetrics::spill_retries,
    &RuntimeMetrics::exchange_batches, &RuntimeMetrics::worker_busy_ns_total,
};

}  // namespace

void RuntimeMetrics::MergeFrom(const RuntimeMetrics& worker) {
  for (int64_t RuntimeMetrics::*counter : kAdditiveCounters) {
    this->*counter += worker.*counter;
  }
  rows_buffered_peak = std::max(rows_buffered_peak, worker.rows_buffered_peak);
  bytes_buffered_peak =
      std::max(bytes_buffered_peak, worker.bytes_buffered_peak);
  parallel_workers = std::max(parallel_workers, worker.parallel_workers);
  worker_busy_ns_max = std::max(worker_busy_ns_max, worker.worker_busy_ns_max);
}

void RuntimeMetrics::AccumulateDelta(const RuntimeMetrics& before,
                                     const RuntimeMetrics& after) {
  for (int64_t RuntimeMetrics::*counter : kAdditiveCounters) {
    this->*counter += after.*counter - before.*counter;
  }
}

std::string RuntimeMetrics::ToString() const {
  return StrFormat(
      "rows=%lld scanned=%lld cmp=%lld seq_pages=%lld rand_pages=%lld "
      "probes=%lld sorts=%lld rows_sorted=%lld buf_rows_peak=%lld "
      "buf_bytes_peak=%lld spill_runs=%lld spill_rows=%lld "
      "spill_bytes=%lld spill_retries=%lld reduce_hits=%lld "
      "reduce_misses=%lld workers=%lld exch_batches=%lld "
      "worker_busy_max=%.3fs worker_busy_total=%.3fs "
      "sim_io=%.3fs sim_cpu=%.3fs",
      static_cast<long long>(rows_produced),
      static_cast<long long>(rows_scanned),
      static_cast<long long>(comparisons),
      static_cast<long long>(seq_pages),
      static_cast<long long>(random_pages),
      static_cast<long long>(index_probes),
      static_cast<long long>(sorts_performed),
      static_cast<long long>(rows_sorted),
      static_cast<long long>(rows_buffered_peak),
      static_cast<long long>(bytes_buffered_peak),
      static_cast<long long>(spill_runs), static_cast<long long>(spill_rows),
      static_cast<long long>(spill_bytes),
      static_cast<long long>(spill_retries),
      static_cast<long long>(reduce_cache_hits),
      static_cast<long long>(reduce_cache_misses),
      static_cast<long long>(parallel_workers),
      static_cast<long long>(exchange_batches),
      static_cast<double>(worker_busy_ns_max) / 1e9,
      static_cast<double>(worker_busy_ns_total) / 1e9, SimulatedIoSeconds(),
      SimulatedCpuSeconds());
}

std::string RuntimeMetrics::ToJson() const {
  return StrFormat(
      "{\"rows_produced\":%lld,\"rows_scanned\":%lld,\"comparisons\":%lld,"
      "\"seq_pages\":%lld,\"random_pages\":%lld,\"index_probes\":%lld,"
      "\"sorts_performed\":%lld,\"rows_sorted\":%lld,"
      "\"rows_buffered_peak\":%lld,\"bytes_buffered_peak\":%lld,"
      "\"spill_runs\":%lld,\"spill_rows\":%lld,\"spill_bytes\":%lld,"
      "\"spill_retries\":%lld,\"reduce_cache_hits\":%lld,"
      "\"reduce_cache_misses\":%lld,\"parallel_workers\":%lld,"
      "\"exchange_batches\":%lld,\"worker_busy_ns_max\":%lld,"
      "\"worker_busy_ns_total\":%lld,\"sim_io_seconds\":%.6g,"
      "\"sim_cpu_seconds\":%.6g,\"sim_elapsed_seconds\":%.6g}",
      static_cast<long long>(rows_produced),
      static_cast<long long>(rows_scanned),
      static_cast<long long>(comparisons),
      static_cast<long long>(seq_pages),
      static_cast<long long>(random_pages),
      static_cast<long long>(index_probes),
      static_cast<long long>(sorts_performed),
      static_cast<long long>(rows_sorted),
      static_cast<long long>(rows_buffered_peak),
      static_cast<long long>(bytes_buffered_peak),
      static_cast<long long>(spill_runs), static_cast<long long>(spill_rows),
      static_cast<long long>(spill_bytes),
      static_cast<long long>(spill_retries),
      static_cast<long long>(reduce_cache_hits),
      static_cast<long long>(reduce_cache_misses),
      static_cast<long long>(parallel_workers),
      static_cast<long long>(exchange_batches),
      static_cast<long long>(worker_busy_ns_max),
      static_cast<long long>(worker_busy_ns_total), SimulatedIoSeconds(),
      SimulatedCpuSeconds(), SimulatedElapsedSeconds());
}

}  // namespace ordopt
