#ifndef ORDOPT_PERFBENCH_WORKLOADS_H_
#define ORDOPT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "optimizer/planner.h"
#include "reference.h"
#include "storage/database.h"

namespace perfbench {

/// One benchmark workload: the data size, the optimizer profile, and
/// whether requests go through a QueryService or straight to a
/// QueryEngine.
struct WorkloadSpec {
  double scale_factor = 0.05;
  ordopt::OptimizerConfig config;
  bool service = false;
  int service_workers = 2;
  int service_clients = 4;
  /// Whether one request in each client round uses other literals.
  bool vary_literals = false;
  /// Literal settings per query (1 = the tpcd_queries literals only).
  int literal_settings = 1;
};

/// The workload named `name`, with spill files pointed at `spill_dir`;
/// false when there is no such workload.
bool FindWorkload(const std::string& name, const std::string& spill_dir,
                  WorkloadSpec* spec);

/// Metrics in print order: name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// What one run observed. `attempted` counts whole rounds of the six
/// queries; `failed` counts queries that returned an error.
struct RunOutcome {
  bool correct = true;
  std::string first_error;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
  /// Human-readable reference figures (tracing overhead, per-phase sums
  /// against untraced medians); printed to stderr, not as metrics.
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    if (correct) first_error = why;
    correct = false;
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

/// Runs the measured loop for `seconds` (whole rounds only) and fills the
/// end-to-end metrics except setup_s and peak_rss_mb, or, with `trace`,
/// the per-layer metrics of the query layers and the service.
void RunWorkload(const WorkloadSpec& spec, ordopt::Database* db,
                 const std::vector<std::vector<Variant>>& variants,
                 double seconds, bool trace, uint64_t seed, RunOutcome* out);

}  // namespace perfbench

#endif  // ORDOPT_PERFBENCH_WORKLOADS_H_
