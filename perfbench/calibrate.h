#ifndef ORDOPT_PERFBENCH_CALIBRATE_H_
#define ORDOPT_PERFBENCH_CALIBRATE_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Host-speed calibration.
///
/// The speed of a shared host drifts by tens of percent within a second
/// and between processes, and every query slows together with it. Each
/// run therefore times a fixed, engine-independent kernel next to its
/// queries and reports wall times scaled to a reference host on which the
/// kernel takes kReferenceKernelMs. The kernel is a small join-order
/// dynamic program written here (heap-allocated plan nodes, subset maps,
/// a few cheapest plans kept per subset): branchy, allocation-heavy,
/// cache-resident work that slows and speeds up with the host as the
/// engine's planner and operators do. A change to the engine does not
/// touch the kernel, so it moves the scaled times as it moves the raw
/// ones; the raw times are printed beside them.
constexpr double kReferenceKernelMs = 8.0;

class Calibration {
 public:
  /// With `threads` > 1, each sample runs that many copies of the kernel
  /// at once, one per thread, and times them until the last one ends, as
  /// a parallel query waits for its slowest worker: a slow core then
  /// slows the kernel as it slows the query.
  explicit Calibration(int threads = 1) : threads_(threads) {}

  /// Times the kernel once, records the sample and returns the factor
  /// that expresses a wall time taken next to it on the reference host.
  double Sample();

  /// The same factor for the median of all samples so far.
  double Scale() const;

  size_t samples() const { return samples_ms_.size(); }
  double median_ms() const;

 private:
  int threads_;
  std::vector<double> samples_ms_;
};

}  // namespace perfbench

#endif  // ORDOPT_PERFBENCH_CALIBRATE_H_
