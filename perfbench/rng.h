#ifndef ORDOPT_PERFBENCH_RNG_H_
#define ORDOPT_PERFBENCH_RNG_H_

#include <cstdint>

namespace perfbench {

/// splitmix64: small, seedable, and unrelated to the engine's generator,
/// so the benchmark's inputs share no code with the program under test.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next() % span);
  }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // ORDOPT_PERFBENCH_RNG_H_
