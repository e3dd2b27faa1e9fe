#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

// Keeps the kernel's result observable so the compiler cannot drop it.
volatile uint64_t g_sink = 0;

struct KernelPlan {
  uint32_t set = 0;
  double cost = 0;
  std::vector<int> order;
  std::shared_ptr<const KernelPlan> left, right;
};
using KernelPlanPtr = std::shared_ptr<const KernelPlan>;

/// Bottom-up join enumeration over every subset of kRelations relations:
/// each subset combines the kept plans of each of its splits and keeps
/// the kMaxKept cheapest that no kept plan dominates on cost and order
/// length. About 60k plan nodes are built and mostly freed again.
double KernelMs() {
  constexpr int kRelations = 10;
  constexpr size_t kMaxKept = 3;
  const auto start = std::chrono::steady_clock::now();
  std::unordered_map<uint32_t, std::vector<KernelPlanPtr>> best;
  for (int i = 0; i < kRelations; ++i) {
    auto leaf = std::make_shared<KernelPlan>();
    leaf->set = 1u << i;
    leaf->cost = i + 1;
    leaf->order = {i};
    best[leaf->set].push_back(std::move(leaf));
  }
  uint64_t built = 0;
  for (uint32_t set = 1; set < (1u << kRelations); ++set) {
    if (__builtin_popcount(set) < 2) continue;
    std::vector<KernelPlanPtr>& kept = best[set];
    for (uint32_t l = (set - 1) & set; l > 0; l = (l - 1) & set) {
      const uint32_t r = set ^ l;
      if (l < r) continue;  // each split once
      auto lit = best.find(l);
      auto rit = best.find(r);
      if (lit == best.end() || rit == best.end()) continue;
      for (const KernelPlanPtr& a : lit->second) {
        for (const KernelPlanPtr& b : rit->second) {
          auto p = std::make_shared<KernelPlan>();
          p->set = set;
          p->cost = a->cost + b->cost + static_cast<double>(set % 7);
          p->order = a->order;
          p->left = a;
          p->right = b;
          ++built;
          const bool dominated = std::any_of(
              kept.begin(), kept.end(), [&](const KernelPlanPtr& k) {
                return k->cost <= p->cost &&
                       k->order.size() >= p->order.size();
              });
          if (dominated) continue;
          kept.push_back(std::move(p));
          if (kept.size() > kMaxKept) {
            std::sort(kept.begin(), kept.end(),
                      [](const KernelPlanPtr& x, const KernelPlanPtr& y) {
                        return x->cost < y->cost;
                      });
            kept.pop_back();
          }
        }
      }
    }
  }
  g_sink = built + best.size();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

double Calibration::Sample() {
  double ms = 0;
  if (threads_ <= 1) {
    ms = KernelMs();
  } else {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> copies;
    for (int i = 0; i < threads_; ++i) copies.emplace_back(KernelMs);
    for (std::thread& t : copies) t.join();
    ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
             .count();
  }
  samples_ms_.push_back(ms);
  return kReferenceKernelMs / ms;
}

double Calibration::median_ms() const {
  if (samples_ms_.empty()) return 0;
  std::vector<double> v = samples_ms_;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Calibration::Scale() const {
  const double measured = median_ms();
  return measured > 0 ? kReferenceKernelMs / measured : 1;
}

}  // namespace perfbench
