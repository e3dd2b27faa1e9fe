#ifndef ORDOPT_PERFBENCH_REFERENCE_H_
#define ORDOPT_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "dataset.h"

namespace perfbench {

/// The six queries every workload runs, in round order.
enum QueryIndex {
  kQ3 = 0,
  kPricingSummary,
  kDistinctShipdates,
  kLateOrders,
  kRegionRevenue,
  kJoin6,
  kNumQueries
};

/// Short name of a query ("q3", "join6", ...); its latency metric is the
/// name plus "_ms".
const char* QueryName(int query);

/// One reference cell. Dates are days since epoch, stored as integers.
struct Cell {
  enum Kind { kInt, kDouble, kString } kind = kInt;
  int64_t i = 0;
  double d = 0;
  std::string s;
};
using RefRow = std::vector<Cell>;

/// A query's expected answer, computed in plain C++ from the Dataset.
struct Expected {
  std::vector<RefRow> rows;
  /// ORDER BY as (column ordinal, descending) pairs.
  std::vector<std::pair<int, bool>> order_by;
};

/// One literal setting of a query: its SQL text and expected answer.
/// Variant 0 of each query uses the literals of the engine's tpcd_queries
/// texts (and, for join6, the only text there is).
struct Variant {
  std::string sql;
  Expected expected;
};

/// Relative tolerance for floating-point cells: sums of a few hundred
/// thousand doubles taken in a different order differ in the last bits.
constexpr double kRelTolerance = 1e-9;

/// Builds `variants_per_query` literal settings of every query (clamped to
/// what exists: one for join6, four for the others) and their answers.
/// Indexed [query][variant].
std::vector<std::vector<Variant>> BuildVariants(const Dataset& data,
                                                int variants_per_query);

/// Checks an engine result against `expected`: the same multiset of rows
/// (doubles within kRelTolerance, everything else exact, integer and
/// double cells compared by value) and every adjacent pair of rows in
/// ORDER BY order. On failure returns false and says why in `*why`.
bool CheckAnswer(const Expected& expected,
                 const std::vector<ordopt::Row>& actual, std::string* why);

/// Feeds the checker copies of a correct answer with one value changed and
/// with two rows swapped against its ORDER BY; returns true when it
/// accepts the original and rejects both corruptions.
bool CheckerSelfTest(const Expected& expected,
                     const std::vector<ordopt::Row>& correct,
                     std::string* why);

}  // namespace perfbench

#endif  // ORDOPT_PERFBENCH_REFERENCE_H_
