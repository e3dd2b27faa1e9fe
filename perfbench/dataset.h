#ifndef ORDOPT_PERFBENCH_DATASET_H_
#define ORDOPT_PERFBENCH_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/database.h"

namespace perfbench {

/// Days since 1970-01-01 for a proleptic Gregorian date. Written here
/// rather than taken from the engine so the reference answers share no
/// code with the program they check.
int64_t DaysFromCivil(int y, int m, int d);

/// The benchmark's own TPC-D-shaped rows, kept column-wise and compact so
/// reference answers can be computed without the engine. Same schema,
/// keys and value domains as the engine's LoadTpcd, drawn from a
/// different, benchmark-owned generator.
struct Dataset {
  static constexpr int kSegments = 5;
  static constexpr int kNations = 25;
  static constexpr int kRegions = 5;
  static const char* const kSegmentNames[kSegments];
  static const char* const kNationNames[kNations];
  static const char* const kRegionNames[kRegions];
  static const int kNationRegion[kNations];

  struct Customer {
    int64_t custkey;
    int64_t nationkey;
    double acctbal;
    uint8_t segment;  // index into kSegmentNames
  };
  struct Order {
    int64_t orderkey;
    int64_t custkey;
    int64_t orderdate;  // days since epoch
    double totalprice;
    char status;  // 'F' or 'O'
  };
  struct Lineitem {
    int64_t orderkey;
    int64_t linenumber;
    int64_t shipdate;
    double extendedprice;
    double discount;
    int64_t quantity;
    char returnflag;
    char linestatus;
  };

  std::vector<Customer> customers;  // custkey = index + 1
  std::vector<Order> orders;        // heap order (shuffled keys)
  std::vector<Lineitem> lineitems;  // grouped by order, heap order

  size_t TotalRows() const {
    return kRegions + kNations + customers.size() + orders.size() +
           lineitems.size();
  }
};

/// Generates the rows for `scale_factor` from `seed`. Scale factor 1.0 is
/// 150k customers, 1.5M orders and about 6M lineitems, as in TPC-D.
Dataset Generate(double scale_factor, uint64_t seed);

/// Time spent inside the engine's load API.
struct LoadTimes {
  double append_s = 0;    // CreateTable + AppendRow
  double finalize_s = 0;  // FinalizeAll: clustering, indexes, statistics
};

/// Loads `data` into `db` through the public catalog API with the same
/// tables, unique keys and indexes as LoadTpcd: clustered
/// lineitem(l_orderkey), unclustered orders(o_orderkey) and
/// orders(o_custkey), so Q3 gets the paper's plan. Engine rows are built
/// before the clock starts; only the load API calls are timed.
ordopt::Status Load(const Dataset& data, ordopt::Database* db,
                    LoadTimes* times);

}  // namespace perfbench

#endif  // ORDOPT_PERFBENCH_DATASET_H_
