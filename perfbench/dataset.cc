#include "dataset.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "rng.h"

namespace perfbench {

using ordopt::DataType;
using ordopt::Row;
using ordopt::Status;
using ordopt::Table;
using ordopt::TableDef;
using ordopt::Value;

const char* const Dataset::kSegmentNames[kSegments] = {
    "automobile", "building", "furniture", "machinery", "household"};
const char* const Dataset::kNationNames[kNations] = {
    "algeria", "argentina", "brazil",     "canada",         "egypt",
    "ethiopia", "france",   "germany",    "india",          "indonesia",
    "iran",    "iraq",      "japan",      "jordan",         "kenya",
    "morocco", "mozambique", "peru",      "china",          "romania",
    "saudi arabia", "vietnam", "russia",  "united kingdom", "united states"};
const char* const Dataset::kRegionNames[kRegions] = {
    "africa", "america", "asia", "europe", "middle east"};
const int Dataset::kNationRegion[kNations] = {0, 1, 1, 1, 4, 0, 3, 3, 2,
                                              2, 4, 4, 2, 4, 0, 0, 0, 1,
                                              2, 3, 4, 2, 3, 3, 1};

int64_t DaysFromCivil(int y, int m, int d) {
  // Howard Hinnant's days_from_civil.
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

Dataset Generate(double scale_factor, uint64_t seed) {
  Dataset out;
  const int64_t customers =
      std::max<int64_t>(10, static_cast<int64_t>(150000 * scale_factor));
  const int64_t orders = customers * 10;
  const int64_t date_lo = DaysFromCivil(1992, 1, 1);
  const int64_t date_hi = DaysFromCivil(1998, 8, 2);
  const int64_t open_after = DaysFromCivil(1995, 6, 17);
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x5bd1e995ULL);

  out.customers.reserve(static_cast<size_t>(customers));
  for (int64_t k = 1; k <= customers; ++k) {
    Dataset::Customer c;
    c.custkey = k;
    c.segment = static_cast<uint8_t>(rng.Uniform(0, Dataset::kSegments - 1));
    c.nationkey = rng.Uniform(0, Dataset::kNations - 1);
    c.acctbal = static_cast<double>(rng.Uniform(-999, 9999));
    out.customers.push_back(c);
  }

  // Orders arrive in shuffled key order so the heap carries no o_orderkey
  // order; lineitems follow their order, as a dbgen-style load does.
  std::vector<int64_t> keys(static_cast<size_t>(orders));
  for (int64_t i = 0; i < orders; ++i) keys[static_cast<size_t>(i)] = i + 1;
  for (int64_t i = orders - 1; i > 0; --i) {
    std::swap(keys[static_cast<size_t>(i)],
              keys[static_cast<size_t>(rng.Uniform(0, i))]);
  }
  out.orders.reserve(static_cast<size_t>(orders));
  out.lineitems.reserve(static_cast<size_t>(orders * 4));
  for (int64_t ok : keys) {
    Dataset::Order o;
    o.orderkey = ok;
    o.custkey = rng.Uniform(1, customers);
    o.orderdate = rng.Uniform(date_lo, date_hi - 151);
    o.totalprice = static_cast<double>(rng.Uniform(1000, 450000));
    o.status = rng.Chance(0.5) ? 'F' : 'O';
    out.orders.push_back(o);
    const int64_t lines = rng.Uniform(1, 7);
    for (int64_t ln = 1; ln <= lines; ++ln) {
      Dataset::Lineitem l;
      l.orderkey = ok;
      l.linenumber = ln;
      l.shipdate = o.orderdate + rng.Uniform(1, 121);
      l.extendedprice = static_cast<double>(rng.Uniform(900, 105000));
      l.discount = static_cast<double>(rng.Uniform(0, 10)) / 100.0;
      l.quantity = rng.Uniform(1, 50);
      l.returnflag = rng.Chance(0.25) ? 'R' : rng.Chance(0.5) ? 'A' : 'N';
      l.linestatus = l.shipdate > open_after ? 'O' : 'F';
      out.lineitems.push_back(l);
    }
  }
  return out;
}

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Creates `def` and appends `rows` (moved in), adding the time spent in
/// the engine to `*seconds`.
Status CreateAndAppend(ordopt::Database* db, TableDef def,
                       std::vector<Row> rows, double* seconds) {
  const Clock::time_point start = Clock::now();
  ordopt::Result<Table*> table = db->CreateTable(std::move(def));
  if (!table.ok()) return table.status();
  for (Row& row : rows) {
    ordopt::Result<int64_t> rid = table.value()->AppendRow(std::move(row));
    if (!rid.ok()) return rid.status();
  }
  *seconds += SecondsSince(start);
  return Status::OK();
}

}  // namespace

Status Load(const Dataset& data, ordopt::Database* db, LoadTimes* times) {
  times->append_s = 0;
  times->finalize_s = 0;
  {
    TableDef def;
    def.name = "region";
    def.columns = {{"r_regionkey", DataType::kInt64},
                   {"r_name", DataType::kString}};
    def.AddUniqueKey({"r_regionkey"});
    std::vector<Row> rows;
    for (int i = 0; i < Dataset::kRegions; ++i) {
      rows.push_back({Value::Int(i), Value::Str(Dataset::kRegionNames[i])});
    }
    Status s = CreateAndAppend(db, std::move(def), std::move(rows),
                               &times->append_s);
    if (!s.ok()) return s;
  }
  {
    TableDef def;
    def.name = "nation";
    def.columns = {{"n_nationkey", DataType::kInt64},
                   {"n_name", DataType::kString},
                   {"n_regionkey", DataType::kInt64}};
    def.AddUniqueKey({"n_nationkey"});
    def.AddIndex("nation_pk", {"n_nationkey"}, /*unique=*/true);
    std::vector<Row> rows;
    for (int i = 0; i < Dataset::kNations; ++i) {
      rows.push_back({Value::Int(i), Value::Str(Dataset::kNationNames[i]),
                      Value::Int(Dataset::kNationRegion[i])});
    }
    Status s = CreateAndAppend(db, std::move(def), std::move(rows),
                               &times->append_s);
    if (!s.ok()) return s;
  }
  {
    TableDef def;
    def.name = "customer";
    def.columns = {{"c_custkey", DataType::kInt64},
                   {"c_name", DataType::kString},
                   {"c_mktsegment", DataType::kString},
                   {"c_nationkey", DataType::kInt64},
                   {"c_acctbal", DataType::kDouble}};
    def.AddUniqueKey({"c_custkey"});
    def.AddIndex("customer_pk", {"c_custkey"}, /*unique=*/true);
    std::vector<Row> rows;
    rows.reserve(data.customers.size());
    char name[32];
    for (const Dataset::Customer& c : data.customers) {
      std::snprintf(name, sizeof(name), "customer#%06lld",
                    static_cast<long long>(c.custkey));
      rows.push_back({Value::Int(c.custkey), Value::Str(name),
                      Value::Str(Dataset::kSegmentNames[c.segment]),
                      Value::Int(c.nationkey), Value::Double(c.acctbal)});
    }
    Status s = CreateAndAppend(db, std::move(def), std::move(rows),
                               &times->append_s);
    if (!s.ok()) return s;
  }
  {
    TableDef def;
    def.name = "orders";
    def.columns = {{"o_orderkey", DataType::kInt64},
                   {"o_custkey", DataType::kInt64},
                   {"o_orderdate", DataType::kDate},
                   {"o_shippriority", DataType::kInt64},
                   {"o_totalprice", DataType::kDouble},
                   {"o_orderstatus", DataType::kString}};
    def.AddUniqueKey({"o_orderkey"});
    def.AddIndex("orders_pk", {"o_orderkey"}, /*unique=*/true);
    def.AddIndex("orders_custkey", {"o_custkey"});
    std::vector<Row> rows;
    rows.reserve(data.orders.size());
    for (const Dataset::Order& o : data.orders) {
      rows.push_back({Value::Int(o.orderkey), Value::Int(o.custkey),
                      Value::Date(o.orderdate), Value::Int(0),
                      Value::Double(o.totalprice),
                      Value::Str(std::string(1, o.status))});
    }
    Status s = CreateAndAppend(db, std::move(def), std::move(rows),
                               &times->append_s);
    if (!s.ok()) return s;
  }
  {
    TableDef def;
    def.name = "lineitem";
    def.columns = {{"l_orderkey", DataType::kInt64},
                   {"l_linenumber", DataType::kInt64},
                   {"l_shipdate", DataType::kDate},
                   {"l_extendedprice", DataType::kDouble},
                   {"l_discount", DataType::kDouble},
                   {"l_quantity", DataType::kInt64},
                   {"l_returnflag", DataType::kString},
                   {"l_linestatus", DataType::kString}};
    def.AddUniqueKey({"l_orderkey", "l_linenumber"});
    def.AddIndex("lineitem_orderkey", {"l_orderkey"}, /*unique=*/false,
                 /*clustered=*/true);
    def.AddIndex("lineitem_shipdate", {"l_shipdate"});
    std::vector<Row> rows;
    rows.reserve(data.lineitems.size());
    for (const Dataset::Lineitem& l : data.lineitems) {
      rows.push_back({Value::Int(l.orderkey), Value::Int(l.linenumber),
                      Value::Date(l.shipdate), Value::Double(l.extendedprice),
                      Value::Double(l.discount), Value::Int(l.quantity),
                      Value::Str(std::string(1, l.returnflag)),
                      Value::Str(std::string(1, l.linestatus))});
    }
    Status s = CreateAndAppend(db, std::move(def), std::move(rows),
                               &times->append_s);
    if (!s.ok()) return s;
  }
  const Clock::time_point start = Clock::now();
  Status s = db->FinalizeAll();
  times->finalize_s = SecondsSince(start);
  return s;
}

}  // namespace perfbench
