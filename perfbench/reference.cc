#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

using ordopt::DataType;
using ordopt::Row;
using ordopt::Value;

namespace {

const char* const kNames[kNumQueries] = {
    "q3", "pricing_summary", "distinct_shipdates", "late_orders",
    "region_revenue", "join6"};

// The SQL of the engine's tpcd_queries, with the literals as parameters.
// Variant 0 substitutes the original literals, so its text is the
// engine's own query.
const char kQ3Sql[] = R"sql(
select l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) as rev,
       o_orderdate, o_shippriority
from customer, orders, lineitem
where o_orderkey = l_orderkey
  and c_custkey = o_custkey
  and c_mktsegment = '%s'
  and o_orderdate < date('%s')
  and l_shipdate > date('%s')
group by l_orderkey, o_orderdate, o_shippriority
order by rev desc, o_orderdate
)sql";

const char kPricingSql[] = R"sql(
select l_returnflag, l_linestatus,
       sum(l_quantity) as sum_qty,
       sum(l_extendedprice) as sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
       avg(l_quantity) as avg_qty,
       avg(l_extendedprice) as avg_price,
       avg(l_discount) as avg_disc,
       count(*) as count_order
from lineitem
where l_shipdate <= date('%s')
group by l_returnflag, l_linestatus
order by l_returnflag, l_linestatus
)sql";

const char kDistinctSql[] = R"sql(
select distinct l_shipdate, l_orderkey
from lineitem
where l_shipdate > date('%s')
order by l_shipdate
)sql";

const char kLateSql[] = R"sql(
select o_orderdate, count(*) as order_count
from orders
where o_orderdate >= date('%s')
  and o_orderdate < date('%s')
  and o_orderkey in (select l_orderkey from lineitem
                     where l_shipdate > date('%s'))
group by o_orderdate
order by order_count desc, o_orderdate
limit 20
)sql";

const char kRegionSql[] = R"sql(
select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
from customer, orders, lineitem, nation, region
where c_custkey = o_custkey
  and l_orderkey = o_orderkey
  and c_nationkey = n_nationkey
  and n_regionkey = r_regionkey
  and r_name = '%s'
  and o_orderdate >= date('%s')
group by n_name
order by revenue desc
)sql";

// A six-way equi-join chain over nation: large enough that the optimizer's
// join enumeration dominates the query's time, small enough to plan in
// tens of milliseconds.
const char kJoin6Sql[] = R"sql(
select n1.n_name, count(*) as cnt
from nation n1, nation n2, nation n3, nation n4, nation n5, nation n6
where n1.n_nationkey = n2.n_nationkey
  and n2.n_nationkey = n3.n_nationkey
  and n3.n_nationkey = n4.n_nationkey
  and n4.n_nationkey = n5.n_nationkey
  and n5.n_nationkey = n6.n_nationkey
group by n1.n_name
order by n1.n_name
)sql";

// Literal settings; row 0 holds the tpcd_queries literals.
const char* const kQ3Literals[][2] = {{"building", "1995-03-15"},
                                      {"machinery", "1995-03-20"},
                                      {"household", "1995-03-10"},
                                      {"automobile", "1995-03-05"}};
const char* const kPricingLiterals[] = {"1998-08-01", "1998-07-01",
                                        "1998-06-01", "1998-05-01"};
const char* const kDistinctLiterals[] = {"1997-01-01", "1997-03-01",
                                         "1997-06-01", "1996-12-01"};
const char* const kLateLiterals[][3] = {
    {"1994-01-01", "1995-01-01", "1994-06-01"},
    {"1995-01-01", "1996-01-01", "1995-06-01"},
    {"1993-01-01", "1994-01-01", "1993-06-01"},
    {"1996-01-01", "1997-01-01", "1996-06-01"}};
const char* const kRegionLiterals[][2] = {{"asia", "1994-01-01"},
                                          {"europe", "1994-01-01"},
                                          {"america", "1995-01-01"},
                                          {"africa", "1993-06-01"}};
constexpr int kLiteralSettings = 4;

std::string Format(const char* fmt, const char* a, const char* b = "",
                   const char* c = "") {
  char buf[2048];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

int64_t Days(const char* iso) {
  int y = 0, m = 0, d = 0;
  std::sscanf(iso, "%d-%d-%d", &y, &m, &d);
  return DaysFromCivil(y, m, d);
}

Cell Int(int64_t v) {
  Cell c;
  c.kind = Cell::kInt;
  c.i = v;
  return c;
}
Cell Dbl(double v) {
  Cell c;
  c.kind = Cell::kDouble;
  c.d = v;
  return c;
}
Cell Str(std::string v) {
  Cell c;
  c.kind = Cell::kString;
  c.s = std::move(v);
  return c;
}

int SegmentIndex(const char* name) {
  for (int i = 0; i < Dataset::kSegments; ++i) {
    if (std::string(Dataset::kSegmentNames[i]) == name) return i;
  }
  return -1;
}

int RegionIndex(const char* name) {
  for (int i = 0; i < Dataset::kRegions; ++i) {
    if (std::string(Dataset::kRegionNames[i]) == name) return i;
  }
  return -1;
}

Expected Q3Answer(const Dataset& data, const char* segment,
                  const char* date) {
  const int seg = SegmentIndex(segment);
  const int64_t cut = Days(date);
  std::unordered_map<int64_t, int64_t> order_date;  // qualifying orders
  for (const Dataset::Order& o : data.orders) {
    if (o.orderdate < cut &&
        data.customers[static_cast<size_t>(o.custkey - 1)].segment == seg) {
      order_date.emplace(o.orderkey, o.orderdate);
    }
  }
  std::map<int64_t, double> revenue;
  for (const Dataset::Lineitem& l : data.lineitems) {
    if (l.shipdate > cut && order_date.count(l.orderkey) != 0) {
      revenue[l.orderkey] += l.extendedprice * (1 - l.discount);
    }
  }
  Expected e;
  for (const auto& [key, rev] : revenue) {
    e.rows.push_back({Int(key), Dbl(rev), Int(order_date[key]), Int(0)});
  }
  e.order_by = {{1, true}, {2, false}};
  return e;
}

Expected PricingAnswer(const Dataset& data, const char* date) {
  const int64_t cut = Days(date);
  struct Acc {
    int64_t qty = 0;
    double base = 0, disc_price = 0, disc = 0;
    int64_t count = 0;
  };
  std::map<std::pair<char, char>, Acc> groups;
  for (const Dataset::Lineitem& l : data.lineitems) {
    if (l.shipdate > cut) continue;
    Acc& a = groups[{l.returnflag, l.linestatus}];
    a.qty += l.quantity;
    a.base += l.extendedprice;
    a.disc_price += l.extendedprice * (1 - l.discount);
    a.disc += l.discount;
    ++a.count;
  }
  Expected e;
  for (const auto& [key, a] : groups) {
    const double n = static_cast<double>(a.count);
    e.rows.push_back({Str(std::string(1, key.first)),
                      Str(std::string(1, key.second)), Int(a.qty),
                      Dbl(a.base), Dbl(a.disc_price),
                      Dbl(static_cast<double>(a.qty) / n), Dbl(a.base / n),
                      Dbl(a.disc / n), Int(a.count)});
  }
  e.order_by = {{0, false}, {1, false}};
  return e;
}

Expected DistinctAnswer(const Dataset& data, const char* date) {
  const int64_t cut = Days(date);
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (const Dataset::Lineitem& l : data.lineitems) {
    if (l.shipdate > cut) pairs.emplace_back(l.shipdate, l.orderkey);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  Expected e;
  e.rows.reserve(pairs.size());
  for (const auto& [ship, key] : pairs) e.rows.push_back({Int(ship), Int(key)});
  e.order_by = {{0, false}};
  return e;
}

Expected LateAnswer(const Dataset& data, const char* lo, const char* hi,
                    const char* ship) {
  const int64_t from = Days(lo), to = Days(hi), cut = Days(ship);
  std::unordered_set<int64_t> late;
  for (const Dataset::Lineitem& l : data.lineitems) {
    if (l.shipdate > cut) late.insert(l.orderkey);
  }
  std::map<int64_t, int64_t> per_date;
  for (const Dataset::Order& o : data.orders) {
    if (o.orderdate >= from && o.orderdate < to && late.count(o.orderkey)) {
      ++per_date[o.orderdate];
    }
  }
  std::vector<std::pair<int64_t, int64_t>> ranked;  // (-count, date)
  for (const auto& [date, n] : per_date) ranked.emplace_back(-n, date);
  std::sort(ranked.begin(), ranked.end());
  if (ranked.size() > 20) ranked.resize(20);
  Expected e;
  for (const auto& [neg, date] : ranked) e.rows.push_back({Int(date), Int(-neg)});
  e.order_by = {{1, true}, {0, false}};
  return e;
}

Expected RegionAnswer(const Dataset& data, const char* region,
                      const char* date) {
  const int reg = RegionIndex(region);
  const int64_t cut = Days(date);
  std::unordered_map<int64_t, int64_t> order_nation;
  for (const Dataset::Order& o : data.orders) {
    if (o.orderdate < cut) continue;
    const int64_t nation =
        data.customers[static_cast<size_t>(o.custkey - 1)].nationkey;
    if (Dataset::kNationRegion[nation] == reg) {
      order_nation.emplace(o.orderkey, nation);
    }
  }
  std::map<int64_t, double> revenue;
  for (const Dataset::Lineitem& l : data.lineitems) {
    auto it = order_nation.find(l.orderkey);
    if (it != order_nation.end()) {
      revenue[it->second] += l.extendedprice * (1 - l.discount);
    }
  }
  Expected e;
  for (const auto& [nation, rev] : revenue) {
    e.rows.push_back({Str(Dataset::kNationNames[nation]), Dbl(rev)});
  }
  e.order_by = {{1, true}};
  return e;
}

Expected Join6Answer() {
  Expected e;
  for (int i = 0; i < Dataset::kNations; ++i) {
    e.rows.push_back({Str(Dataset::kNationNames[i]), Int(1)});
  }
  e.order_by = {{0, false}};
  return e;
}

Cell FromValue(const Value& v) {
  switch (v.type()) {
    case DataType::kInt64:
    case DataType::kDate:
      return Int(v.AsInt());
    case DataType::kDouble:
      return Dbl(v.AsDouble());
    case DataType::kString:
      return Str(v.AsString());
    case DataType::kNull:
      break;
  }
  Cell c;
  c.kind = Cell::kString;
  c.s = "<null>";
  return c;
}

double Numeric(const Cell& c) {
  return c.kind == Cell::kInt ? static_cast<double>(c.i) : c.d;
}

bool IsNumeric(const Cell& c) { return c.kind != Cell::kString; }

/// Exact three-way order used to sort rows before pairing them: strings
/// and integers exactly, doubles by value (pairs of rows whose exact
/// cells agree are then compared within tolerance).
int ExactCompare(const Cell& a, const Cell& b) {
  if (a.kind == Cell::kString || b.kind == Cell::kString) {
    if (a.kind != b.kind) return a.kind == Cell::kString ? 1 : -1;
    return a.s < b.s ? -1 : a.s > b.s ? 1 : 0;
  }
  if (a.kind == Cell::kInt && b.kind == Cell::kInt) {
    return a.i < b.i ? -1 : a.i > b.i ? 1 : 0;
  }
  return 0;  // doubles: left to the tolerant comparison
}

bool RowLess(const RefRow& a, const RefRow& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int c = ExactCompare(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (Numeric(a[i]) != Numeric(b[i])) return Numeric(a[i]) < Numeric(b[i]);
  }
  return a.size() < b.size();
}

bool CellsMatch(const Cell& want, const Cell& got) {
  if (IsNumeric(want) != IsNumeric(got)) return false;
  if (want.kind == Cell::kString) return want.s == got.s;
  if (want.kind == Cell::kInt && got.kind == Cell::kInt) return want.i == got.i;
  const double a = Numeric(want), b = Numeric(got);
  return std::fabs(a - b) <=
         kRelTolerance * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string Render(const RefRow& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    char buf[64];
    switch (row[i].kind) {
      case Cell::kInt:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(row[i].i));
        out += buf;
        break;
      case Cell::kDouble:
        std::snprintf(buf, sizeof(buf), "%.17g", row[i].d);
        out += buf;
        break;
      case Cell::kString:
        out += "'" + row[i].s + "'";
        break;
    }
  }
  return out + ")";
}

/// Compares two rows on the ORDER BY columns: <0, 0, >0.
int OrderCompare(const RefRow& a, const RefRow& b,
                 const std::vector<std::pair<int, bool>>& order_by) {
  for (const auto& [col, desc] : order_by) {
    const Cell& x = a[static_cast<size_t>(col)];
    const Cell& y = b[static_cast<size_t>(col)];
    int c = 0;
    if (x.kind == Cell::kString || y.kind == Cell::kString) {
      c = x.s < y.s ? -1 : x.s > y.s ? 1 : 0;
    } else {
      const double p = Numeric(x), q = Numeric(y);
      if (x.kind == Cell::kInt && y.kind == Cell::kInt) {
        c = x.i < y.i ? -1 : x.i > y.i ? 1 : 0;
      } else {
        c = p < q ? -1 : p > q ? 1 : 0;
      }
    }
    if (c != 0) return desc ? -c : c;
  }
  return 0;
}

}  // namespace

const char* QueryName(int query) { return kNames[query]; }

std::vector<std::vector<Variant>> BuildVariants(const Dataset& data,
                                                int variants_per_query) {
  const int n = std::clamp(variants_per_query, 1, kLiteralSettings);
  std::vector<std::vector<Variant>> out(kNumQueries);
  for (int v = 0; v < n; ++v) {
    const char* const* q3 = kQ3Literals[v];
    out[kQ3].push_back({Format(kQ3Sql, q3[0], q3[1], q3[1]),
                        Q3Answer(data, q3[0], q3[1])});
    out[kPricingSummary].push_back(
        {Format(kPricingSql, kPricingLiterals[v]),
         PricingAnswer(data, kPricingLiterals[v])});
    out[kDistinctShipdates].push_back(
        {Format(kDistinctSql, kDistinctLiterals[v]),
         DistinctAnswer(data, kDistinctLiterals[v])});
    const char* const* late = kLateLiterals[v];
    out[kLateOrders].push_back({Format(kLateSql, late[0], late[1], late[2]),
                                LateAnswer(data, late[0], late[1], late[2])});
    const char* const* region = kRegionLiterals[v];
    out[kRegionRevenue].push_back({Format(kRegionSql, region[0], region[1]),
                                   RegionAnswer(data, region[0], region[1])});
  }
  out[kJoin6].push_back({kJoin6Sql, Join6Answer()});
  return out;
}

bool CheckAnswer(const Expected& expected, const std::vector<Row>& actual,
                 std::string* why) {
  if (actual.size() != expected.rows.size()) {
    *why = "row count " + std::to_string(actual.size()) + ", expected " +
           std::to_string(expected.rows.size());
    return false;
  }
  std::vector<RefRow> got;
  got.reserve(actual.size());
  for (const Row& row : actual) {
    RefRow r;
    r.reserve(row.size());
    for (const Value& v : row) r.push_back(FromValue(v));
    got.push_back(std::move(r));
  }
  for (size_t i = 1; i < got.size(); ++i) {
    if (OrderCompare(got[i - 1], got[i], expected.order_by) > 0) {
      *why = "ORDER BY violated at row " + std::to_string(i) + ": " +
             Render(got[i - 1]) + " before " + Render(got[i]);
      return false;
    }
  }
  std::vector<RefRow> want = expected.rows;
  std::sort(want.begin(), want.end(), RowLess);
  std::sort(got.begin(), got.end(), RowLess);
  for (size_t i = 0; i < want.size(); ++i) {
    bool same = want[i].size() == got[i].size();
    for (size_t c = 0; same && c < want[i].size(); ++c) {
      same = CellsMatch(want[i][c], got[i][c]);
    }
    if (!same) {
      *why = "row mismatch: expected " + Render(want[i]) + ", got " +
             Render(got[i]);
      return false;
    }
  }
  return true;
}

bool CheckerSelfTest(const Expected& expected, const std::vector<Row>& correct,
                     std::string* why) {
  std::string ignored;
  if (!CheckAnswer(expected, correct, why)) return false;
  if (correct.size() < 2) {
    *why = "self-test needs an answer of at least two rows";
    return false;
  }
  // One value changed: the last numeric cell of the middle row, moved by
  // far more than the tolerance.
  std::vector<Row> changed = correct;
  Row& row = changed[changed.size() / 2];
  bool altered = false;
  for (size_t c = row.size(); c-- > 0 && !altered;) {
    if (row[c].type() == DataType::kDouble) {
      row[c] = Value::Double(row[c].AsDouble() * (1 + 1e-6) + 1e-3);
      altered = true;
    } else if (row[c].type() == DataType::kInt64) {
      row[c] = Value::Int(row[c].AsInt() + 1);
      altered = true;
    }
  }
  if (!altered || CheckAnswer(expected, changed, &ignored)) {
    *why = "checker accepted an answer with one value changed";
    return false;
  }
  // Two rows swapped against the ORDER BY.
  std::vector<Row> swapped = correct;
  bool reordered = false;
  for (size_t i = 1; i < swapped.size() && !reordered; ++i) {
    RefRow a, b;
    for (const Value& v : swapped[i - 1]) a.push_back(FromValue(v));
    for (const Value& v : swapped[i]) b.push_back(FromValue(v));
    if (OrderCompare(a, b, expected.order_by) != 0) {
      std::swap(swapped[i - 1], swapped[i]);
      reordered = true;
    }
  }
  if (!reordered || CheckAnswer(expected, swapped, &ignored)) {
    *why = "checker accepted an answer whose rows break its ORDER BY";
    return false;
  }
  return true;
}

}  // namespace perfbench
