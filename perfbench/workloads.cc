#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "calibrate.h"
#include "rng.h"
#include "exec/engine.h"
#include "parser/parser.h"
#include "qgm/binder.h"
#include "qgm/rewrite.h"
#include "service/query_service.h"

namespace perfbench {

using ordopt::Database;
using ordopt::OptimizerConfig;
using ordopt::PlanNode;
using ordopt::QueryEngine;
using ordopt::QueryResult;
using Clock = std::chrono::steady_clock;

namespace {

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

const char* const kFamilies[] = {"scan", "filter", "sort", "join",
                                 "group", "exchange", "project"};
constexpr int kNumFamilies = 7;

/// Operator family of a plan node (index into kFamilies), from its kind's
/// printed name: families rather than classes, so the metric names
/// survive operator merges.
int Family(const PlanNode& node) {
  const std::string kind = ordopt::OpKindName(node.kind);
  auto has = [&](const char* s) { return kind.find(s) != std::string::npos; };
  if (has("Join")) return 3;
  if (has("GroupBy") || has("Distinct")) return 4;
  if (has("Sort") || has("TopN")) return 2;
  if (has("Exchange")) return 5;
  if (has("Scan")) return 0;
  if (has("Filter")) return 1;
  return 6;
}

int64_t CountSortNodes(const PlanNode& node) {
  const std::string kind = ordopt::OpKindName(node.kind);
  int64_t n = (kind == "Sort" || kind == "TopN") ? 1 : 0;
  for (const auto& child : node.children) n += CountSortNodes(*child);
  return n;
}

/// Per-query latencies of the measured rounds plus the run's counters.
/// `scaled` holds the same latencies expressed on the reference host (see
/// calibrate.h); the metrics come from it, the notes from the raw ones.
struct Samples {
  std::vector<std::vector<double>> per_query_ms{kNumQueries};
  std::vector<std::vector<double>> per_query_scaled{kNumQueries};
  std::vector<double> all_ms;
  std::vector<double> all_scaled;
  int64_t attempted = 0;
  int64_t failed = 0;
  double busy_s = 0;  // sum of raw latencies

  void Record(int q, double ms, double scale) {
    per_query_ms[q].push_back(ms);
    per_query_scaled[q].push_back(ms * scale);
    all_ms.push_back(ms);
    all_scaled.push_back(ms * scale);
    busy_s += ms / 1e3;
  }
};

/// Runs `sql` and checks the answer; returns the latency in ms, or a
/// negative value when the query failed.
double TimedRun(QueryEngine* engine, const Variant& v, RunOutcome* out,
                QueryResult* keep = nullptr) {
  const Clock::time_point start = Clock::now();
  ordopt::Result<QueryResult> r = engine->Run(v.sql);
  const double ms = Since(start) * 1e3;
  if (!r.ok()) {
    out->Fail("query failed: " + r.status().ToString());
    return -1;
  }
  std::string why;
  if (!CheckAnswer(v.expected, r.value().rows, &why)) out->Fail(why);
  if (keep != nullptr) *keep = std::move(r).value();
  return ms;
}

/// Warm-up round: runs each query once, checks it, exercises the checker
/// self-test on Q3's answer, and returns the round's simulated 1996 time.
double WarmUp(QueryEngine* engine,
              const std::vector<std::vector<Variant>>& variants,
              RunOutcome* out) {
  double sim = 0;
  for (int q = 0; q < kNumQueries; ++q) {
    QueryResult r;
    if (TimedRun(engine, variants[q][0], out, &r) < 0) continue;
    sim += r.SimulatedElapsedSeconds();
    if (q == kQ3) {
      std::string why;
      if (!CheckerSelfTest(variants[q][0].expected, r.rows, &why)) {
        out->Fail("checker self-test: " + why);
      }
    }
  }
  return sim;
}

/// One round of the six queries. With `cal`, the host-speed kernel runs
/// between queries, and each latency is scaled by the mean of the kernel
/// runs just before and just after it.
void EngineRound(QueryEngine* engine,
                 const std::vector<std::vector<Variant>>& variants,
                 Calibration* cal, Samples* s, RunOutcome* out) {
  double before = cal != nullptr ? cal->Sample() : 1;
  for (int q = 0; q < kNumQueries; ++q) {
    const double ms = TimedRun(engine, variants[q][0], out);
    const double after = cal != nullptr ? cal->Sample() : 1;
    ++s->attempted;
    if (ms < 0) {
      ++s->failed;
    } else {
      s->Record(q, ms, (before + after) / 2);
    }
    before = after;
  }
}

/// Adds the end-to-end metrics from the scaled latencies; the raw figures
/// go to the notes. `wall_s` is the time the requests took (the sum of
/// latencies for one client, the loop's duration for a service).
void AddEndToEnd(const Samples& s, double wall_s, double sim_s,
                 const Calibration& cal, RunOutcome* out) {
  const double n = static_cast<double>(s.all_ms.size());
  double scaled_busy_s = 0;
  for (double ms : s.all_scaled) scaled_busy_s += ms / 1e3;
  // Scaled wall time: the raw one times the mean scale of the requests.
  const double scaled_wall_s = wall_s * scaled_busy_s / s.busy_s;
  out->Add("throughput_qps", n / scaled_wall_s, "queries/s");
  out->Add("latency_p90_ms", Percentile(s.all_scaled, 0.9), "ms");
  for (int q = 0; q < kNumQueries; ++q) {
    out->Add(std::string(QueryName(q)) + "_ms", Median(s.per_query_scaled[q]),
             "ms");
  }
  out->Add("sim_s", sim_s, "s");

  char line[512];
  std::snprintf(line, sizeof(line),
                "raw: kernel median %.3f ms over %zu samples; throughput "
                "%.3f q/s; p90 %.3f ms; requests %zu",
                cal.median_ms(), cal.samples(), n / wall_s,
                Percentile(s.all_ms, 0.9), s.all_ms.size());
  out->notes.push_back(line);
  for (int q = 0; q < kNumQueries; ++q) {
    std::snprintf(line, sizeof(line),
                  "raw: %-20s median %9.3f ms over %zu; scaled p10/p50/p90 "
                  "%.3f / %.3f / %.3f ms",
                  QueryName(q), Median(s.per_query_ms[q]),
                  s.per_query_ms[q].size(),
                  Percentile(s.per_query_scaled[q], 0.1),
                  Percentile(s.per_query_scaled[q], 0.5),
                  Percentile(s.per_query_scaled[q], 0.9));
    out->notes.push_back(line);
  }
}

// ---------------------------------------------------------------------------
// Traced pass: the same queries, driven one layer at a time through each
// module's public entry point, timed from here.

/// One traced round's per-layer totals over the six queries.
struct LayerRound {
  std::map<std::string, double> v;
  int64_t failed = 0;
  std::vector<double> phase_sum_ms = std::vector<double>(kNumQueries, 0);
};

void TracedRound(QueryEngine* engine, const OptimizerConfig& config,
                 const Database& db,
                 const std::vector<std::vector<Variant>>& variants,
                 LayerRound* round, RunOutcome* out) {
  auto& v = round->v;
  int64_t reduce_hits = 0, reduce_lookups = 0;
  double family_ns[kNumFamilies] = {};
  for (int q = 0; q < kNumQueries; ++q) {
    const Variant& var = variants[q][0];
    const Clock::time_point t0 = Clock::now();
    auto stmt = ordopt::ParseSelect(var.sql);
    const Clock::time_point t1 = Clock::now();
    if (!stmt.ok()) {
      out->Fail("parse: " + stmt.status().ToString());
      ++round->failed;
      continue;
    }
    auto query = ordopt::BindQuery(*stmt.value(), db);
    const Clock::time_point t2 = Clock::now();
    if (!query.ok()) {
      out->Fail("bind: " + query.status().ToString());
      ++round->failed;
      continue;
    }
    ordopt::MergeDerivedTables(query.value().get());
    const Clock::time_point t3 = Clock::now();
    ordopt::Planner planner(*query.value(), config);
    auto plan = planner.BuildPlan();
    const Clock::time_point t4 = Clock::now();
    if (!plan.ok()) {
      out->Fail("plan: " + plan.status().ToString());
      ++round->failed;
      continue;
    }
    // Executed through RunPrepared, which runs ExecutePlan under the
    // engine's own spill, batch and worker settings.
    ordopt::PreparedPlan prepared;
    prepared.plan = plan.value();
    auto exec = engine->RunPrepared(prepared);
    const Clock::time_point t5 = Clock::now();
    if (!exec.ok()) {
      out->Fail("execute: " + exec.status().ToString());
      ++round->failed;
      continue;
    }
    std::string why;
    if (!CheckAnswer(var.expected, exec.value().rows, &why)) out->Fail(why);

    auto us = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double, std::micro>(b - a).count();
    };
    v["parser.parse_us"] += us(t0, t1);
    v["qgm.bind_us"] += us(t1, t2);
    v["qgm.rewrite_us"] += us(t2, t3);
    v["optimizer.plan_us"] += us(t3, t4);
    v["exec.execute_us"] += us(t4, t5);
    round->phase_sum_ms[q] = us(t0, t5) / 1e3;

    v["optimizer.plans_generated"] +=
        static_cast<double>(planner.plans_generated());
    v["optimizer.plans_retained"] +=
        static_cast<double>(planner.plans_retained());
    reduce_hits += planner.reduce_cache_hits();
    reduce_lookups += planner.reduce_cache_hits() + planner.reduce_cache_misses();
    v["optimizer.sort_nodes"] +=
        static_cast<double>(CountSortNodes(*plan.value()));

    const ordopt::RuntimeMetrics& m = exec.value().metrics;
    v["exec.rows_scanned"] += static_cast<double>(m.rows_scanned);
    v["exec.comparisons"] += static_cast<double>(m.comparisons);
    v["exec.rows_sorted"] += static_cast<double>(m.rows_sorted);
    v["exec.index_probes"] += static_cast<double>(m.index_probes);
    v["exec.seq_pages"] += static_cast<double>(m.seq_pages);
    v["exec.random_pages"] += static_cast<double>(m.random_pages);
    v["exec.rows_buffered_peak"] =
        std::max(v["exec.rows_buffered_peak"],
                 static_cast<double>(m.rows_buffered_peak));
    v["parallel.exchange_batches"] += static_cast<double>(m.exchange_batches);
    v["parallel.worker_busy_max_ms"] += static_cast<double>(m.worker_busy_ns_max) / 1e6;
    v["parallel.worker_busy_total_ms"] +=
        static_cast<double>(m.worker_busy_ns_total) / 1e6;
    v["parallel.workers"] = std::max(v["parallel.workers"],
                                     static_cast<double>(m.parallel_workers));
    v["spill.runs"] += static_cast<double>(m.spill_runs);
    v["spill.bytes"] += static_cast<double>(m.spill_bytes);
    v["spill.retries"] += static_cast<double>(m.spill_retries);

    // Per-operator self time: EXPLAIN ANALYZE's inclusive times minus the
    // children's, attributed to the operator's family.
    auto analyzed = engine->RunAnalyzed(var.sql);
    if (!analyzed.ok()) {
      out->Fail("analyze: " + analyzed.status().ToString());
      ++round->failed;
      continue;
    }
    std::map<const PlanNode*, double> total;
    for (const auto& p : analyzed.value().op_profile) {
      total[p.node] += static_cast<double>(p.stats.total_ns());
    }
    for (const auto& [node, ns] : total) {
      double child_ns = 0;
      for (const auto& c : node->children) {
        auto it = total.find(c.get());
        if (it != total.end()) child_ns += it->second;
      }
      family_ns[Family(*node)] += std::max(0.0, ns - child_ns);
    }
    v["exec.analyzed_rows_scanned"] +=
        static_cast<double>(analyzed.value().metrics.rows_scanned);
  }
  v["optimizer.reduce_cache_hit_ratio"] =
      reduce_lookups == 0 ? 0
                          : static_cast<double>(reduce_hits) /
                                static_cast<double>(reduce_lookups);
  for (int f = 0; f < kNumFamilies; ++f) {
    v[std::string("exec.self_us.") + kFamilies[f]] = family_ns[f] / 1e3;
  }
}

/// Per-layer metrics: medians over the traced rounds, in a fixed order.
void AddPerLayer(const std::vector<LayerRound>& rounds, RunOutcome* out) {
  auto med = [&](const std::string& name) {
    std::vector<double> xs;
    for (const LayerRound& r : rounds) {
      auto it = r.v.find(name);
      xs.push_back(it == r.v.end() ? 0 : it->second);
    }
    return Median(xs);
  };
  out->Add("parser.parse_us", med("parser.parse_us"), "us");
  out->Add("qgm.bind_us", med("qgm.bind_us"), "us");
  out->Add("qgm.rewrite_us", med("qgm.rewrite_us"), "us");
  out->Add("optimizer.plan_us", med("optimizer.plan_us"), "us");
  out->Add("optimizer.plans_generated", med("optimizer.plans_generated"),
           "count");
  out->Add("optimizer.plans_retained", med("optimizer.plans_retained"),
           "count");
  out->Add("optimizer.reduce_cache_hit_ratio",
           med("optimizer.reduce_cache_hit_ratio"), "ratio");
  out->Add("optimizer.sort_nodes", med("optimizer.sort_nodes"), "count");
  out->Add("exec.execute_us", med("exec.execute_us"), "us");
  for (const char* c : {"rows_scanned", "comparisons", "rows_sorted",
                        "index_probes", "seq_pages", "random_pages"}) {
    out->Add(std::string("exec.") + c, med(std::string("exec.") + c),
             "count");
  }
  out->Add("exec.rows_buffered_peak", med("exec.rows_buffered_peak"), "rows");
  for (const char* f : kFamilies) {
    const std::string name = std::string("exec.self_us.") + f;
    out->Add(name, med(name), "us");
  }
  const double scanned = med("exec.analyzed_rows_scanned");
  out->Add("exec.scan_ns_per_row",
           scanned > 0 ? med("exec.self_us.scan") * 1e3 / scanned : 0, "ns");
  out->Add("parallel.exchange_batches", med("parallel.exchange_batches"),
           "count");
  const double busy_max = med("parallel.worker_busy_max_ms");
  const double busy_total = med("parallel.worker_busy_total_ms");
  const double workers = med("parallel.workers");
  out->Add("parallel.worker_busy_max_ms", busy_max, "ms");
  out->Add("parallel.worker_busy_total_ms", busy_total, "ms");
  out->Add("parallel.balance",
           busy_max > 0 && workers > 0 ? busy_total / (workers * busy_max) : 0,
           "ratio");
  out->Add("spill.runs", med("spill.runs"), "count");
  out->Add("spill.bytes", med("spill.bytes"), "bytes");
  out->Add("spill.retries", med("spill.retries"), "count");
}

/// Alternates untraced and traced rounds until `seconds` pass; adds the
/// per-layer metrics and the traced-vs-untraced reference notes.
void TracedPass(QueryEngine* engine, const WorkloadSpec& spec,
                const Database& db,
                const std::vector<std::vector<Variant>>& variants,
                double seconds, RunOutcome* out) {
  Samples untraced;
  std::vector<LayerRound> rounds;
  std::vector<double> untraced_round_ms, traced_round_ms;
  int64_t traced_failed = 0;
  const Clock::time_point start = Clock::now();
  do {
    const double before = untraced.busy_s;
    EngineRound(engine, variants, nullptr, &untraced, out);
    untraced_round_ms.push_back((untraced.busy_s - before) * 1e3);
    LayerRound r;
    TracedRound(engine, spec.config, db, variants, &r, out);
    double sum = 0;
    for (double ms : r.phase_sum_ms) sum += ms;
    traced_round_ms.push_back(sum);
    traced_failed += r.failed;
    rounds.push_back(std::move(r));
  } while (Since(start) < seconds);
  out->attempted +=
      untraced.attempted + static_cast<int64_t>(rounds.size()) * kNumQueries;
  out->failed += untraced.failed + traced_failed;
  AddPerLayer(rounds, out);

  char line[256];
  std::snprintf(line, sizeof(line),
                "traced rounds %zu; round: untraced median %.2f ms, traced "
                "phase sum median %.2f ms (overhead %+.1f%%)",
                rounds.size(), Median(untraced_round_ms),
                Median(traced_round_ms),
                100 * (Median(traced_round_ms) / Median(untraced_round_ms) - 1));
  out->notes.push_back(line);
  for (int q = 0; q < kNumQueries; ++q) {
    std::vector<double> sums;
    for (const LayerRound& r : rounds) sums.push_back(r.phase_sum_ms[q]);
    const double u = Median(untraced.per_query_ms[q]);
    const double t = Median(sums);
    std::snprintf(line, sizeof(line),
                  "%-20s untraced median %9.3f ms  phase sum median %9.3f ms "
                  " (%+.1f%%)",
                  QueryName(q), u, t, u > 0 ? 100 * (t / u - 1) : 0.0);
    out->notes.push_back(line);
  }
}

/// The service layer's per-layer metrics (all zero on engine workloads).
void AddServiceLayer(double queue_wait_us, double cache_hit_ratio,
                     double literal_evictions_per_1k, double shed,
                     double retried, RunOutcome* out) {
  out->Add("service.queue_wait_us", queue_wait_us, "us");
  out->Add("service.plan_cache_hit_ratio", cache_hit_ratio, "ratio");
  out->Add("service.plan_cache_literal_evictions", literal_evictions_per_1k,
           "1/1k_req");
  out->Add("service.shed", shed, "count");
  out->Add("service.retried", retried, "count");
}

// ---------------------------------------------------------------------------
// Engine workloads: one client thread, a fresh plan for every query.

void RunEngineWorkload(const WorkloadSpec& spec, Database* db,
                       const std::vector<std::vector<Variant>>& variants,
                       double seconds, bool trace, RunOutcome* out) {
  QueryEngine engine(db, spec.config);
  const double sim_s = WarmUp(&engine, variants, out);
  if (trace) {
    TracedPass(&engine, spec, *db, variants, seconds, out);
    AddServiceLayer(0, 0, 0, 0, 0, out);  // no service on this workload
    return;
  }
  Calibration cal(spec.config.parallel_workers);
  Samples s;
  const Clock::time_point start = Clock::now();
  do {
    EngineRound(&engine, variants, &cal, &s, out);
  } while (Since(start) < seconds);
  out->attempted += s.attempted;
  out->failed += s.failed;
  AddEndToEnd(s, s.busy_s, sim_s, cal, out);
}

// ---------------------------------------------------------------------------
// Service workload: closed loop, each client sends its next request when
// the previous one has answered.

void RunServiceWorkload(const WorkloadSpec& spec, Database* db,
                        const std::vector<std::vector<Variant>>& variants,
                        double seconds, bool trace, uint64_t seed,
                        RunOutcome* out) {
  ordopt::ServiceConfig config;
  config.workers = spec.service_workers;
  config.engine_config = spec.config;
  ordopt::QueryService service(db, config);

  // Warm-up: one round of the default literals, which also fills the
  // plan cache, and sim_s from that round.
  double sim_s = 0;
  {
    const int64_t session = service.OpenSession();
    for (int q = 0; q < kNumQueries; ++q) {
      auto r = service.Execute(session, variants[q][0].sql);
      if (!r.ok()) {
        out->Fail("query failed: " + r.status().ToString());
        continue;
      }
      std::string why;
      if (!CheckAnswer(variants[q][0].expected, r.value().rows, &why)) {
        out->Fail(why);
      }
      sim_s += r.value().SimulatedElapsedSeconds();
      if (q == kQ3 &&
          !CheckerSelfTest(variants[q][0].expected, r.value().rows, &why)) {
        out->Fail("checker self-test: " + why);
      }
    }
    service.CloseSession(session);
  }

  const double loop_seconds = trace ? seconds / 2 : seconds;
  const ordopt::ServiceStats stats0 = service.stats();
  const ordopt::PlanCacheStats cache0 = service.plan_cache_stats();
  const ordopt::MetricsSnapshot snap0 = service.metrics().Snap();

  struct Request {
    int query;
    double ms;
    double mid_s;  // midpoint, seconds since the loop started
  };
  std::mutex mu;  // guards `latencies`, `s` and `out` across clients
  std::vector<Request> latencies;
  Samples s;
  const Clock::time_point start = Clock::now();
  std::atomic<int> clients_done{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < spec.service_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(seed * 1000003ULL + static_cast<uint64_t>(c) + 1);
      const int64_t session = service.OpenSession();
      std::vector<Request> mine;
      int64_t attempted = 0, failed = 0;
      std::vector<std::string> errors;
      int order[kNumQueries];
      for (int q = 0; q < kNumQueries; ++q) order[q] = q;
      do {
        // Each round visits the six queries in a seeded random order, so
        // the clients do not fall into one fixed pattern of collisions in
        // the queue. Exactly one request per round uses other literals, so
        // every run has the same share of replans whatever the seed; the
        // seed picks which query and which literals.
        for (int i = kNumQueries - 1; i > 0; --i) {
          std::swap(order[i], order[rng.Next() % static_cast<uint64_t>(i + 1)]);
        }
        const int varied = spec.vary_literals
                               ? static_cast<int>(rng.Next() % kJoin6)
                               : -1;
        for (int k = 0; k < kNumQueries; ++k) {
          const int q = order[k];
          const auto& vs = variants[q];
          size_t v = 0;
          if (q == varied && vs.size() > 1) {
            v = 1 + rng.Next() % (vs.size() - 1);
          }
          const Clock::time_point t0 = Clock::now();
          auto r = service.Execute(session, vs[v].sql);
          const double ms = Since(t0) * 1e3;
          const double mid_s =
              std::chrono::duration<double>(t0 - start).count() + ms / 2e3;
          ++attempted;
          if (!r.ok()) {
            ++failed;
            errors.push_back("query failed: " + r.status().ToString());
            continue;
          }
          std::string why;
          if (!CheckAnswer(vs[v].expected, r.value().rows, &why)) {
            errors.push_back(why);
          }
          mine.push_back({q, ms, mid_s});
        }
      } while (Since(start) < loop_seconds);
      service.CloseSession(session);
      std::lock_guard<std::mutex> lock(mu);
      for (const std::string& e : errors) out->Fail(e);
      s.attempted += attempted;
      s.failed += failed;
      latencies.insert(latencies.end(), mine.begin(), mine.end());
      clients_done.fetch_add(1);
    });
  }
  // The main thread samples host speed while the clients run; with the two
  // workers busy it keeps the busy threads within four. Requests overlap,
  // so each is scaled by the median of the samples within half a second of
  // its midpoint.
  Calibration cal;
  std::vector<std::pair<double, double>> speed;  // (seconds, scale)
  while (clients_done.load() < spec.service_clients) {
    const double scale = cal.Sample();
    speed.emplace_back(Since(start), scale);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  for (std::thread& t : clients) t.join();
  const double wall_s = Since(start);
  for (const Request& r : latencies) {
    std::vector<double> near;
    for (const auto& [at, scale] : speed) {
      if (at > r.mid_s - 0.5 && at < r.mid_s + 0.5) near.push_back(scale);
    }
    s.Record(r.query, r.ms, near.empty() ? cal.Scale() : Median(near));
  }
  out->attempted += s.attempted;
  out->failed += s.failed;

  const ordopt::ServiceStats stats1 = service.stats();
  const ordopt::PlanCacheStats cache1 = service.plan_cache_stats();
  const ordopt::MetricsSnapshot delta = service.metrics().Snap().DeltaSince(snap0);

  if (!trace) {
    AddEndToEnd(s, wall_s, sim_s, cal, out);
    service.Shutdown();
    return;
  }

  // Traced pass on the service's engine profile, then the service layer.
  {
    QueryEngine engine(db, spec.config);
    TracedPass(&engine, spec, *db, variants, seconds - loop_seconds, out);
  }
  const ordopt::HistogramSnapshot* wait =
      delta.FindHistogram("service.queue_wait_us");
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  const int64_t shed0 = stats0.shed_queue_full + stats0.shed_session_cap +
                        stats0.shed_budget;
  const int64_t shed1 = stats1.shed_queue_full + stats1.shed_session_cap +
                        stats1.shed_budget;
  AddServiceLayer(
      wait != nullptr ? wait->Mean() : 0,
      hits + misses > 0 ? hits / (hits + misses) : 0,
      1000 *
          static_cast<double>(cache1.literal_evictions -
                              cache0.literal_evictions) /
          static_cast<double>(s.attempted),
      static_cast<double>(shed1 - shed0),
      static_cast<double>(stats1.retried - stats0.retried), out);
  service.Shutdown();
}

}  // namespace

bool FindWorkload(const std::string& name, const std::string& spill_dir,
                  WorkloadSpec* spec) {
  WorkloadSpec w;
  w.config.spill_temp_dir = spill_dir;
  if (name == "tpcd-serial") {
    w.scale_factor = 0.05;
  } else if (name == "tpcd-ordered-parallel") {
    // The paper's DB2/CS profile: no hash join, no hash grouping.
    w.scale_factor = 0.05;
    w.config.enable_hash_join = false;
    w.config.enable_hash_grouping = false;
    // Two workers, not four: with every core of a shared host busy, a
    // neighbour's load on any one core stalls the whole exchange, and run
    // times spread by a factor of two.
    w.config.parallel_workers = std::clamp<int>(
        static_cast<int>(std::thread::hardware_concurrency()), 1, 2);
    // Below the largest sort inputs (pricing summary sorts every lineitem
    // row, distinct shipdates about a quarter of them), so sorts spill.
    w.config.cost_params.sort_memory_rows = 50000;
  } else if (name == "plan-heavy") {
    w.scale_factor = 0.001;
  } else if (name == "service-mix") {
    w.scale_factor = 0.01;
    w.service = true;
    w.vary_literals = true;
    w.literal_settings = 4;
  } else {
    return false;
  }
  *spec = w;
  return true;
}

void RunWorkload(const WorkloadSpec& spec, Database* db,
                 const std::vector<std::vector<Variant>>& variants,
                 double seconds, bool trace, uint64_t seed, RunOutcome* out) {
  if (spec.service) {
    RunServiceWorkload(spec, db, variants, seconds, trace, seed, out);
  } else {
    RunEngineWorkload(spec, db, variants, seconds, trace, out);
  }
}

}  // namespace perfbench
