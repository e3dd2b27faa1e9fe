#include "exec/engine.h"

#include <atomic>
#include <chrono>
#include <cstdlib>

#include "common/metrics.h"
#include "common/str_util.h"
#include "exec/analyze.h"
#include "parser/parser.h"
#include "qgm/rewrite.h"

namespace ordopt {

namespace {

/// Engine-assigned query ids for runs whose guard carries none (standalone
/// engines, the shell): a process-wide sequence, distinct from 0 so every
/// query is correlatable. Service-run queries arrive with a ticket id
/// already stamped on the guard and keep it.
int64_t NextQueryId() {
  static std::atomic<int64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// The correlation id for this run: the guard's (ticket-assigned, stable
/// across retries) when present, else the next engine-assigned id.
int64_t ResolveQueryId(const QueryGuard* guard) {
  if (guard != nullptr && guard->query_id() != 0) return guard->query_id();
  return NextQueryId();
}

/// Per-query series recorded after every executed run (success or failure
/// — a tripped query's consumption is exactly what an operator wants to
/// see). Names follow the `subsystem.metric[_unit]` rule of DESIGN.md §13.
void RecordEngineMetrics(MetricsRegistry* registry, const QueryResult& result) {
  if (!result.planned_from_cache) {
    registry->GetHistogram("engine.plan_us")
        ->Record(static_cast<int64_t>(result.plan_seconds * 1e6));
  }
  registry->GetHistogram("engine.exec_us")
      ->Record(static_cast<int64_t>(result.elapsed_seconds * 1e6));
  const RuntimeMetrics& m = result.metrics;
  if (m.spill_runs > 0) {
    registry->GetCounter("engine.spill_runs")->Add(m.spill_runs);
    registry->GetCounter("engine.spill_rows")->Add(m.spill_rows);
    registry->GetCounter("engine.spill_bytes")->Add(m.spill_bytes);
  }
  if (m.spill_retries > 0) {
    registry->GetCounter("engine.spill_retries")->Add(m.spill_retries);
  }
  registry->GetHistogram("engine.buffered_rows_peak")
      ->Record(m.rows_buffered_peak);
  registry->GetHistogram("engine.buffered_bytes_peak")
      ->Record(m.bytes_buffered_peak);
}

/// Effective runtime order verification: the config switch, with the
/// ORDOPT_VERIFY_ORDERS environment variable as a default so whole test
/// suites can run checked without touching call sites ("0" disables).
bool EffectiveVerifyOrders(const OptimizerConfig& config) {
  if (config.verify_orders) return true;
  const char* env = std::getenv("ORDOPT_VERIFY_ORDERS");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// Trace export destination: the config path, falling back to the
/// ORDOPT_TRACE environment variable.
std::string EffectiveTracePath(const OptimizerConfig& config) {
  if (!config.trace_path.empty()) return config.trace_path;
  const char* env = std::getenv("ORDOPT_TRACE");
  return env != nullptr ? std::string(env) : std::string();
}

/// One exec-phase event per operator (post-order sequence matches
/// op_profile), then the query-level metrics as a nested object; shared by
/// the planned and the cached execution paths.
void EmitExecEvents(TraceCollector* trace, const QueryResult& result,
                    const ColumnNamer& namer) {
  int64_t idx = 0;
  for (const OperatorProfile& p : result.op_profile) {
    TraceEvent& e = trace->Add("exec", "operator");
    e.SetInt("op", idx++);
    e.Set("label", NodeLabel(*p.node, namer));
    e.SetDouble("est_rows", p.node->props.cardinality);
    e.SetInt("rows_out", p.stats.rows_out);
    e.SetInt("next_calls", p.stats.next_calls);
    e.SetInt("open_ns", p.stats.open_ns);
    e.SetInt("next_ns", p.stats.next_ns);
    e.SetInt("rows_scanned", p.stats.metrics.rows_scanned);
    e.SetInt("comparisons", p.stats.metrics.comparisons);
    e.SetInt("seq_pages", p.stats.metrics.seq_pages);
    e.SetInt("random_pages", p.stats.metrics.random_pages);
    e.SetInt("index_probes", p.stats.metrics.index_probes);
    e.SetInt("spill_runs", p.stats.metrics.spill_runs);
    e.SetInt("spill_retries", p.stats.metrics.spill_retries);
    e.SetInt("buffered_rows_peak", p.stats.buffered_rows_peak);
  }
  TraceEvent& m = trace->Add("exec", "metrics");
  m.SetRaw("metrics", result.metrics.ToJson());
  m.SetBool("planned_from_cache", result.planned_from_cache);
  m.SetBool("degraded", result.degraded);
}

/// The EXPLAIN ANALYZE service summary line: where the plan came from, the
/// query's correlation id (joins this output to the trace export and the
/// metrics series), and whether the run executed in degraded mode (retry
/// attempts are stamped by the QueryService after completion — the engine
/// cannot know them).
std::string ServiceSummaryLine(const QueryResult& result) {
  std::string line = "service: source=";
  line += result.planned_from_cache ? "plan-cache" : "planner";
  if (result.query_id != 0) {
    line += StrFormat(" query_id=%lld", static_cast<long long>(result.query_id));
  }
  if (result.degraded) line += " degraded=true";
  line += "\n";
  return line;
}

}  // namespace

Result<std::vector<Row>> QueryEngine::ExecutePhase(
    QueryResult* result, QueryGuard* guard,
    std::vector<OperatorProfile>* profile) {
  // Sorts spill under the same row budget the cost model priced; the
  // manager lives inside ExecutePlan, scoped to this query.
  SpillConfig spill_config;
  spill_config.sort_memory_rows = config_.cost_params.sort_memory_rows;
  spill_config.temp_dir = config_.spill_temp_dir;
  spill_config.retry = config_.spill_retry;
  auto start = std::chrono::steady_clock::now();
  Result<std::vector<Row>> rows =
      ExecutePlan(result->plan, &result->metrics, guard, &spill_config,
                  profile, EffectiveVerifyOrders(config_), config_.batch_rows,
                  config_.row_shim_exec, config_.parallel_workers);
  auto end = std::chrono::steady_clock::now();
  result->elapsed_seconds = std::chrono::duration<double>(end - start).count();
  // Keep consumed-vs-limit visible even when the query failed: a
  // Result<QueryResult> error drops the metrics it carried.
  SnapshotMetrics(result->metrics);
  return rows;
}

Result<QueryResult> QueryEngine::Prepare(const std::string& sql, bool execute,
                                         QueryGuard* guard, bool analyze) {
  const int64_t query_id = ResolveQueryId(guard);
  auto plan_start = std::chrono::steady_clock::now();
  ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelect(sql));
  ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Query> query,
                          BindQuery(*stmt, *db_));
  MergeDerivedTables(query.get());

  // Effective observability for this query: the configured level, raised
  // to kFull when EXPLAIN ANALYZE or a trace export path asks for
  // per-operator stats.
  std::string trace_path = EffectiveTracePath(config_);
  TraceLevel trace_level = config_.trace_level;
  if (analyze || !trace_path.empty()) trace_level = TraceLevel::kFull;
  std::shared_ptr<TraceCollector> trace;
  if (trace_level != TraceLevel::kOff) {
    trace = std::make_shared<TraceCollector>(trace_level);
    trace->set_query_id(query_id);
  }

  Planner planner(*query, config_, trace.get());
  ORDOPT_ASSIGN_OR_RETURN(PlanRef plan, planner.BuildPlan());

  QueryResult result;
  result.query_id = query_id;
  result.plan_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - plan_start)
                            .count();
  result.plan = plan;
  result.plan_text = plan->ToString(query->namer());
  result.qgm_text = query->ToString();
  result.plans_generated = planner.plans_generated();
  result.plans_retained = planner.plans_retained();
  result.reduce_cache_hits = planner.reduce_cache_hits();
  result.reduce_cache_misses = planner.reduce_cache_misses();
  // Mirrored into the runtime metrics so ToJson/ToString (and therefore the
  // trace export's exec.metrics event) carry the planner's cache behavior.
  result.metrics.reduce_cache_hits = planner.reduce_cache_hits();
  result.metrics.reduce_cache_misses = planner.reduce_cache_misses();
  result.trace = trace;
  result.degraded = config_.degraded_mode;
  for (const OutputColumn& oc : query->root->outputs) {
    result.column_names.push_back(oc.name);
  }
  // Self-contained namer: the bound column-name map is copied behind a
  // shared_ptr so the renderer outlives the Query (cached plans re-render
  // EXPLAIN ANALYZE long after planning).
  {
    auto names = std::make_shared<
        std::unordered_map<ColumnId, std::string, ColumnIdHash>>(
        query->column_names);
    result.namer = [names](const ColumnId& id) -> std::string {
      auto it = names->find(id);
      return it != names->end() ? it->second : DefaultColumnName(id);
    };
  }
  if (trace != nullptr && config_.degraded_mode) {
    // Degraded-mode admissions are a service-level decision; the event
    // makes them visible in the per-query trace export.
    trace->Add("service", "degraded")
        .SetInt("sort_memory_rows", config_.cost_params.sort_memory_rows);
  }

  if (execute) {
    // Queries run under the engine's configured limits unless the caller
    // supplied a guard of their own.
    QueryGuard config_guard(config_.limits);
    if (guard == nullptr) guard = &config_guard;
    std::vector<OperatorProfile>* profile =
        (trace != nullptr && trace->collect_exec()) ? &result.op_profile
                                                    : nullptr;
    Result<std::vector<Row>> rows = ExecutePhase(&result, guard, profile);
    // Record before the error return so a failed query's consumption
    // still lands in the series (ExecutePhase fills metrics regardless).
    if (config_.metrics != nullptr) {
      RecordEngineMetrics(config_.metrics, result);
    }
    ORDOPT_RETURN_NOT_OK(rows.status());
    result.rows = std::move(rows).value();

    if (trace != nullptr && trace->collect_exec()) {
      EmitExecEvents(trace.get(), result, result.namer);
    }

    if (analyze) {
      result.analyzed_plan_text =
          RenderAnalyzedPlan(plan, result.op_profile, result.namer);
      result.analyzed_plan_text += ServiceSummaryLine(result);
      if (trace != nullptr) {
        std::string decisions = RenderDecisions(*trace);
        if (!decisions.empty()) {
          result.analyzed_plan_text += "decisions:\n" + decisions;
        }
      }
    }
  }

  // Export only after the query itself succeeded: a failed query reports
  // its own error, and WriteJsonLines never leaves a partial file.
  if (trace != nullptr && !trace_path.empty()) {
    ORDOPT_RETURN_NOT_OK(
        trace->WriteJsonLines(trace_path, config_.spill_retry));
  }
  return result;
}

Result<QueryResult> QueryEngine::Explain(const std::string& sql) {
  return Prepare(sql, /*execute=*/false, /*guard=*/nullptr,
                 /*analyze=*/false);
}

Result<QueryResult> QueryEngine::Run(const std::string& sql) {
  return Prepare(sql, /*execute=*/true, /*guard=*/nullptr, /*analyze=*/false);
}

Result<QueryResult> QueryEngine::Run(const std::string& sql,
                                     QueryGuard* guard) {
  return Prepare(sql, /*execute=*/true, guard, /*analyze=*/false);
}

Result<QueryResult> QueryEngine::RunAnalyzed(const std::string& sql) {
  return Prepare(sql, /*execute=*/true, /*guard=*/nullptr, /*analyze=*/true);
}

Result<QueryResult> QueryEngine::RunPrepared(const PreparedPlan& prepared,
                                             QueryGuard* guard) {
  return PreparedImpl(prepared, guard, /*analyze=*/false);
}

Result<QueryResult> QueryEngine::RunPreparedAnalyzed(
    const PreparedPlan& prepared, QueryGuard* guard) {
  return PreparedImpl(prepared, guard, /*analyze=*/true);
}

Result<QueryResult> QueryEngine::PreparedImpl(const PreparedPlan& prepared,
                                              QueryGuard* guard,
                                              bool analyze) {
  if (prepared.plan == nullptr) {
    return Status::InvalidArgument("RunPrepared: prepared plan is null");
  }
  const int64_t query_id = ResolveQueryId(guard);
  QueryResult result;
  result.query_id = query_id;
  result.plan = prepared.plan;
  result.plan_text = prepared.plan_text;
  result.qgm_text = prepared.qgm_text;
  result.column_names = prepared.column_names;
  result.namer = prepared.namer;
  result.planned_from_cache = true;
  result.degraded = config_.degraded_mode;

  // Cached-execution observability mirrors Prepare: a configured level or
  // export path (or EXPLAIN ANALYZE) traces this run; with everything off
  // the hot path allocates no collector. There are no optimizer events to
  // record — the plan.cached event says why.
  std::string trace_path = EffectiveTracePath(config_);
  TraceLevel trace_level = config_.trace_level;
  if (analyze || !trace_path.empty()) trace_level = TraceLevel::kFull;
  std::shared_ptr<TraceCollector> trace;
  if (trace_level != TraceLevel::kOff) {
    trace = std::make_shared<TraceCollector>(trace_level);
    trace->set_query_id(query_id);
    TraceEvent& e = trace->Add("service", "plan.cached");
    e.SetBool("planned_from_cache", true);
    if (config_.degraded_mode) e.SetBool("degraded", true);
    result.trace = trace;
    if (config_.degraded_mode) {
      trace->Add("service", "degraded")
          .SetInt("sort_memory_rows", config_.cost_params.sort_memory_rows);
    }
  }

  QueryGuard config_guard(config_.limits);
  if (guard == nullptr) guard = &config_guard;
  std::vector<OperatorProfile>* profile =
      (trace != nullptr && trace->collect_exec()) ? &result.op_profile
                                                  : nullptr;
  Result<std::vector<Row>> rows = ExecutePhase(&result, guard, profile);
  if (config_.metrics != nullptr) {
    RecordEngineMetrics(config_.metrics, result);
  }
  ORDOPT_RETURN_NOT_OK(rows.status());
  result.rows = std::move(rows).value();

  if (trace != nullptr && trace->collect_exec()) {
    EmitExecEvents(trace.get(), result, result.namer);
  }
  if (analyze) {
    result.analyzed_plan_text =
        RenderAnalyzedPlan(result.plan, result.op_profile, result.namer);
    result.analyzed_plan_text += ServiceSummaryLine(result);
  }
  if (trace != nullptr && !trace_path.empty()) {
    ORDOPT_RETURN_NOT_OK(
        trace->WriteJsonLines(trace_path, config_.spill_retry));
  }
  return result;
}

}  // namespace ordopt
