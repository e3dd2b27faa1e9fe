// The benchmark program: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --spill-dir <dir>
//
// Generates a seeded TPC-D-shaped database, loads it through the engine's
// public load API, runs the workload's closed loop for the given seconds
// (whole rounds of the six queries), checks every answer against a
// reference computed apart from the engine, and prints one JSON object as
// the last line of stdout. --trace 0 reports the end-to-end metrics;
// --trace 1 reports the per-layer metrics of a traced pass instead.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "calibrate.h"
#include "dataset.h"
#include "reference.h"
#include "workloads.h"

namespace {

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <tpcd-serial|tpcd-ordered-parallel|"
               "plan-heavy|service-mix> --seed <n> --seconds <s> "
               "--trace <0|1> --spill-dir <dir>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spill_dir;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spill-dir") {
      spill_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  perfbench::WorkloadSpec spec;
  if (spill_dir.empty() || seconds <= 0 ||
      !perfbench::FindWorkload(workload, spill_dir, &spec)) {
    return Usage(argv[0]);
  }
  std::error_code ec;
  std::filesystem::create_directories(spill_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create spill dir %s: %s\n", spill_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  perfbench::RunOutcome out;
  perfbench::LoadTimes load;
  ordopt::Database db;
  std::vector<std::vector<perfbench::Variant>> variants;
  // Host speed around the load scales setup_s (see calibrate.h).
  perfbench::Calibration setup_cal;
  {
    const perfbench::Dataset data =
        perfbench::Generate(spec.scale_factor, seed);
    variants = perfbench::BuildVariants(data, spec.literal_settings);
    for (int i = 0; i < 3; ++i) setup_cal.Sample();
    const ordopt::Status s = perfbench::Load(data, &db, &load);
    if (!s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  for (int i = 0; i < 3; ++i) setup_cal.Sample();

  perfbench::RunWorkload(spec, &db, variants, seconds, trace, seed, &out);

  // Every spill file must be gone once the queries have finished.
  int leftovers = 0;
  for (const auto& entry : std::filesystem::directory_iterator(spill_dir, ec)) {
    (void)entry;
    ++leftovers;
  }
  if (leftovers > 0) {
    out.Fail(std::to_string(leftovers) + " spill file(s) left in " + spill_dir);
  }
  std::filesystem::remove_all(spill_dir, ec);

  perfbench::Metrics metrics;
  if (trace) {
    metrics = out.metrics;
    metrics.push_back({"storage.load_s", {load.append_s, "s"}});
    metrics.push_back({"storage.finalize_s", {load.finalize_s, "s"}});
  } else {
    const double setup_s = load.append_s + load.finalize_s;
    metrics.push_back({"setup_s", {setup_s * setup_cal.Scale(), "s"}});
    out.notes.push_back("raw: setup " + std::to_string(setup_s) +
                        " s, scale " + std::to_string(setup_cal.Scale()));
    metrics.push_back({"peak_rss_mb", {PeakRssMiB(), "MiB"}});
    metrics.insert(metrics.end(), out.metrics.begin(), out.metrics.end());
  }

  for (const std::string& note : out.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  if (!out.correct) {
    std::fprintf(stderr, "INCORRECT: %s\n", out.first_error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].second.first);
    if (i > 0) json += ", ";
    json += "\"" + JsonEscape(metrics[i].first) + "\": {\"value\": " + value +
            ", \"unit\": \"" + JsonEscape(metrics[i].second.second) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
