// crimson_e2e: the end-to-end benchmark program.
//
//   crimson_e2e --workload <ingest|query_mix|drop_probe>
//               --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints one "# ..." accounting line and, as the last line of stdout,
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exits 0 when every check passed, 1 on a failed check (the result is
// still printed, with "correct": false), 2 on an error (no result).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/log.h"
#include "workloads.h"

namespace {

e2e::Args ParseArgs(int argc, char** argv) {
  e2e::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      throw e2e::BenchError("unknown argument " + k);
    }
  }
  if (argc % 2 == 0) throw e2e::BenchError("arguments come in pairs");
  if (a.seconds <= 0) throw e2e::BenchError("--seconds must be positive");
  return a;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Print(const e2e::Report& r) {
  std::string line = "#";
  for (const auto& [k, v] : r.info) line += " " + k + "=" + v;
  std::cout << line << "\n";
  std::string json = "{\"correct\": ";
  json += r.checks.failures() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  crimson::SetMinLogLevel(crimson::LogLevel::kError);
  try {
    const e2e::Args args = ParseArgs(argc, argv);
    e2e::Report report;
    if (args.workload == "ingest") {
      e2e::RunIngest(args, &report);
    } else if (args.workload == "query_mix") {
      e2e::RunQueryMix(args, &report);
    } else if (args.workload == "drop_probe") {
      e2e::RunDropProbe(args, &report);
    } else {
      throw e2e::BenchError("unknown workload '" + args.workload + "'");
    }
    report.info["workload"] = args.workload;
    report.info["seed"] = std::to_string(args.seed);
    report.info["durability"] = "commit";
    report.info["trace"] = args.trace ? "1" : "0";
    report.info["attempted"] = std::to_string(report.attempted);
    report.info["failed"] = std::to_string(report.failed);
    report.info["peak_rss_mb"] = std::to_string(e2e::PeakRssMb());
    report.info["checks"] = std::to_string(report.checks.checked());
    report.info["check_failures"] = std::to_string(report.checks.failures());
    Print(report);
    return report.checks.failures() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "crimson_e2e: " << e.what() << "\n";
    return 2;
  }
}
