// End-to-end benchmark for auditherm.
//
//   e2e_bench --workload analyze|serve|fleet --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--results-dir DIR] [--self-test]
//
// Builds the workload's inputs from --seed, repeats the workload's
// operation for --seconds, checks the outputs, and prints one JSON line
// last: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones. --self-test feeds
// every correctness check a corrupted output instead and exits non-zero
// unless each check rejects it. See README.md in this directory.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

using e2e::Metric;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload analyze|serve|fleet "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--results-dir DIR] [--self-test]\n",
               why);
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_json(bool correct, const e2e::WorkloadReport& report,
                        const std::vector<Metric>& metrics) {
  std::string j = "{\"correct\": ";
  j += correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(report.attempted);
  j += ", \"failed\": " + std::to_string(report.failed);
  j += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) j += ", ";
    j += "\"" + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  j += "}}";
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig config;
  config.process_start = e2e::Clock::now();
  std::string results_dir;
  bool have_trace = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      config.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0.0)) {
        usage("bad --seconds");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--results-dir") {
      results_dir = value;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (config.work_dir.empty()) usage("--work-dir is required");
  if (!config.self_test && !(have_seed && have_seconds && have_trace)) {
    usage("--seed, --seconds and --trace are required");
  }

  e2e::WorkloadReport report;
  try {
    if (config.workload == "analyze") {
      report = e2e::run_analyze(config);
    } else if (config.workload == "serve") {
      report = e2e::run_serve(config);
    } else if (config.workload == "fleet") {
      report = e2e::run_fleet(config);
    } else {
      usage("--workload must be analyze, serve or fleet");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const auto& note : report.notes) std::printf("%s\n", note.c_str());
  bool checks_pass = !report.checks.empty();
  for (const auto& check : report.checks) {
    const char* verdict = check.passed ? "ok  " : check.gating ? "FAIL" : "warn";
    std::printf("check %-28s %s  %s%s\n", check.name.c_str(), verdict,
                check.detail.c_str(), check.gating ? "" : " (not gating)");
    checks_pass = checks_pass && (check.passed || !check.gating);
  }

  if (config.self_test) {
    bool all_detected = !report.self_test.empty() && checks_pass;
    for (const auto& c : report.self_test) {
      std::printf("self-test %-28s %-44s %s\n", c.check.c_str(),
                  c.corruption.c_str(),
                  c.detected ? "rejected (ok)" : "ACCEPTED (check is blind)");
      all_detected = all_detected && c.detected;
    }
    std::printf("self-test %s: %zu corrupted outputs, genuine outputs %s\n",
                all_detected ? "passed" : "FAILED", report.self_test.size(),
                checks_pass ? "pass" : "FAIL");
    return all_detected ? 0 : 1;
  }

  const double noise_median = e2e::median(report.noise_ms);
  std::printf("host-noise control: fixed compute loop median %.3f ms, "
              "min %.3f, max %.3f over %zu loops around the timed run\n",
              noise_median, e2e::quantile(report.noise_ms, 0.0),
              e2e::quantile(report.noise_ms, 1.0), report.noise_ms.size());

  if (!report.op_ms.empty()) {
    std::printf("operation ms over %zu untraced operations: p10 %.3f, p25 "
                "%.3f, p50 %.3f, p75 %.3f, p90 %.3f, max %.3f\n",
                report.op_ms.size(), e2e::quantile(report.op_ms, 0.1),
                e2e::quantile(report.op_ms, 0.25), e2e::median(report.op_ms),
                e2e::quantile(report.op_ms, 0.75),
                e2e::quantile(report.op_ms, 0.9),
                e2e::quantile(report.op_ms, 1.0));
  }

  std::vector<Metric> metrics;
  if (config.trace) {
    metrics = report.per_layer;
  } else {
    const double ops_per_s =
        report.timed_seconds > 0.0
            ? static_cast<double>(report.timed_ops) / report.timed_seconds
            : 0.0;
    metrics = {
        {"setup_s", report.setup_s, "s"},
        {"op_fast_ms", e2e::quantile(report.op_ms, 0.1), "ms"},
        {"op_median_ms", e2e::median(report.op_ms), "ms"},
        {"ops_per_s", ops_per_s, "1/s"},
        {"peak_rss_mb", report.peak_rss_mb, "MB"},
    };
  }
  const std::string line = result_json(checks_pass, report, metrics);

  if (!results_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(results_dir, ec);
    const std::string path = results_dir + "/" + config.workload + "_seed" +
                             std::to_string(config.seed) + "_trace" +
                             (config.trace ? "1" : "0") + ".json";
    std::string record = "{\"workload\": \"" + config.workload +
                         "\", \"seed\": " + std::to_string(config.seed) +
                         ", \"seconds\": " + json_number(config.seconds) +
                         ", \"host_noise_loop_ms\": " +
                         json_number(noise_median) + ", \"result\": " + line +
                         "}\n";
    try {
      e2e::write_file(path, record);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: %s\n", e.what());
    }
  }
  std::printf("%s\n", line.c_str());
  return 0;
}
