#pragma once

// Shared pieces of the end-to-end benchmark: clocks and order statistics,
// the metric tables, span/counter aggregation over an obs::Recorder, the
// loopback HTTP client, and the host-noise control loop.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "auditherm/obs/trace_span.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_between(Clock::time_point from, Clock::time_point to);
[[nodiscard]] double seconds_since(Clock::time_point from);

/// Quantile with linear interpolation between order statistics (q in
/// [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// FNV-1a 64 over raw bytes, written here independently of the program's
/// own hashes so fingerprint checks compare two implementations.
/// `basis` is the offset basis; the default is the standard one.
[[nodiscard]] std::uint64_t fnv1a64(
    std::string_view bytes, std::uint64_t basis = 0xcbf29ce484222325ull);

/// splitmix64 step, used to derive every input seed from --seed.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t salt) {
  return mix64(seed ^ mix64(salt));
}

[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& bytes);
/// Remove and recreate a directory (the per-run work area).
void reset_dir(const std::string& path);

/// Peak resident set of this process over one timed run, in MB. On
/// construction it hands the heap that set-up freed back to the system
/// (malloc_trim) and starts sampling the current resident set
/// (/proc/self/statm) every 2 ms; stop() ends the sampling and returns
/// the largest sample. The process-wide high-water mark would also count
/// set-up and the benchmark's reference state.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  [[nodiscard]] double stop();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_mb_{0.0};
  std::thread thread_;
};

/// Everything main() parsed from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string work_dir;  ///< per-run scratch under the benchmark directory
  Clock::time_point process_start;
};

/// One named measurement as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The per-layer metric names and units, in print order.
struct LayerSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerSpec>& layer_specs();

/// Per-operation layer samples; each metric reports the median of its
/// samples (counts: the mean, which is exact when every operation does
/// the same work). Metrics without samples report 0.
class Layers {
 public:
  void add(const std::string& name, double value);
  void set(const std::string& name, double value);
  [[nodiscard]] std::vector<Metric> finish() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Program spans aggregated over one recorder: summed duration per span
/// name, and the wall time inside [from_ns, to_ns) that any span covers.
struct SpanTotals {
  std::map<std::string, double> ms_by_name;
  double covered_ms = 0.0;
};
[[nodiscard]] SpanTotals aggregate_spans(const auditherm::obs::Recorder& r,
                                         std::uint64_t from_ns,
                                         std::uint64_t to_ns);

/// Counter values of a recorder by name.
[[nodiscard]] std::map<std::string, std::uint64_t> counters(
    const auditherm::obs::Recorder& r);
/// Sum of the counters whose name starts with `prefix`.
[[nodiscard]] std::uint64_t counter_sum(
    const std::map<std::string, std::uint64_t>& counters,
    std::string_view prefix);

/// Record the layer metrics that come from program spans into `layers`,
/// per operation (`ops` operations ran inside the spans' window).
void add_span_layers(Layers& layers, const SpanTotals& spans, double ops);
/// Record the layer metrics that come from program counters (their
/// change from `before` to `after` over `ops` operations) into `layers`.
void add_counter_layers(Layers& layers,
                        const std::map<std::string, std::uint64_t>& before,
                        const std::map<std::string, std::uint64_t>& after,
                        double ops);

/// One HTTP/1.1 exchange over loopback; status 0 when the connection
/// failed.
struct HttpResponse {
  int status = 0;
  std::string body;
};
[[nodiscard]] HttpResponse http_exchange(std::uint16_t port,
                                         const std::string& method,
                                         const std::string& path,
                                         const std::string& body);

/// Host-noise control: wall time of one fixed integer-hash loop. It does
/// no work of the program, so a slow host phase shows here and a slower
/// program does not.
[[nodiscard]] double noise_loop_ms();
/// `count` control loops in a row.
[[nodiscard]] std::vector<double> noise_samples(int count);

/// One correctness check and its verdict. A check that is not `gating`
/// is printed but does not decide `correct`: it guards a property the
/// program misses on some seeds (see README, "Known faults").
struct CheckResult {
  std::string name;
  bool passed = false;
  std::string detail;
  bool gating = true;
};

/// A check fed a deliberately corrupted output in --self-test mode; it
/// must report failure.
struct SelfTestCase {
  std::string check;
  std::string corruption;
  bool detected = false;
};

/// What a workload hands back to main() for printing.
struct WorkloadReport {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double setup_s = 0.0;
  std::vector<double> op_ms;  ///< untraced per-operation wall times
  double timed_seconds = 0.0;
  std::size_t timed_ops = 0;  ///< operations completed in timed_seconds
  double peak_rss_mb = 0.0;   ///< read right after the timed run
  std::vector<CheckResult> checks;
  std::vector<SelfTestCase> self_test;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< human-readable lines
  std::vector<double> noise_ms;    ///< host-noise control samples
};

/// What one operation reports: whether its outputs were right, and its
/// wall time as measured by the operation's own outer timer.
struct OpResult {
  bool ok = false;
  double ms = 0.0;
};

/// Run `op` repeatedly for `seconds`, one operation at a time. With
/// `trace` the runs alternate untraced and traced operations, so both
/// samples see the same host phases; the return holds both samples.
struct LoopSamples {
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double seconds = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> noise_ms;  ///< control loops just before and after
};
[[nodiscard]] LoopSamples timed_loop(double seconds, bool trace,
                                     const std::function<OpResult(bool)>& op);
/// Times `work` (which returns whether its outputs were right).
[[nodiscard]] OpResult timed(const std::function<bool()>& work);

WorkloadReport run_analyze(const RunConfig& config);
WorkloadReport run_serve(const RunConfig& config);
WorkloadReport run_fleet(const RunConfig& config);

}  // namespace e2e
