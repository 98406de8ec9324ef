// Workload "serve": the warm path of the `auditherm serve` daemon.
//
// An in-process serve::Server on a loopback ephemeral port with 2 workers
// is driven closed-loop by 2 client connections (each sends its next
// request when the previous reply is in). The request mix is a seeded
// stream over 24 distinct POST /analyze bodies: 4 set-up traces x
// {plain, order 1, per_cluster 2, stream 336, sweep 2, estimated
// occupancy}. The stage-cache budget is set below the mix's working set,
// so a steady share of requests miss. One operation is one request.
// The daemon records into its own obs::Recorder in every run, as
// `auditherm serve` does.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "auditherm/core/parallel.hpp"
#include "auditherm/serve/json.hpp"
#include "auditherm/serve/server.hpp"
#include "auditherm/serve/service.hpp"
#include "auditherm/sim/scenario.hpp"
#include "auditherm/timeseries/csv_io.hpp"
#include "checks.hpp"
#include "common.hpp"

namespace e2e {

namespace core = auditherm::core;
namespace obs = auditherm::obs;
namespace serve = auditherm::serve;
namespace sim = auditherm::sim;
namespace timeseries = auditherm::timeseries;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kDays = 28;
/// Budget as a share of the resident bytes the whole mix leaves in an
/// unbounded cache.
constexpr double kBudgetShare = 0.75;
constexpr std::size_t kWarmupRequests = 48;

/// One request of the mix: its body and the report it must produce.
struct Variant {
  std::string body;
  std::string expected;
  serve::AnalyzeRequest request;
};

/// Starts the daemon on construction; stops and joins it on destruction,
/// also when a check throws.
class Daemon {
 public:
  Daemon(serve::AnalysisService& service, const obs::Recorder* recorder)
      : server_(serve::ServerConfig{0, kWorkers}, service, recorder) {
    server_.start();
    runner_ = std::thread([this] { server_.run(); });
  }
  ~Daemon() {
    server_.request_stop();
    runner_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }

 private:
  serve::Server server_;
  std::thread runner_;
};

/// A daemon response matches the in-process report byte for byte.
bool same_report(const HttpResponse& response, const std::string& expected) {
  return response.status == 200 && response.body == expected;
}

/// One completed request of the client load.
struct Completion {
  double ms = 0.0;
  std::uint64_t end_ns = 0;  ///< recorder time base
};

}  // namespace

WorkloadReport run_serve(const RunConfig& config) {
  WorkloadReport report;
  Layers layers;
  // Analysis runs on the daemon's worker threads; the deterministic pool
  // stays at one thread so workers + clients stay within 4 CPUs.
  const core::ThreadCountScope threads(1);
  reset_dir(config.work_dir);

  // --- Set-up: four 28-day traces. ---------------------------------------
  std::vector<sim::ScenarioSpec> specs(4);
  specs[0].name = "paper";
  specs[1].name = "winter-busy";
  specs[1].season = sim::Season::kWinter;
  specs[1].occupancy = sim::OccupancyRegime::kBusy;
  specs[2].name = "summer-eco";
  specs[2].season = sim::Season::kSummer;
  specs[2].hvac = sim::HvacRegime::kEco;
  specs[3].name = "grid-64";
  specs[3].building = sim::BuildingKind::kGrid;
  specs[3].sensors = 64;
  specs[3].dropout = 0.0;  // see README, "Known fault"
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].days = kDays;
    specs[i].failure_days = 6;
    specs[i].seed = derive_seed(config.seed, 10 + i);
  }
  // The simulated datasets and the reference service live in inner scopes:
  // they are the benchmark's own state, released before the daemon starts.
  obs::Recorder sim_recorder;
  std::vector<std::string> paths;
  double write_ms = 0.0;
  double total_bytes = 0.0;
  {
    std::vector<sim::ScenarioOutcome> outcomes;
    {
      const obs::RecorderScope scope(&sim_recorder);
      const core::ThreadCountScope sim_threads(kWorkers);
      outcomes = sim::run_fleet(specs);
    }
    for (auto& outcome : outcomes) {
      const std::string path =
          config.work_dir + "/" + outcome.spec.name + ".csv";
      const auto t0 = Clock::now();
      timeseries::write_csv_file(path, outcome.dataset->trace);
      write_ms += ms_between(t0, Clock::now());
      total_bytes += static_cast<double>(std::filesystem::file_size(path));
      paths.push_back(path);
    }
  }
  const auto sim_spans = aggregate_spans(
      sim_recorder, 0, std::numeric_limits<std::uint64_t>::max());
  const double sim_ms = sim_spans.ms_by_name.count("sim.fleet.building")
                            ? sim_spans.ms_by_name.at("sim.fleet.building")
                            : 0.0;
  const double sim_steps = static_cast<double>(
      counter_sum(counters(sim_recorder), "sim.fleet.steps"));


  const std::vector<std::string> options = {
      "",
      R"(, "order": 1)",
      R"(, "per_cluster": 2)",
      R"(, "stream": 336)",
      R"(, "sweep": 2)",
      R"(, "inputs": {"occupancy": "estimated"})",
  };
  std::vector<Variant> variants;
  std::size_t working_set = 0;
  {
    serve::AnalysisService reference_service;  // unbounded, in process
    for (const auto& path : paths) {
      for (const auto& extra : options) {
        Variant v;
        // An explicit cluster count keeps each variant's model size, and
        // so its cost, the same on every seed.
        v.body = R"({"data": ")" + serve::json::escape(path) +
                 R"(", "clusters": 3)" + extra + "}";
        v.request = serve::request_from_json(serve::json::parse(v.body));
        v.expected = reference_service.analyze(v.request);
        variants.push_back(std::move(v));
      }
    }
    working_set = reference_service.cache().resident_bytes();
  }
  serve::ServiceConfig service_config;
  service_config.cache_budget.bytes =
      static_cast<std::size_t>(kBudgetShare * static_cast<double>(working_set));

  const std::uint64_t mix_seed = derive_seed(config.seed, 20);
  const auto variant_of = [&](std::size_t i) {
    return static_cast<std::size_t>(mix64(mix_seed + i) % variants.size());
  };

  serve::AnalysisService service(service_config);
  obs::Recorder recorder;  // the daemon's, as `auditherm serve` installs
  const obs::RecorderScope scope(&recorder);
  std::size_t sent = 0;
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> compared{0};

  auto daemon = std::make_unique<Daemon>(service, &recorder);
  const std::uint16_t port = daemon->port();

  // Runs requests next, next+1, ... of the mix from kClients closed-loop
  // clients until `deadline` (or `count` requests when count > 0).
  std::atomic<std::size_t> next{0};
  std::mutex completions_mutex;
  std::vector<Completion> completions;
  std::atomic<std::size_t> failed{0};
  const auto drive = [&](std::size_t first, std::size_t count,
                         Clock::time_point deadline) {
    next.store(first);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        std::vector<Completion> local;
        for (;;) {
          if (count > 0 ? next.load() >= first + count
                        : Clock::now() >= deadline) {
            break;
          }
          const std::size_t i = next.fetch_add(1);
          if (count > 0 && i >= first + count) break;
          const Variant& v = variants[variant_of(i)];
          const auto t0 = Clock::now();
          const auto response = http_exchange(port, "POST", "/analyze", v.body);
          const double ms = ms_between(t0, Clock::now());
          if (response.status != 200) failed.fetch_add(1);
          compared.fetch_add(1);
          if (!same_report(response, v.expected)) mismatches.fetch_add(1);
          local.push_back({ms, recorder.now_ns()});
        }
        const std::lock_guard<std::mutex> lock(completions_mutex);
        completions.insert(completions.end(), local.begin(), local.end());
      });
    }
    for (auto& t : clients) t.join();
    const std::size_t done = next.load() - first;
    return std::min(done, count > 0 ? count : done);
  };

  // Warm-up: every variant once, then the head of the seeded stream.
  for (const auto& v : variants) {
    const auto response = http_exchange(port, "POST", "/analyze", v.body);
    ++sent;
    compared.fetch_add(1);
    if (!same_report(response, v.expected)) mismatches.fetch_add(1);
  }
  sent += drive(0, kWarmupRequests, Clock::time_point::max());
  completions.clear();
  report.setup_s = seconds_since(config.process_start);

  // --- Timed run. --------------------------------------------------------
  if (!config.self_test) {
    report.noise_ms = noise_samples(5);
    const auto before = counters(recorder);
    const std::uint64_t from_ns = recorder.now_ns();
    const std::size_t failed_before = failed.load();
    RssSampler rss;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(config.seconds));
    drive(kWarmupRequests, 0, deadline);
    report.timed_seconds = seconds_since(start);
    report.peak_rss_mb = rss.stop();
    const std::uint64_t to_ns = recorder.now_ns();
    const auto after = counters(recorder);
    const auto noise_after = noise_samples(5);
    report.noise_ms.insert(report.noise_ms.end(), noise_after.begin(),
                           noise_after.end());
    report.attempted = completions.size();
    report.failed = failed.load() - failed_before;
    report.timed_ops = completions.size();
    sent += completions.size();
    for (const auto& c : completions) report.op_ms.push_back(c.ms);

    if (config.trace) {
      // The recorder keeps at most Recorder::kMaxSpans spans; if the run
      // filled it, attribute only the requests that finished before the
      // last recorded span ended.
      std::uint64_t cut_ns = to_ns;
      if (counter_sum(after, "obs.dropped_spans") > 0) {
        cut_ns = from_ns;
        for (const auto& span : recorder.spans()) {
          cut_ns = std::max(cut_ns, span.start_ns + span.duration_ns);
        }
      }
      double latency_sum = 0.0;
      std::size_t ops = 0;
      for (const auto& c : completions) {
        if (c.end_ns <= cut_ns) {
          latency_sum += c.ms;
          ++ops;
        }
      }
      const auto spans = aggregate_spans(recorder, from_ns, cut_ns);
      const double n = std::max<double>(1.0, static_cast<double>(ops));
      add_span_layers(layers, spans, n);
      add_counter_layers(layers, before, after,
                         static_cast<double>(report.timed_ops));
      const double daemon_ms = spans.ms_by_name.count("serve.request")
                                   ? spans.ms_by_name.at("serve.request")
                                   : 0.0;
      // The daemon's serve.request span wraps AnalysisService::analyze for
      // the request in process (plus body decode and response framing);
      // the rest of the client-observed time is socket transport, which
      // no program span covers.
      layers.add("serve.request_ms", latency_sum / n);
      layers.add("serve.service_ms", daemon_ms / n);
      layers.add("serve.transport_ms", (latency_sum - daemon_ms) / n);
      layers.add("unattributed_ms", (latency_sum - daemon_ms) / n);
      report.notes.push_back(
          "serve: " + std::to_string(ops) + " of " +
          std::to_string(completions.size()) +
          " requests inside the recorded span window");
    }
  }

  // --- Checks (outside the timed loop). ---------------------------------
  const auto metrics_response = http_exchange(port, "GET", "/metrics", "");
  std::uint64_t counted = 0;
  try {
    const auto doc = serve::json::parse(metrics_response.body);
    if (const auto* c = doc.find("counters"); c != nullptr) {
      if (const auto* r = c->find("serve.request"); r != nullptr) {
        counted = static_cast<std::uint64_t>(r->number);
      }
    }
  } catch (const std::exception&) {
    counted = 0;
  }
  const auto metrics_check = [](std::uint64_t counted_requests,
                                std::size_t sent_requests) {
    return CheckResult{
        "metrics_request_count", counted_requests == sent_requests,
        "GET /metrics serve.request " + std::to_string(counted_requests) +
            ", generator sent " + std::to_string(sent_requests)};
  };
  report.checks.push_back(metrics_check(counted, sent));
  const auto identity_check = [](std::size_t bad, std::size_t total) {
    return CheckResult{"daemon_equals_service", bad == 0 && total > 0,
                       std::to_string(total) +
                           " responses compared byte for byte with the "
                           "in-process service report; " +
                           std::to_string(bad) + " differ"};
  };
  report.checks.push_back(identity_check(mismatches.load(), compared.load()));

  if (config.trace && !config.self_test) {
    double read_ms = 0.0;
    for (const auto& path : paths) {
      std::vector<double> samples;
      for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        const auto parsed = timeseries::read_csv_file(path);
        samples.push_back(ms_between(t0, Clock::now()));
      }
      read_ms += median(samples);
    }
    layers.set("timeseries.read_csv_ms", read_ms);
    layers.set("timeseries.read_mb_per_s",
               total_bytes / 1e6 / (read_ms / 1e3));
    layers.set("timeseries.write_csv_ms", write_ms);
    layers.set("timeseries.write_mb_per_s",
               total_bytes / 1e6 / (write_ms / 1e3));
    layers.set("sim.building_ms", sim_ms);
    layers.set("sim.steps", sim_steps);
    layers.set("sim.step_us", sim_steps > 0 ? sim_ms * 1e3 / sim_steps : 0.0);
    // The daemon records in every run, so tracing adds nothing to the
    // timed requests.
    layers.set("obs.trace_overhead_ms", 0.0);
    report.per_layer = layers.finish();
  }
  if (config.self_test) {
    report.self_test.push_back({"metrics_request_count",
                                "counter one short of the requests sent",
                                !metrics_check(counted - 1, sent).passed});
    auto response = http_exchange(port, "POST", "/analyze", variants[0].body);
    response.body[response.body.size() / 2] ^= 1;
    const std::size_t bad = same_report(response, variants[0].expected) ? 0 : 1;
    report.self_test.push_back({"daemon_equals_service",
                                "one response byte flipped",
                                !identity_check(bad, 1).passed});
  }
  daemon.reset();

  const auto totals = service.cache().totals();
  report.notes.push_back(
      "serve: " + std::to_string(variants.size()) + " distinct requests over " +
      std::to_string(paths.size()) + " traces; cache budget " +
      std::to_string(service_config.cache_budget.bytes) + " of " +
      std::to_string(working_set) + " working-set bytes; stage cache " +
      std::to_string(totals.hits) + " hits / " + std::to_string(totals.misses) +
      " misses; " + std::to_string(service.cache().eviction_count()) +
      " evictions");

  return report;
}

}  // namespace e2e
