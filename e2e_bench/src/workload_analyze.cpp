// Workload "analyze": the cold path of `auditherm analyze`.
//
// One operation is one round of three cold analyses through
// serve::AnalysisService::analyze, each on a fresh service with the CLI's
// default options, exactly as one `auditherm analyze` process runs them:
//   1. the 98-day paper-hall trace, plain;
//   2. the same trace with --sweep 8 --stream 336;
//   3. a synthetic grid hall large enough that similarity and spectrum
//      take a visible share of the round.
// A fixed mix per round keeps the per-operation times unimodal.

#include <cmath>
#include <filesystem>
#include <limits>

#include "auditherm/core/parallel.hpp"
#include "auditherm/core/pipeline.hpp"
#include "auditherm/core/split.hpp"
#include "auditherm/hvac/schedule.hpp"
#include "auditherm/serve/service.hpp"
#include "auditherm/sim/scenario.hpp"
#include "auditherm/sysid/estimator.hpp"
#include "auditherm/sysid/streaming.hpp"
#include "auditherm/timeseries/csv_io.hpp"
#include "checks.hpp"
#include "common.hpp"

namespace e2e {

namespace clustering = auditherm::clustering;
namespace core = auditherm::core;
namespace hvac = auditherm::hvac;
namespace obs = auditherm::obs;
namespace serve = auditherm::serve;
namespace sim = auditherm::sim;
namespace sysid = auditherm::sysid;
namespace timeseries = auditherm::timeseries;

namespace {

constexpr std::size_t kThreads = 2;
constexpr std::size_t kGridSensors = 128;
constexpr std::size_t kGridDays = 21;
constexpr long kClusters = 3;
/// Gating bound on an identified model's spectral radius, well above the
/// 1.0001-1.011 the program yields on its unstable seeds (README, "Known
/// faults"), so only a real regression crosses it.
constexpr double kRadiusLimit = 1.05;

/// One simulated hall, its CSV on disk, and the dataset it was written
/// from.
struct Hall {
  std::string path;
  std::size_t bytes = 0;
  timeseries::MultiTrace trace;
};

/// The Step-1 inputs a service derives from a trace, rebuilt here for the
/// checks.
struct Prepared {
  serve::ChannelSets sets;
  core::DataSplit split;
};

Prepared prepare_inputs(const timeseries::MultiTrace& trace) {
  Prepared p;
  p.sets = serve::classify_channels(trace);
  auto required = p.sets.sensors;
  required.insert(required.end(), p.sets.thermostats.begin(),
                  p.sets.thermostats.end());
  required.insert(required.end(), p.sets.inputs.begin(), p.sets.inputs.end());
  p.split = core::split_dataset(trace, required, hvac::Schedule{},
                                hvac::Mode::kOccupied);
  return p;
}

std::vector<std::string> run_round(
    const std::vector<serve::AnalyzeRequest>& requests) {
  std::vector<std::string> reports;
  reports.reserve(requests.size());
  for (const auto& request : requests) {
    serve::AnalysisService service;  // fresh, as one CLI process
    reports.push_back(service.analyze(request));
  }
  return reports;
}

/// A copy of `m` with one coefficient of A1 moved by `delta`.
sysid::ThermalModel perturbed(const sysid::ThermalModel& m, double delta) {
  auto a = m.a();
  a(0, 0) += delta;
  return sysid::ThermalModel(m.order(), a, m.a2(), m.b(), m.state_channels(),
                             m.input_channels());
}

}  // namespace

WorkloadReport run_analyze(const RunConfig& config) {
  WorkloadReport report;
  Layers layers;
  const core::ThreadCountScope threads(kThreads);
  reset_dir(config.work_dir);

  // --- Set-up: simulate the two halls and write their CSVs. -------------
  std::vector<sim::ScenarioSpec> specs(2);
  specs[0].name = "paper-hall";  // every other field: the paper's run
  specs[0].seed = derive_seed(config.seed, 1);
  specs[1].name = "grid-hall";
  specs[1].building = sim::BuildingKind::kGrid;
  specs[1].sensors = kGridSensors;
  specs[1].days = kGridDays;
  specs[1].failure_days = 3;
  // Dropout 0: at the default 0.04 a grid hall this wide has almost no
  // day on which every channel is valid (see README, "Known fault").
  specs[1].dropout = 0.0;
  specs[1].seed = derive_seed(config.seed, 2);

  obs::Recorder sim_recorder;
  std::vector<sim::ScenarioOutcome> outcomes;
  {
    const obs::RecorderScope scope(&sim_recorder);
    outcomes = sim::run_fleet(specs);
  }
  const auto sim_spans =
      aggregate_spans(sim_recorder, 0, std::numeric_limits<std::uint64_t>::max());
  const auto sim_counters = counters(sim_recorder);
  const double sim_ms = sim_spans.ms_by_name.count("sim.fleet.building")
                            ? sim_spans.ms_by_name.at("sim.fleet.building")
                            : 0.0;
  const double sim_steps =
      static_cast<double>(counter_sum(sim_counters, "sim.fleet.steps"));

  std::vector<Hall> halls;
  double write_ms = 0.0;
  double write_bytes = 0.0;
  for (auto& outcome : outcomes) {
    Hall hall;
    hall.path = config.work_dir + "/" + outcome.spec.name + ".csv";
    hall.trace = std::move(outcome.dataset->trace);
    const auto t0 = Clock::now();
    timeseries::write_csv_file(hall.path, hall.trace);
    write_ms += ms_between(t0, Clock::now());
    hall.bytes = std::filesystem::file_size(hall.path);
    write_bytes += static_cast<double>(hall.bytes);
    halls.push_back(std::move(hall));
  }

  // An explicit --clusters 3 keeps the model size, and so the cost of
  // every fit, the same on every seed; the eigengap choice moves with it.
  std::vector<serve::AnalyzeRequest> requests(3);
  for (auto& request : requests) request.clusters = kClusters;
  requests[0].data = halls[0].path;
  requests[1].data = halls[0].path;
  requests[1].sweep = 8;
  requests[1].stream = 336;
  requests[2].data = halls[1].path;
  // Files each round parses, once per analysis.
  const std::vector<std::size_t> round_reads = {0, 0, 1};

  // Warm-up round: its reports are the reference every later round must
  // reproduce byte for byte.
  const std::vector<std::string> reference = run_round(requests);
  report.setup_s = seconds_since(config.process_start);

  // --- Timed run. --------------------------------------------------------
  const auto op = [&](bool traced) {
    if (!traced) return timed([&] { return run_round(requests) == reference; });
    obs::Recorder recorder;
    const obs::RecorderScope scope(&recorder);
    const std::uint64_t from = recorder.now_ns();
    std::vector<std::string> reports;
    const OpResult result = timed([&] {
      reports = run_round(requests);
      return true;
    });
    const std::uint64_t to = recorder.now_ns();
    const auto spans = aggregate_spans(recorder, from, to);
    add_span_layers(layers, spans, 1.0);
    add_counter_layers(layers, {}, counters(recorder), 1.0);
    layers.add("unattributed_ms", result.ms - spans.covered_ms);
    return OpResult{reports == reference, result.ms};
  };
  if (!config.self_test) {
    RssSampler rss;
    const LoopSamples loop = timed_loop(config.seconds, config.trace, op);
    report.peak_rss_mb = rss.stop();
    report.attempted = loop.attempted;
    report.failed = loop.failed;
    report.op_ms = loop.untraced_ms;
    report.timed_seconds = loop.seconds;
    report.timed_ops = loop.attempted;
    report.noise_ms = loop.noise_ms;
    if (config.trace) {
      layers.add("obs.trace_overhead_ms",
                 median(loop.traced_ms) - median(loop.untraced_ms));
    }
  }

  // --- Layer probes and set-up layers (traced run). ----------------------
  if (config.trace) {
    double read_ms = 0.0;
    double read_bytes = 0.0;
    for (const std::size_t h : round_reads) {
      std::vector<double> samples;
      for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        const auto parsed = timeseries::read_csv_file(halls[h].path);
        samples.push_back(ms_between(t0, Clock::now()));
      }
      read_ms += median(samples);
      read_bytes += static_cast<double>(halls[h].bytes);
    }
    layers.set("timeseries.read_csv_ms", read_ms);
    layers.set("timeseries.read_mb_per_s", read_bytes / 1e6 / (read_ms / 1e3));
    layers.set("timeseries.write_csv_ms", write_ms);
    layers.set("timeseries.write_mb_per_s",
               write_bytes / 1e6 / (write_ms / 1e3));
    layers.set("sim.building_ms", sim_ms);
    layers.set("sim.steps", sim_steps);
    layers.set("sim.step_us", sim_steps > 0 ? sim_ms * 1e3 / sim_steps : 0.0);
    report.per_layer = layers.finish();
  }

  // --- Correctness checks (outside the timed loop). ----------------------
  const std::vector<std::string> names = {"paper", "grid"};
  std::vector<Prepared> prepared;
  std::vector<timeseries::MultiTrace> read_back;
  for (std::size_t h = 0; h < halls.size(); ++h) {
    read_back.push_back(timeseries::read_csv_file(halls[h].path));
    report.checks.push_back(check_csv_roundtrip("csv_roundtrip." + names[h],
                                                halls[h].trace, read_back[h]));
    prepared.push_back(prepare_inputs(read_back[h]));
  }

  const core::PipelineConfig pipeline_config;
  const core::ThermalModelingPipeline pipeline(pipeline_config);
  std::vector<core::StageArtifacts> artifacts;
  std::vector<clustering::SpectralAnalysis> unnormalized;
  for (std::size_t h = 0; h < halls.size(); ++h) {
    const auto& p = prepared[h];
    artifacts.push_back(pipeline.prepare(read_back[h], hvac::Schedule{},
                                         p.split, p.sets.sensors,
                                         p.sets.inputs));
    const auto& weights = artifacts[h].graph->weights;
    report.checks.push_back(check_laplacian(
        "laplacian.normalized." + names[h], weights,
        pipeline_config.spectral.laplacian, *artifacts[h].spectrum));
    unnormalized.push_back(clustering::analyze_spectrum(
        weights, clustering::LaplacianKind::kUnnormalized,
        auditherm::linalg::EigenMethod::kAuto,
        clustering::needed_eigenpairs(pipeline_config.spectral,
                                      weights.rows())));
    report.checks.push_back(check_laplacian(
        "laplacian.d_minus_w." + names[h], weights,
        clustering::LaplacianKind::kUnnormalized, unnormalized[h]));
  }

  const std::vector<std::size_t> report_hall = {0, 0, 1};
  const std::vector<std::string> report_names = {"paper", "paper_sweep",
                                                 "grid"};
  std::vector<std::vector<ReportCluster>> clusters;
  for (std::size_t r = 0; r < reference.size(); ++r) {
    clusters.push_back(parse_clusters(reference[r]));
    report.checks.push_back(
        check_partition("partition." + report_names[r], clusters[r],
                        prepared[report_hall[r]].sets.sensors));
  }

  // Growing-window streaming fit vs the batch fit over the whole paper
  // trace, on the channels the plain analysis kept.
  std::vector<int> kept;
  for (const auto& c : clusters[0]) {
    kept.insert(kept.end(), c.keep.begin(), c.keep.end());
  }
  const timeseries::TraceView paper_view(read_back[0]);
  sysid::StreamingOptions stream_options;
  stream_options.drift.enabled = false;
  sysid::StreamingEstimator streaming(kept, prepared[0].sets.inputs,
                                      sysid::ModelOrder::kSecond,
                                      stream_options);
  streaming.push_trace(paper_view);
  const sysid::ModelEstimator batch(kept, prepared[0].sets.inputs,
                                    sysid::ModelOrder::kSecond);
  const auto batch_model = batch.fit(paper_view);
  const bool streamed = streaming.has_model();
  report.checks.push_back(
      streamed ? check_models_agree("stream_equals_batch", streaming.model(),
                                    batch_model, 1e-8)
               : CheckResult{"stream_equals_batch", false,
                             "streaming estimator has no model"});

  // Stability of the identified reduced models, by the benchmark's own
  // spectral radius (repeated squaring), not the program's estimate.
  std::vector<sysid::ThermalModel> models;
  for (std::size_t h = 0; h < halls.size(); ++h) {
    core::RunOptions run_options;
    run_options.thermostat_ids = prepared[h].sets.thermostats;
    run_options.artifacts = &artifacts[h];
    models.push_back(pipeline
                         .run(read_back[h], hvac::Schedule{}, prepared[h].split,
                              prepared[h].sets.sensors,
                              prepared[h].sets.inputs, run_options)
                         .reduced_model);
    const double rho = spectral_radius(models[h]);
    const std::string what =
        "spectral radius (program's estimate " +
        std::to_string(parse_number_after(reference[h == 0 ? 0 : 2],
                                          "spectral radius: ")) +
        ")";
    // Not gating: on some seeds the program identifies a paper-hall model
    // with radius just above 1 and accepts it (README, "Known faults").
    report.checks.push_back(
        check_less("stable_model." + names[h], rho, 1.0, what));
    report.checks.back().gating = false;
    // Gating: a regression in the identification that yields a grossly
    // unstable model fails the run.
    report.checks.push_back(check_less("bounded_model." + names[h], rho,
                                       kRadiusLimit, what));
  }

  // Table I: the second-order model predicts better than the first.
  serve::AnalyzeRequest first_order = requests[0];
  first_order.order = 1;
  const std::string first_report =
      serve::AnalysisService{}.analyze(first_order);
  const std::string rms_label = "validation pooled RMS (own sensors): ";
  const double rms1 = parse_number_after(first_report, rms_label);
  const double rms2 = parse_number_after(reference[0], rms_label);
  report.checks.push_back(check_less("order2_beats_order1", rms2, rms1,
                                     "pooled RMS, second vs first order"));

  report.notes.push_back(
      "analyze: round = paper-hall 98 d plain + sweep 8/stream 336 + grid " +
      std::to_string(kGridSensors) + " sensors " + std::to_string(kGridDays) +
      " d; " + std::to_string(kThreads) + " pool threads; " +
      std::to_string(clusters[0].size()) + "/" +
      std::to_string(clusters[2].size()) + " clusters (paper/grid)");

  if (config.self_test) {
    const auto expect_fail = [&](const std::string& check,
                                 const std::string& corruption,
                                 const CheckResult& r) {
      report.self_test.push_back({check, corruption, !r.passed});
    };
    {
      auto bad = read_back[0];
      for (std::size_t k = 0; k < bad.size(); ++k) {
        if (bad.valid(k, 0)) {
          bad.set(k, 0, std::nextafter(bad.value(k, 0), 1e300));
          break;
        }
      }
      expect_fail("csv_roundtrip", "one value moved by one ulp",
                  check_csv_roundtrip("csv", halls[0].trace, bad));
      auto gap = read_back[0];
      for (std::size_t k = 0; k < gap.size(); ++k) {
        if (!gap.valid(k, 0)) {
          gap.set(k, 0, 21.0);
          break;
        }
      }
      expect_fail("csv_roundtrip", "one NaN replaced by a value",
                  check_csv_roundtrip("csv", halls[0].trace, gap));
    }
    {
      auto bad = *artifacts[1].spectrum;
      bad.eigenvectors(0, 1) += 1e-3;
      expect_fail("laplacian.normalized", "eigenvector entry moved by 1e-3",
                  check_laplacian("lap", artifacts[1].graph->weights,
                                  pipeline_config.spectral.laplacian, bad));
      auto shifted = unnormalized[1];
      shifted.eigenvalues[0] += 1e-4;
      expect_fail("laplacian.d_minus_w", "lambda0 shifted by 1e-4",
                  check_laplacian("lap", artifacts[1].graph->weights,
                                  clustering::LaplacianKind::kUnnormalized,
                                  shifted));
    }
    {
      auto dup = clusters[0];
      dup.back().members.push_back(dup.front().members.front());
      expect_fail("partition", "one sensor listed in two clusters",
                  check_partition("p", dup, prepared[0].sets.sensors));
      auto stray = clusters[0];
      stray.front().keep = {stray.back().members.front()};
      expect_fail("partition", "representative from another cluster",
                  check_partition("p", stray, prepared[0].sets.sensors));
    }
    if (streamed) {
      expect_fail("stream_equals_batch", "one A1 coefficient moved by 1e-6",
                  check_models_agree("s", streaming.model(),
                                     perturbed(batch_model, 1e-6), 1e-8));
    }
    {
      const std::size_t p = models[0].state_count();
      auto a = auditherm::linalg::Matrix::identity(p);
      a *= 1.1;
      const sysid::ThermalModel unstable(
          sysid::ModelOrder::kSecond, a, auditherm::linalg::Matrix(p, p),
          models[0].b(), models[0].state_channels(),
          models[0].input_channels());
      const double rho = spectral_radius(unstable);
      expect_fail("stable_model", "A1 = 1.1 I (radius 1.1)",
                  check_less("st", rho, 1.0, "radius"));
      expect_fail("bounded_model", "A1 = 1.1 I (radius 1.1)",
                  check_less("b", rho, kRadiusLimit, "radius"));
    }
    expect_fail("order2_beats_order1", "first/second-order errors swapped",
                check_less("o", rms1, rms2, "swapped"));
  }
  return report;
}

}  // namespace e2e
