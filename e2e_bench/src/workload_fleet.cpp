// Workload "fleet": scenario generation and fleet-scored control.
//
// One operation is one fleet round:
//   1. sim::run_fleet over a small mixed fleet written to disk with its
//      manifest: four paper-hall season/occupancy/HVAC regimes plus one
//      synthetic grid hall, whose O(n^2) plant step carries weight;
//   2. control::score_fleet_control over two paper-hall regimes
//      (identification on estimated occupancy, then MPC vs the thermostat
//      rule on a fresh season).
// The simulator step, CSV writing and the control layer do their work
// here; CSV parsing and the cold clustering path do none.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "auditherm/control/fleet_control.hpp"
#include "auditherm/core/parallel.hpp"
#include "auditherm/serve/json.hpp"
#include "auditherm/sim/scenario.hpp"
#include "auditherm/timeseries/csv_io.hpp"
#include "checks.hpp"
#include "common.hpp"

namespace e2e {

namespace control = auditherm::control;
namespace core = auditherm::core;
namespace obs = auditherm::obs;
namespace serve = auditherm::serve;
namespace sim = auditherm::sim;
namespace timeseries = auditherm::timeseries;

namespace {

/// One pool thread: on a shared host a one-thread round is the steadiest.
/// The thread-invariance check runs the fleet at 1 and at kCheckThreads.
constexpr std::size_t kThreads = 1;
constexpr std::size_t kCheckThreads = 4;
constexpr std::size_t kFleetDays = 1;
constexpr std::size_t kGridSensors = 64;
constexpr std::size_t kControlDays = 8;
constexpr std::size_t kScoreDays = 1;

struct Round {
  std::vector<sim::ScenarioOutcome> outcomes;
  std::vector<control::FleetControlCase> cases;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_metrics(const control::ClosedLoopMetrics& a,
                  const control::ClosedLoopMetrics& b) {
  return same_bits(a.comfort_violation_fraction, b.comfort_violation_fraction) &&
         same_bits(a.mean_abs_deviation_c, b.mean_abs_deviation_c) &&
         same_bits(a.coil_energy_kwh, b.coil_energy_kwh) &&
         same_bits(a.fan_energy_kwh, b.fan_energy_kwh) &&
         a.scored_samples == b.scored_samples;
}

bool same_case(const control::FleetControlCase& a,
               const control::FleetControlCase& b) {
  return a.spec == b.spec && a.loop_seed == b.loop_seed && a.zones == b.zones &&
         same_bits(a.occupancy_mae, b.occupancy_mae) &&
         same_metrics(a.thermostat, b.thermostat) && same_metrics(a.mpc, b.mpc);
}

bool same_round(const Round& a, const Round& b) {
  if (a.outcomes.size() != b.outcomes.size() ||
      a.cases.size() != b.cases.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    if (a.outcomes[i].trace_fingerprint != b.outcomes[i].trace_fingerprint ||
        a.outcomes[i].truth_fingerprint != b.outcomes[i].truth_fingerprint) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.cases.size(); ++i) {
    if (!same_case(a.cases[i], b.cases[i])) return false;
  }
  return true;
}

/// The standard FNV-1a-64 offset basis (14695981039346656037).
constexpr std::uint64_t kStandardFnvBasis = 0xcbf29ce484222325ull;
/// The basis the program's fleet fingerprints start from: the standard
/// one with its last digit dropped (README, "Known faults").
constexpr std::uint64_t kProgramFnvBasis = 1469598103934665603ull;

/// Every fingerprint in the manifest equals FNV-1a-64 (from `basis`) over
/// the bytes of the file it names, computed here; so does the combined
/// fingerprint.
CheckResult check_manifest(const std::string& manifest_text,
                           const std::string& dir, std::uint64_t basis) {
  CheckResult r{"manifest_standard_fnv", false, ""};
  try {
    const auto doc = serve::json::parse(manifest_text);
    const auto* scenarios = doc.find("scenarios");
    if (scenarios == nullptr || !scenarios->is_array() ||
        scenarios->array.empty()) {
      r.detail = "manifest lists no scenarios";
      return r;
    }
    std::size_t files = 0;
    std::size_t bad = 0;
    std::uint64_t combined = basis;
    for (const auto& s : scenarios->array) {
      for (const auto& [file_key, fp_key] :
           {std::pair{"trace_file", "trace_fingerprint"},
            std::pair{"truth_file", "truth_fingerprint"}}) {
        const auto* file = s.find(file_key);
        const auto* fp = s.find(fp_key);
        if (file == nullptr || fp == nullptr) {
          ++bad;
          continue;
        }
        const std::uint64_t h =
            fnv1a64(read_file(dir + "/" + file->string), basis);
        ++files;
        if (hex(h) != fp->string) ++bad;
        if (std::string(fp_key) == "trace_fingerprint") {
          combined ^= h;
          combined *= 0x100000001b3ull;
        }
      }
    }
    const auto* total = doc.find("fingerprint");
    const bool combined_ok = total != nullptr && total->string == hex(combined);
    r.passed = bad == 0 && combined_ok;
    r.detail = std::to_string(files) + " files hashed; " + std::to_string(bad) +
               " fingerprint mismatches; fleet fingerprint " +
               (combined_ok ? "matches" : "differs");
  } catch (const std::exception& e) {
    r.detail = std::string("manifest unreadable: ") + e.what();
  }
  return r;
}

/// Gating: every fingerprint of the manifest, and the combined one, match
/// one offset basis, the standard one or the program's current one, so
/// the check keeps passing once the basis is corrected and still catches
/// a corrupted file or manifest.
CheckResult check_manifest_consistent(const std::string& manifest_text,
                                      const std::string& dir) {
  CheckResult r = check_manifest(manifest_text, dir, kStandardFnvBasis);
  std::string basis = "standard";
  if (!r.passed) {
    r = check_manifest(manifest_text, dir, kProgramFnvBasis);
    basis = "program's";
  }
  r.name = "manifest_fingerprints";
  r.detail += " (" + basis + " offset basis)";
  return r;
}

CheckResult check_thread_invariance(
    const std::vector<sim::ScenarioOutcome>& one,
    const std::vector<sim::ScenarioOutcome>& many) {
  CheckResult r{"fleet_thread_invariance", one.size() == many.size(), ""};
  // Results must be bitwise identical at any pool size.
  std::size_t bad = 0;
  for (std::size_t i = 0; r.passed && i < one.size(); ++i) {
    if (one[i].trace_fingerprint != many[i].trace_fingerprint ||
        one[i].truth_fingerprint != many[i].truth_fingerprint) {
      ++bad;
    }
  }
  r.passed = r.passed && bad == 0;
  r.detail = std::to_string(one.size()) + " buildings at 1 and " +
             std::to_string(kCheckThreads) + " threads; " +
             std::to_string(bad) +
             " fingerprints differ";
  return r;
}

CheckResult check_rescore(const control::FleetControlCase& in_fleet,
                          const control::FleetControlCase& alone,
                          std::size_t index) {
  return {"rescore_alone_bitwise", same_case(in_fleet, alone),
          "spec " + std::to_string(index) +
              " re-scored alone under its derived loop seed; scorecard " +
              (same_case(in_fleet, alone) ? "bitwise equal" : "differs")};
}

CheckResult check_ranges(const std::vector<control::FleetControlCase>& cases) {
  std::size_t bad = 0;
  for (const auto& c : cases) {
    for (const auto* m : {&c.thermostat, &c.mpc}) {
      if (!(m->comfort_violation_fraction >= 0.0 &&
            m->comfort_violation_fraction <= 1.0)) {
        ++bad;
      }
      if (!(m->total_energy_kwh() > 0.0)) ++bad;
    }
  }
  return {"scorecard_ranges", !cases.empty() && bad == 0,
          std::to_string(cases.size()) +
              " scorecards; comfort fractions in [0, 1] and energies > 0; " +
              std::to_string(bad) + " violations"};
}

}  // namespace

WorkloadReport run_fleet(const RunConfig& config) {
  WorkloadReport report;
  Layers layers;
  const core::ThreadCountScope threads(kThreads);
  reset_dir(config.work_dir);

  // --- Set-up: the specs. ------------------------------------------------
  std::vector<sim::ScenarioSpec> fleet(5);
  fleet[0].name = "paper-hall";
  fleet[1].name = "winter-busy";
  fleet[1].season = sim::Season::kWinter;
  fleet[1].occupancy = sim::OccupancyRegime::kBusy;
  fleet[2].name = "summer-eco";
  fleet[2].season = sim::Season::kSummer;
  fleet[2].hvac = sim::HvacRegime::kEco;
  fleet[3].name = "shoulder-fixed";
  fleet[3].season = sim::Season::kShoulder;
  fleet[3].occupancy = sim::OccupancyRegime::kQuiet;
  fleet[3].hvac = sim::HvacRegime::kFixedSupply;
  fleet[4].name = "grid-hall";
  fleet[4].building = sim::BuildingKind::kGrid;
  fleet[4].sensors = kGridSensors;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fleet[i].days = kFleetDays;
    fleet[i].failure_days = 0;
    fleet[i].seed = derive_seed(config.seed, 40 + i);
  }
  std::vector<sim::ScenarioSpec> scored(2);
  scored[0].name = "paper-hall";
  scored[1].name = "winter-busy";
  scored[1].season = sim::Season::kWinter;
  scored[1].occupancy = sim::OccupancyRegime::kBusy;
  for (std::size_t i = 0; i < scored.size(); ++i) {
    scored[i].days = kControlDays;
    scored[i].failure_days = 0;
    scored[i].seed = derive_seed(config.seed, 50 + i);
  }
  control::FleetControlOptions options;
  options.days = kScoreDays;
  options.base_seed = derive_seed(config.seed, 60);
  // Each round writes into a fresh directory that is removed right after
  // the round, outside the timer, while its pages are still only dirty:
  // rewriting files in place would truncate pages the kernel may be
  // writing back, and time the host's disk instead of the program. The
  // warm-up round's directory stays for the checks.
  const std::string reference_dir = config.work_dir + "/reference";
  const std::string round_dir = config.work_dir + "/round";
  const auto run_round = [&](const std::string& dir) {
    Round round;
    sim::FleetOptions fleet_options;
    fleet_options.out_dir = dir;
    round.outcomes = sim::run_fleet(fleet, fleet_options);
    round.cases = control::score_fleet_control(scored, options);
    return round;
  };

  const Round reference = run_round(reference_dir);  // warm-up
  report.setup_s = seconds_since(config.process_start);

  // --- Timed run. --------------------------------------------------------
  const auto op = [&](bool traced) {
    OpResult result;
    if (!traced) {
      result = timed(
          [&] { return same_round(run_round(round_dir), reference); });
    } else {
      obs::Recorder recorder;
      const obs::RecorderScope scope(&recorder);
      const std::uint64_t from = recorder.now_ns();
      Round round;
      result = timed([&] {
        round = run_round(round_dir);
        return true;
      });
      const std::uint64_t to = recorder.now_ns();
      result.ok = same_round(round, reference);
      const auto spans = aggregate_spans(recorder, from, to);
      const auto after = counters(recorder);
      add_span_layers(layers, spans, 1.0);
      add_counter_layers(layers, {}, after, 1.0);
      const double building_ms = spans.ms_by_name.count("sim.fleet.building")
                                     ? spans.ms_by_name.at("sim.fleet.building")
                                     : 0.0;
      const double steps =
          static_cast<double>(counter_sum(after, "sim.fleet.steps"));
      layers.add("sim.building_ms", building_ms);
      layers.add("sim.steps", steps);
      layers.add("sim.step_us", steps > 0 ? building_ms * 1e3 / steps : 0.0);
      layers.add("unattributed_ms", result.ms - spans.covered_ms);
    }
    // Untimed, outside result.ms:
    std::filesystem::remove_all(round_dir);
    return result;
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

  // --- Layer probes (traced run): CSV I/O of the fleet's traces. ---------
  if (config.trace) {
    double read_ms = 0.0;
    double write_ms = 0.0;
    double bytes = 0.0;
    std::size_t written = 0;
    for (const auto& outcome : reference.outcomes) {
      // A new file each time, for the reason rounds get fresh directories.
      const std::string probe =
          config.work_dir + "/probe-" + std::to_string(written++) + ".csv";
      const std::string path = reference_dir + "/" + outcome.trace_file;
      bytes += static_cast<double>(std::filesystem::file_size(path));
      auto t0 = Clock::now();
      const auto trace = timeseries::read_csv_file(path);
      read_ms += ms_between(t0, Clock::now());
      t0 = Clock::now();
      timeseries::write_csv_file(probe, trace);
      write_ms += ms_between(t0, Clock::now());
    }
    layers.set("timeseries.read_csv_ms", read_ms);
    layers.set("timeseries.read_mb_per_s", bytes / 1e6 / (read_ms / 1e3));
    layers.set("timeseries.write_csv_ms", write_ms);
    layers.set("timeseries.write_mb_per_s", bytes / 1e6 / (write_ms / 1e3));
    report.per_layer = layers.finish();
  }

  // --- Checks (outside the timed loop). ---------------------------------
  const std::string manifest = read_file(reference_dir + "/manifest.json");
  report.checks.push_back(check_manifest_consistent(manifest, reference_dir));
  // Not gating: the program hashes from a wrong offset basis on every
  // seed (README, "Known faults").
  report.checks.push_back(
      check_manifest(manifest, reference_dir, kStandardFnvBasis));
  report.checks.back().gating = false;

  std::vector<sim::ScenarioOutcome> at_one;
  std::vector<sim::ScenarioOutcome> at_many;
  {
    const core::ThreadCountScope one(1);
    at_one = sim::run_fleet(fleet);
  }
  {
    const core::ThreadCountScope many(kCheckThreads);
    at_many = sim::run_fleet(fleet);
  }
  report.checks.push_back(check_thread_invariance(at_one, at_many));

  // Entity-seed rule: building i of a fleet based at base_seed scores
  // under derive_entity_seed(base_seed, i) = splitmix64(base_seed + g*i),
  // which is index 0 of the fleet based at base_seed + g*i.
  const std::size_t index = scored.size() - 1;
  control::FleetControlOptions alone_options = options;
  alone_options.base_seed = options.base_seed + 0x9E3779B97F4A7C15ull * index;
  const auto alone =
      control::score_fleet_control({scored[index]}, alone_options);
  report.checks.push_back(
      check_rescore(reference.cases[index], alone.front(), index));
  report.checks.push_back(check_ranges(reference.cases));

  report.notes.push_back(
      "fleet: round = run_fleet(4 paper-hall regimes + grid " +
      std::to_string(kGridSensors) + " sensors, " +
      std::to_string(kFleetDays) + " d) + score_fleet_control(2 paper-hall "
      "regimes, " + std::to_string(kControlDays) + " d, scored " +
      std::to_string(kScoreDays) + " d); " + std::to_string(kThreads) +
      " pool threads");
  for (const auto& c : reference.cases) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "fleet: %-12s zones %zu  rule %.3f / %.1f kWh  mpc %.3f / "
                  "%.1f kWh",
                  c.spec.name.c_str(), c.zones,
                  c.thermostat.comfort_violation_fraction,
                  c.thermostat.total_energy_kwh(),
                  c.mpc.comfort_violation_fraction, c.mpc.total_energy_kwh());
    report.notes.push_back(line);
  }

  if (config.self_test) {
    std::string bad_manifest = manifest;
    const auto at = bad_manifest.find("\"trace_fingerprint\": \"0x");
    bad_manifest[at + 25] = bad_manifest[at + 25] == '0' ? '1' : '0';
    report.self_test.push_back(
        {"manifest_fingerprints", "one hex digit of a fingerprint changed",
         !check_manifest_consistent(bad_manifest, reference_dir).passed});
    report.self_test.push_back(
        {"manifest_standard_fnv", "one hex digit of a fingerprint changed",
         !check_manifest(bad_manifest, reference_dir, kStandardFnvBasis)
              .passed});
    auto bad_many = at_many;
    bad_many.back().truth_fingerprint ^= 1;
    report.self_test.push_back(
        {"fleet_thread_invariance", "one truth fingerprint bit flipped",
         !check_thread_invariance(at_one, bad_many).passed});
    auto bad_alone = alone.front();
    bad_alone.mpc.coil_energy_kwh =
        std::nextafter(bad_alone.mpc.coil_energy_kwh, 0.0);
    report.self_test.push_back(
        {"rescore_alone_bitwise", "MPC energy moved by one ulp",
         !check_rescore(reference.cases[index], bad_alone, index).passed});
    auto out_of_range = reference.cases;
    out_of_range.front().mpc.comfort_violation_fraction = 1.5;
    report.self_test.push_back({"scorecard_ranges", "comfort fraction 1.5",
                                !check_ranges(out_of_range).passed});
    auto no_energy = reference.cases;
    no_energy.back().thermostat.coil_energy_kwh = 0.0;
    no_energy.back().thermostat.fan_energy_kwh = 0.0;
    report.self_test.push_back({"scorecard_ranges", "zero energy",
                                !check_ranges(no_energy).passed});
  }
  return report;
}

}  // namespace e2e
