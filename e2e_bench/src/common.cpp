#include "common.hpp"

#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace e2e {

namespace obs = auditherm::obs;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

void reset_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

namespace {

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace

RssSampler::RssSampler() {
  ::malloc_trim(0);
  peak_mb_ = current_rss_mb();
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const double mb = current_rss_mb();
      if (mb > peak_mb_.load()) peak_mb_ = mb;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

RssSampler::~RssSampler() { (void)stop(); }

double RssSampler::stop() {
  if (thread_.joinable()) {
    stop_ = true;
    thread_.join();
    peak_mb_ = std::max(peak_mb_.load(), current_rss_mb());
  }
  return peak_mb_.load();
}

const std::vector<LayerSpec>& layer_specs() {
  static const std::vector<LayerSpec> specs = {
      {"timeseries.read_csv_ms", "ms"},
      {"timeseries.read_mb_per_s", "MB/s"},
      {"timeseries.write_csv_ms", "ms"},
      {"timeseries.write_mb_per_s", "MB/s"},
      {"clustering.similarity_ms", "ms"},
      {"clustering.spectrum_ms", "ms"},
      {"clustering.kmeans_ms", "ms"},
      {"linalg.matvec_calls", "count"},
      {"linalg.eigen_calls", "count"},
      {"linalg.qr_update_calls", "count"},
      {"selection.select_ms", "ms"},
      {"sysid.fit_ms", "ms"},
      {"sysid.evaluate_ms", "ms"},
      {"sysid.stream_ms", "ms"},
      {"sysid.fit_transitions", "count"},
      {"core.prepare_ms", "ms"},
      {"core.sweep_ms", "ms"},
      {"core.parallel_batches", "count"},
      {"core.parallel_tasks", "count"},
      {"core.stage_cache_hits", "count"},
      {"core.stage_cache_misses", "count"},
      {"core.stage_cache_hit_ratio", "ratio"},
      {"serve.request_ms", "ms"},
      {"serve.service_ms", "ms"},
      {"serve.transport_ms", "ms"},
      {"sim.building_ms", "ms"},
      {"sim.step_us", "us"},
      {"sim.steps", "count"},
      {"control.score_ms", "ms"},
      {"unattributed_ms", "ms"},
      {"obs.trace_overhead_ms", "ms"},
  };
  return specs;
}

void Layers::add(const std::string& name, double value) {
  samples_[name].push_back(value);
}

void Layers::set(const std::string& name, double value) {
  samples_[name] = {value};
}

std::vector<Metric> Layers::finish() const {
  std::vector<Metric> out;
  for (const auto& spec : layer_specs()) {
    const auto it = samples_.find(spec.name);
    double value = 0.0;
    if (it != samples_.end() && !it->second.empty()) {
      if (std::string_view(spec.unit) == "count") {
        double sum = 0.0;
        for (const double v : it->second) sum += v;
        value = sum / static_cast<double>(it->second.size());
      } else {
        value = median(it->second);
      }
    }
    out.push_back({spec.name, value, spec.unit});
  }
  return out;
}

SpanTotals aggregate_spans(const obs::Recorder& r, std::uint64_t from_ns,
                           std::uint64_t to_ns) {
  SpanTotals totals;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (const auto& span : r.spans()) {
    if (span.start_ns < from_ns || span.start_ns >= to_ns) continue;
    totals.ms_by_name[span.name] += static_cast<double>(span.duration_ns) / 1e6;
    intervals.emplace_back(span.start_ns,
                           std::min(span.start_ns + span.duration_ns, to_ns));
  }
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t cur_start = 0;
  std::uint64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) covered += cur_end - cur_start;
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) covered += cur_end - cur_start;
  totals.covered_ms = static_cast<double>(covered) / 1e6;
  return totals;
}

std::map<std::string, std::uint64_t> counters(const obs::Recorder& r) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : r.metrics().snapshot().counters) {
    out[name] = value;
  }
  return out;
}

std::uint64_t counter_sum(const std::map<std::string, std::uint64_t>& counters,
                          std::string_view prefix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : counters) {
    if (std::string_view(name).starts_with(prefix)) total += value;
  }
  return total;
}

void add_span_layers(Layers& layers, const SpanTotals& spans, double ops) {
  // Program span -> layer metric. Stage spans time the cache probe too,
  // so on a hit they read near zero: the layer did no work.
  static const std::vector<std::pair<const char*, const char*>> kSpans = {
      {"stage.similarity_graph", "clustering.similarity_ms"},
      {"stage.spectrum", "clustering.spectrum_ms"},
      {"stage.clustering", "clustering.kmeans_ms"},
      {"pipeline.select", "selection.select_ms"},
      {"sysid.fit", "sysid.fit_ms"},
      {"pipeline.evaluate", "sysid.evaluate_ms"},
      {"pipeline.streaming", "sysid.stream_ms"},
      {"pipeline.prepare", "core.prepare_ms"},
      {"pipeline.sweep", "core.sweep_ms"},
      {"control.fleet.score", "control.score_ms"},
  };
  for (const auto& [span, layer] : kSpans) {
    const auto it = spans.ms_by_name.find(span);
    layers.add(layer, it == spans.ms_by_name.end() ? 0.0 : it->second / ops);
  }
}

void add_counter_layers(Layers& layers,
                        const std::map<std::string, std::uint64_t>& before,
                        const std::map<std::string, std::uint64_t>& after,
                        double ops) {
  const auto value = [](const std::map<std::string, std::uint64_t>& m,
                         const std::string& name) -> std::uint64_t {
    const auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  };
  const auto exact = [&](const std::string& name) {
    return static_cast<double>(value(after, name) - value(before, name));
  };
  const auto delta = [&](std::string_view prefix) {
    return static_cast<double>(counter_sum(after, prefix) -
                               counter_sum(before, prefix));
  };
  static const std::vector<std::pair<const char*, const char*>> kCounters = {
      {"linalg.matvec_calls", "linalg.matvec_calls"},
      {"linalg.eigen_calls", "linalg.eigen_calls"},
      {"linalg.qr_update_calls", "linalg.qr_update_calls"},
      {"sysid.fit_transitions", "sysid.fit_transitions"},
      {"parallel.batches", "core.parallel_batches"},
      {"parallel.tasks", "core.parallel_tasks"},
  };
  for (const auto& [counter, layer] : kCounters) {
    layers.add(layer, exact(counter) / ops);
  }
  const double hits = delta("stage_cache.hit.");
  const double misses = delta("stage_cache.miss.");
  layers.add("core.stage_cache_hits", hits / ops);
  layers.add("core.stage_cache_misses", misses / ops);
  layers.add("core.stage_cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0);
}

HttpResponse http_exchange(std::uint16_t port, const std::string& method,
                           const std::string& path, const std::string& body) {
  HttpResponse out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return out;
  }
  const std::string request = method + " " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Content-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || raw.size() < 12) return out;
  out.status = std::atoi(raw.c_str() + 9);
  const auto body_at = raw.find("\r\n\r\n");
  if (body_at != std::string::npos) out.body = raw.substr(body_at + 4);
  return out;
}

double noise_loop_ms() {
  const auto start = Clock::now();
  std::uint64_t x = 0x1234;
  for (int i = 0; i < 2'000'000; ++i) x = mix64(x);
  // Publish the result so the loop cannot be folded away.
  static volatile std::uint64_t sink = 0;
  sink = sink ^ x;
  return ms_between(start, Clock::now());
}

std::vector<double> noise_samples(int count) {
  std::vector<double> out;
  for (int i = 0; i < count; ++i) out.push_back(noise_loop_ms());
  return out;
}

OpResult timed(const std::function<bool()>& work) {
  const auto t0 = Clock::now();
  const bool ok = work();
  return {ok, ms_between(t0, Clock::now())};
}

LoopSamples timed_loop(double seconds, bool trace,
                       const std::function<OpResult(bool)>& op) {
  LoopSamples samples;
  samples.noise_ms = noise_samples(5);
  const auto start = Clock::now();
  bool traced_turn = false;
  while (seconds_since(start) < seconds) {
    const bool traced = trace && traced_turn;
    traced_turn = !traced_turn;
    OpResult result;
    try {
      result = op(traced);
    } catch (const std::exception&) {
      result.ok = false;
    }
    ++samples.attempted;
    if (!result.ok) ++samples.failed;
    (traced ? samples.traced_ms : samples.untraced_ms).push_back(result.ms);
  }
  samples.seconds = seconds_since(start);
  const auto after = noise_samples(5);
  samples.noise_ms.insert(samples.noise_ms.end(), after.begin(), after.end());
  return samples;
}

}  // namespace e2e
