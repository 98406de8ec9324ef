#include "auditherm/obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <map>
#include <vector>

namespace auditherm::obs {

namespace {

void append_double(std::string& out, double v) {
  char buf[64];
  // Shortest representation that round-trips; JSON has no inf/nan.
  if (v != v || v > 1.7e308 || v < -1.7e308) {
    out += "null";
    return;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string to_json(const Recorder& recorder) {
  const MetricsSnapshot snap = recorder.metrics().snapshot();
  const std::vector<SpanRecord> spans = recorder.spans();

  std::string j;
  j.reserve(4096 + spans.size() * 96);
  j += "{\n  \"schema\": \"";
  j += kJsonSchema;
  j += "\",\n  \"schema_version\": ";
  append_u64(j, static_cast<std::uint64_t>(kJsonSchemaVersion));
  j += ",\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    j += i == 0 ? "\n" : ",\n";
    j += "    \"";
    j += json_escape(snap.counters[i].first);
    j += "\": ";
    append_u64(j, snap.counters[i].second);
  }
  j += snap.counters.empty() ? "},\n" : "\n  },\n";

  j += "  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    j += i == 0 ? "\n" : ",\n";
    j += "    \"";
    j += json_escape(snap.gauges[i].first);
    j += "\": ";
    append_double(j, snap.gauges[i].second);
  }
  j += snap.gauges.empty() ? "},\n" : "\n  },\n";

  j += "  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    j += i == 0 ? "\n" : ",\n";
    j += "    \"";
    j += json_escape(h.name);
    j += "\": {\"count\": ";
    append_u64(j, h.count);
    j += ", \"sum\": ";
    append_double(j, h.sum);
    j += ", \"max\": ";
    append_double(j, h.max);
    j += ", \"buckets\": [";
    bool first = true;
    for (std::size_t b = 0; b < HistogramLayout::kBucketCount; ++b) {
      if (h.buckets[b] == 0) continue;  // sparse: empty buckets omitted
      if (!first) j += ", ";
      first = false;
      j += "{\"le\": ";
      if (b + 1 == HistogramLayout::kBucketCount) {
        j += "null";
      } else {
        append_double(j, HistogramLayout::upper_bound(b));
      }
      j += ", \"count\": ";
      append_u64(j, h.buckets[b]);
      j += "}";
    }
    j += "]}";
  }
  j += snap.histograms.empty() ? "},\n" : "\n  },\n";

  j += "  \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    j += i == 0 ? "\n" : ",\n";
    j += "    {\"id\": ";
    append_u64(j, s.id);
    j += ", \"parent\": ";
    append_u64(j, s.parent);
    j += ", \"name\": \"";
    j += json_escape(s.name);
    j += "\", \"thread\": ";
    append_u64(j, s.thread);
    j += ", \"start_us\": ";
    append_double(j, static_cast<double>(s.start_ns) / 1e3);
    j += ", \"duration_us\": ";
    append_double(j, static_cast<double>(s.duration_ns) / 1e3);
    j += "}";
  }
  j += spans.empty() ? "]\n" : "\n  ]\n";
  j += "}\n";
  return j;
}

bool write_json_file(const std::string& path, const Recorder& recorder) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string j = to_json(recorder);
  const bool ok = std::fwrite(j.data(), 1, j.size(), f) == j.size();
  return std::fclose(f) == 0 && ok;
}

void write_summary(std::FILE* out, const Recorder& recorder) {
  const auto spans = recorder.spans();
  const MetricsSnapshot snap = recorder.metrics().snapshot();

  if (!spans.empty()) {
    std::fprintf(out, "-- spans -------------------------------------------\n");
    // Children grouped under parents; unknown parents print as roots.
    std::map<std::uint64_t, std::vector<std::size_t>> children;
    std::map<std::uint64_t, std::size_t> by_id;
    for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent != 0 && by_id.count(spans[i].parent) != 0) {
        children[spans[i].parent].push_back(i);
      } else {
        roots.push_back(i);
      }
    }
    const auto by_start = [&](std::size_t a, std::size_t b) {
      return spans[a].start_ns != spans[b].start_ns
                 ? spans[a].start_ns < spans[b].start_ns
                 : spans[a].id < spans[b].id;
    };
    std::sort(roots.begin(), roots.end(), by_start);
    for (auto& [id, kids] : children) std::sort(kids.begin(), kids.end(), by_start);

    // Iterative depth-first print (explicit stack; span trees are shallow
    // but worker fan-outs can be wide).
    std::vector<std::pair<std::size_t, int>> stack;
    for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
      stack.emplace_back(*it, 0);
    }
    while (!stack.empty()) {
      const auto [idx, depth] = stack.back();
      stack.pop_back();
      const auto& s = spans[idx];
      std::fprintf(out, "%*s%-*s %10.3f ms  [t%u]\n", 2 * depth, "",
                   std::max(1, 44 - 2 * depth), s.name.c_str(),
                   static_cast<double>(s.duration_ns) / 1e6, s.thread);
      const auto it = children.find(s.id);
      if (it != children.end()) {
        for (auto kid = it->second.rbegin(); kid != it->second.rend(); ++kid) {
          stack.emplace_back(*kid, depth + 1);
        }
      }
    }
  }

  if (!snap.counters.empty()) {
    std::fprintf(out, "-- counters ----------------------------------------\n");
    for (const auto& [name, value] : snap.counters) {
      std::fprintf(out, "%-44s %12" PRIu64 "\n", name.c_str(), value);
    }
  }
  if (!snap.gauges.empty()) {
    std::fprintf(out, "-- gauges ------------------------------------------\n");
    for (const auto& [name, value] : snap.gauges) {
      std::fprintf(out, "%-44s %12.3f\n", name.c_str(), value);
    }
  }
  if (!snap.histograms.empty()) {
    std::fprintf(out, "-- histograms (us) ---------------------------------\n");
    for (const auto& h : snap.histograms) {
      std::fprintf(out, "%-44s count %8" PRIu64 "  mean %10.1f  max %10.1f\n",
                   h.name.c_str(), h.count, h.mean(), h.max);
    }
  }
}

}  // namespace auditherm::obs
