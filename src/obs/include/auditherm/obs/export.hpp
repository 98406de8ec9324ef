#pragma once

/// \file export.hpp
/// Recorder exporters: a human-readable summary (span tree + metrics, for
/// stderr / --trace) and schema-versioned machine-readable JSON (for
/// --metrics-out and the BENCH_*.json-style artifacts).
///
/// JSON schema (kJsonSchema / kJsonSchemaVersion):
///   {
///     "schema": "auditherm.metrics", "schema_version": 1,
///     "counters":   {"name": 123, ...},
///     "gauges":     {"name": 4.0, ...},
///     "histograms": {"name": {"count": N, "sum": S, "max": M,
///                             "buckets": [{"le": 1, "count": 0}, ...]}},
///     "spans": [{"id": 1, "parent": 0, "name": "pipeline.run",
///                "thread": 0, "start_us": 0.0, "duration_us": 12.3}, ...]
///   }
/// Histogram bucket "le" bounds follow HistogramLayout (exponential; the
/// last bucket's bound is null = unbounded). Keys within each object are
/// sorted by name; spans are ordered by id.

#include <cstdio>
#include <string>
#include <string_view>

#include "auditherm/obs/trace_span.hpp"

namespace auditherm::obs {

inline constexpr std::string_view kJsonSchema = "auditherm.metrics";
inline constexpr int kJsonSchemaVersion = 1;

/// Escape a string for embedding in a JSON document (no surrounding
/// quotes): quote, backslash, \n, \r and \t by name, other control
/// bytes as \u00XX. The library's one JSON string escaper.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Serialize the recorder's metrics and span log as JSON.
[[nodiscard]] std::string to_json(const Recorder& recorder);

/// Write to_json() to `path`; returns false (with no throw) when the file
/// cannot be opened or written.
bool write_json_file(const std::string& path, const Recorder& recorder);

/// Human-readable report: the span tree (indented, milliseconds, thread
/// ordinals) followed by counters, gauges, and histogram summaries.
void write_summary(std::FILE* out, const Recorder& recorder);

}  // namespace auditherm::obs
