#pragma once

/// \file json.hpp
/// Minimal JSON support for the serve front-end: a strict recursive
/// parser for request bodies and an escaper for response generation.
///
/// Scope is deliberately small — serve's requests are flat objects of
/// scalars — but the parser handles the full JSON grammar (nested
/// arrays/objects, escapes, exponents) so a well-formed client is never
/// rejected on syntax. No third-party dependency: the container bakes in
/// only the C++ toolchain, and the obs exporter already writes JSON by
/// hand for the same reason.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace auditherm::serve::json {

/// Malformed JSON text; the message carries the byte offset.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed JSON value. Object members keep source order (handy for
/// deterministic error messages about unknown keys).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }

  /// Member lookup on an object; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
};

/// Parse one JSON document; trailing non-whitespace is an error.
/// Throws ParseError on malformed input.
[[nodiscard]] Value parse(std::string_view text);

/// Escape a string for embedding in a JSON document (no surrounding
/// quotes); obs::json_escape.
[[nodiscard]] std::string escape(std::string_view s);

}  // namespace auditherm::serve::json
