#pragma once

/// \file json.hpp
/// JSON text helpers shared by the obsv writers (export.cpp for the
/// Chrome trace and run summary, attrib.cpp for the profile).  Internal
/// to src/obsv.

#include <cstdio>
#include <string>
#include <string_view>

namespace xts::obsv {

/// `s` as the body of a JSON string literal.  Only span and phase
/// names reach the JSON, and those are simple identifiers — but escape
/// defensively so a hostile name cannot corrupt the file.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `v` with enough digits to round-trip a double exactly.
inline std::string gnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace xts::obsv
