// Small text helpers shared by the genlib and BLIF parsers, the
// table-formatting code in the benchmark harness and the command-line
// tools' flag parsing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lily {

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Split on any run of spaces/tabs; no empty tokens.
std::vector<std::string_view> split_ws(std::string_view s);

/// Split on a single character; keeps empty fields.
std::vector<std::string_view> split_char(std::string_view s, char sep);

/// Parse a double; throws std::invalid_argument naming `context` on failure.
double parse_double(std::string_view s, std::string_view context);

/// Strict unsigned 32-bit decimal for command-line values: only digits,
/// at least one, no sign, no whitespace, no trailing text, no overflow.
/// Leaves `out` untouched and returns false on any violation.
bool parse_u32(std::string_view s, std::uint32_t& out);

/// Format a double with fixed precision (for table output).
std::string format_fixed(double v, int decimals);

}  // namespace lily
