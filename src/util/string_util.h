// String helpers shared across the library: split/join/trim, numeric
// parsing with error reporting, and printf-style formatting.

#ifndef CDT_UTIL_STRING_UTIL_H_
#define CDT_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cdt {
namespace util {

/// Joins `parts` with `delim` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

/// True when `input` begins with `prefix`.
bool StartsWith(std::string_view input, std::string_view prefix);

/// True when `input` ends with `suffix`.
bool EndsWith(std::string_view input, std::string_view suffix);

/// Lower-cases ASCII characters.
std::string ToLower(std::string_view input);

/// Parses a double; rejects trailing garbage, NaN-producing text and empties.
Result<double> ParseDouble(std::string_view text);

/// Parses a signed 64-bit integer; rejects trailing garbage and overflow.
Result<long long> ParseInt(std::string_view text);

/// Formats a double with `precision` decimal digits ("3.142").
std::string FormatDouble(double value, int precision = 6);

}  // namespace util
}  // namespace cdt

#endif  // CDT_UTIL_STRING_UTIL_H_
