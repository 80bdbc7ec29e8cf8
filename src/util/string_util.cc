#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace cdt {
namespace util {

std::string Join(const std::vector<std::string>& parts, char delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.push_back(delim);
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

bool StartsWith(std::string_view input, std::string_view prefix) {
  return input.size() >= prefix.size() &&
         input.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view input, std::string_view suffix) {
  return input.size() >= suffix.size() &&
         input.substr(input.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

Result<double> ParseDouble(std::string_view text) {
  std::string_view trimmed = Trim(text);
  if (trimmed.empty()) {
    return Status::ParseError("empty string is not a double");
  }
  std::string buf(trimmed);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing characters in double: '" + buf + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("double out of range: '" + buf + "'");
  }
  if (std::isnan(value)) {
    return Status::ParseError("NaN is not accepted: '" + buf + "'");
  }
  return value;
}

Result<long long> ParseInt(std::string_view text) {
  std::string_view trimmed = Trim(text);
  if (trimmed.empty()) {
    return Status::ParseError("empty string is not an integer");
  }
  std::string buf(trimmed);
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing characters in integer: '" + buf + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: '" + buf + "'");
  }
  return value;
}

std::string FormatDouble(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

}  // namespace util
}  // namespace cdt
