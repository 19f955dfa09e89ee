#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace lyric {

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::optional<uint64_t> ParseUint64(const char* text) {
  // strtoull alone would skip leading whitespace, accept a sign (wrapping
  // "-1" to 2^64 - 1) and stop quietly at trailing garbage.
  if (text == nullptr || !std::isdigit(static_cast<unsigned char>(*text))) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return static_cast<uint64_t>(value);
}

std::optional<uint64_t> EnvUint64(const char* name) {
  return ParseUint64(std::getenv(name));
}

void AppendVarint(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

}  // namespace lyric
