// Small string helpers shared across the library.

#ifndef LYRIC_UTIL_STRING_UTIL_H_
#define LYRIC_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace lyric {

/// Joins `parts` with `sep` ("a", "b" -> "a, b" for sep ", ").
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Lower-cases ASCII characters of `s`.
std::string ToLower(const std::string& s);

/// Parses a decimal unsigned integer made of digits only: nullopt for a
/// null or empty string, a sign, whitespace, trailing characters or a
/// value past 2^64 - 1.
std::optional<uint64_t> ParseUint64(const char* text);

/// ParseUint64 of environment variable `name`; nullopt when it is unset
/// or malformed, so callers fall back to their default.
std::optional<uint64_t> EnvUint64(const char* name);

/// Appends `value` as a LEB128 varint: 7 bits per byte, low groups first,
/// high bit set on every byte but the last, so the encoding is
/// prefix-free.
void AppendVarint(uint64_t value, std::string* out);

}  // namespace lyric

#endif  // LYRIC_UTIL_STRING_UTIL_H_
