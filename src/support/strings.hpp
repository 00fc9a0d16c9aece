#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace microtools::strings {

/// Returns `s` with leading/trailing ASCII whitespace removed.
std::string_view trim(std::string_view s);

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits `s` on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> splitWhitespace(std::string_view s);

/// True when `s` starts with / ends with the given prefix/suffix.
bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);

/// ASCII lower-casing (locale independent).
std::string toLower(std::string_view s);

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Parses a decimal or 0x-prefixed integer; nullopt on any trailing garbage.
std::optional<std::int64_t> parseInt(std::string_view s);

/// Parses a floating point number; nullopt on any trailing garbage.
std::optional<double> parseDouble(std::string_view s);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string replaceAll(std::string s, std::string_view from,
                       std::string_view to);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Escapes '\n', '\r' and '\\' so an arbitrary string fits on one line of a
/// line-oriented format (cache records, wire-protocol fields).
std::string escapeLineBreaks(std::string_view s);

/// Escapes `s` for the inside of a JSON string literal: quote, backslash,
/// \n, \r and \t by name, every other control byte as \u00XX.
std::string jsonEscape(std::string_view s);

/// Inverse of escapeLineBreaks; unknown escapes decode to the literal
/// character (forward compatible with later escape additions).
std::string unescapeLineBreaks(std::string_view s);

}  // namespace microtools::strings
