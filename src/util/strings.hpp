/**
 * @file
 * Small string helpers shared by the RTL emitter and report printers.
 */

#ifndef STELLAR_UTIL_STRINGS_HPP
#define STELLAR_UTIL_STRINGS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stellar
{

/** Join pieces with a separator. */
std::string join(const std::vector<std::string> &pieces,
                 const std::string &sep);

/** Indent every line of a (possibly multi-line) block by n spaces. */
std::string indent(const std::string &block, int n);

/** True when the text starts with the given prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/** Lower-case ASCII copy. */
std::string toLower(const std::string &text);

/** Sanitize an arbitrary name into a legal Verilog identifier. */
std::string sanitizeIdentifier(const std::string &name);

/** Format a double with the given number of decimal places. */
std::string formatDouble(double value, int decimals);

/** Left-pad to a width (for aligned report tables). */
std::string padLeft(const std::string &text, std::size_t width);

/** Right-pad to a width (for aligned report tables). */
std::string padRight(const std::string &text, std::size_t width);

/**
 * Parse the whole of `text` as a decimal integer in [min, max]: an
 * optional '-' and then digits only. Anything else — empty text, a '+',
 * spaces, trailing characters, a value outside the range or outside
 * int64 — yields nullopt. Command-line front ends use it so a typo
 * fails instead of becoming 0 the way atoi would.
 */
std::optional<std::int64_t> parseInt(std::string_view text,
                                     std::int64_t min, std::int64_t max);

} // namespace stellar

#endif // STELLAR_UTIL_STRINGS_HPP
