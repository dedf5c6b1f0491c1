#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>

namespace stellar
{

std::string
join(const std::vector<std::string> &pieces, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < pieces.size(); i++) {
        if (i > 0)
            out += sep;
        out += pieces[i];
    }
    return out;
}

std::string
indent(const std::string &block, int n)
{
    std::string pad(std::size_t(n), ' ');
    std::string out;
    std::istringstream is(block);
    std::string line;
    bool first = true;
    while (std::getline(is, line)) {
        if (!first)
            out += "\n";
        first = false;
        if (!line.empty())
            out += pad + line;
    }
    return out;
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
           text.compare(0, prefix.size(), prefix) == 0;
}

std::string
toLower(const std::string &text)
{
    std::string out = text;
    for (auto &ch : out)
        ch = char(std::tolower((unsigned char)ch));
    return out;
}

std::string
sanitizeIdentifier(const std::string &name)
{
    std::string out;
    for (char ch : name) {
        if (std::isalnum((unsigned char)ch) || ch == '_')
            out += ch;
        else
            out += '_';
    }
    if (out.empty() || std::isdigit((unsigned char)out[0]))
        out = "id_" + out;
    return out;
}

std::string
formatDouble(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
padLeft(const std::string &text, std::size_t width)
{
    if (text.size() >= width)
        return text;
    return std::string(width - text.size(), ' ') + text;
}

std::string
padRight(const std::string &text, std::size_t width)
{
    if (text.size() >= width)
        return text;
    return text + std::string(width - text.size(), ' ');
}

std::optional<std::int64_t>
parseInt(std::string_view text, std::int64_t min, std::int64_t max)
{
    std::int64_t value = 0;
    const char *end = text.data() + text.size();
    auto [ptr, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || ptr != end || value < min || value > max)
        return std::nullopt;
    return value;
}

} // namespace stellar
