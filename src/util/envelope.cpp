#include "util/envelope.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>

#include "util/memo.hpp"

namespace stellar::util::envelope
{

std::string
checksumHex(std::uint64_t hash)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  (unsigned long long)hash);
    return buffer;
}

std::string
seal(const Format &format, const std::string &payload)
{
    return "{\"version\":" + std::to_string(format.version) +
           ",\"kind\":" + json::quote(format.kind) +
           ",\"checksum\":" + json::quote(checksumHex(fnv1a(payload))) +
           ",\"" + format.payloadKey + "\":" + payload + "}";
}

json::Value
open(const Format &format, const std::string &text)
{
    json::Value root = json::parse(text, format.what);
    if (!root.isObject())
        json::fail(format.what, "document must be an object");
    const json::Value *kind = root.find("kind");
    if (kind == nullptr || !kind->isString() || kind->string != format.kind)
        json::fail(format.what,
                   std::string("not a ") + format.kind + " file");
    std::int64_t version = json::intMember(root, "version", format.what);
    if (version != format.version)
        json::fail(format.what,
                   "unsupported version " + std::to_string(version) +
                           " (this build reads version " +
                           std::to_string(format.version) + ")");

    // Re-serialize the parsed payload and compare checksums: any byte
    // that changed a value anywhere is caught here, before the caller
    // admits a single value.
    const json::Value &payload = json::member(
            root, format.payloadKey, format.payloadKind, format.what);
    const std::string &checksum =
            json::stringMember(root, "checksum", format.what);
    if (checksum != checksumHex(fnv1a(json::serialize(payload))))
        json::fail(format.what,
                   "checksum mismatch (file damaged or hand-edited)");
    // `root` is this function's own tree: the payload leaves it by move.
    return std::move(const_cast<json::Value &>(payload));
}

void
writeFileAtomic(const std::string &path, const std::string &text,
                const std::string &what)
{
    std::string temp = path + ".tmp";
    auto give_up = [&](const std::string &message) {
        std::remove(temp.c_str());
        json::fail(what, message);
    };
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out)
            give_up("cannot write " + temp);
        out << text;
        out.close();
        if (!out)
            give_up("short write to " + temp);
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0)
        give_up("cannot rename " + temp + " to " + path);
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string
matrixFields(const IntMatrix &matrix)
{
    std::string out = "\"rows\":" + std::to_string(matrix.rows());
    out += ",\"cols\":" + std::to_string(matrix.cols());
    out += ",\"matrix\":[";
    for (int r = 0; r < matrix.rows(); r++)
        for (int c = 0; c < matrix.cols(); c++) {
            if (r != 0 || c != 0)
                out += ",";
            out += std::to_string(matrix.at(r, c));
        }
    out += "]";
    return out;
}

IntMatrix
readMatrix(const json::Value &object, std::string_view what, int max_dim)
{
    // Range-check as int64: narrowing first would read 2^32+3 as 3.
    std::int64_t rows = json::intMember(object, "rows", what);
    std::int64_t cols = json::intMember(object, "cols", what);
    if (rows < 1 || cols < 1 || rows > max_dim || cols > max_dim)
        json::fail(what, "implausible matrix shape " +
                                 std::to_string(rows) + "x" +
                                 std::to_string(cols));
    const json::Value &cells = json::member(object, "matrix", what);
    if (!cells.isArray() ||
        cells.array.size() != std::size_t(rows) * std::size_t(cols))
        json::fail(what, "matrix must carry rows*cols cells");
    IntMatrix matrix(static_cast<int>(rows), static_cast<int>(cols));
    const std::string cell = std::string(what) + ": matrix cell";
    std::size_t at = 0;
    for (int r = 0; r < matrix.rows(); r++)
        for (int c = 0; c < matrix.cols(); c++)
            matrix.at(r, c) = json::toInt64(cells.array[at++], cell);
    return matrix;
}

std::string
corrupt(std::string text, Corruption mode, const std::string &payload_key)
{
    switch (mode) {
      case Corruption::TruncateTail:
        text.resize(text.size() / 2);
        return text;
      case Corruption::FlipByte: {
        // Flip a digit inside the payload so the document still parses
        // but the checksum no longer matches.
        std::size_t at = text.find("\"" + payload_key + "\":");
        at = text.find_first_of("012345678",
                                at == std::string::npos ? 0 : at);
        if (at != std::string::npos)
            text[at] = char(text[at] + 1);
        return text;
      }
      case Corruption::VersionBump: {
        std::size_t at = text.find("\"version\":");
        if (at != std::string::npos)
            text.replace(at, 10, "\"version\":9");
        return text;
      }
      case Corruption::ChecksumClobber: {
        std::size_t at = text.find("\"checksum\":\"");
        if (at != std::string::npos)
            text[at + 12] = text[at + 12] == '0' ? '1' : '0';
        return text;
      }
      case Corruption::GarbageHeader:
        return "\x7f" "ELF not json at all" + text;
    }
    return text;
}

} // namespace stellar::util::envelope
