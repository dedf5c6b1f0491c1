/**
 * @file
 * One envelope for the files this repo persists and reads back.
 *
 * DSE shard records (accel/records) and design-memo snapshots
 * (serve/snapshot) are both one sealed JSON document,
 *   {"version":V,"kind":"<kind>","checksum":"<16 hex>","<key>":<payload>}
 * with an FNV-1a checksum over the payload's serialized bytes;
 * docs/DISTRIBUTED.md ("The file envelope") describes it for users.
 */

#ifndef STELLAR_UTIL_ENVELOPE_HPP
#define STELLAR_UTIL_ENVELOPE_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "util/int_matrix.hpp"
#include "util/json.hpp"

namespace stellar::util::envelope
{

/** How one document kind is sealed. */
struct Format
{
    const char *what;       //!< error prefix, e.g. "dse shard records"
    const char *kind;       //!< the "kind" tag
    int version;            //!< the only version this build reads
    const char *payloadKey; //!< "payload" (records), "entries" (snapshot)
    json::Value::Kind payloadKind; //!< Object or Array
};

/** A 64-bit hash as 16 lowercase hex digits. */
std::string checksumHex(std::uint64_t hash);

/** Wrap a serialized payload in the versioned, checksummed document. */
std::string seal(const Format &format, const std::string &payload);

/**
 * Parse a sealed document and hand back its payload, moved out of the
 * parsed tree. FatalError "<what>: ..." on malformed JSON, wrong kind,
 * another version, a payload of the wrong JSON kind, or a checksum that
 * does not match the re-serialized payload.
 */
json::Value open(const Format &format, const std::string &text);

/** Write `path.tmp`, then rename it over `path`. On any failure the temp
 *  file is removed and FatalError "<what>: ..." raised. */
void writeFileAtomic(const std::string &path, const std::string &text,
                     const std::string &what);

/** The whole file at `path`, or nullopt if it cannot be opened. */
std::optional<std::string> readFile(const std::string &path);

/** `"rows":R,"cols":C,"matrix":[...row-major cells...]`. */
std::string matrixFields(const IntMatrix &matrix);

/** Read matrixFields() back. Rows and cols are range-checked as int64
 *  against [1, max_dim] before they narrow to int. */
IntMatrix readMatrix(const json::Value &object, std::string_view what,
                     int max_dim);

/** Ways a sealed file can rot on disk (tests and fuzz domains): `open`
 *  must reject each one as a classified error. */
enum class Corruption
{
    TruncateTail,    //!< partial write: the document cut in half
    FlipByte,        //!< damage one payload digit (parses; checksum fails)
    VersionBump,     //!< written by a future format version
    ChecksumClobber, //!< the stored checksum no longer matches
    GarbageHeader,   //!< not our file at all
};

inline constexpr Corruption kCorruptions[] = {
        Corruption::TruncateTail, Corruption::FlipByte,
        Corruption::VersionBump, Corruption::ChecksumClobber,
        Corruption::GarbageHeader};

/** Apply one corruption mode to a document sealed with `payload_key`. */
std::string corrupt(std::string text, Corruption mode,
                    const std::string &payload_key);

} // namespace stellar::util::envelope

#endif // STELLAR_UTIL_ENVELOPE_HPP
