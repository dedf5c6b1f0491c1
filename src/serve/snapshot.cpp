#include "serve/snapshot.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "util/envelope.hpp"
#include "util/json.hpp"

namespace stellar::serve
{

namespace
{

namespace json = util::json;
namespace envelope = util::envelope;

constexpr const char *kWhat = kSnapshotFormat.what;

std::string
serializeEntries(const accel::DesignPointMemo &memo)
{
    std::string out = "[";
    bool first = true;
    memo.forEach([&](const std::string &key,
                     const accel::DseCandidate &candidate) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"key\":" + json::quote(key);
        out += ",\"candidate\":{\"name\":" +
               json::quote(candidate.transform.name());
        out += "," + envelope::matrixFields(candidate.transform.matrix());
        out += ",\"enum_index\":" + std::to_string(candidate.enumIndex);
        out += ",\"pes\":" + std::to_string(candidate.pes);
        out += ",\"wires\":" + std::to_string(candidate.wires);
        out += ",\"wire_length\":" + std::to_string(candidate.wireLength);
        out += ",\"schedule_length\":" +
               std::to_string(candidate.scheduleLength);
        out += ",\"fmax_mhz\":" + json::serializeDouble(candidate.fmaxMhz);
        out += ",\"area_um2\":" + json::serializeDouble(candidate.areaUm2);
        out += ",\"score\":" + json::serializeDouble(candidate.score);
        out += "}}";
    });
    out += "]";
    return out;
}

accel::DseCandidate
parseCandidate(const json::Value &body)
{
    IntMatrix matrix = envelope::readMatrix(body, kWhat, 16);
    // The transform constructor re-validates invertibility; a
    // corrupted matrix dies here as a classified error.
    accel::DseCandidate candidate;
    candidate.transform = dataflow::SpaceTimeTransform(
            std::move(matrix), json::stringMember(body, "name", kWhat));
    candidate.enumIndex =
            std::size_t(json::intMember(body, "enum_index", kWhat));
    candidate.pes = json::intMember(body, "pes", kWhat);
    candidate.wires = json::intMember(body, "wires", kWhat);
    candidate.wireLength = json::intMember(body, "wire_length", kWhat);
    candidate.scheduleLength =
            json::intMember(body, "schedule_length", kWhat);
    candidate.fmaxMhz = json::numberMember(body, "fmax_mhz", kWhat);
    candidate.areaUm2 = json::numberMember(body, "area_um2", kWhat);
    candidate.score = json::numberMember(body, "score", kWhat);
    return candidate;
}

} // namespace

std::string
serializeSnapshot(const accel::DesignPointMemo &memo)
{
    return envelope::seal(kSnapshotFormat, serializeEntries(memo));
}

std::size_t
loadSnapshot(accel::DesignPointMemo &memo, const std::string &text)
{
    json::Value entries = envelope::open(kSnapshotFormat, text);

    // Validate every entry fully before inserting any, so a bad entry
    // can never leave the memo half-loaded.
    std::vector<std::pair<std::string, accel::DseCandidate>> loaded;
    loaded.reserve(entries.array.size());
    for (const json::Value &entry : entries.array) {
        if (!entry.isObject())
            json::fail(kWhat, "entry must be an object");
        const std::string &key = json::stringMember(entry, "key", kWhat);
        if (key.empty())
            json::fail(kWhat, "entry key must be a nonempty string");
        loaded.emplace_back(
                key,
                parseCandidate(json::member(entry, "candidate",
                                            json::Value::Kind::Object,
                                            kWhat)));
    }
    for (auto &[entry_key, candidate] : loaded)
        memo.insert(entry_key, std::move(candidate));
    return loaded.size();
}

void
saveSnapshotFile(const accel::DesignPointMemo &memo,
                 const std::string &path)
{
    envelope::writeFileAtomic(path, serializeSnapshot(memo), kWhat);
}

std::size_t
loadSnapshotFile(accel::DesignPointMemo &memo, const std::string &path)
{
    std::optional<std::string> text = envelope::readFile(path);
    if (!text)
        return 0; // no snapshot yet: a normal cold start
    return loadSnapshot(memo, *text);
}

} // namespace stellar::serve
