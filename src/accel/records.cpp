#include "accel/records.hpp"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <limits>
#include <set>
#include <utility>

#include "accel/analytic.hpp"
#include "accel/analytic_cost.hpp"
#include "util/envelope.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace stellar::accel
{

namespace
{

namespace json = util::json;
namespace envelope = util::envelope;

using Clock = std::chrono::steady_clock;

/** Largest integer every double round-trips exactly (2^53). Analytic
 *  PE counts are clamped here at record time so the JSON number path
 *  cannot silently round them; any realistic maxPes is far below. */
constexpr std::int64_t kMaxExactInt = std::int64_t(1) << 53;

constexpr const char *kWhat = kRecordsFormat.what;

[[noreturn]] void
fail(const std::string &what)
{
    json::fail(kWhat, what);
}

/** The int64 members of one flat payload object, each named once for
 *  both directions, in serialized order. */
template <typename T>
using IntFields =
        std::initializer_list<std::pair<const char *, std::int64_t T::*>>;

const IntFields<ShardConfig> kConfigFields = {
        {"dim", &ShardConfig::dim},
        {"max_hop", &ShardConfig::maxHop},
        {"max_coeff", &ShardConfig::maxCoeff},
        {"top_k", &ShardConfig::topK},
        {"analytic_top_k", &ShardConfig::analyticTopK},
        {"enum_limit", &ShardConfig::enumLimit},
        {"max_pes", &ShardConfig::maxPes}};

const IntFields<ShardRange> kRangeFields = {
        {"shard_index", &ShardRange::shardIndex},
        {"shard_count", &ShardRange::shardCount},
        {"lo", &ShardRange::lo},
        {"hi", &ShardRange::hi},
        {"codes_total", &ShardRange::codesTotal}};

using Stats = dataflow::EnumerateStats;
const IntFields<Stats> kStatsFields = {
        {"codes_total", &Stats::codesTotal},
        {"codes_examined", &Stats::codesExamined},
        {"orbit_skipped", &Stats::orbitSkipped},
        {"decoded", &Stats::decoded},
        {"rejected", &Stats::rejected},
        {"duplicates", &Stats::duplicates},
        {"yielded", &Stats::yielded}};

template <typename T>
std::string
serializeInts(const T &object, IntFields<T> fields)
{
    std::string out;
    for (const auto &[name, field] : fields)
        out += (out.empty() ? "{\"" : ",\"") + std::string(name) +
               "\":" + std::to_string(object.*field);
    return out + "}";
}

template <typename T>
T
parseInts(const json::Value &payload, const char *name, IntFields<T> fields)
{
    const json::Value &body =
            json::member(payload, name, json::Value::Kind::Object, kWhat);
    T object;
    for (const auto &[key, field] : fields)
        object.*field = json::intMember(body, key, kWhat);
    return object;
}

std::string
serializeRecord(const CandidateRecord &record)
{
    std::string out = "{\"code\":" + std::to_string(record.code);
    out += ",\"local_index\":" + std::to_string(record.localIndex);
    out += "," + envelope::matrixFields(record.matrix);
    out += ",\"signature\":[";
    for (std::size_t i = 0; i < record.signature.size(); i++) {
        if (i != 0)
            out += ",";
        out += std::to_string(record.signature[i]);
    }
    out += "],\"analytic_pes\":" + std::to_string(record.analyticPes);
    out += ",\"saturated\":";
    out += record.saturated ? "true" : "false";
    out += ",\"score\":" + json::serializeDouble(record.score);
    out += ",\"examined_after\":" + std::to_string(record.examinedAfter);
    out += ",\"decoded_after\":" + std::to_string(record.decodedAfter);
    out += ",\"rejected_after\":" + std::to_string(record.rejectedAfter);
    out += ",\"duplicates_after\":" +
           std::to_string(record.duplicatesAfter);
    out += "}";
    return out;
}

std::string
serializePayload(const ShardRecords &shard)
{
    std::string out =
            "{\"config\":" + serializeInts(shard.config, kConfigFields);
    out += ",\"range\":" + serializeInts(shard.range, kRangeFields);
    out += ",\"stats\":" + serializeInts(shard.stats, kStatsFields);
    out += ",\"records\":[";
    for (std::size_t i = 0; i < shard.records.size(); i++) {
        if (i != 0)
            out += ",";
        out += serializeRecord(shard.records[i]);
    }
    out += "]}";
    return out;
}

ShardConfig
parseConfig(const json::Value &payload)
{
    auto config = parseInts(payload, "config", kConfigFields);
    if (config.dim < 1 || config.dim > 4096)
        fail("implausible dim " + std::to_string(config.dim));
    if (config.maxHop < 0)
        fail("max_hop must be >= 0");
    if (config.maxCoeff < 1)
        fail("max_coeff must be >= 1");
    if (config.topK < 1)
        fail("top_k must be >= 1");
    if (config.analyticTopK < 1)
        fail("analytic_top_k must be >= 1 (shard scans are "
             "analytic-tier scans)");
    if (config.enumLimit < 1)
        fail("enum_limit must be >= 1");
    if (config.maxPes < 0)
        fail("max_pes must be >= 0");
    return config;
}

ShardRange
parseRange(const json::Value &payload)
{
    auto range = parseInts(payload, "range", kRangeFields);
    if (range.shardCount < 1)
        fail("shard_count must be >= 1");
    if (range.shardIndex < 0 || range.shardIndex >= range.shardCount)
        fail("shard_index " + std::to_string(range.shardIndex) +
             " out of range for " + std::to_string(range.shardCount) +
             " shard(s)");
    if (range.codesTotal < 1)
        fail("codes_total must be >= 1");
    if (range.lo < 0 || range.lo > range.hi ||
        range.hi > range.codesTotal)
        fail("shard range [" + std::to_string(range.lo) + ", " +
             std::to_string(range.hi) + ") does not fit in " +
             std::to_string(range.codesTotal) + " codes");
    // The only legitimate slice for (index, count) is the total*i/N
    // split; anything else overlaps or gaps a sibling shard.
    std::int64_t lo = range.codesTotal * range.shardIndex /
                      range.shardCount;
    std::int64_t hi = range.codesTotal * (range.shardIndex + 1) /
                      range.shardCount;
    if (range.lo != lo || range.hi != hi)
        fail("overlapping or gapped shard range [" +
             std::to_string(range.lo) + ", " + std::to_string(range.hi) +
             ") (shard " + std::to_string(range.shardIndex) + "/" +
             std::to_string(range.shardCount) + " owns [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "))");
    return range;
}

Stats
parseStats(const json::Value &payload, const ShardRange &range)
{
    auto stats = parseInts(payload, "stats", kStatsFields);
    if (stats.codesTotal != range.codesTotal)
        fail("stats codes_total disagrees with the shard range");
    if (stats.codesExamined != range.hi - range.lo)
        fail("stats must cover the whole shard range");
    if (stats.orbitSkipped < 0 || stats.decoded < 0 ||
        stats.rejected < 0 || stats.duplicates < 0 || stats.yielded < 0)
        fail("negative scan counter");
    if (stats.codesExamined != stats.orbitSkipped + stats.decoded)
        fail("scan counters break codesExamined == orbitSkipped + "
             "decoded");
    if (stats.decoded !=
        stats.rejected + stats.duplicates + stats.yielded)
        fail("scan counters break decoded == rejected + duplicates + "
             "yielded");
    return stats;
}

CandidateRecord
parseRecord(const json::Value &body, const ShardRange &range,
            std::size_t position, std::int64_t prev_code)
{
    if (!body.isObject())
        fail("record must be an object");
    CandidateRecord record;
    record.code = json::intMember(body, "code", kWhat);
    record.localIndex = json::intMember(body, "local_index", kWhat);
    if (record.code < range.lo || record.code >= range.hi)
        fail("record code " + std::to_string(record.code) +
             " outside the shard range");
    if (position > 0 && record.code <= prev_code)
        fail("record codes must be strictly increasing");
    if (record.localIndex != std::int64_t(position))
        fail("record local_index out of sequence");

    record.matrix = envelope::readMatrix(body, kWhat, 4);
    if (!record.matrix.isSquare())
        fail("transform matrix must be square");

    const json::Value &signature = json::member(
            body, "signature", json::Value::Kind::Array, kWhat);
    record.signature.reserve(signature.array.size());
    for (const json::Value &value : signature.array)
        record.signature.push_back(json::toInt64(
                value, "dse shard records: signature value"));

    record.analyticPes = json::intMember(body, "analytic_pes", kWhat);
    if (record.analyticPes < 0)
        fail("analytic_pes must be >= 0");
    record.saturated = json::boolMember(body, "saturated", kWhat);
    record.score = json::numberMember(body, "score", kWhat);
    record.examinedAfter = json::intMember(body, "examined_after", kWhat);
    record.decodedAfter = json::intMember(body, "decoded_after", kWhat);
    record.rejectedAfter = json::intMember(body, "rejected_after", kWhat);
    record.duplicatesAfter =
            json::intMember(body, "duplicates_after", kWhat);
    if (record.examinedAfter < 1 ||
        record.examinedAfter > range.hi - range.lo ||
        record.decodedAfter < 1 || record.rejectedAfter < 0 ||
        record.duplicatesAfter < 0)
        fail("implausible record scan snapshot");
    return record;
}

} // namespace

bool
operator==(const ShardConfig &a, const ShardConfig &b)
{
    return a.dim == b.dim && a.maxHop == b.maxHop &&
           a.maxCoeff == b.maxCoeff && a.topK == b.topK &&
           a.analyticTopK == b.analyticTopK &&
           a.enumLimit == b.enumLimit && a.maxPes == b.maxPes;
}

std::string
serializeShardRecords(const ShardRecords &shard)
{
    return envelope::seal(kRecordsFormat, serializePayload(shard));
}

ShardRecords
parseShardRecords(const std::string &text)
{
    json::Value payload = envelope::open(kRecordsFormat, text);
    ShardRecords shard;
    shard.config = parseConfig(payload);
    shard.range = parseRange(payload);
    shard.stats = parseStats(payload, shard.range);
    const json::Value &records = json::member(
            payload, "records", json::Value::Kind::Array, kWhat);
    if (std::int64_t(records.array.size()) != shard.stats.yielded)
        fail("record count disagrees with stats.yielded");
    shard.records.reserve(records.array.size());
    std::int64_t prev_code = -1;
    for (std::size_t i = 0; i < records.array.size(); i++) {
        shard.records.push_back(parseRecord(records.array[i],
                                            shard.range, i, prev_code));
        prev_code = shard.records.back().code;
    }
    return shard;
}

void
saveShardRecordsFile(const ShardRecords &shard, const std::string &path)
{
    envelope::writeFileAtomic(path, serializeShardRecords(shard), kWhat);
}

ShardRecords
loadShardRecordsFile(const std::string &path)
{
    std::optional<std::string> text = envelope::readFile(path);
    if (!text)
        fail("cannot read " + path);
    return parseShardRecords(*text);
}

ShardRecords
scanShard(const func::FunctionalSpec &functional, const IntVec &bounds,
          const ShardConfig &config, std::int64_t shard_index,
          std::int64_t shard_count, std::size_t threads,
          const model::AreaParams &area_params,
          const model::TimingParams &timing_params)
{
    require(shard_count >= 1, "shard count must be >= 1");
    require(shard_index >= 0 && shard_index < shard_count,
            "shard index out of range");
    require(config.maxCoeff >= 1, "max_coeff must be >= 1");
    require(config.analyticTopK >= 1,
            "shard scans require the analytic tier (analytic_top_k)");

    ShardRecords out;
    out.config = config;

    dataflow::EnumerateOptions enumerate;
    enumerate.minCoeff = -config.maxCoeff;
    enumerate.maxCoeff = config.maxCoeff;
    enumerate.maxHopLength = config.maxHop;
    // The enumLimit is a *global* property of the merged walk; a shard
    // cannot know where it falls, so it records every local survivor.
    enumerate.limit = std::numeric_limits<std::size_t>::max();
    enumerate.threads = threads;
    enumerate.shardIndex = shard_index;
    enumerate.shardCount = shard_count;

    // Score with the same model and widths the single-process fused
    // path constructs (no sparsity — renderDse never sets one), so
    // recorded scores merge bit-for-bit.
    AnalyticCostModel cost_model(functional, bounds,
                                 sparsity::SparsitySpec{},
                                 DseOptions::dataWidth,
                                 DseOptions::macBits, area_params,
                                 timing_params);

    dataflow::forEachTransform(
            functional, enumerate,
            [&](const dataflow::EnumeratedTransform &item) {
                CandidateRecord record;
                record.code = item.code;
                record.localIndex = std::int64_t(out.records.size());
                record.matrix = item.transform.matrix();
                record.signature = item.signature;
                record.analyticPes = std::min(
                        analyticPeCount(item.transform, bounds),
                        kMaxExactInt);
                // maxPes-pruned records are never scored — exactly like
                // the fused single-process sink. The merge re-derives
                // the prune from analyticPes.
                if (!(config.maxPes > 0 &&
                      record.analyticPes > config.maxPes)) {
                    auto analytic = cost_model.score(item.transform);
                    record.saturated = analytic.saturated;
                    record.score = analytic.score;
                }
                record.examinedAfter = item.examinedAfter;
                record.decodedAfter = item.decodedAfter;
                record.rejectedAfter = item.rejectedAfter;
                record.duplicatesAfter = item.duplicatesAfter;
                out.records.push_back(std::move(record));
                return true;
            },
            &out.stats);

    out.range.shardIndex = shard_index;
    out.range.shardCount = shard_count;
    out.range.codesTotal = out.stats.codesTotal;
    out.range.lo = out.range.codesTotal * shard_index / shard_count;
    out.range.hi = out.range.codesTotal * (shard_index + 1) / shard_count;
    return out;
}

std::vector<DseCandidate>
mergeShardRecords(std::vector<ShardRecords> shards,
                  const func::FunctionalSpec &functional,
                  const IntVec &bounds, const MergeEvalOptions &eval,
                  const model::AreaParams &area_params,
                  const model::TimingParams &timing_params, DseStats *stats)
{
    if (shards.empty())
        fail("no shard files to merge");
    const ShardConfig &config = shards.front().config;
    const std::int64_t total = shards.front().range.codesTotal;
    for (const ShardRecords &shard : shards) {
        if (!(shard.config == config))
            fail("mixed shard configs (all inputs must come from one "
                 "sweep)");
        if (shard.range.codesTotal != total)
            fail("mixed code-space sizes");
        if (shard.range.shardCount != std::int64_t(shards.size()))
            fail("expected " + std::to_string(shard.range.shardCount) +
                 " shard file(s) for this sweep, got " +
                 std::to_string(shards.size()));
    }
    // The per-file range formula is validated at parse time, so a
    // permutation of indices is exactly a partition of [0, total).
    std::vector<bool> seen(shards.size(), false);
    for (const ShardRecords &shard : shards) {
        std::size_t index = std::size_t(shard.range.shardIndex);
        if (seen[index])
            fail("overlapping shard ranges: shard " +
                 std::to_string(shard.range.shardIndex) +
                 " appears twice");
        seen[index] = true;
    }
    std::sort(shards.begin(), shards.end(),
              [](const ShardRecords &a, const ShardRecords &b) {
                  return a.range.shardIndex < b.range.shardIndex;
              });

    DseStats local;
    auto enumerate_start = Clock::now();

    // The global consuming walk: exactly TransformStream's chunk merge,
    // with shard files in the chunk role. Dedup against a global
    // signature set, apply the maxPes prune and the analytic top-K
    // selector to every global yield, and stop at enumLimit — all in code
    // order, so the fold is independent of input-file order.
    const std::size_t analytic_top_k = std::size_t(config.analyticTopK);
    detail::AnalyticTopK<const CandidateRecord *> top(analytic_top_k);
    std::set<std::vector<std::int64_t>> signatures;
    std::int64_t yielded = 0;
    std::int64_t merge_duplicates = 0;
    std::int64_t prior_examined = 0;
    std::int64_t prior_decoded = 0;
    std::int64_t prior_rejected = 0;
    std::int64_t prior_duplicates = 0;
    std::int64_t last_examined = 0;
    std::int64_t last_decoded = 0;
    std::int64_t last_rejected = 0;
    std::int64_t last_duplicates = 0;
    bool limited = false;
    Clock::duration analytic_time{};
    for (const ShardRecords &shard : shards) {
        for (const CandidateRecord &record : shard.records) {
            if (!signatures.insert(record.signature).second) {
                // This shard yielded it, but an earlier shard owns the
                // signature — the single-process walk would have
                // counted it a duplicate.
                merge_duplicates++;
                continue;
            }
            std::size_t index = std::size_t(yielded);
            yielded++;
            last_examined = prior_examined + record.examinedAfter;
            last_decoded = prior_decoded + record.decodedAfter;
            last_rejected = prior_rejected + record.rejectedAfter;
            last_duplicates = prior_duplicates + record.duplicatesAfter +
                              merge_duplicates;
            if (config.maxPes > 0 &&
                record.analyticPes > config.maxPes) {
                local.prunedEarly++;
            } else {
                auto score_start = Clock::now();
                top.offer(record.saturated, record.score, index, &record);
                analytic_time += Clock::now() - score_start;
            }
            if (yielded >= config.enumLimit) {
                limited = true;
                break;
            }
        }
        if (limited)
            break;
        prior_examined += shard.range.hi - shard.range.lo;
        prior_decoded += shard.stats.decoded;
        prior_rejected += shard.stats.rejected;
        prior_duplicates += shard.stats.duplicates;
    }

    local.enumeration.codesTotal = total;
    if (limited) {
        local.enumeration.codesExamined = last_examined;
        local.enumeration.decoded = last_decoded;
        local.enumeration.rejected = last_rejected;
        local.enumeration.duplicates = last_duplicates;
    } else {
        local.enumeration.codesExamined = prior_examined;
        local.enumeration.decoded = prior_decoded;
        local.enumeration.rejected = prior_rejected;
        local.enumeration.duplicates = prior_duplicates +
                                       merge_duplicates;
    }
    local.enumeration.yielded = yielded;
    local.enumeration.orbitSkipped = local.enumeration.codesExamined -
                                     local.enumeration.decoded;
    local.enumerated = std::size_t(yielded);
    local.orbitSkipped = std::size_t(local.enumeration.orbitSkipped);
    top.count(local);
    std::vector<std::pair<std::size_t, dataflow::SpaceTimeTransform>>
            work;
    for (const auto &[index, record] : top.takeInEnumOrder()) {
        // The transform constructor re-validates invertibility; a
        // corrupted-but-checksummed matrix dies here, classified.
        work.emplace_back(index,
                          dataflow::SpaceTimeTransform(
                                  record->matrix,
                                  "enumerated-" + std::to_string(index)));
    }
    // The scores were computed by the shards; the merge's analytic tier
    // is the top-K selection, timed per record like exploreDataflows
    // times its scoring, and the fold keeps the rest of the wall.
    local.analyticMs =
            std::chrono::duration<double, std::milli>(analytic_time)
                    .count();
    local.enumerateMs = std::chrono::duration<double, std::milli>(
                                Clock::now() - enumerate_start)
                                .count() -
                        local.analyticMs;

    // Elaborate the folded survivors through exactly the back half a
    // single-process run uses.
    DseOptions options;
    options.enumerate.minCoeff = -config.maxCoeff;
    options.enumerate.maxCoeff = config.maxCoeff;
    options.enumerate.maxHopLength = config.maxHop;
    options.enumerate.limit = std::size_t(config.enumLimit);
    options.topK = std::size_t(config.topK);
    options.threads = eval.threads;
    options.maxPes = config.maxPes;
    options.analyticTopK = analytic_top_k;
    options.stepBudget = eval.stepBudget;
    options.timeBudgetMillis = eval.timeBudgetMillis;
    options.retryWallClockTimeout = eval.retryWallClockTimeout;
    options.isolateFailures = eval.isolateFailures;
    auto candidates = evaluateAndRank(std::move(work), functional, bounds,
                                      options, area_params, timing_params,
                                      local);
    if (stats)
        *stats = local;
    return candidates;
}

} // namespace stellar::accel
