/**
 * @file
 * The shard-records codec contract (accel/records.hpp).
 *
 * The records file is the trust boundary of the distributed DSE: a
 * merge ingests files that may come from another machine, another
 * build, or a damaged disk. These tests pin the three legs of that
 * boundary: a clean document round-trips byte-exactly; every
 * deterministic corruption mode (and a gauntlet of arbitrary
 * mutilations, run over design-memo snapshots too) is rejected as a
 * *classified* failure, never an unclassified throw; and the merge's
 * partition validation refuses incomplete, duplicated, tampered, or
 * mixed-config shard sets.
 * The differential ranking contract lives in shard_merge_test.cpp.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "accel/records.hpp"
#include "func/library.hpp"
#include "model/params.hpp"
#include "serve/commands.hpp"
#include "serve/snapshot.hpp"
#include "util/envelope.hpp"
#include "util/failure.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#include "temp_path.hpp"

namespace stellar
{
namespace
{

accel::ShardConfig
smallConfig()
{
    accel::ShardConfig config;
    config.dim = 3;
    config.maxHop = 2;
    config.maxCoeff = 1;
    config.topK = 6;
    config.analyticTopK = 8;
    config.enumLimit = 4096;
    return config;
}

std::vector<accel::ShardRecords>
scanAll(const accel::ShardConfig &config, std::int64_t shard_count)
{
    model::AreaParams area_params;
    model::TimingParams timing_params;
    IntVec bounds = {config.dim, config.dim, config.dim};
    std::vector<accel::ShardRecords> shards;
    for (std::int64_t i = 0; i < shard_count; i++)
        shards.push_back(accel::scanShard(func::matmulSpec(), bounds,
                                          config, i, shard_count, 1,
                                          area_params, timing_params));
    return shards;
}

/** Expect `fn` to throw, and the throw to classify to a known kind. */
template <typename Fn>
util::Failure
expectClassifiedThrow(Fn &&fn, const char *what)
{
    try {
        fn();
    } catch (...) {
        auto failure = util::classifyException(std::current_exception());
        EXPECT_NE(failure.kind, util::FailureKind::Unknown) << what;
        return failure;
    }
    ADD_FAILURE() << what << ": accepted silently";
    return {};
}

} // namespace

TEST(Records, RoundTripIsByteExact)
{
    auto shards = scanAll(smallConfig(), 2);
    std::int64_t total_records = 0;
    for (const auto &shard : shards) {
        std::string text = accel::serializeShardRecords(shard);
        auto parsed = accel::parseShardRecords(text);
        EXPECT_EQ(accel::serializeShardRecords(parsed), text);
        EXPECT_TRUE(parsed.config == shard.config);
        EXPECT_EQ(parsed.range.lo, shard.range.lo);
        EXPECT_EQ(parsed.range.hi, shard.range.hi);
        EXPECT_EQ(parsed.records.size(), shard.records.size());
        for (std::size_t i = 0; i < parsed.records.size(); i++) {
            EXPECT_EQ(parsed.records[i].code, shard.records[i].code);
            EXPECT_EQ(parsed.records[i].matrix, shard.records[i].matrix);
            EXPECT_EQ(parsed.records[i].signature,
                      shard.records[i].signature);
            EXPECT_EQ(parsed.records[i].score, shard.records[i].score);
            EXPECT_EQ(parsed.records[i].saturated,
                      shard.records[i].saturated);
        }
        total_records += std::int64_t(shard.records.size());
    }
    EXPECT_GT(total_records, 0) << "the scan found nothing to record";
}

TEST(Records, EveryCorruptionModeIsRejectedClassified)
{
    auto shards = scanAll(smallConfig(), 2);
    // The non-empty shard makes the payload damage land on real data.
    const auto &victim =
            shards[0].records.empty() ? shards[1] : shards[0];
    ASSERT_FALSE(victim.records.empty());
    std::string text = accel::serializeShardRecords(victim);
    for (auto mode : util::envelope::kCorruptions) {
        std::string corrupted = util::envelope::corrupt(
                text, mode, accel::kRecordsFormat.payloadKey);
        ASSERT_NE(corrupted, text) << int(mode);
        expectClassifiedThrow(
                [&] { accel::parseShardRecords(corrupted); },
                "corruption mode");
    }
}

TEST(Records, ArbitraryMutilationGauntletNeverThrowsUnclassified)
{
    // Both envelope formats run through the same body: a shard records
    // document, and a design-memo snapshot whose loader must also stay
    // validate-then-insert (a rejected snapshot loads nothing).
    auto shards = scanAll(smallConfig(), 1);
    accel::DesignPointMemo source;
    serve::DseRequest request;
    request.dim = 3;
    serve::renderDse(request, &source);
    ASSERT_GT(source.stats().entries, 0u);

    struct Input
    {
        const char *name;
        std::string text;
        std::function<void(const std::string &)> load;
    };
    const Input inputs[] = {
            {"records", accel::serializeShardRecords(shards[0]),
             [](const std::string &text) { accel::parseShardRecords(text); }},
            {"snapshot", serve::serializeSnapshot(source),
             [](const std::string &text) {
                 accel::DesignPointMemo memo;
                 try {
                     serve::loadSnapshot(memo, text);
                 } catch (...) {
                     EXPECT_EQ(memo.stats().entries, 0u)
                             << "a rejected snapshot left entries behind";
                     throw;
                 }
             }},
    };
    for (const Input &input : inputs) {
        const std::string &text = input.text;
        Rng rng(2026);
        int rejected = 0, accepted = 0;
        for (int round = 0; round < 300; round++) {
            std::string damaged = text;
            switch (rng.nextBounded(4)) {
              case 0: // truncate anywhere
                damaged.resize(rng.nextBounded(damaged.size()));
                break;
              case 1: { // flip one byte
                std::size_t at = std::size_t(
                        rng.nextBounded(damaged.size()));
                damaged[at] =
                        char(damaged[at] ^ (1 + rng.nextBounded(255)));
                break;
              }
              case 2: { // excise a span
                std::size_t at = std::size_t(
                        rng.nextBounded(damaged.size()));
                damaged.erase(at, 1 + std::size_t(rng.nextBounded(80)));
                break;
              }
              default: // splice garbage in
                damaged.insert(
                        std::size_t(rng.nextBounded(damaged.size())),
                        "\x01garbage{]\xff");
                break;
            }
            try {
                input.load(damaged);
                accepted++; // a mutation can be harmless only if it
                            // reconstructs a valid document
                EXPECT_EQ(damaged, text) << input.name;
            } catch (...) {
                rejected++;
                auto failure =
                        util::classifyException(std::current_exception());
                EXPECT_NE(failure.kind, util::FailureKind::Unknown)
                        << input.name << " round " << round;
            }
        }
        EXPECT_GT(rejected, 0) << input.name;
        EXPECT_EQ(accepted + rejected, 300) << input.name;
    }
}

TEST(Records, HugeRowsWithAFreshChecksumIsRejected)
{
    // rows = 2^32 + 3 narrows to 3 as an int; the reader must range-check
    // the int64 first, or this document loads as a 3x3 matrix.
    auto shards = scanAll(smallConfig(), 1);
    ASSERT_FALSE(shards[0].records.empty());
    std::string payload = util::json::serialize(util::envelope::open(
            accel::kRecordsFormat, accel::serializeShardRecords(shards[0])));
    std::size_t at = payload.find("\"rows\":3,");
    ASSERT_NE(at, std::string::npos);
    payload.replace(at, 9, "\"rows\":4294967299,");
    std::string text = util::envelope::seal(accel::kRecordsFormat, payload);
    auto failure = expectClassifiedThrow(
            [&] { accel::parseShardRecords(text); }, "rows = 2^32 + 3");
    EXPECT_NE(failure.message.find("implausible matrix shape 4294967299x3"),
              std::string::npos)
            << failure.message;
}

TEST(Records, TamperedRangeIsRejectedEvenWithAFreshChecksum)
{
    // An attacker (or a buggy wrapper) re-serializing a shard with a
    // shifted range gets a *valid checksum* — the parse-time partition
    // formula is what has to catch it.
    auto shards = scanAll(smallConfig(), 2);
    auto tampered = shards[1];
    tampered.range.lo -= 1; // overlaps shard 0's slice
    tampered.stats.codesExamined += 1; // keep the counter invariant
    std::string text = accel::serializeShardRecords(tampered);
    auto failure = expectClassifiedThrow(
            [&] { accel::parseShardRecords(text); }, "overlapping range");
    EXPECT_NE(failure.message.find("shard range"), std::string::npos)
            << failure.message;
}

TEST(Records, MergeRejectsIncompleteDuplicateAndMixedConfigSets)
{
    model::AreaParams area_params;
    model::TimingParams timing_params;
    auto config = smallConfig();
    IntVec bounds = {config.dim, config.dim, config.dim};
    auto shards = scanAll(config, 3);
    accel::MergeEvalOptions eval;
    eval.threads = 1;
    accel::DseStats stats;
    auto merge = [&](std::vector<accel::ShardRecords> set) {
        return accel::mergeShardRecords(std::move(set),
                                        func::matmulSpec(), bounds, eval,
                                        area_params, timing_params,
                                        &stats);
    };

    // The complete set merges.
    EXPECT_FALSE(merge(shards).empty());

    expectClassifiedThrow([&] { merge({}); }, "empty set");

    auto incomplete = shards;
    incomplete.pop_back();
    expectClassifiedThrow([&] { merge(incomplete); }, "missing shard");

    auto duplicated = shards;
    duplicated[2] = duplicated[0];
    auto failure = expectClassifiedThrow([&] { merge(duplicated); },
                                         "duplicated shard");
    EXPECT_NE(failure.message.find("overlapping"), std::string::npos)
            << failure.message;

    // Same partition, different sweep: one shard scanned under another
    // coefficient window must not fold into this ranking.
    auto mixed_config = config;
    mixed_config.maxHop = 1;
    auto foreign = scanAll(mixed_config, 3);
    auto mixed = shards;
    mixed[1] = foreign[1];
    expectClassifiedThrow([&] { merge(mixed); }, "mixed config");
}

TEST(Records, FileRoundTripMissingAndCorruptFilesAreClassified)
{
    test_util::TempDir scratch("stellar_records_test");
    const auto &dir = scratch.path();
    std::string path = (dir / "shard0.json").string();

    auto shards = scanAll(smallConfig(), 1);
    accel::saveShardRecordsFile(shards[0], path);
    auto loaded = accel::loadShardRecordsFile(path);
    EXPECT_EQ(accel::serializeShardRecords(loaded),
              accel::serializeShardRecords(shards[0]));

    expectClassifiedThrow(
            [&] {
                accel::loadShardRecordsFile((dir / "absent.json").string());
            },
            "missing file");

    // Damage the file on disk: load must reject it classified.
    std::string text = accel::serializeShardRecords(shards[0]);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
            << util::envelope::corrupt(text,
                                       util::envelope::Corruption::FlipByte,
                                       accel::kRecordsFormat.payloadKey);
    expectClassifiedThrow([&] { accel::loadShardRecordsFile(path); },
                          "corrupt file");
}

} // namespace stellar
