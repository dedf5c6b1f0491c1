/**
 * @file
 * The enumeration contract, pinned differentially: the streaming,
 * orbit-canonical coefficient scan must be byte-identical — matrices,
 * signatures, `enumerated-N` names, dedup winners, stats — to the
 * pre-streaming oracle's serial scan at every thread count, for every
 * `limit` (the old sharded scan's small-limit wart), and with orbit
 * skipping on or off. On top sits the tiered-DSE end-to-end check: the
 * tier-off run's enumeration equals the oracle's, the analytic top-K
 * equals the full-elaboration top-K, and the counter invariant holds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "accel/dse.hpp"
#include "dataflow/enumerate.hpp"
#include "func/library.hpp"
#include "util/strings.hpp"

namespace stellar
{
namespace
{

struct EnumScenario
{
    func::FunctionalSpec spec = func::matmulSpec();
    dataflow::EnumerateOptions options;
    std::string label;
};

/**
 * 12 randomized spec/options combinations. Coefficient ranges are
 * sized per spec so the examine-every-code oracle stays affordable
 * (the conv spec has 16 cells, so only 2-value ranges are usable
 * there), and both symmetric and asymmetric ranges appear — asymmetric
 * ranges exercise the permutation-only canonicalization path.
 */
std::vector<EnumScenario>
enumScenarios()
{
    std::vector<EnumScenario> out;
    for (int seed = 0; seed < 12; seed++) {
        std::mt19937 rng(std::uint32_t(seed) * 2654435761u + 97u);
        EnumScenario s;
        dataflow::EnumerateOptions &options = s.options;
        options.threads = 1;
        switch (seed % 4) {
          case 0: {
            s.spec = func::matmulSpec();
            s.label = "matmul";
            const std::int64_t ranges[][2] = {{-1, 1}, {-2, 2}, {-1, 2}};
            const auto &range = ranges[seed / 4 % 3];
            options.minCoeff = range[0];
            options.maxCoeff = range[1];
            break;
          }
          case 1: {
            s.spec = func::matAddSpec();
            s.label = "matadd";
            const std::int64_t ranges[][2] = {{-3, 3}, {-1, 1}, {-2, 4}};
            const auto &range = ranges[seed / 4 % 3];
            options.minCoeff = range[0];
            options.maxCoeff = range[1];
            break;
          }
          case 2: {
            s.spec = func::convSpec(1 + seed % 2, 2);
            s.label = "conv";
            options.minCoeff = (seed / 4 % 2 == 0) ? -1 : 0;
            options.maxCoeff = options.minCoeff + 1;
            break;
          }
          default: {
            s.spec = func::mergeSpec();
            s.label = "merge";
            options.minCoeff = -2 - seed / 4;
            options.maxCoeff = 2 + seed / 4;
            break;
          }
        }
        options.maxHopLength = 1 + seed % 3;
        options.allowBroadcast = seed % 2 == 0;
        std::uniform_int_distribution<std::size_t> limit_pick(0, 3);
        const std::size_t limits[] = {4096, 7, 64, 1000};
        options.limit = limits[limit_pick(rng)];
        s.label += " coeff [" + std::to_string(options.minCoeff) + "," +
                   std::to_string(options.maxCoeff) + "] hop " +
                   std::to_string(options.maxHopLength) + " limit " +
                   std::to_string(options.limit);
        out.push_back(std::move(s));
    }
    return out;
}

void
expectSameTransforms(const std::vector<dataflow::SpaceTimeTransform> &got,
                     const std::vector<dataflow::SpaceTimeTransform> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); i++) {
        EXPECT_EQ(got[i].name(), want[i].name()) << "index " << i;
        EXPECT_EQ(got[i].matrix(), want[i].matrix()) << "index " << i;
    }
}

void
expectSameStats(const dataflow::EnumerateStats &got,
                const dataflow::EnumerateStats &want)
{
    EXPECT_EQ(got.codesTotal, want.codesTotal);
    EXPECT_EQ(got.codesExamined, want.codesExamined);
    EXPECT_EQ(got.orbitSkipped, want.orbitSkipped);
    EXPECT_EQ(got.decoded, want.decoded);
    EXPECT_EQ(got.rejected, want.rejected);
    EXPECT_EQ(got.duplicates, want.duplicates);
    EXPECT_EQ(got.yielded, want.yielded);
}

void
expectStatsInvariants(const dataflow::EnumerateStats &stats,
                      std::size_t yielded)
{
    EXPECT_EQ(stats.codesExamined, stats.orbitSkipped + stats.decoded);
    EXPECT_EQ(stats.decoded,
              stats.rejected + stats.duplicates + stats.yielded);
    EXPECT_EQ(std::size_t(stats.yielded), yielded);
    EXPECT_LE(stats.codesExamined, stats.codesTotal);
}

// The streaming scan (any thread count, orbit skipping on or off) must
// reproduce the pre-streaming oracle's serial scan byte for byte:
// matrices, names, dedup winners, and per-item signatures.
TEST(EnumerateStream, MatchesOracleByteForByteAtEveryThreadCount)
{
    for (const auto &scenario : enumScenarios()) {
        SCOPED_TRACE(scenario.label);
        auto oracle_options = scenario.options;
        oracle_options.threads = 1;
        auto oracle = dataflow::detail::enumerateTransformsOracle(
                scenario.spec, oracle_options);

        dataflow::EnumerateStats serial_stats;
        for (std::size_t threads : {1u, 2u, 4u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            for (bool orbit : {true, false}) {
                auto options = scenario.options;
                options.threads = threads;
                options.orbitCanonical = orbit;
                dataflow::EnumerateStats stats;
                auto streamed = dataflow::enumerateTransforms(
                        scenario.spec, options, &stats);
                expectSameTransforms(streamed, oracle);
                expectStatsInvariants(stats, streamed.size());
                if (!orbit) {
                    EXPECT_EQ(stats.orbitSkipped, 0);
                } else if (threads == 1) {
                    serial_stats = stats;
                } else {
                    expectSameStats(stats, serial_stats);
                }
            }
        }
    }
}

// The pull API itself: items arrive in code order with consistent
// indices, names, and signatures, and every yielded item's signature
// matches an independent re-decode of its code.
TEST(EnumerateStream, PullStreamYieldsConsistentItems)
{
    auto spec = func::matmulSpec();
    dataflow::EnumerateOptions options;
    options.maxCoeff = 2;
    options.minCoeff = -2;
    options.threads = 2;
    dataflow::TransformStream stream(spec, options);
    dataflow::EnumeratedTransform item;
    std::int64_t last_code = -1;
    std::size_t count = 0;
    while (stream.next(item)) {
        EXPECT_GT(item.code, last_code);
        last_code = item.code;
        EXPECT_EQ(item.index, count);
        EXPECT_EQ(item.transform.name(),
                  "enumerated-" + std::to_string(count));
        IntMatrix decoded(0, 0);
        std::vector<std::int64_t> signature;
        ASSERT_TRUE(dataflow::detail::decodeCandidate(
                spec, options, item.code, &decoded, &signature));
        EXPECT_EQ(decoded, item.transform.matrix());
        EXPECT_EQ(signature, item.signature);
        EXPECT_TRUE(dataflow::detail::codeIsOrbitCanonical(spec, options,
                                                           item.code));
        count++;
    }
    EXPECT_GT(count, 0u);
    expectStatsInvariants(stream.stats(), count);
    EXPECT_EQ(stream.stats().codesExamined, stream.stats().codesTotal);
}

// Aborting via the sink finalizes stats at the last yielded code.
TEST(EnumerateStream, SinkAbortFinalizesStats)
{
    auto spec = func::matmulSpec();
    dataflow::EnumerateOptions options;
    options.threads = 2;
    dataflow::EnumerateStats stats;
    std::size_t seen = 0;
    dataflow::forEachTransform(
            spec, options,
            [&](const dataflow::EnumeratedTransform &) {
                return ++seen < 5;
            },
            &stats);
    EXPECT_EQ(seen, 5u);
    expectStatsInvariants(stats, 5);
}

// The small-limit wart, fixed: the scan must have exactly-serial limit
// semantics (results AND stats) at every thread count, for limits
// below, at, and above the survivor count.
TEST(EnumerateStream, LimitSemanticsAreExactlySerialAtEveryThreadCount)
{
    auto spec = func::matmulSpec();
    dataflow::EnumerateOptions base;
    base.minCoeff = -2;
    base.maxCoeff = 2;
    base.maxHopLength = 2;
    base.limit = 1u << 20;
    base.threads = 1;
    auto all = dataflow::detail::enumerateTransformsOracle(spec, base);
    ASSERT_GT(all.size(), 8u);

    const std::size_t limits[] = {1, 2, 7, all.size(), 1u << 20};
    for (std::size_t limit : limits) {
        SCOPED_TRACE("limit " + std::to_string(limit));
        auto oracle_options = base;
        oracle_options.limit = limit;
        // The serial oracle yields in code order and early-exits at the
        // limit, so its result is a prefix of the unlimited scan; only
        // re-run it for the small limits, where the early exit makes it
        // cheap, as a sanity check of that very claim.
        std::vector<dataflow::SpaceTimeTransform> oracle(
                all.begin(),
                all.begin() +
                        std::ptrdiff_t(std::min(limit, all.size())));
        if (limit <= 7)
            expectSameTransforms(dataflow::detail::enumerateTransformsOracle(
                                         spec, oracle_options),
                                 oracle);
        EXPECT_EQ(oracle.size(), std::min(limit, all.size()));

        dataflow::EnumerateStats serial_stats;
        for (std::size_t threads : {1u, 2u, 4u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            auto options = oracle_options;
            options.threads = threads;
            dataflow::EnumerateStats stats;
            auto streamed = dataflow::enumerateTransforms(spec, options,
                                                          &stats);
            expectSameTransforms(streamed, oracle);
            expectStatsInvariants(stats, streamed.size());
            if (threads == 1)
                serial_stats = stats;
            else
                expectSameStats(stats, serial_stats);
        }
    }
}

void
expectSameCandidates(const std::vector<accel::DseCandidate> &got,
                     const std::vector<accel::DseCandidate> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); i++) {
        EXPECT_EQ(got[i].enumIndex, want[i].enumIndex) << "rank " << i;
        EXPECT_EQ(got[i].transform.name(), want[i].transform.name())
                << "rank " << i;
        EXPECT_EQ(got[i].transform.matrix(), want[i].transform.matrix())
                << "rank " << i;
        EXPECT_EQ(got[i].pes, want[i].pes) << "rank " << i;
        EXPECT_EQ(got[i].scheduleLength, want[i].scheduleLength)
                << "rank " << i;
        EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
    }
}

void
expectDseInvariants(const accel::DseStats &stats)
{
    EXPECT_EQ(stats.evaluated + stats.prunedEarly + stats.analyticFiltered +
                      stats.failed,
              stats.enumerated);
    EXPECT_EQ(stats.orbitSkipped,
              std::size_t(stats.enumeration.orbitSkipped));
    EXPECT_EQ(stats.enumeration.codesExamined,
              stats.enumeration.orbitSkipped + stats.enumeration.decoded);
    EXPECT_EQ(stats.enumeration.decoded,
              stats.enumeration.rejected + stats.enumeration.duplicates +
                      stats.enumeration.yielded);
    EXPECT_EQ(stats.enumerated, std::size_t(stats.enumeration.yielded));
}

// Tiered DSE end to end against the materialized serial oracle: the
// tier-off run elaborates every streamed survivor, and its enumeration
// must be exactly detail::enumerateTransformsOracle's (same count, and
// every ranked candidate's matrix at its enumIndex). The analytic tier
// must then reproduce that full top-K and share its scan accounting —
// at 1 and 4 evaluation threads, with and without a maxPes prune.
TEST(EnumerateStream, TieredDseStreamedEqualsMaterializedEqualsFull)
{
    auto spec = func::matmulSpec();
    IntVec bounds{4, 4, 4};
    model::AreaParams area_params;
    model::TimingParams timing_params;

    for (std::int64_t max_pes : {0ll, 40ll}) {
        SCOPED_TRACE("maxPes " + std::to_string(max_pes));
        accel::DseOptions base;
        base.topK = 6;
        base.maxPes = max_pes;
        base.enumerate.maxHopLength = 3;
        base.enumerate.minCoeff = -2;
        base.enumerate.maxCoeff = 2;
        base.enumerate.limit = 1200;
        base.threads = 1;

        // Brute force: every survivor fully elaborated.
        accel::DseStats full_stats;
        auto full = accel::exploreDataflows(spec, bounds, base,
                                            area_params, timing_params,
                                            &full_stats);
        expectDseInvariants(full_stats);

        auto oracle = dataflow::detail::enumerateTransformsOracle(
                spec, base.enumerate);
        EXPECT_EQ(full_stats.enumerated, oracle.size());
        ASSERT_FALSE(full.empty());
        for (const auto &candidate : full) {
            ASSERT_LT(candidate.enumIndex, oracle.size());
            EXPECT_EQ(candidate.transform.matrix(),
                      oracle[candidate.enumIndex].matrix())
                    << "enumIndex " << candidate.enumIndex;
            EXPECT_EQ(candidate.transform.name(),
                      oracle[candidate.enumIndex].name());
        }

        accel::DseStats tier_serial_stats;
        for (std::size_t threads : {1u, 4u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            auto tier = base;
            tier.threads = threads;
            tier.analyticTopK = 12;
            accel::DseStats tier_stats;
            auto tiered = accel::exploreDataflows(
                    spec, bounds, tier, area_params, timing_params,
                    &tier_stats);

            expectSameCandidates(tiered, full);
            expectDseInvariants(tier_stats);
            EXPECT_EQ(tier_stats.enumerated, full_stats.enumerated);
            EXPECT_EQ(tier_stats.prunedEarly, full_stats.prunedEarly);
            EXPECT_EQ(tier_stats.orbitSkipped, full_stats.orbitSkipped);
            expectSameStats(tier_stats.enumeration, full_stats.enumeration);
            EXPECT_EQ(tier_stats.analyticRanked,
                      full_stats.enumerated - full_stats.prunedEarly);
            EXPECT_EQ(tier_stats.evaluated + tier_stats.failed,
                      tier.analyticTopK);
            if (threads == 1)
                tier_serial_stats = tier_stats;
            else {
                EXPECT_EQ(tier_stats.evaluated,
                          tier_serial_stats.evaluated);
                EXPECT_EQ(tier_stats.analyticFiltered,
                          tier_serial_stats.analyticFiltered);
                expectSameStats(tier_stats.enumeration,
                                tier_serial_stats.enumeration);
            }
        }
    }
}

// With too few survivors for the tier to filter, every survivor is
// elaborated and the analytic counters stay zero.
TEST(EnumerateStream, FusedTierSkipsWhenSurvivorsFitInK)
{
    auto spec = func::matmulSpec();
    IntVec bounds{4, 4, 4};
    model::AreaParams area_params;
    model::TimingParams timing_params;
    accel::DseOptions options;
    options.topK = 6;
    options.threads = 1;
    options.analyticTopK = 4096; // far above the hop-2 survivor count
    accel::DseStats stats;
    auto candidates = accel::exploreDataflows(
            spec, bounds, options, area_params, timing_params, &stats);
    EXPECT_FALSE(candidates.empty());
    expectDseInvariants(stats);
    EXPECT_EQ(stats.analyticRanked, 0u);
    EXPECT_EQ(stats.analyticFiltered, 0u);
    EXPECT_EQ(stats.evaluated, stats.enumerated);
}

// ---------------------------------------------------------------------
// Bulk accounting: the scan rejects whole runs of codes (rows 1..n-1
// fixed, row 0 walking) at once. A brute-force walk that decodes every
// orbit-canonical code on its own must reproduce the stream's stats and
// every yield's (code, signature, *After) snapshot exactly — unsharded
// and per shard, at 1 and 4 threads, and for limits that stop inside a
// live run or just before a run the filters reject entirely.

/** One canonical code's verdict under a fixed option set. */
struct CodeOutcome
{
    std::int64_t code = 0;
    bool survives = false;
    std::vector<std::int64_t> signature;
};

struct ReferenceYield
{
    std::size_t outcome = 0; //!< position in the outcome list
    std::int64_t code = 0;
    std::vector<std::int64_t> signature;
    std::int64_t examinedAfter = 0;
    std::int64_t decodedAfter = 0;
    std::int64_t rejectedAfter = 0;
    std::int64_t duplicatesAfter = 0;
};

struct ReferenceScan
{
    std::vector<ReferenceYield> yields;
    dataflow::EnumerateStats stats;
};

/** Every code of the space, decoded on its own. */
std::vector<CodeOutcome>
decodeEveryCode(const func::FunctionalSpec &spec,
                const dataflow::EnumerateOptions &options)
{
    std::vector<CodeOutcome> out;
    std::int64_t total = dataflow::detail::codeSpaceSize(spec, options);
    for (std::int64_t code = 0; code < total; code++) {
        CodeOutcome outcome;
        outcome.code = code;
        outcome.survives = dataflow::detail::decodeCandidate(
                spec, options, code, nullptr, &outcome.signature);
        out.push_back(std::move(outcome));
    }
    return out;
}

/** The codes the scan walks under `options`: the orbit-canonical ones. */
std::vector<CodeOutcome>
canonicalOnly(const func::FunctionalSpec &spec,
              const dataflow::EnumerateOptions &options,
              const std::vector<CodeOutcome> &every)
{
    std::vector<CodeOutcome> out;
    for (const CodeOutcome &outcome : every)
        if (dataflow::detail::codeIsOrbitCanonical(spec, options,
                                                   outcome.code))
            out.push_back(outcome);
    return out;
}

/** The serial walk of codes [lo, hi): dedup by signature, stop at
 *  `limit` yields with the stats of the last one. */
ReferenceScan
referenceWalk(const std::vector<CodeOutcome> &outcomes, std::int64_t total,
              std::int64_t lo, std::int64_t hi, std::size_t limit)
{
    ReferenceScan ref;
    ref.stats.codesTotal = total;
    ref.stats.codesExamined = hi - lo;
    std::set<std::vector<std::int64_t>> seen;
    std::int64_t decoded = 0;
    std::int64_t rejected = 0;
    std::int64_t duplicates = 0;
    for (std::size_t i = 0; i < outcomes.size(); i++) {
        const CodeOutcome &outcome = outcomes[i];
        if (outcome.code < lo || outcome.code >= hi)
            continue;
        decoded++;
        if (!outcome.survives) {
            rejected++;
            continue;
        }
        if (!seen.insert(outcome.signature).second) {
            duplicates++;
            continue;
        }
        ref.yields.push_back({i, outcome.code, outcome.signature,
                              outcome.code - lo + 1, decoded, rejected,
                              duplicates});
        if (ref.yields.size() >= limit) {
            ref.stats.codesExamined = ref.yields.back().examinedAfter;
            break;
        }
    }
    const bool limited = !ref.yields.empty() && ref.yields.size() >= limit;
    ref.stats.decoded = limited ? ref.yields.back().decodedAfter : decoded;
    ref.stats.rejected = limited ? ref.yields.back().rejectedAfter
                                 : rejected;
    ref.stats.duplicates = limited ? ref.yields.back().duplicatesAfter
                                   : duplicates;
    ref.stats.yielded = std::int64_t(ref.yields.size());
    ref.stats.orbitSkipped = ref.stats.codesExamined - ref.stats.decoded;
    return ref;
}

void
expectStreamEqualsReference(const func::FunctionalSpec &spec,
                            const dataflow::EnumerateOptions &options,
                            const ReferenceScan &ref)
{
    dataflow::TransformStream stream(spec, options);
    dataflow::EnumeratedTransform item;
    std::size_t count = 0;
    while (stream.next(item)) {
        ASSERT_LT(count, ref.yields.size()) << "extra yield";
        const ReferenceYield &want = ref.yields[count];
        ASSERT_EQ(item.code, want.code) << "yield " << count;
        ASSERT_EQ(item.signature, want.signature) << "yield " << count;
        ASSERT_EQ(item.examinedAfter, want.examinedAfter)
                << "yield " << count;
        ASSERT_EQ(item.decodedAfter, want.decodedAfter) << "yield " << count;
        ASSERT_EQ(item.rejectedAfter, want.rejectedAfter)
                << "yield " << count;
        ASSERT_EQ(item.duplicatesAfter, want.duplicatesAfter)
                << "yield " << count;
        count++;
    }
    EXPECT_EQ(count, ref.yields.size());
    expectSameStats(stream.stats(), ref.stats);
}

/**
 * Limits whose last yield sits inside a live run (the next canonical
 * code shares rows 1..n-1 with it) and just before a run whose every
 * canonical code is rejected, as far as the space has them.
 */
std::vector<std::size_t>
limitCuts(const std::vector<CodeOutcome> &outcomes, const ReferenceScan &ref,
          std::int64_t row_block)
{
    std::vector<std::size_t> cuts{1};
    bool live_found = false;
    bool rejected_found = false;
    for (std::size_t y = 0; y + 1 < ref.yields.size(); y++) {
        std::size_t next = ref.yields[y].outcome + 1;
        std::int64_t run = ref.yields[y].code / row_block;
        std::int64_t next_run = outcomes[next].code / row_block;
        if (next_run == run) {
            if (!live_found)
                cuts.push_back(y + 1);
            live_found = true;
            continue;
        }
        bool all_rejected = true;
        for (std::size_t i = next;
             i < outcomes.size() && outcomes[i].code / row_block == next_run;
             i++)
            all_rejected = all_rejected && !outcomes[i].survives;
        if (all_rejected && !rejected_found)
            cuts.push_back(y + 1);
        rejected_found = rejected_found || all_rejected;
        if (live_found && rejected_found)
            break;
    }
    return cuts;
}

/** Run the whole grid for one spec and coefficient range. */
void
checkBulkAccounting(const func::FunctionalSpec &spec, std::int64_t min_coeff,
                    std::int64_t max_coeff, std::vector<std::int64_t> hops)
{
    const int n = spec.numIndices();
    std::int64_t row_block = 1;
    for (int c = 0; c < n; c++)
        row_block *= max_coeff - min_coeff + 1;
    for (std::int64_t hop : hops) {
        for (bool broadcast : {true, false}) {
            dataflow::EnumerateOptions base;
            base.minCoeff = min_coeff;
            base.maxCoeff = max_coeff;
            base.maxHopLength = hop;
            base.allowBroadcast = broadcast;
            base.limit = std::size_t(1) << 40;
            // The filters do not depend on orbit skipping.
            const auto every = decodeEveryCode(spec, base);
            for (bool orbit : {true, false}) {
                auto options = base;
                options.orbitCanonical = orbit;
                SCOPED_TRACE("coeff [" + std::to_string(min_coeff) + "," +
                             std::to_string(max_coeff) + "] hop " +
                             std::to_string(hop) +
                             (broadcast ? "" : " no-broadcast") +
                             (orbit ? "" : " no-orbit"));
                auto outcomes = orbit ? canonicalOnly(spec, options, every)
                                      : every;
                std::int64_t total =
                        dataflow::detail::codeSpaceSize(spec, options);
                auto whole = referenceWalk(outcomes, total, 0, total,
                                           options.limit);
                for (std::size_t threads : {1u, 4u}) {
                    SCOPED_TRACE("threads " + std::to_string(threads));
                    options.threads = threads;
                    expectStreamEqualsReference(spec, options, whole);
                    for (std::size_t limit :
                         limitCuts(outcomes, whole, row_block)) {
                        SCOPED_TRACE("limit " + std::to_string(limit));
                        auto cut = options;
                        cut.limit = limit;
                        expectStreamEqualsReference(
                                spec, cut,
                                referenceWalk(outcomes, total, 0, total,
                                              limit));
                    }
                }
                for (std::int64_t count = 1; count <= 5; count++) {
                    for (std::int64_t index = 0; index < count; index++) {
                        SCOPED_TRACE("shard " + std::to_string(index) +
                                     "/" + std::to_string(count));
                        auto shard = options;
                        shard.shardIndex = index;
                        shard.shardCount = count;
                        shard.threads = (index + count) % 2 == 0 ? 1 : 4;
                        expectStreamEqualsReference(
                                spec, shard,
                                referenceWalk(outcomes, total,
                                              total * index / count,
                                              total * (index + 1) / count,
                                              shard.limit));
                    }
                }
            }
        }
    }
}

TEST(EnumerateStream, BulkAccountingMatchesBruteForceSmallSpaces)
{
    const std::int64_t ranges[][2] = {{-1, 1}, {-2, 2}, {-1, 2}};
    for (const auto &range : ranges) {
        {
            SCOPED_TRACE("merge");
            checkBulkAccounting(func::mergeSpec(), range[0], range[1],
                                {0, 1, 2, 3});
        }
        SCOPED_TRACE("matadd");
        checkBulkAccounting(func::matAddSpec(), range[0], range[1],
                            {0, 1, 2, 3});
    }
    // Matmul at +-2 has 5^9 codes, too many to decode one by one here.
    SCOPED_TRACE("matmul");
    checkBulkAccounting(func::matmulSpec(), -1, 1, {0, 1, 2, 3});
}

TEST(EnumerateStream, BulkAccountingMatchesBruteForceMatmulAsymmetric)
{
    checkBulkAccounting(func::matmulSpec(), -1, 2, {1, 3});
}

// Conv has 16 cells: only a 2-value range fits, and it is the one spec
// that walks 4x4 cofactors.
TEST(EnumerateStream, BulkAccountingMatchesBruteForceConv)
{
    checkBulkAccounting(func::convSpec(1, 2), -1, 0, {0, 2});
}

} // namespace
} // namespace stellar
