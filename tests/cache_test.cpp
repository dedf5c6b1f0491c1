/**
 * @file
 * Differential and concurrency tests for the shared workload cache
 * (workloads::Cache over util::MemoCache).
 *
 * The cache's contract has four legs, each pinned here:
 *
 *  1. *identity*: a cached payload is byte-identical to a fresh
 *     synthesis. Every simulator record stream and a figure-style
 *     rendered table must be hexfloat-identical for {cache on, cache
 *     off} x {1, 2, 4 threads} — the same differential harness shape
 *     as tests/sim_parallel_test.cpp, with the cache toggle as the
 *     second axis.
 *
 *  2. *no aliasing*: distinct keys never conflate. The FNV-1a hash only
 *     picks a shard; residency is decided on the full canonical string,
 *     so over 10k randomized keys every distinct parameter tuple gets
 *     its own entry and identical tuples always hit.
 *
 *  3. *exact counters and pointer stability under contention*: 8
 *     threads hammering a byte-budgeted cache (evicting constantly)
 *     keep hits + misses == lookups exact, and payloads stay valid and
 *     immutable for as long as any holder keeps the shared_ptr, even
 *     after the cache evicts them.
 *
 *  4. *watchdog neutrality*: an ambient per-point step budget is
 *     charged identically whether a lookup hits, misses (synthesis
 *     runs under WatchdogSuspend), or the cache is disabled.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <ios>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/dram.hpp"
#include "sim/merger.hpp"
#include "sim/outerspace.hpp"
#include "sim/run_many.hpp"
#include "sim/scnn.hpp"
#include "sim/systolic.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/structured.hpp"
#include "sparse/suitesparse.hpp"
#include "util/memo.hpp"
#include "util/rng.hpp"
#include "util/watchdog.hpp"
#include "workloads/alexnet.hpp"
#include "workloads/cache.hpp"
#include "workloads/resnet.hpp"


namespace stellar
{
namespace
{

// Render a double so that any bit difference shows up in a string
// comparison (hexfloat is exact for finite values).
std::string
hex(double value)
{
    std::ostringstream out;
    out << std::hexfloat << value;
    return out.str();
}

/**
 * RAII: puts the global cache into a known state for one test and
 * restores the previous enabled flag and the default byte budget
 * (clearing contents both ways, so no test observes another's entries
 * or counters).
 */
class GlobalCacheSandbox
{
  public:
    GlobalCacheSandbox()
        : wasEnabled_(workloads::Cache::global().enabled())
    {
        workloads::Cache::global().reset();
    }

    ~GlobalCacheSandbox()
    {
        workloads::Cache::global().setEnabled(wasEnabled_);
        workloads::Cache::global().setByteBudget(
                workloads::Cache::kDefaultByteBudget);
        workloads::Cache::global().reset();
    }

    GlobalCacheSandbox(const GlobalCacheSandbox &) = delete;
    GlobalCacheSandbox &operator=(const GlobalCacheSandbox &) = delete;

  private:
    bool wasEnabled_;
};

/**
 * The differential harness: `direct` renders a sweep point with bare
 * generator calls (no cache anywhere); `cached` renders the same point
 * through the workloads::cached* helpers. The direct serial sweep is
 * the baseline, and the cached sweep must reproduce it byte-for-byte
 * with the cache on and off, at 1/2/4 threads each.
 */
template <typename DirectFn, typename CachedFn>
void
expectCacheIdentity(std::size_t n, DirectFn &&direct, CachedFn &&cached)
{
    GlobalCacheSandbox sandbox;
    auto &cache = workloads::Cache::global();

    const std::vector<std::string> baseline = sim::runMany(n, 1, direct);
    ASSERT_EQ(baseline.size(), n);

    for (bool on : {true, false}) {
        cache.setEnabled(on);
        cache.reset();
        for (std::size_t threads :
             {std::size_t(1), std::size_t(2), std::size_t(4)}) {
            SCOPED_TRACE("cache=" + std::string(on ? "on" : "off") +
                         " threads=" + std::to_string(threads));
            EXPECT_EQ(sim::runMany(n, threads, cached), baseline);
        }
        workloads::CacheStats stats = cache.stats();
        if (on) {
            // Three sweeps over the same points: the second and third
            // must be served from residency.
            EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
            EXPECT_GT(stats.hits, 0u);
        } else {
            EXPECT_EQ(stats.lookups, 0u);
        }
    }
}

// ---------------------------------------------------------------------
// Differential byte-identity per simulator record stream

TEST(CacheDifferential, ScnnRecordsAreByteIdentical)
{
    sim::ScnnConfig config;
    auto record = [&](const sim::ScnnLayer &layer) {
        auto result = sim::simulateScnnLayer(config, layer, 1);
        return std::to_string(result.cycles) + "," +
               std::to_string(result.multiplies) + "," +
               hex(result.utilization);
    };
    const auto &layers = workloads::alexnetConvLayers();
    expectCacheIdentity(
            layers.size(),
            [&](std::size_t i) { return record(layers[i]); },
            [&](std::size_t i) {
                return record((*workloads::cachedAlexnetLayers())[i]);
            });
}

TEST(CacheDifferential, SystolicRecordsAreByteIdentical)
{
    sim::SystolicConfig config;
    auto record = [&](const workloads::MatmulLayer &layer) {
        auto result = sim::simulateSystolicMatmul(config, layer.m,
                                                  layer.n, layer.k);
        return layer.name + "," + std::to_string(result.cycles) + "," +
               std::to_string(result.macs) + "," +
               hex(result.utilization);
    };
    const auto layers = workloads::resnet50Representative();
    expectCacheIdentity(
            layers.size(),
            [&](std::size_t i) { return record(layers[i]); },
            [&](std::size_t i) {
                return record((*workloads::cachedResnetLayers(true))[i]);
            });
}

TEST(CacheDifferential, OuterSpaceRecordsAreByteIdentical)
{
    const std::vector<const char *> names = {"poisson3Da", "wiki-Vote",
                                             "email-Enron"};
    sim::OuterSpaceConfig config;
    config.dma = sim::DmaConfig::withRate(16);
    auto profile_at = [&](std::size_t i) {
        return sparse::scaleProfile(sparse::profileByName(names[i]),
                                    12000);
    };
    auto record = [&](const sparse::CsrMatrix &matrix) {
        auto result = sim::simulateOuterSpace(config, matrix);
        return std::to_string(result.cycles) + "," +
               std::to_string(result.multiplies) + "," +
               std::to_string(result.dramBytes) + "," +
               hex(result.multiplyUtilization);
    };
    expectCacheIdentity(
            names.size(),
            [&](std::size_t i) {
                return record(sparse::synthesize(profile_at(i), 1));
            },
            [&](std::size_t i) {
                return record(*workloads::cachedSuiteSparse(
                        profile_at(i), 1));
            });
}

TEST(CacheDifferential, MergerRecordsAreByteIdentical)
{
    const std::vector<const char *> names = {"poisson3Da", "wiki-Vote"};
    sim::MergerConfig config;
    auto profile_at = [&](std::size_t i) {
        return sparse::scaleProfile(sparse::profileByName(names[i]),
                                    6000);
    };
    auto record = [&](const std::vector<sparse::PartialMatrix> &partials) {
        auto row = sim::runMergeSchedule(
                config, sim::MergerKind::RowPartitioned, partials);
        auto flat = sim::runMergeSchedule(
                config, sim::MergerKind::Flattened, partials);
        auto tree = sim::runHierarchicalMerge(config, partials, 16);
        return std::to_string(row.cycles) + "," +
               std::to_string(row.mergedElements) + "|" +
               std::to_string(flat.cycles) + "," +
               std::to_string(flat.mergedElements) + "|" +
               std::to_string(tree.cycles) + "," +
               std::to_string(tree.mergedElements);
    };
    expectCacheIdentity(
            names.size(),
            [&](std::size_t i) {
                auto matrix = sparse::synthesize(profile_at(i), 2);
                return record(sparse::outerProductPartials(
                        sparse::csrToCsc(matrix), matrix));
            },
            [&](std::size_t i) {
                return record(*workloads::cachedOuterPartials(
                        profile_at(i), 2));
            });
}

TEST(CacheDifferential, DramRecordsAreByteIdentical)
{
    // The DRAM sim takes no synthesized workload directly; feed it
    // transfer chunks derived from a cached matrix's row lengths so the
    // cache sits on the record stream's input path.
    auto profile = sparse::scaleProfile(
            sparse::profileByName("email-Enron"), 8000);
    const std::vector<int> rates = {1, 4, 16};
    auto record = [&](const sparse::CsrMatrix &matrix, int rate) {
        std::vector<sim::TransferChunk> chunks;
        for (std::int64_t r = 0; r < matrix.rows(); r++)
            chunks.push_back(sim::TransferChunk{
                    64 + 8 * matrix.rowNnz(r), r % 3 == 0});
        sim::DramModel dram((sim::DramConfig()));
        auto result = sim::simulateTransfer(sim::DmaConfig::withRate(rate),
                                            dram, chunks);
        return std::to_string(result.cycles) + "," +
               std::to_string(result.requests) + "," +
               std::to_string(result.bytes) + "," +
               std::to_string(result.pointerStallCycles);
    };
    expectCacheIdentity(
            rates.size(),
            [&](std::size_t i) {
                return record(sparse::synthesize(profile, 4), rates[i]);
            },
            [&](std::size_t i) {
                return record(*workloads::cachedSuiteSparse(profile, 4),
                              rates[i]);
            });
}

TEST(CacheDifferential, StructuredTensorsAreByteIdentical)
{
    // The packed N:M tensor itself is the record: values and selector
    // metadata must match a fresh generateStructured bit-for-bit.
    const std::vector<std::uint64_t> seeds = {3, 11, 42};
    auto record = [&](const sparse::StructuredMatrix &matrix) {
        std::ostringstream out;
        out << matrix.rows << "x" << matrix.cols << ":" << matrix.nnz();
        for (std::size_t v = 0; v < matrix.values.size(); v += 7)
            out << "," << hex(matrix.values[v]);
        for (std::size_t s = 0; s < matrix.selectors.size(); s += 13)
            out << ";" << int(matrix.selectors[s]);
        return out.str();
    };
    expectCacheIdentity(
            seeds.size(),
            [&](std::size_t i) {
                Rng rng(seeds[i]);
                return record(sparse::generateStructured(rng, 16, 64, 2,
                                                         4));
            },
            [&](std::size_t i) {
                return record(*workloads::cachedStructured(16, 64, 2, 4,
                                                           seeds[i]));
            });
}

TEST(CacheDifferential, FigureStyleTableIsByteIdentical)
{
    // The whole rendered table — what the figure benches actually print
    // — must be byte-identical across {cache on, off} x {1, 2, 4
    // threads}, mirroring bench/fig18_mergers.cpp's reduction.
    GlobalCacheSandbox sandbox;
    auto &cache = workloads::Cache::global();
    const std::vector<const char *> names = {"poisson3Da", "wiki-Vote",
                                             "email-Enron"};
    sim::MergerConfig config;
    auto table_at = [&](std::size_t threads) {
        struct Point
        {
            sim::MergerResult row, flat;
        };
        auto points = sim::runMany(
                names.size(), threads, [&](std::size_t i) {
                    auto profile = sparse::scaleProfile(
                            sparse::profileByName(names[i]), 6000);
                    auto partials =
                            workloads::cachedOuterPartials(profile, 2);
                    Point point;
                    point.row = sim::runMergeSchedule(
                            config, sim::MergerKind::RowPartitioned,
                            *partials);
                    point.flat = sim::runMergeSchedule(
                            config, sim::MergerKind::Flattened, *partials);
                    return point;
                });
        std::ostringstream out;
        int row_wins = 0;
        for (std::size_t i = 0; i < names.size(); i++) {
            double ratio = points[i].row.elementsPerCycle() /
                           points[i].flat.elementsPerCycle();
            if (ratio > 1.0)
                row_wins++;
            out << names[i] << " "
                << hex(points[i].row.elementsPerCycle()) << " "
                << hex(points[i].flat.elementsPerCycle()) << " "
                << hex(ratio) << "\n";
        }
        out << "row wins " << row_wins << "\n";
        return out.str();
    };
    cache.setEnabled(false);
    const std::string baseline = table_at(1);
    for (bool on : {true, false}) {
        cache.setEnabled(on);
        cache.reset();
        for (std::size_t threads :
             {std::size_t(1), std::size_t(2), std::size_t(4)}) {
            SCOPED_TRACE("cache=" + std::string(on ? "on" : "off") +
                         " threads=" + std::to_string(threads));
            EXPECT_EQ(table_at(threads), baseline);
        }
    }
}

// ---------------------------------------------------------------------
// Key canonicalization: distinct params never collide, equal params
// always hit

TEST(CacheKey, CanonicalFormListsKindSeedAndParamsInOrder)
{
    workloads::WorkloadKey key("suitesparse", 7);
    key.set("name", std::string("wiki-Vote"));
    key.set("rows", std::int64_t(8297));
    key.set("pattern", 2);
    key.set("rowSkew", 1.5);
    std::string canonical = key.canonical();
    EXPECT_EQ(canonical.rfind("suitesparse|seed=7|", 0), 0u) << canonical;
    EXPECT_NE(canonical.find("|name=wiki-Vote"), std::string::npos);
    EXPECT_NE(canonical.find("|rows=8297"), std::string::npos);
    EXPECT_NE(canonical.find("|pattern=2"), std::string::npos);
    // Doubles render hexfloat: exact, locale-free.
    EXPECT_NE(canonical.find("|rowSkew=0x1.8p+0"), std::string::npos)
            << canonical;
    EXPECT_EQ(key.hash(), util::fnv1a(canonical));
}

TEST(CacheKey, OneUlpApartDoublesAreDistinctKeys)
{
    double base = 0.3;
    double bumped = std::nextafter(base, 1.0);
    workloads::WorkloadKey a("gen", 1);
    a.set("density", base);
    workloads::WorkloadKey b("gen", 1);
    b.set("density", bumped);
    EXPECT_NE(a.canonical(), b.canonical());
}

/** A randomized key plus an injective encoding of the tuple it was
 *  built from (length-prefixed, so no separator games can alias). */
struct RandomKey
{
    workloads::WorkloadKey key;
    std::string identity;
};

RandomKey
randomKey(Rng &rng)
{
    static const std::vector<std::string> kinds = {
            "suitesparse", "outer-partials", "structured-nm", "resnet50"};
    static const std::vector<std::string> names = {
            "rows", "cols", "nnz", "keepN", "groupM", "skew", "density"};
    const std::string &kind = kinds[rng.nextBounded(kinds.size())];
    std::uint64_t seed = rng.nextBounded(1000);
    RandomKey out{workloads::WorkloadKey(kind, seed), ""};
    std::ostringstream identity;
    identity << kind.size() << ":" << kind << "/" << seed;
    std::size_t param_count = 1 + rng.nextBounded(3);
    for (std::size_t p = 0; p < param_count; p++) {
        // Distinct names per key: pick a disjoint slice of the table.
        const std::string &name = names[(p * 3 + rng.nextBounded(3)) %
                                        names.size()];
        if (rng.nextBool(0.5)) {
            std::int64_t value = rng.nextRange(-4, 1000);
            out.key.set(name, value);
            identity << "/" << name.size() << ":" << name << "=i" << value;
        } else {
            double value = rng.nextDouble() * 8.0;
            out.key.set(name, value);
            identity << "/" << name.size() << ":" << name << "=d"
                     << hex(value);
        }
    }
    out.identity = identity.str();
    return out;
}

TEST(CacheKey, TenThousandRandomizedKeysNeverCollide)
{
    // Distinct parameter tuples must map to distinct canonical strings
    // (and so distinct cache entries); identical tuples must map to the
    // same one. The `identity` encoding is injective by construction,
    // so the two sets growing in lockstep is exactly "no collisions".
    Rng rng(20240805);
    std::set<std::string> identities;
    std::set<std::string> canonicals;
    for (int k = 0; k < 10000; k++) {
        RandomKey key = randomKey(rng);
        bool fresh_identity = identities.insert(key.identity).second;
        bool fresh_canonical =
                canonicals.insert(key.key.canonical()).second;
        ASSERT_EQ(fresh_identity, fresh_canonical)
                << "key #" << k << " aliased: " << key.key.canonical();
    }
    EXPECT_EQ(identities.size(), canonicals.size());
}

TEST(CacheKey, DistinctKeysGetDistinctEntriesEvenOnShardCollisions)
{
    // Residency is decided on the canonical string, not the hash: even
    // keys that land in the same shard (guaranteed, with 10k keys over
    // 16 shards) must each get their own payload.
    workloads::Cache cache(workloads::Cache::kUnlimitedByteBudget);
    Rng rng(77);
    std::vector<RandomKey> keys;
    std::set<std::string> seen;
    while (keys.size() < 2000) {
        RandomKey key = randomKey(rng);
        if (seen.insert(key.key.canonical()).second)
            keys.push_back(std::move(key));
    }
    auto payload_of = [&](const RandomKey &key) {
        return cache.getOrCreate<std::string>(
                key.key, [&]() { return key.key.canonical(); },
                [](const std::string &s) { return s.size(); });
    };
    for (const auto &key : keys)
        EXPECT_EQ(*payload_of(key), key.key.canonical());
    // Second pass: every lookup hits and still returns its own value.
    workloads::CacheStats before = cache.stats();
    EXPECT_EQ(before.misses, keys.size());
    for (const auto &key : keys)
        EXPECT_EQ(*payload_of(key), key.key.canonical());
    workloads::CacheStats after = cache.stats();
    EXPECT_EQ(after.hits, before.hits + keys.size());
    EXPECT_EQ(after.misses, before.misses);
}

TEST(CacheKey, SameParamsAlwaysHitWithPointerEquality)
{
    workloads::Cache cache(workloads::Cache::kUnlimitedByteBudget);
    auto build = []() {
        workloads::WorkloadKey key("suitesparse", 3);
        key.set("name", std::string("poisson3Da"));
        key.set("nnz", std::int64_t(12000));
        key.set("skew", 1.25);
        return key;
    };
    auto first = cache.getOrCreate<int>(
            build(), []() { return 42; }, [](int) { return 4; });
    auto second = cache.getOrCreate<int>(
            build(), []() { return 43; }, [](int) { return 4; });
    EXPECT_EQ(first.get(), second.get()) << "same params must hit";
    EXPECT_EQ(*second, 42) << "the hit must return the first payload";
    workloads::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.lookups, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

// ---------------------------------------------------------------------
// Eviction and concurrency

TEST(CacheEviction, HeldPayloadsSurviveEviction)
{
    // ~1 KiB payloads against a 4 KiB budget: the cache must shed
    // entries, but a holder's shared_ptr keeps its payload alive and
    // bit-identical regardless.
    workloads::Cache cache(4096);
    auto make_key = [](int k) {
        workloads::WorkloadKey key("stress", 0);
        key.set("k", k);
        return key;
    };
    auto make_payload = [](int k) {
        std::vector<std::int64_t> payload(128);
        for (std::size_t i = 0; i < payload.size(); i++)
            payload[i] = std::int64_t(k) * 1000 + std::int64_t(i);
        return payload;
    };
    auto get = [&](int k) {
        return cache.getOrCreate<std::vector<std::int64_t>>(
                make_key(k), [&]() { return make_payload(k); },
                [](const std::vector<std::int64_t> &p) {
                    return p.size() * sizeof(std::int64_t);
                });
    };
    auto held = get(0);
    for (int k = 1; k <= 64; k++)
        get(k);
    workloads::CacheStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
    ASSERT_EQ(held->size(), 128u);
    EXPECT_EQ(*held, make_payload(0))
            << "eviction must only drop the cache's reference";
}

TEST(CacheEviction, InsertUnderImpossibleBudgetStillServesThePayload)
{
    // A budget smaller than any payload: every insert immediately
    // overflows, but the just-inserted entry is never the victim, so
    // the caller always gets a valid payload back.
    workloads::Cache cache(16);
    for (int k = 0; k < 8; k++) {
        workloads::WorkloadKey key("tiny", 0);
        key.set("k", k);
        auto payload = cache.getOrCreate<std::string>(
                key, [&]() { return std::string(100, char('a' + k)); },
                [](const std::string &s) { return s.size(); });
        ASSERT_TRUE(payload);
        EXPECT_EQ(*payload, std::string(100, char('a' + k)));
    }
    workloads::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 8u);
}

TEST(CacheEviction, SixtyKNnzEvictionCliffIsByteIdentical)
{
    // The BENCH_cache.json cliff: the fig18-scale sweep (outerSpace
    // suite at 60k nnz) overflows a bounded budget and the LRU evicts
    // mid-sweep. Re-synthesized partials must still be bit-identical
    // to the cache-off baseline, at 1, 2 and 4 threads.
    GlobalCacheSandbox sandbox;
    auto &cache = workloads::Cache::global();
    const auto &profiles = sparse::outerSpaceSuite();
    const std::size_t n = profiles.size();
    constexpr std::int64_t kNnz = 60000;
    constexpr std::uint64_t kCliffBudget = 48ull << 20;

    auto digest = [&](std::size_t i) {
        auto partials = workloads::cachedOuterPartials(
                sparse::scaleProfile(profiles[i], kNnz), 1);
        std::uint64_t hash = util::kFnv1aOffset;
        for (const auto &partial : *partials) {
            hash = util::fnv1a(
                    std::string_view(
                            reinterpret_cast<const char *>(
                                    partial.rowIds.data()),
                            partial.rowIds.size() * sizeof(std::int64_t)),
                    hash);
            for (const auto &fiber : partial.rowFibers)
                hash = util::fnv1a(
                        std::string_view(
                                reinterpret_cast<const char *>(
                                        fiber.values.data()),
                                fiber.values.size() * sizeof(double)),
                        hash);
        }
        std::ostringstream out;
        out << profiles[i].name << ":" << std::hex << hash;
        return out.str();
    };

    // Baseline digests with the cache disabled (pure synthesis).
    cache.setEnabled(false);
    std::vector<std::string> baseline = sim::runMany(n, 1, digest);
    cache.setEnabled(true);

    cache.setByteBudget(kCliffBudget);
    for (std::size_t threads :
         {std::size_t(1), std::size_t(2), std::size_t(4)})
        EXPECT_EQ(sim::runMany(n, threads, digest), baseline)
                << threads << " threads";
    workloads::CacheStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u)
            << "the cliff budget must bind at 60k nnz";
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
}

/** One mixed lookup/insert op with payload verification, used by the
 *  stress threads below. */
template <typename ExpectedFn>
void
stressOp(workloads::Cache &cache, int k, const ExpectedFn &expected,
         std::vector<std::shared_ptr<const std::vector<std::int64_t>>>
                 &held,
         std::size_t slot, std::atomic<int> &mismatches)
{
    workloads::WorkloadKey key("stress", 0);
    key.set("k", k);
    auto payload = cache.getOrCreate<std::vector<std::int64_t>>(
            key, [&]() { return expected(k); },
            [](const std::vector<std::int64_t> &p) {
                return p.size() * sizeof(std::int64_t);
            });
    if (!payload || *payload != expected(k))
        mismatches.fetch_add(1);
    held[slot] = payload;
    // Re-check an older held payload: it may have been evicted by now,
    // but the bytes behind the shared_ptr must be untouched.
    std::size_t other = (slot + 1) % held.size();
    if (held[other] && held[other]->size() != 128)
        mismatches.fetch_add(1);
}

TEST(CacheConcurrency, StressKeepsCountersExactAndPayloadsStable)
{
    // 8 threads x 5k mixed lookups/inserts against a budget small
    // enough to force continuous eviction. Exactness of the counters
    // (hits + misses == lookups) and payload integrity while held are
    // the assertions; TSan (scripts/check_matrix.sh) supplies the
    // data-race leg when this runs under the `concurrency` ctest label.
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 5000;
    constexpr int kKeySpace = 48;
    workloads::Cache cache(32 * 1024);
    auto expected_payload = [](int k) {
        std::vector<std::int64_t> payload(128);
        for (std::size_t i = 0; i < payload.size(); i++)
            payload[i] = std::int64_t(k) * 7919 + std::int64_t(i);
        return payload;
    };
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t]() {
            Rng rng(std::uint64_t(t) + 1);
            // A small ring of held pointers keeps some payloads alive
            // across their own eviction, exercising pointer stability.
            std::vector<std::shared_ptr<const std::vector<std::int64_t>>>
                    held(4);
            for (int op = 0; op < kOpsPerThread; op++) {
                int k = int(rng.nextBounded(kKeySpace));
                stressOp(cache, k, expected_payload, held,
                         std::size_t(op) % held.size(), mismatches);
                if (op % 512 == 0) {
                    workloads::CacheStats snap = cache.stats();
                    if (snap.hits + snap.misses != snap.lookups)
                        mismatches.fetch_add(1);
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(mismatches.load(), 0);
    workloads::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.lookups,
              std::uint64_t(kThreads) * std::uint64_t(kOpsPerThread));
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
    EXPECT_GT(stats.evictions, 0u) << "the budget must have forced "
                                      "eviction";
    EXPECT_GT(stats.entries, 0u);
}

// ---------------------------------------------------------------------
// Watchdog neutrality and runMany interaction

// ---------------------------------------------------------------------
// Negative paths: hostile configuration never corrupts the accounting

TEST(CacheNegative, UnknownWorkloadKindIsJustADistinctKey)
{
    // The cache does not validate `kind`: an unknown or misspelled one
    // synthesizes fine and lives under its own key, never colliding
    // with (or poisoning) a known workload family.
    workloads::Cache cache(workloads::Cache::kUnlimitedByteBudget);
    workloads::WorkloadKey known("suitesparse", 1);
    workloads::WorkloadKey unknown("no-such-kind", 1);

    auto a = cache.getOrCreate<int>(
            known, []() { return 10; }, [](int) { return 4; });
    auto b = cache.getOrCreate<int>(
            unknown, []() { return 20; }, [](int) { return 4; });
    EXPECT_EQ(*a, 10);
    EXPECT_EQ(*b, 20);
    EXPECT_NE(known.canonical(), unknown.canonical());

    // Both entries are resident and re-lookups hit the right payloads.
    auto a2 = cache.getOrCreate<int>(
            known, []() { return -1; }, [](int) { return 4; });
    auto b2 = cache.getOrCreate<int>(
            unknown, []() { return -1; }, [](int) { return 4; });
    EXPECT_EQ(a2.get(), a.get());
    EXPECT_EQ(b2.get(), b.get());
    workloads::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.lookups, 4u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.entries, 2u);
}

TEST(CacheNegative, ZeroByteBudgetCountsEveryLookupAsAMiss)
{
    // Budget 0 is the degenerate zero-residency configuration: unlike
    // setEnabled(false) the counters still run, so every lookup is a
    // counted miss, nothing is ever resident, and synthesis runs every
    // single time.
    workloads::Cache cache(0);
    workloads::WorkloadKey key("suitesparse", 1);
    int synthesized = 0;
    for (int i = 0; i < 5; i++) {
        auto payload = cache.getOrCreate<int>(
                key,
                [&]() {
                    synthesized++;
                    return 42;
                },
                [](int) { return 4; });
        ASSERT_TRUE(payload);
        EXPECT_EQ(*payload, 42);
    }
    EXPECT_EQ(synthesized, 5);
    workloads::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.lookups, 5u);
    EXPECT_EQ(stats.misses, 5u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.bytes, 0u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(CacheNegative, DroppingTheBudgetToZeroEvictsAndStopsResidency)
{
    workloads::Cache cache(workloads::Cache::kUnlimitedByteBudget);
    workloads::WorkloadKey key("resident", 0);
    auto first = cache.getOrCreate<int>(
            key, []() { return 1; }, [](int) { return 4; });
    EXPECT_EQ(cache.stats().entries, 1u);

    cache.setByteBudget(0);
    EXPECT_EQ(cache.stats().entries, 0u);
    // The held payload survives (shared_ptr semantics)...
    EXPECT_EQ(*first, 1);
    // ...and new lookups go back to counted misses.
    auto second = cache.getOrCreate<int>(
            key, []() { return 2; }, [](int) { return 4; });
    EXPECT_EQ(*second, 2);
    EXPECT_NE(second.get(), first.get());
}

TEST(CacheNegative, EnvSwitchOnlyDisablesOnExactZero)
{
    // STELLAR_WORKLOAD_CACHE parsing must degrade safely: garbage never
    // crashes and never silently disables a cache the user meant to
    // keep. Only the exact string "0" disables.
    EXPECT_TRUE(workloads::cacheEnabledFromEnv(nullptr));
    EXPECT_FALSE(workloads::cacheEnabledFromEnv("0"));
    EXPECT_TRUE(workloads::cacheEnabledFromEnv(""));
    EXPECT_TRUE(workloads::cacheEnabledFromEnv("00"));
    EXPECT_TRUE(workloads::cacheEnabledFromEnv("0 "));
    EXPECT_TRUE(workloads::cacheEnabledFromEnv(" 0"));
    EXPECT_TRUE(workloads::cacheEnabledFromEnv("1"));
    EXPECT_TRUE(workloads::cacheEnabledFromEnv("false"));
    EXPECT_TRUE(workloads::cacheEnabledFromEnv("off"));
    EXPECT_TRUE(workloads::cacheEnabledFromEnv("no"));
    EXPECT_TRUE(workloads::cacheEnabledFromEnv("\t"));
}

TEST(CacheWatchdog, HitMissAndDisabledChargeTheBudgetIdentically)
{
    // The factory below ticks 500 steps — five times the ambient
    // budget. A miss must charge none of it (synthesis runs under
    // WatchdogSuspend), so hit, miss, and disabled paths all leave the
    // per-point accounting at exactly the loop's own 50 steps.
    workloads::Cache cache(workloads::Cache::kUnlimitedByteBudget);
    workloads::WorkloadKey key("ticking", 5);
    key.set("n", 1);
    auto point = [&](bool enabled, bool prewarm) {
        cache.reset();
        cache.setEnabled(enabled);
        if (prewarm)
            cache.getOrCreate<int>(
                    key, []() { return 1; }, [](int) { return 4; });
        util::WatchdogScope scope("point", 100);
        auto payload = cache.getOrCreate<int>(
                key,
                []() {
                    util::watchdogTick(500);
                    return 1;
                },
                [](int) { return 4; });
        EXPECT_EQ(*payload, 1);
        {
            util::WatchdogBatcher dog;
            for (int s = 0; s < 50; s++)
                dog.step([]() { return std::string(); });
        }
        return scope.watchdog().stepsExecuted();
    };
    EXPECT_EQ(point(true, false), 50) << "miss must not charge";
    EXPECT_EQ(point(true, true), 50) << "hit must not charge";
    EXPECT_EQ(point(false, false), 50) << "disabled must not charge";
}

TEST(CacheRunMany, ThrowAfterHitRunsEveryPointAtEveryThreadCount)
{
    // Regression for the serial runMany path: a point that hits the
    // cache and then throws must not skip the remaining points (failure
    // isolation) nor leak charge into the ambient watchdog, serially or
    // pooled.
    GlobalCacheSandbox sandbox;
    auto profile = sparse::scaleProfile(
            sparse::profileByName("poisson3Da"), 3000);
    workloads::cachedSuiteSparse(profile, 9); // prewarm: points all hit
    for (std::size_t threads :
         {std::size_t(1), std::size_t(2), std::size_t(4)}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::atomic<int> points_run{0};
        util::WatchdogScope ambient("sweep", 1000);
        std::string surfaced;
        try {
            sim::runMany(6, threads, [&](std::size_t i) {
                auto matrix = workloads::cachedSuiteSparse(profile, 9);
                util::WatchdogBatcher dog;
                for (int s = 0; s < 40; s++)
                    dog.step([]() { return std::string(); });
                points_run.fetch_add(1);
                if (i == 2)
                    throw std::runtime_error("point 2 failed after hit");
                return matrix->nnz();
            });
        } catch (const std::exception &err) {
            surfaced = err.what();
        }
        EXPECT_EQ(surfaced, "point 2 failed after hit");
        EXPECT_EQ(points_run.load(), 6)
                << "a throwing point must not cancel the others";
        EXPECT_EQ(ambient.watchdog().stepsExecuted(), 0)
                << "per-point clones must refund everything";
    }
}

} // namespace
} // namespace stellar
