/**
 * @file
 * Process-wide memoization of synthesized workloads.
 *
 * Every figure/ablation bench and sim::runMany sweep feeds the same
 * synthesized inputs (SuiteSparse-profile CSR matrices, outer-product
 * partials, N:M structured tensors, DNN layer tables) to many design
 * points; before this cache each point re-synthesized them from
 * scratch. workloads::Cache memoizes the synthesis behind a canonical
 * WorkloadKey so a sweep pays for each distinct workload once,
 * regardless of thread count or sweep width.
 *
 * Contract (held by tests/cache_test.cpp):
 *  - *identity*: generators are deterministic per (parameters, seed),
 *    so a cached payload is byte-identical to a fresh synthesis, and
 *    every converted bench prints byte-identical output with the cache
 *    on, off (`STELLAR_WORKLOAD_CACHE=0` / `--no-cache`), and at any
 *    thread count;
 *  - *no aliasing*: keys collide only if their canonical strings are
 *    equal — the FNV-1a hash only picks a shard (util/memo.hpp);
 *  - *pointer stability*: payloads are immutable `shared_ptr<const T>`;
 *    eviction drops the cache's reference only, never a holder's;
 *  - *watchdog neutrality*: a miss synthesizes under WatchdogSuspend,
 *    so ambient per-point budgets charge identically on hit, miss, and
 *    disabled paths.
 *
 * Fault checkpoints `cache.lookup` / `cache.insert` let the injection
 * harness exercise miss and eviction races.
 */

#ifndef STELLAR_WORKLOADS_CACHE_HPP
#define STELLAR_WORKLOADS_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/scnn.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/structured.hpp"
#include "sparse/suitesparse.hpp"
#include "util/fault_inject.hpp"
#include "util/memo.hpp"
#include "util/watchdog.hpp"
#include "workloads/resnet.hpp"

namespace stellar::workloads
{

/**
 * Canonical identity of one synthesized workload: generator kind, every
 * shape/density parameter in builder order, and the seed. Doubles are
 * rendered hexfloat so distinct values never round together. Names and
 * string values must not contain '|' or '=' (the canonical-form
 * separators); the generators' fixed parameter names and profile names
 * satisfy this by construction.
 */
struct WorkloadKey
{
    std::string kind;
    std::vector<std::pair<std::string, std::string>> params;
    std::uint64_t seed = 0;

    explicit WorkloadKey(std::string kind_name, std::uint64_t seed_ = 0)
        : kind(std::move(kind_name)), seed(seed_)
    {
    }

    WorkloadKey &set(const std::string &name, const std::string &value);
    WorkloadKey &set(const std::string &name, std::int64_t value);
    WorkloadKey &set(const std::string &name, int value);
    WorkloadKey &set(const std::string &name, double value);

    /** The full cache key: kind, seed, then `name=value` pairs. */
    std::string canonical() const;

    /** FNV-1a 64 of canonical() (shard selection + diagnostics). */
    std::uint64_t hash() const;
};

/** Snapshot of cache counters. hits + misses == lookups always. */
struct CacheStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;
    std::uint64_t entries = 0;


    double
    hitRate() const
    {
        return lookups == 0 ? 0.0 : double(hits) / double(lookups);
    }
};

/**
 * The memoization layer. Use Cache::global() (shared across every
 * sweep in the process); standalone instances exist for tests.
 */
class Cache
{
  public:
    /** Default byte budget: generous for the reproduction sweeps but
     *  bounded, so long-lived processes cannot grow without limit. */
    static constexpr std::uint64_t kDefaultByteBudget = 256ull << 20;

    /** Budget value meaning "never evict". */
    static constexpr std::uint64_t kUnlimitedByteBudget = ~0ull;

    /**
     * A zero byte budget is a real (degenerate) configuration: nothing
     * is ever resident, every lookup is a counted miss, and every call
     * synthesizes privately — unlike setEnabled(false), the counters
     * still run, so tests can assert lookups == misses exactly.
     */
    explicit Cache(std::uint64_t byte_budget = kDefaultByteBudget)
        : memo_(byte_budget == kUnlimitedByteBudget ? 0 : byte_budget),
          zeroBudget_(byte_budget == 0)
    {
    }

    /** The process-wide instance. Honors STELLAR_WORKLOAD_CACHE=0. */
    static Cache &global();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Change the byte budget. 0 switches to the zero-residency mode
     *  (and drops current contents); kUnlimitedByteBudget disables
     *  eviction. */
    void
    setByteBudget(std::uint64_t bytes)
    {
        zeroBudget_.store(bytes == 0, std::memory_order_relaxed);
        memo_.setByteBudget(bytes == kUnlimitedByteBudget ? 0 : bytes);
        if (bytes == 0)
            memo_.clear();
    }

    void clear() { memo_.clear(); }

    /** Clear contents *and* counters (test isolation). */
    void reset() { memo_.reset(); }

    CacheStats
    stats() const
    {
        util::MemoStats m = memo_.stats();
        CacheStats s;
        s.lookups = m.lookups;
        s.hits = m.hits;
        s.misses = m.misses;
        s.evictions = m.evictions;
        s.bytes = m.bytes;
        s.entries = m.entries;
        return s;
    }

    /**
     * Return the cached payload for `key`, or synthesize it with
     * `make` (sized by `bytes_of`) and share it. With the cache
     * disabled every call synthesizes privately. The factory runs
     * outside all cache locks and under WatchdogSuspend.
     */
    template <typename T, typename MakeFn, typename BytesFn>
    std::shared_ptr<const T>
    getOrCreate(const WorkloadKey &key, MakeFn &&make, BytesFn &&bytes_of)
    {
        if (!enabled()) {
            util::WatchdogSuspend suspend;
            return std::make_shared<T>(make());
        }
        const std::string canonical = key.canonical();
        const std::uint64_t hash = util::fnv1a(canonical);
        util::fault::checkpoint("cache.lookup");
        if (auto resident = memo_.lookup(canonical, hash))
            return std::static_pointer_cast<const T>(resident);
        std::shared_ptr<T> made;
        {
            // The miss synthesizes on behalf of every future consumer;
            // which sweep point misses first depends on the schedule,
            // so the ambient per-point budget is charged for none of it.
            util::WatchdogSuspend suspend;
            made = std::make_shared<T>(make());
        }
        if (zeroBudget_.load(std::memory_order_relaxed))
            return made; // zero residency: counted miss, never inserted
        util::fault::checkpoint("cache.insert");
        auto resident = memo_.insert(canonical, hash,
                                     std::shared_ptr<const void>(made),
                                     bytes_of(*made));
        return std::static_pointer_cast<const T>(resident);
    }

  private:
    util::MemoCache memo_;
    std::atomic<bool> enabled_{true};
    std::atomic<bool> zeroBudget_{false};
};

/**
 * Decide cache enablement from a STELLAR_WORKLOAD_CACHE value. Only the
 * exact string "0" disables; nullptr (unset) and any other value —
 * including garbage like "", "00", "false", "off" — leave the cache
 * enabled, so a typo degrades to the safe default instead of silently
 * changing sweep behavior.
 */
bool cacheEnabledFromEnv(const char *value);

/** Key for a SuiteSparse-profile synthesis (all profile fields + seed). */
WorkloadKey suiteSparseKey(const sparse::MatrixProfile &profile,
                           std::uint64_t seed);

/** synthesize(profile, seed), memoized. */
std::shared_ptr<const sparse::CsrMatrix>
cachedSuiteSparse(const sparse::MatrixProfile &profile, std::uint64_t seed);

/** outerProductPartials(csrToCsc(m), m) of the synthesized matrix,
 *  memoized (the matrix itself is cached as its own entry). */
std::shared_ptr<const std::vector<sparse::PartialMatrix>>
cachedOuterPartials(const sparse::MatrixProfile &profile,
                    std::uint64_t seed);

/** generateStructured over a fresh Rng(seed), memoized. */
std::shared_ptr<const sparse::StructuredMatrix>
cachedStructured(std::int64_t rows, std::int64_t cols, int keep_n,
                 int group_m, std::uint64_t seed);

/** The pruned-AlexNet conv layer table (Fig 15 workload), memoized. */
std::shared_ptr<const std::vector<sim::ScnnLayer>> cachedAlexnetLayers();

/** ResNet50 matmul layers, full or representative subset, memoized. */
std::shared_ptr<const std::vector<MatmulLayer>>
cachedResnetLayers(bool representative);

/** One dseStatsReport-style summary line (no trailing newline). */
std::string cacheStatsReport(const CacheStats &stats);

/** The same counters as a compact JSON object (the serve daemon's
 *  stats endpoint embeds this). */
std::string cacheStatsJson(const CacheStats &stats);

} // namespace stellar::workloads

#endif // STELLAR_WORKLOADS_CACHE_HPP
