/**
 * @file
 * Generic sharded, byte-budgeted memoization substrate.
 *
 * MemoCache maps canonical string keys to immutable, type-erased
 * payloads (`shared_ptr<const void>`). It is the storage layer under
 * workloads::Cache; the typed layer owns key construction and payload
 * sizing, this layer owns concurrency, statistics, and eviction.
 *
 * Concurrency: the key's FNV-1a hash selects one of kShardCount
 * independent shards, each a mutex + LRU list + hash map, so parallel
 * sweep workers touching different workloads rarely contend. A lookup
 * or insert holds exactly one shard mutex and never calls user code
 * under it (payload factories run in the caller, outside any lock).
 *
 * Eviction: each shard owns an equal slice of the byte budget and
 * evicts least-recently-used entries when an insert pushes it over.
 * The entry being inserted is never evicted by its own insert (a
 * single over-budget payload stays resident until something displaces
 * it). Eviction drops only the cache's reference — outstanding
 * shared_ptr holders keep the payload alive, so pointers obtained from
 * lookup are stable for as long as the caller holds them.
 *
 * Collisions: the hash only picks the shard; the shard map is keyed by
 * the full canonical string, so two distinct keys can never alias.
 */

#ifndef STELLAR_UTIL_MEMO_HPP
#define STELLAR_UTIL_MEMO_HPP

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace stellar::util
{

/** FNV-1a 64-bit constants (same scheme as the RTL golden hashes). */
inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/** FNV-1a 64-bit hash of a byte string. */
inline std::uint64_t
fnv1a(std::string_view text, std::uint64_t hash = kFnv1aOffset)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= kFnv1aPrime;
    }
    return hash;
}

/** Aggregate counters across every shard. hits + misses == lookups. */
struct MemoStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;   //!< resident payload bytes
    std::uint64_t entries = 0; //!< resident entry count
};

class MemoCache
{
  public:
    static constexpr std::size_t kShardCount = 16;

    /** `byte_budget` of 0 means unlimited. */
    explicit MemoCache(std::uint64_t byte_budget = 0)
    {
        setByteBudget(byte_budget);
    }

    MemoCache(const MemoCache &) = delete;
    MemoCache &operator=(const MemoCache &) = delete;

    /** Split `byte_budget` evenly across shards; 0 disables eviction.
     *  Existing entries are re-evicted lazily on the next inserts. */
    void
    setByteBudget(std::uint64_t byte_budget)
    {
        std::uint64_t per_shard =
                byte_budget == 0 ? 0
                                 : std::max<std::uint64_t>(
                                           1, byte_budget / kShardCount);
        for (auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            shard.byteBudget = per_shard;
        }
    }

    /**
     * Find `key` (whose FNV-1a hash is `hash`); returns the payload and
     * marks the entry most-recently-used, or nullptr on a miss. Exactly
     * one of hits/misses is incremented per call, under the same lock
     * as the lookup, so hits + misses == lookups at every snapshot.
     */
    std::shared_ptr<const void>
    lookup(const std::string &key, std::uint64_t hash)
    {
        Shard &shard = shardFor(hash);
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.lookups++;
        auto it = shard.map.find(key);
        if (it == shard.map.end()) {
            shard.misses++;
            return nullptr;
        }
        shard.hits++;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return it->second->payload;
    }

    /**
     * Insert `key` -> `payload` (`bytes` is the payload's resident
     * size) and evict LRU entries past the shard budget. If the key is
     * already resident — two threads missed and synthesized
     * concurrently — the incumbent wins and is returned, so every
     * caller shares one payload. Returns the resident payload.
     */
    std::shared_ptr<const void>
    insert(const std::string &key, std::uint64_t hash,
           std::shared_ptr<const void> payload, std::uint64_t bytes)
    {
        Shard &shard = shardFor(hash);
        // Declared before the lock, so the cache's last references to
        // evicted payloads drop (and the payloads free) after unlock.
        std::vector<std::shared_ptr<const void>> evicted;
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            return it->second->payload;
        }
        shard.lru.push_front(Entry{key, std::move(payload), bytes});
        shard.map.emplace(key, shard.lru.begin());
        shard.bytes += bytes;
        shard.inserts++;
        while (shard.byteBudget > 0 && shard.bytes > shard.byteBudget &&
               shard.lru.size() > 1) {
            Entry &victim = shard.lru.back();
            shard.bytes -= victim.bytes;
            shard.map.erase(victim.key);
            evicted.push_back(std::move(victim.payload));
            shard.lru.pop_back();
            shard.evictions++;
        }
        return shard.lru.front().payload;
    }

    /** Drop every entry (counters are kept). */
    void
    clear()
    {
        for (auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            shard.bytes = 0;
            shard.map.clear();
            shard.lru.clear();
        }
    }

    /** Reset counters *and* contents (for test isolation). */
    void
    reset()
    {
        for (auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            shard.bytes = 0;
            shard.map.clear();
            shard.lru.clear();
            shard.lookups = shard.hits = shard.misses = 0;
            shard.inserts = shard.evictions = 0;
        }
    }

    /**
     * Visit every resident entry as fn(key, payload, bytes). Shards are
     * walked in index order and each shard least-recently-used first,
     * so re-inserting a snapshot in visit order reproduces the LRU
     * recency it was taken from. Each shard's mutex is held across its
     * entries; `fn` must not call back into the cache.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            for (auto it = shard.lru.rbegin(); it != shard.lru.rend();
                 ++it)
                fn(it->key, it->payload, it->bytes);
        }
    }

    MemoStats
    stats() const
    {
        MemoStats total;
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            total.lookups += shard.lookups;
            total.hits += shard.hits;
            total.misses += shard.misses;
            total.inserts += shard.inserts;
            total.evictions += shard.evictions;
            total.bytes += shard.bytes;
            total.entries += shard.lru.size();
        }
        return total;
    }

  private:
    struct Entry
    {
        std::string key;
        std::shared_ptr<const void> payload;
        std::uint64_t bytes = 0;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::list<Entry> lru; //!< front = most recently used
        std::unordered_map<std::string, std::list<Entry>::iterator> map;
        std::uint64_t byteBudget = 0;
        std::uint64_t bytes = 0;
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t inserts = 0;
        std::uint64_t evictions = 0;
    };

    Shard &
    shardFor(std::uint64_t hash)
    {
        return shards_[hash % kShardCount];
    }

    Shard shards_[kShardCount];
};

} // namespace stellar::util

#endif // STELLAR_UTIL_MEMO_HPP
