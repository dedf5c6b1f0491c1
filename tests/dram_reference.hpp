/**
 * @file
 * Test-only reference for the DMA/DRAM model of sim/dram.hpp.
 *
 * This is the original linear-scan formulation: the DRAM keeps its
 * in-flight completions in a min-heap, and every DMA wave scans all
 * pending pointer loads for the ready one with the smallest arrival
 * cycle. It makes no use of the monotone-completion invariant the
 * production model relies on, so the differential tests in
 * dram_differential_test.cpp compare the two field by field.
 */

#ifndef STELLAR_TESTS_DRAM_REFERENCE_HPP
#define STELLAR_TESTS_DRAM_REFERENCE_HPP

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "sim/dram.hpp"
#include "util/logging.hpp"
#include "util/watchdog.hpp"

namespace stellar::sim::reference
{

/** The heap-based DRAM model. */
class DramModel
{
  public:
    explicit DramModel(DramConfig config) : config_(config) {}

    const DramConfig &config() const { return config_; }

    std::int64_t
    outstanding(std::int64_t now) const
    {
        while (!inflight_.empty() && inflight_.top() <= now)
            inflight_.pop();
        return std::int64_t(inflight_.size());
    }

    bool
    canAccept(std::int64_t now) const
    {
        return outstanding(now) < config_.maxOutstanding;
    }

    std::int64_t
    issue(std::int64_t now, std::int64_t bytes)
    {
        require(bytes > 0, "DRAM request must move at least one byte");
        std::int64_t charged = std::max(bytes, config_.minBurstBytes);
        std::int64_t start = std::max(now, bwCursor_);
        std::int64_t occupancy =
                (charged + config_.bytesPerCycle - 1) / config_.bytesPerCycle;
        bwCursor_ = start + occupancy;
        bytesTransferred_ += bytes;
        std::int64_t completion = bwCursor_ + config_.latency;
        inflight_.push(completion);
        return completion;
    }

    std::int64_t bytesTransferred() const { return bytesTransferred_; }
    std::int64_t bandwidthCursor() const { return bwCursor_; }

  private:
    DramConfig config_;
    std::int64_t bwCursor_ = 0;
    std::int64_t bytesTransferred_ = 0;
    mutable std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                                std::greater<>> inflight_;
};

/** The per-wave DMA loop with a linear scan of the pending pointers.
 *  `waves`, when given, receives the number of simulated waves (one
 *  watchdog step each). */
inline TransferResult
simulateTransfer(const DmaConfig &dma, DramModel &dram,
                 const std::vector<TransferChunk> &chunks,
                 std::int64_t start_cycle = 0,
                 std::int64_t *waves = nullptr)
{
    TransferResult result;
    std::int64_t now = start_cycle;

    struct PendingData
    {
        std::int64_t readyAt;
        std::int64_t bytes;
    };
    std::vector<PendingData> pending;
    std::size_t next_chunk = 0;
    std::int64_t last_completion = start_cycle;

    auto all_done = [&]() {
        return next_chunk >= chunks.size() && pending.empty();
    };

    util::WatchdogBatcher dog;
    while (!all_done()) {
        if (waves)
            ++*waves;
        dog.step([&]() {
            return "dram transfer at cycle " + std::to_string(now) +
                   ", chunk " + std::to_string(next_chunk) + "/" +
                   std::to_string(chunks.size()) + ", " +
                   std::to_string(pending.size()) +
                   " pointer loads pending, " +
                   std::to_string(dram.outstanding(now)) +
                   " requests outstanding";
        });
        int issued_this_cycle = 0;
        bool stalled_on_pointer = false;
        while (issued_this_cycle < dma.reqsPerCycle) {
            if (!dram.canAccept(now))
                break;
            auto ready = pending.end();
            for (auto it = pending.begin(); it != pending.end(); ++it)
                if (it->readyAt <= now &&
                        (ready == pending.end() ||
                         it->readyAt < ready->readyAt)) {
                    ready = it;
                }
            if (ready != pending.end()) {
                std::int64_t done = dram.issue(now, ready->bytes);
                last_completion = std::max(last_completion, done);
                result.requests++;
                result.bytes += ready->bytes;
                pending.erase(ready);
                issued_this_cycle++;
                continue;
            }
            if (next_chunk < chunks.size()) {
                if (chunks[next_chunk].pointerChased &&
                        std::int64_t(pending.size()) >=
                                dma.pointerContexts) {
                    stalled_on_pointer = true;
                    break;
                }
                const auto &chunk = chunks[next_chunk++];
                if (chunk.pointerChased) {
                    std::int64_t ptr_done = dram.issue(now, 8);
                    result.requests++;
                    result.bytes += 8;
                    pending.push_back(PendingData{ptr_done, chunk.bytes});
                } else {
                    std::int64_t done = dram.issue(now, chunk.bytes);
                    last_completion = std::max(last_completion, done);
                    result.requests++;
                    result.bytes += chunk.bytes;
                }
                issued_this_cycle++;
                continue;
            }
            if (!pending.empty())
                stalled_on_pointer = true;
            break;
        }
        if (stalled_on_pointer)
            result.pointerStallCycles++;
        now++;
        if (issued_this_cycle == 0 && !all_done()) {
            std::int64_t skip_to = now;
            if (!pending.empty()) {
                std::int64_t earliest = pending.front().readyAt;
                for (const auto &p : pending)
                    earliest = std::min(earliest, p.readyAt);
                skip_to = std::max(skip_to, std::min(earliest,
                                                     last_completion));
            } else {
                skip_to = std::max(skip_to, dram.bandwidthCursor());
            }
            if (skip_to > now) {
                result.pointerStallCycles +=
                        pending.empty() ? 0 : skip_to - now;
                now = skip_to;
            }
        }
    }
    result.cycles = std::max(last_completion, now) - start_cycle;
    return result;
}

/** The explicit burst vector a contiguous stream of `bytes` moves. */
inline std::vector<TransferChunk>
streamChunks(std::int64_t bytes, std::int64_t burst)
{
    std::vector<TransferChunk> chunks;
    for (std::int64_t off = 0; off < bytes; off += burst) {
        TransferChunk chunk;
        chunk.bytes = std::min(burst, bytes - off);
        chunks.push_back(chunk);
    }
    return chunks;
}

} // namespace stellar::sim::reference

#endif // STELLAR_TESTS_DRAM_REFERENCE_HPP
