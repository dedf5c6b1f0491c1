/**
 * @file
 * DRAM and DMA models (Section VI-C).
 *
 * The DRAM model charges every request a fixed access latency plus
 * bandwidth occupancy, with a bounded number of requests in flight. The
 * DMA issues up to `reqsPerCycle` *new* requests per cycle — the paper's
 * default Stellar DMA issues one, and the scatter-tolerant variant
 * sixteen; pointer-chased transfers (OuterSPACE partial-sum vectors)
 * must load a pointer before the dependent data request can issue, which
 * is exactly the control dependency that bottlenecked the initial
 * Stellar-generated OuterSPACE.
 *
 * Monotone completions: `DramModel::issue` advances the bandwidth cursor
 * to `max(now, cursor) + occupancy` with `occupancy >= 1` (the configs
 * are validated at construction), and a request completes a constant
 * `latency` after the cursor. So on one DramModel every request
 * completes strictly later than every request issued before it, across
 * transfers too. Requests therefore leave the in-flight set in issue
 * order, and a transfer's pointer loads return in the order they were
 * issued: both queues are FIFOs, and each DMA request costs O(1).
 */

#ifndef STELLAR_SIM_DRAM_HPP
#define STELLAR_SIM_DRAM_HPP

#include <cstdint>
#include <deque>
#include <vector>

namespace stellar::sim
{

/** DRAM timing parameters. DramModel rejects a negative latency and
 *  any other field below 1 with a FatalError. */
struct DramConfig
{
    std::int64_t latency = 100;        //!< cycles from issue to data
    std::int64_t bytesPerCycle = 32;   //!< sustained bandwidth
    std::int64_t maxOutstanding = 64;  //!< in-flight request cap
    std::int64_t minBurstBytes = 64;   //!< a short read still burns a burst
};

/** A latency/bandwidth/occupancy DRAM model. */
class DramModel
{
  public:
    explicit DramModel(DramConfig config);

    const DramConfig &config() const { return config_; }

    /**
     * Requests in flight at cycle `now`. Exact only for non-decreasing
     * `now` across calls: the query retires every request completed by
     * `now` for good, so a later query at an earlier cycle undercounts
     * (it cannot see requests that completed in between). The DMA
     * simulators only ever query forward in time.
     */
    std::int64_t outstanding(std::int64_t now) const;

    bool canAccept(std::int64_t now) const;

    /**
     * Issue a request at cycle `now`; returns its completion cycle.
     * Bandwidth is charged for at least one burst.
     */
    std::int64_t issue(std::int64_t now, std::int64_t bytes);

    /** Total bytes transferred so far. */
    std::int64_t bytesTransferred() const { return bytesTransferred_; }

    /** Earliest cycle at which new bandwidth is available. */
    std::int64_t bandwidthCursor() const { return bwCursor_; }

  private:
    DramConfig config_;
    std::int64_t bwCursor_ = 0;
    std::int64_t bytesTransferred_ = 0;
    /** Completion cycles of the requests in flight, in issue order —
     *  which is ascending order (see the file comment). */
    mutable std::deque<std::int64_t> inflight_;
};

/** DMA issue-rate configuration. A transfer rejects either field below
 *  1 with a FatalError. The in-flight request cap is the DRAM's,
 *  DramConfig::maxOutstanding. */
struct DmaConfig
{
    int reqsPerCycle = 1;  //!< new independent requests per cycle

    /**
     * In-flight pointer-load contexts: how many pointer-chased transfers
     * the DMA can track between issuing a pointer load and issuing its
     * dependent data request. The paper's default DMA tracks few; the
     * 16-requests-per-cycle variant tracks 16x as many "independent"
     * requests, which is what recovers memory-level parallelism for
     * scattered accesses (Section VI-C).
     */
    int pointerContexts = 10;

    /** A DMA issuing R requests/cycle with proportional contexts. */
    static DmaConfig
    withRate(int reqs_per_cycle)
    {
        DmaConfig config;
        config.reqsPerCycle = reqs_per_cycle;
        config.pointerContexts = 10 * reqs_per_cycle;
        return config;
    }
};

/** One DMA transfer chunk. */
struct TransferChunk
{
    std::int64_t bytes = 0;

    /** Pointer-chased: an 8-byte pointer load must complete before the
     *  data request can issue. */
    bool pointerChased = false;
};

/** Result of a simulated DMA transfer. */
struct TransferResult
{
    std::int64_t cycles = 0;
    std::int64_t requests = 0;
    std::int64_t bytes = 0;
    std::int64_t pointerStallCycles = 0;
};

/**
 * Cycle-accurate simulation of a DMA moving the given chunks through
 * DRAM. Chunks are independent of each other; within a pointer-chased
 * chunk the data request depends on its pointer load.
 */
TransferResult simulateTransfer(const DmaConfig &dma, DramModel &dram,
                                const std::vector<TransferChunk> &chunks,
                                std::int64_t start_cycle = 0);

/**
 * A contiguous streaming transfer of `bytes` in `minBurstBytes` bursts
 * (the last one may be short): exactly simulateTransfer over those
 * bursts, made one at a time instead of as a chunk vector.
 */
TransferResult simulateStream(const DmaConfig &dma, DramModel &dram,
                              std::int64_t bytes,
                              std::int64_t start_cycle = 0);

} // namespace stellar::sim

#endif // STELLAR_SIM_DRAM_HPP
