/**
 * @file
 * Differential tests: the FIFO DMA/DRAM model of sim/dram.hpp against
 * the linear-scan, heap-based reference in dram_reference.hpp, over
 * seeded random transfers. Every TransferResult field, the DRAM's byte
 * count, bandwidth cursor and in-flight count, the watchdog step count
 * and the expiry dump must match exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dram_reference.hpp"
#include "sim/dram.hpp"
#include "util/failure.hpp"
#include "util/rng.hpp"
#include "util/watchdog.hpp"

namespace stellar::sim
{
namespace
{

struct Case
{
    DmaConfig dma;
    DramConfig dram;
    std::vector<TransferChunk> first;
    std::vector<TransferChunk> second; //!< reuses the DRAM when non-empty
    std::int64_t firstStart = 0;
    std::int64_t secondStart = 0;
};

std::string
describe(const Case &c)
{
    return "rate " + std::to_string(c.dma.reqsPerCycle) + " contexts " +
           std::to_string(c.dma.pointerContexts) + ", latency " +
           std::to_string(c.dram.latency) + " B/cycle " +
           std::to_string(c.dram.bytesPerCycle) + " cap " +
           std::to_string(c.dram.maxOutstanding) + " burst " +
           std::to_string(c.dram.minBurstBytes) + ", chunks " +
           std::to_string(c.first.size()) + "+" +
           std::to_string(c.second.size()) + ", start " +
           std::to_string(c.firstStart);
}

/** Chunks mixing pointer-chased and contiguous, with sizes below, at and
 *  above the burst. */
std::vector<TransferChunk>
randomChunks(Rng &rng, std::int64_t burst)
{
    std::vector<TransferChunk> chunks(std::size_t(rng.nextRange(0, 300)));
    const double chased = rng.nextDouble();
    for (auto &chunk : chunks) {
        switch (rng.nextBounded(5)) {
          case 0: chunk.bytes = 1; break;
          case 1: chunk.bytes = std::max<std::int64_t>(1, burst - 1); break;
          case 2: chunk.bytes = burst; break;
          case 3: chunk.bytes = burst + 1; break;
          default: chunk.bytes = rng.nextRange(1, 4 * burst); break;
        }
        chunk.pointerChased = rng.nextBool(chased);
    }
    return chunks;
}

Case
randomCase(Rng &rng)
{
    static const int rates[] = {1, 2, 4, 8, 16};
    static const std::int64_t bursts[] = {1, 8, 32, 64, 100, 128};
    Case c;
    c.dma = DmaConfig::withRate(rates[rng.nextBounded(5)]);
    if (rng.nextBool(0.3))
        c.dma.pointerContexts = int(rng.nextRange(1, 40));
    c.dram.latency = rng.nextRange(0, 200);
    c.dram.bytesPerCycle = rng.nextRange(1, 64);
    c.dram.maxOutstanding = rng.nextRange(1, 128);
    c.dram.minBurstBytes = bursts[rng.nextBounded(6)];
    c.first = randomChunks(rng, c.dram.minBurstBytes);
    if (rng.nextBool(0.5))
        c.firstStart = rng.nextRange(1, 5000);
    if (rng.nextBool(0.4)) {
        c.second = randomChunks(rng, c.dram.minBurstBytes);
        // Chained after the first (as OuterSPACE's multiply phase does)
        // or started behind the DRAM's bandwidth cursor.
        c.secondStart = rng.nextBool(0.5) ? rng.nextRange(0, 100) : -1;
    }
    return c;
}

void
expectSameResult(const TransferResult &got, const TransferResult &want,
                 const std::string &what)
{
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.requests, want.requests) << what;
    EXPECT_EQ(got.bytes, want.bytes) << what;
    EXPECT_EQ(got.pointerStallCycles, want.pointerStallCycles) << what;
}

/** Run both transfers of `c` on both models; compare every observable. */
void
expectMatchesReference(const Case &c)
{
    const std::string what = describe(c);
    DramModel dram(c.dram);
    reference::DramModel ref_dram(c.dram);
    std::int64_t end = 0;

    auto run = [&](const std::vector<TransferChunk> &chunks,
                   std::int64_t start) {
        util::WatchdogScope scope("dram", std::int64_t(1) << 40);
        auto got = simulateTransfer(c.dma, dram, chunks, start);
        const std::int64_t steps = scope.watchdog().stepsExecuted();
        std::int64_t waves = 0;
        auto want = reference::simulateTransfer(c.dma, ref_dram, chunks,
                                                start, &waves);
        expectSameResult(got, want, what);
        EXPECT_EQ(steps, waves) << what;
        EXPECT_EQ(dram.bytesTransferred(), ref_dram.bytesTransferred())
                << what;
        EXPECT_EQ(dram.bandwidthCursor(), ref_dram.bandwidthCursor())
                << what;
        end = start + got.cycles;
    };
    run(c.first, c.firstStart);
    if (!c.second.empty())
        run(c.second, c.secondStart < 0 ? end : c.secondStart);

    // outstanding() retires as it goes, so probe in ascending order.
    for (std::int64_t t : {end - c.dram.latency - 1, end - c.dram.latency,
                           end - 1, end, end + 1}) {
        EXPECT_EQ(dram.outstanding(t), ref_dram.outstanding(t))
                << what << " at cycle " << t;
    }
}

TEST(DramDifferential, RandomTransfersMatchTheReference)
{
    Rng rng(0xd7a3);
    for (int i = 0; i < 400; i++) {
        Case c = randomCase(rng);
        SCOPED_TRACE("case " + std::to_string(i));
        expectMatchesReference(c);
    }
}

TEST(DramDifferential, EveryDmaRateOnAFixedMix)
{
    for (int rate : {1, 2, 4, 8, 16}) {
        for (int contexts : {0, 1, 3}) {
            Case c;
            c.dma = DmaConfig::withRate(rate);
            if (contexts > 0)
                c.dma.pointerContexts = contexts;
            for (int k = 0; k < 500; k++)
                c.first.push_back(
                        TransferChunk{1 + 13 * (k % 11), k % 3 != 0});
            c.firstStart = 777;
            c.second = c.first;
            c.secondStart = -1;
            SCOPED_TRACE(describe(c));
            expectMatchesReference(c);
        }
    }
}

TEST(DramDifferential, ExpiryDumpMatchesTheReference)
{
    // Expire both loops at the same wave: the TimeoutError carries the
    // same step and the same queue dump, including the live pending
    // pointer count.
    Rng rng(0x5eed);
    int expired = 0;
    for (int i = 0; i < 60; i++) {
        Case c = randomCase(rng);
        std::int64_t waves = 0;
        {
            reference::DramModel ref_dram(c.dram);
            reference::simulateTransfer(c.dma, ref_dram, c.first,
                                        c.firstStart, &waves);
        }
        if (waves < 4)
            continue;
        const std::int64_t budget = waves / 2;
        auto dump = [&](auto &&transfer) {
            util::WatchdogScope scope("dram", budget);
            try {
                transfer();
            } catch (const util::TimeoutError &err) {
                return err.diagnostic() + " @" +
                       std::to_string(err.steps());
            }
            return std::string("budget never expired");
        };
        DramModel dram(c.dram);
        reference::DramModel ref_dram(c.dram);
        std::string got = dump([&]() {
            simulateTransfer(c.dma, dram, c.first, c.firstStart);
        });
        std::string want = dump([&]() {
            reference::simulateTransfer(c.dma, ref_dram, c.first,
                                        c.firstStart);
        });
        EXPECT_EQ(got, want) << describe(c);
        EXPECT_NE(want.find("pointer loads pending"), std::string::npos);
        expired++;
    }
    EXPECT_GT(expired, 30);
}

TEST(DramDifferential, StreamEqualsTheExplicitBurstVector)
{
    for (std::int64_t burst : {1, 64, 100}) {
        for (std::int64_t bytes :
             {std::int64_t(0), std::int64_t(1), burst, 37 * burst + 1}) {
            for (int rate : {1, 16}) {
                DramConfig config;
                config.minBurstBytes = burst;
                config.latency = 50;
                DmaConfig dma = DmaConfig::withRate(rate);
                const std::string what = "burst " + std::to_string(burst) +
                                         " bytes " + std::to_string(bytes) +
                                         " rate " + std::to_string(rate);
                auto chunks = reference::streamChunks(bytes, burst);
                DramModel streamed(config);
                DramModel explicit_dram(config);
                reference::DramModel ref_dram(config);
                auto got = simulateStream(dma, streamed, bytes, 9);
                auto via_chunks =
                        simulateTransfer(dma, explicit_dram, chunks, 9);
                auto want = reference::simulateTransfer(dma, ref_dram,
                                                        chunks, 9);
                expectSameResult(got, via_chunks, what);
                expectSameResult(got, want, what);
                EXPECT_EQ(got.bytes, bytes) << what;
                EXPECT_EQ(streamed.bytesTransferred(),
                          ref_dram.bytesTransferred())
                        << what;
                EXPECT_EQ(streamed.bandwidthCursor(),
                          ref_dram.bandwidthCursor())
                        << what;
            }
        }
    }
}

} // namespace
} // namespace stellar::sim
