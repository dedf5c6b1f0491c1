/**
 * @file
 * Shared pieces of the stellar_bench driver: timing, the in-memory span
 * tracer, the per-workload result record, and small statistics helpers.
 *
 * The benchmark drives the library only through its public functions
 * and times those calls itself; nothing here reaches into the library's
 * own phase timers (DseStats::{enumerateMs, analyticMs} alias each other
 * on the fused scan, so they cannot split a layer).
 */

#ifndef STELLAR_PERFBENCH_BENCH_HPP
#define STELLAR_PERFBENCH_BENCH_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start).count();
}

inline double
msSince(Clock::time_point start)
{
    return msBetween(start, Clock::now());
}

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> values);

/** Linear-interpolated percentile, `p` in [0, 100]. */
double percentile(std::vector<double> values, double p);

/** FNV-1a 64 of `text` as 16 hex digits: the output digests the
 *  correctness checks pin. */
std::string digestHex(const std::string &text);

/**
 * In-memory span recorder. Spans are recorded only while the tracer is
 * active; an inactive tracer costs one relaxed load per span. Spans of
 * one operation share its op id, and each names the span that caused
 * it, so the Chrome trace nests them. At most kMaxSpans are kept (later
 * spans are still timed and summed, only their events are dropped).
 */
class Tracer
{
  public:
    static constexpr std::size_t kMaxSpans = 50000;

    struct Event
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int64_t id;
        std::int64_t parent; //!< 0 = none
        std::int64_t op;
        std::uint64_t tid;
    };

    Tracer() : origin_(Clock::now()) {}

    bool active() const { return active_.load(std::memory_order_relaxed); }
    void setActive(bool on) { active_.store(on, std::memory_order_relaxed); }

    std::int64_t nextId() { return nextId_.fetch_add(1) + 1; }
    std::int64_t toNs(Clock::time_point t) const;

    void record(const Event &event);

    std::size_t dropped() const { return dropped_; }

    /** Chrome trace-event JSON ("X" events, ts/dur in microseconds),
     *  with `metadata` (a JSON object) under "otherData". */
    std::string chromeJson(const std::string &metadata) const;

  private:
    Clock::time_point origin_;
    std::atomic<bool> active_{false};
    std::atomic<std::int64_t> nextId_{0};
    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::size_t dropped_ = 0;
};

/** Where a span hangs: its operation and parent span. */
struct SpanContext
{
    std::int64_t op = 0;
    std::int64_t parent = 0;
};

/**
 * RAII span. When the tracer is inactive at construction the span does
 * nothing and stop() returns 0. Otherwise it times the scope, records
 * itself on stop() (or destruction), and is the parent of spans opened
 * on the same thread while it is open.
 */
class Span
{
  public:
    Span(Tracer &tracer, const char *name);
    Span(Tracer &tracer, const char *name, SpanContext context);
    ~Span() { stop(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span (idempotent); its duration in ms. */
    double stop();

    /** The context children of this span use on another thread. */
    SpanContext child() const { return {op_, id_}; }

  private:
    void open(const char *name, SpanContext context);

    Tracer *tracer_ = nullptr; //!< null when inactive
    const char *name_ = nullptr;
    Clock::time_point start_;
    std::int64_t id_ = 0;
    std::int64_t parent_ = 0;
    std::int64_t op_ = 0;
    SpanContext saved_;
    double ms_ = 0.0;
    bool open_ = false;
};

/** Begin a new operation (a root span's context) on this thread. */
SpanContext beginOperation(Tracer &tracer);

/** Per-layer values of one traced operation, summed into a workload's
 *  per-layer metrics by name. */
using LayerSample = std::map<std::string, double>;

/** Everything one workload run produces. */
struct WorkloadResult
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    /** Wall seconds of each repeated set-up. */
    std::vector<double> setupSeconds;

    /** Wall ms of each measured (untraced) operation. */
    std::vector<double> opMs;

    /** Wall seconds of the measured window (ops_per_s base). */
    double windowSeconds = 0.0;

    /** Per-layer metrics (traced run only). */
    LayerSample layers;

    /** Peak resident MB over the measured window (endWindow). */
    double peakRssMb = 0.0;

    /** Process CPU seconds per wall second over the measured window. */
    double cpuPerWall = 0.0;

    /** Thread counts the workload asked the library for, by knob. */
    std::map<std::string, std::int64_t> threadsAsked;

    /** Count one checked operation; a false `ok` logs `what` to stderr
     *  and counts the operation failed. */
    void check(bool ok, const std::string &what);

    /** Open the measured window: return freed set-up memory to the
     *  system and restart the peak-RSS mark, so the peak is the
     *  window's own. */
    void beginWindow();

    /** Close the measured window: record its peak RSS and CPU use. */
    void endWindow();

  private:
    double windowCpuStart_ = 0.0;
    Clock::time_point windowWallStart_;

};

/** How a workload is run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::size_t nproc = 1;
};

/**
 * Run `op` repeatedly until `seconds` have passed (at least
 * `min_ops` times) inside result's measured window; returns the wall
 * ms of each call.
 */
template <typename Op>
std::vector<double>
runWindow(double seconds, std::size_t min_ops, WorkloadResult &result,
          Op &&op)
{
    std::vector<double> times;
    result.beginWindow();
    auto start = Clock::now();
    auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
    while (times.size() < min_ops || Clock::now() < deadline) {
        auto begin = Clock::now();
        op(times.size());
        times.push_back(msSince(begin));
    }
    result.windowSeconds = msSince(start) / 1e3;
    result.endWindow();
    return times;
}

/** A /proc/self/status field (kB for sizes), 0 when absent. */
long long procStatus(const char *field);

/** Median of each per-layer value over traced operations. */
LayerSample medianLayers(const std::vector<LayerSample> &samples);

/** Sets result.layers from the traced operations' samples, with
 *  trace.coverage and trace.overhead, and logs the two medians. */
void summarizeTrace(const std::vector<LayerSample> &samples,
                    const std::vector<double> &coverage,
                    const std::vector<double> &traced_ms,
                    const std::vector<double> &untraced_ms,
                    WorkloadResult &result);

/**
 * The traced run's window: operations alternate traced and untraced so
 * both halves share the host's conditions. op(i, layers, covered_ms)
 * runs operation i under a root span named `name`; when the tracer is
 * active it fills `layers` and adds the time its direct layer spans
 * cover to `covered_ms`. Leaves the tracer active.
 */
template <typename Op>
void
runTracedWindow(const RunConfig &config, Tracer &tracer,
                WorkloadResult &result, const char *name, Op &&op)
{
    std::vector<LayerSample> samples;
    std::vector<double> traced_ms, untraced_ms, coverage;
    runWindow(config.seconds, 4, result, [&](std::size_t i) {
        bool traced = i % 2 == 0;
        tracer.setActive(traced);
        LayerSample layers;
        double covered = 0.0;
        auto start = Clock::now();
        {
            SpanContext context = beginOperation(tracer);
            Span root(tracer, name, context);
            op(i, layers, covered);
        }
        double wall = msSince(start);
        (traced ? traced_ms : untraced_ms).push_back(wall);
        if (traced) {
            coverage.push_back(covered / wall);
            samples.push_back(std::move(layers));
        }
    });
    tracer.setActive(true);
    summarizeTrace(samples, coverage, traced_ms, untraced_ms, result);
}

/** Workload entry points (one file each). */
void runDseScan(const RunConfig &config, Tracer &tracer,
                WorkloadResult &result);
void runServeMixed(const RunConfig &config, Tracer &tracer,
                   WorkloadResult &result);

} // namespace perfbench

#endif // STELLAR_PERFBENCH_BENCH_HPP
