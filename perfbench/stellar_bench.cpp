/**
 * @file
 * stellar_bench: the repository benchmark.
 *
 *   stellar_bench --workload dse-scan|serve-mixed|all
 *                 [--seed N] [--seconds S] [--trace 0|1] [--smoke]
 *                 [--commit SHA] [--trace-dir DIR]
 *
 * Each workload sets up (several times; the median is setup_s), runs
 * its operation for --seconds, and checks every output. With --trace 0
 * the last stdout line is a JSON object with the end-to-end metrics;
 * with --trace 1 it carries the per-layer metrics of a traced run, and
 * the spans are written as Chrome trace-event JSON under --trace-dir.
 * A line before it records the run (nproc, build, compiler, commit,
 * seed, thread counts asked). --smoke shrinks every workload so all of
 * them and their checks run in seconds.
 *
 * All scratch files (shard records, the serve socket) live in a fresh
 * per-run directory under .bench_tmp/ that is removed at exit, so two
 * runs never share a path. Exit code 0 only when every check passed.
 */

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.hpp"

#ifndef STELLAR_BENCH_BUILD_TYPE
#define STELLAR_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef STELLAR_BENCH_COMPILER
#define STELLAR_BENCH_COMPILER "unknown"
#endif

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed by every untraced run. */
const MetricDef kEndToEnd[] = {
        {"setup_s", "s"},
        {"op_p90_ms", "ms"},
        {"peak_rss_mb", "MB"},
};

/** Per-layer metrics, printed by every traced run (0 where a workload
 *  bypasses the layer). */
const MetricDef kPerLayer[] = {
        {"dataflow.scan_ms", "ms"},
        {"dataflow.decoded", "count"},
        {"dataflow.orbit_skipped", "count"},
        {"dataflow.yielded", "count"},
        {"dataflow.yield_ratio", "ratio"},
        {"accel.analytic_ms", "ms"},
        {"accel.analytic_per_s", "1/s"},
        {"accel.evaluate_rank_ms", "ms"},
        {"accel.evaluated", "count"},
        {"core.elaborate_ms", "ms"},
        {"core.apply_transform_ms", "ms"},
        {"core.generate_ms", "ms"},
        {"model.score_ms", "ms"},
        {"accel.shard_scan_max_ms", "ms"},
        {"accel.shard_imbalance", "ratio"},
        {"accel.records_bytes", "B"},
        {"accel.records_write_ms", "ms"},
        {"accel.records_load_ms", "ms"},
        {"accel.merge_ms", "ms"},
        {"accel.shard_merge_ms", "ms"},
        {"rtl.lower_ms", "ms"},
        {"rtl.lint_design_ms", "ms"},
        {"rtl.lint_text_ms", "ms"},
        {"rtl.emit_ms", "ms"},
        {"rtl.verilog_bytes", "B"},
        {"sparse.synthesize_ms", "ms"},
        {"workloads.cache_hit_ratio", "ratio"},
        {"workloads.cache_evictions", "count"},
        {"sim.outerspace_ms", "ms"},
        {"sim.scnn_ms", "ms"},
        {"sim.cycles", "cycles"},
        {"sim.cycles_per_s", "cycles/s"},
        {"accel.memo_hit_ratio", "ratio"},
        {"serve.handle_ms.sim", "ms"},
        {"serve.handle_ms.dse", "ms"},
        {"serve.wait_ms", "ms"},
        {"serve.shed", "count"},
        {"serve.errors", "count"},
        {"process.cpu_per_wall", "ratio"},
        {"process.threads_max", "count"},
        {"trace.coverage", "ratio"},
        {"trace.overhead", "ratio"},
};

const char *const kWorkloads[] = {"dse-scan", "serve-mixed"};

/** Samples the process thread count every few ms while alive. */
class ThreadSampler
{
  public:
    ThreadSampler()
        : thread_([this] {
              while (!stop_.load()) {
                  long long n = procStatus("Threads");
                  long long seen = max_.load();
                  if (n > seen)
                      max_.store(n);
                  std::this_thread::sleep_for(std::chrono::milliseconds(10));
              }
          })
    {
    }
    ~ThreadSampler() { finish(); }
    ThreadSampler(const ThreadSampler &) = delete;
    ThreadSampler &operator=(const ThreadSampler &) = delete;

    /** Stop sampling; the most threads seen, this sampler excluded. */
    long long
    finish()
    {
        if (thread_.joinable()) {
            stop_.store(true);
            thread_.join();
        }
        return max_.load() - 1;
    }

  private:
    std::atomic<bool> stop_{false};
    std::atomic<long long> max_{0};
    std::thread thread_;
};

/** A unique scratch directory under .bench_tmp/, made the working
 *  directory for the run and removed (with everything in it) at exit. */
class RunDirectory
{
  public:
    RunDirectory()
    {
        home_ = fs::current_path();
        auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::system_clock::now()
                                     .time_since_epoch())
                             .count();
        path_ = home_ / ".bench_tmp" /
                ("run-" + std::to_string(::getpid()) + "-" +
                 std::to_string(nanos));
        fs::create_directories(path_);
        fs::current_path(path_);
    }
    ~RunDirectory()
    {
        std::error_code ignored;
        fs::current_path(home_, ignored);
        fs::remove_all(path_, ignored);
        // Leave .bench_tmp/ itself only if another run still uses it.
        fs::remove(path_.parent_path(), ignored);
    }
    RunDirectory(const RunDirectory &) = delete;
    RunDirectory &operator=(const RunDirectory &) = delete;

    const fs::path &home() const { return home_; }

  private:
    fs::path home_;
    fs::path path_;
};

std::string
jsonNumber(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    return buffer;
}

std::string
metricsJson(const MetricDef *defs, std::size_t count,
            const std::map<std::string, double> &values,
            const std::string &prefix = "")
{
    std::string out;
    for (std::size_t i = 0; i < count; i++) {
        auto it = values.find(defs[i].name);
        double value = it == values.end() ? 0.0 : it->second;
        if (!out.empty())
            out += ",";
        out += "\"" + prefix + defs[i].name + "\":{\"value\":" +
               jsonNumber(value) + ",\"unit\":\"" + defs[i].unit + "\"}";
    }
    return out;
}

struct Outcome
{
    bool correct = false;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::string metrics; //!< the JSON members of "metrics"
};

std::string
runRecordJson(const RunConfig &config, const std::string &commit,
              const WorkloadResult &result,
              const std::map<std::string, double> &process)
{
    std::string out = "{\"workload\":\"" + config.workload + "\"";
    out += ",\"seed\":" + std::to_string(config.seed);
    out += ",\"seconds\":" + jsonNumber(config.seconds);
    out += ",\"trace\":" + std::string(config.trace ? "1" : "0");
    out += ",\"smoke\":" + std::string(config.smoke ? "true" : "false");
    out += ",\"nproc\":" + std::to_string(config.nproc);
    out += ",\"build_type\":\"" STELLAR_BENCH_BUILD_TYPE "\"";
    out += ",\"compiler\":\"" STELLAR_BENCH_COMPILER "\"";
    out += ",\"commit\":\"" + commit + "\"";
    out += ",\"threads_asked\":{";
    bool first = true;
    for (const auto &[knob, threads] : result.threadsAsked) {
        out += (first ? "\"" : ",\"") + knob + "\":" + std::to_string(threads);
        first = false;
    }
    out += "}";
    for (const auto &[name, value] : process)
        out += ",\"" + name + "\":" + jsonNumber(value);
    out += "}";
    return out;
}

Outcome
runOne(const RunConfig &config, const std::string &commit,
       const fs::path &trace_dir, const std::string &prefix)
{
    Tracer tracer;
    tracer.setActive(config.trace);
    WorkloadResult result;
    ThreadSampler sampler;
    try {
        if (config.workload == "dse-scan")
            runDseScan(config, tracer, result);
        else
            runServeMixed(config, tracer, result);
    } catch (const std::exception &err) {
        result.check(false, std::string("workload threw: ") + err.what());
    }
    long long threads_max = sampler.finish();

    std::map<std::string, double> process;
    process["process.cpu_per_wall"] = result.cpuPerWall;
    process["process.threads_max"] = double(threads_max);
    process["peak_rss_mb"] = result.peakRssMb;
    // Other statistics of the window, for the record: on a shared host
    // they follow the neighbours' load too closely to hold a bound (see
    // perfbench/README.md).
    process["op_p10_ms"] = percentile(result.opMs, 10);
    process["op_p50_ms"] = percentile(result.opMs, 50);
    process["ops_per_s"] = result.windowSeconds > 0
                                   ? double(result.opMs.size()) /
                                             result.windowSeconds
                                   : 0.0;

    std::string record = runRecordJson(config, commit, result, process);
    std::printf("run-record %s\n", record.c_str());

    Outcome outcome;
    outcome.attempted = result.attempted;
    outcome.failed = result.failed;
    outcome.correct = result.failed == 0 && result.attempted > 0;
    if (!config.trace) {
        std::map<std::string, double> values;
        values["setup_s"] = median(result.setupSeconds);
        values["op_p90_ms"] = percentile(result.opMs, 90);
        values["peak_rss_mb"] = process["peak_rss_mb"];
        std::string times;
        for (double ms : result.opMs) {
            times += ' ';
            times += std::to_string(ms);
        }
        std::fprintf(stderr,
                     "stellar_bench: %s: %zu operations in %.2f s, ms:%s\n",
                     config.workload.c_str(), result.opMs.size(),
                     result.windowSeconds, times.c_str());
        outcome.metrics = metricsJson(kEndToEnd, std::size(kEndToEnd), values,
                                      prefix);
        return outcome;
    }

    auto layers = result.layers;
    layers["process.cpu_per_wall"] = process["process.cpu_per_wall"];
    layers["process.threads_max"] = process["process.threads_max"];
    outcome.metrics =
            metricsJson(kPerLayer, std::size(kPerLayer), layers, prefix);
    std::error_code error;
    fs::create_directories(trace_dir, error);
    fs::path file = trace_dir / ("trace-" + config.workload + "-seed" +
                                 std::to_string(config.seed) + ".json");
    std::ofstream out(file);
    out << tracer.chromeJson("{\"run\":" + record + ",\"layers\":{" +
                             outcome.metrics + "},\"spans_dropped\":" +
                             std::to_string(tracer.dropped()) + "}");
    if (!out)
        std::fprintf(stderr, "stellar_bench: could not write %s\n",
                     file.c_str());
    return outcome;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: stellar_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--commit SHA] "
                 "[--trace-dir DIR]\n"
                 "workloads: dse-scan serve-mixed all\n");
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig config;
    config.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::string commit = "unknown";
    std::string trace_dir = ".bench_out";
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                config.workload = value();
            else if (arg == "--seed")
                config.seed = std::stoull(value());
            else if (arg == "--seconds")
                config.seconds = std::stod(value());
            else if (arg == "--trace")
                config.trace = value() != "0";
            else if (arg == "--smoke")
                config.smoke = true;
            else if (arg == "--commit")
                commit = value();
            else if (arg == "--trace-dir")
                trace_dir = value();
            else
                return usage();
        } catch (const std::exception &err) {
            std::fprintf(stderr, "stellar_bench: %s\n", err.what());
            return usage();
        }
    }
    std::vector<std::string> workloads;
    for (const char *name : kWorkloads)
        if (config.workload == name || config.workload == "all")
            workloads.push_back(name);
    if (workloads.empty() || config.seconds <= 0)
        return usage();

    Outcome total;
    total.correct = true;
    {
        RunDirectory run_dir;
        fs::path traces = fs::absolute(run_dir.home() / trace_dir);
        for (const auto &name : workloads) {
            RunConfig one = config;
            one.workload = name;
            std::string prefix = workloads.size() > 1 ? name + "/" : "";
            Outcome outcome = runOne(one, commit, traces, prefix);
            total.correct = total.correct && outcome.correct;
            total.attempted += outcome.attempted;
            total.failed += outcome.failed;
            total.metrics += (total.metrics.empty() ? "" : ",") +
                             outcome.metrics;
        }
    }
    std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
                "\"metrics\":{%s}}\n",
                total.correct ? "true" : "false",
                (long long)total.attempted, (long long)total.failed,
                total.metrics.c_str());
    std::fflush(stdout);
    return total.correct ? 0 : 1;
}
