#include "bench.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <thread>

#include "util/memo.hpp"

namespace perfbench
{

namespace
{

/** The span new spans on this thread hang under. */
thread_local SpanContext tlsContext;

} // namespace

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = p / 100.0 * double(values.size() - 1);
    auto lo = std::size_t(std::floor(rank));
    auto hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - double(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string
digestHex(const std::string &text)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  (unsigned long long)stellar::util::fnv1a(text));
    return buffer;
}

std::int64_t
Tracer::toNs(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count();
}

void
Tracer::record(const Event &event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (events_.size() >= kMaxSpans) {
        dropped_++;
        return;
    }
    events_.push_back(event);
}

std::string
Tracer::chromeJson(const std::string &metadata) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\"traceEvents\":[";
    char buffer[512];
    bool first = true;
    for (const auto &event : events_) {
        std::snprintf(buffer, sizeof(buffer),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%lld,\"parent\":%lld,\"op\":%lld}}",
                      first ? "" : ",", event.name,
                      (unsigned long long)(event.tid % 1000000),
                      double(event.startNs) / 1e3,
                      double(event.endNs - event.startNs) / 1e3,
                      (long long)event.id, (long long)event.parent,
                      (long long)event.op);
        out += buffer;
        first = false;
    }
    out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":";
    out += metadata;
    out += "}\n";
    return out;
}

Span::Span(Tracer &tracer, const char *name)
{
    if (tracer.active()) {
        tracer_ = &tracer;
        open(name, tlsContext);
    }
}

Span::Span(Tracer &tracer, const char *name, SpanContext context)
{
    if (tracer.active()) {
        tracer_ = &tracer;
        open(name, context);
    }
}

void
Span::open(const char *name, SpanContext context)
{
    name_ = name;
    id_ = tracer_->nextId();
    parent_ = context.parent;
    op_ = context.op;
    saved_ = tlsContext;
    tlsContext = {op_, id_};
    open_ = true;
    start_ = Clock::now();
}

double
Span::stop()
{
    if (!open_)
        return ms_;
    auto end = Clock::now();
    open_ = false;
    ms_ = msBetween(start_, end);
    tlsContext = saved_;
    tracer_->record({name_, tracer_->toNs(start_), tracer_->toNs(end), id_,
                     parent_, op_,
                     std::hash<std::thread::id>{}(std::this_thread::get_id())});
    return ms_;
}

SpanContext
beginOperation(Tracer &tracer)
{
    tlsContext = {tracer.nextId(), 0};
    return tlsContext;
}

LayerSample
medianLayers(const std::vector<LayerSample> &samples)
{
    std::map<std::string, std::vector<double>> columns;
    for (const auto &sample : samples)
        for (const auto &[name, value] : sample)
            columns[name].push_back(value);
    LayerSample out;
    for (auto &[name, values] : columns)
        out[name] = median(std::move(values));
    return out;
}

void
summarizeTrace(const std::vector<LayerSample> &samples,
               const std::vector<double> &coverage,
               const std::vector<double> &traced_ms,
               const std::vector<double> &untraced_ms,
               WorkloadResult &result)
{
    result.layers = medianLayers(samples);
    result.layers["trace.coverage"] = median(coverage);
    double untraced = median(untraced_ms);
    result.layers["trace.overhead"] =
            untraced > 0 ? median(traced_ms) / untraced : 0.0;
    std::cerr << "stellar_bench: traced median " << median(traced_ms)
              << " ms over " << traced_ms.size() << ", untraced median "
              << untraced << " ms over " << untraced_ms.size() << "\n";
}

long long
procStatus(const char *field)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    std::size_t length = std::strlen(field);
    while (std::getline(status, line))
        if (line.compare(0, length, field) == 0 && line.size() > length &&
            line[length] == ':')
            return std::atoll(line.c_str() + length + 1);
    return 0;
}

namespace
{

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &t) {
        return double(t.tv_sec) + double(t.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

} // namespace

void
WorkloadResult::beginWindow()
{
    malloc_trim(0);
    // "5" resets VmHWM to the current RSS (Linux >= 4.0).
    std::ofstream("/proc/self/clear_refs") << "5";
    windowCpuStart_ = cpuSeconds();
    windowWallStart_ = Clock::now();
}

void
WorkloadResult::endWindow()
{
    peakRssMb = double(procStatus("VmHWM")) / 1024.0;
    double wall = msSince(windowWallStart_) / 1e3;
    cpuPerWall = wall > 0 ? (cpuSeconds() - windowCpuStart_) / wall : 0.0;
}

void
WorkloadResult::check(bool ok, const std::string &what)
{
    attempted++;
    if (!ok) {
        failed++;
        std::cerr << "stellar_bench: check failed: " << what << "\n";
    }
}

} // namespace perfbench
