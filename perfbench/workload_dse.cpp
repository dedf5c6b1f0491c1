/**
 * @file
 * The DSE workload.
 *
 * dse-scan: the canonical hop-3 coefficient-+-3 matmul sweep with the
 * analytic tier keeping 64 survivors. The coefficient scan and the
 * closed-form scoring do almost all the work; only 64 candidates are
 * elaborated. It also runs the same sweep as 4 shards whose records
 * files are merged, which is the only place records IO runs. The traced
 * run also compiles the winning dataflow to Verilog, as the framework's
 * flow does after a search; that is where the rtl layer is timed.
 *
 * The sweep runs on one thread, the scan included: on a shared host a
 * sweep spread over every core is slowed by whichever core is busiest,
 * so its time says more about the neighbours than about the program.
 *
 * The measured operation is one sweep as serve::renderDse runs it
 * (accel::exploreDataflows, then the rank table and stats report), with
 * the scan's workers set to the request's thread count; renderDse
 * itself leaves the scan at hardware concurrency, and set-up checks
 * that its output is the same byte for byte. The traced run recomposes
 * the same sweep from the public layer calls
 * (dataflow::forEachTransform, AnalyticCostModel::score,
 * accel::evaluateAndRank) so each layer can be timed, and checks that
 * the recomposition ranks exactly as renderDse does.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "accel/analytic_cost.hpp"
#include "accel/dse.hpp"
#include "accel/records.hpp"
#include "accel/report.hpp"
#include "bench.hpp"
#include "core/iteration_space.hpp"
#include "core/spatial_array.hpp"
#include "func/library.hpp"
#include "model/area.hpp"
#include "model/timing.hpp"
#include "rtl/generate.hpp"
#include "rtl/lint.hpp"
#include "rtl/verilog.hpp"
#include "serve/commands.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench
{

namespace
{

using namespace stellar;

using Work = std::vector<std::pair<std::size_t, dataflow::SpaceTimeTransform>>;

/** The sweep: the request and the values its output must have. */
struct Sweep
{
    serve::DseRequest request;
    std::string tableDigest; //!< digest of the ranked-candidate table
    std::size_t enumerated = 0;
    std::size_t orbitSkipped = 0;
    std::size_t analyticRanked = 0;
    std::size_t evaluated = 0;
};

/**
 * The pinned sweep, full size or --smoke. Expected values were
 * recorded from the library at the commit that added this benchmark;
 * the full-size counts (25,416 candidates, 35,250,453 orbit-skipped
 * codes) are the ones the project documents for the canonical sweep.
 */
Sweep
makeSweep(const RunConfig &config)
{
    Sweep sweep;
    auto &r = sweep.request;
    r.threads = 1;
    r.enumLimit = 1 << 20; // scan the whole space; the cap never binds
    r.timings = false;
    r.maxHop = 3;
    r.analyticTopK = 64;
    r.maxCoeff = 3;
    r.dim = 8;
    sweep.tableDigest = "fe108b208a64d26c";
    sweep.enumerated = 25416;
    sweep.orbitSkipped = 35250453;
    sweep.analyticRanked = 25416;
    sweep.evaluated = 64;
    if (config.smoke) {
        r.dim = 4;
        r.maxCoeff = 2;
        r.analyticTopK = 16;
        sweep.tableDigest = "857ff02d412b44e3";
        sweep.enumerated = 5278;
        sweep.orbitSkipped = 1701125;
        sweep.analyticRanked = 5278;
        sweep.evaluated = 16;
    }
    return sweep;
}

/** The ranked-candidate table: everything renderDse prints before its
 *  stats report. */
std::string
rankTable(const std::string &output)
{
    auto end = output.find("\nexplored ");
    return end == std::string::npos ? output : output.substr(0, end + 1);
}

/** The table serve::renderDse prints for `candidates`, rebuilt from the
 *  candidate values (the format is part of the CLI contract). */
std::string
formatTable(const std::vector<accel::DseCandidate> &candidates)
{
    std::string out = "rank  PEs     steps   score      transform (rows)\n";
    int rank = 1;
    char buffer[512];
    for (const auto &candidate : candidates) {
        std::string rows;
        const auto &m = candidate.transform.matrix();
        for (int r = 0; r < m.rows(); r++)
            rows += vecToString(m.row(r)) + (r + 1 < m.rows() ? " " : "");
        std::snprintf(buffer, sizeof(buffer), "%-5d %-7lld %-7lld %-10.4g %s\n",
                      rank++, (long long)candidate.pes,
                      (long long)candidate.scheduleLength, candidate.score,
                      rows.c_str());
        out += buffer;
    }
    return out;
}

/** serve::dseOptionsFor, with the scan on the request's thread count. */
accel::DseOptions
sweepOptions(const serve::DseRequest &request)
{
    accel::DseOptions options = serve::dseOptionsFor(request, nullptr);
    options.enumerate.threads = request.threads;
    return options;
}

/** One sweep: what serve::renderDse prints, run with sweepOptions. */
serve::RenderResult
renderSweep(const serve::DseRequest &request)
{
    accel::DseOptions options = sweepOptions(request);
    model::AreaParams area;
    model::TimingParams timing;
    serve::RenderResult result;
    auto candidates = accel::exploreDataflows(
            func::matmulSpec(), {request.dim, request.dim, request.dim},
            options, area, timing, &result.dseStats);
    result.output = formatTable(candidates) +
                    accel::dseStatsReport(result.dseStats, request.timings);
    result.exitCode = candidates.empty() ? 1 : 0;
    return result;
}

/** Check one renderDse result against the pinned values; empty when
 *  every check holds, otherwise what failed. */
std::string
sweepMismatch(const Sweep &sweep, const serve::RenderResult &rendered,
              const std::string &reference)
{
    const auto &s = rendered.dseStats;
    std::string digest = digestHex(rankTable(rendered.output));
    if (rendered.exitCode != 0)
        return "renderDse exit code " + std::to_string(rendered.exitCode);
    if (!sweep.tableDigest.empty() && digest != sweep.tableDigest)
        return "rank table digest " + digest + " != " + sweep.tableDigest;
    if (s.enumerated != sweep.enumerated)
        return "enumerated " + std::to_string(s.enumerated);
    if (s.orbitSkipped != sweep.orbitSkipped)
        return "orbit-skipped " + std::to_string(s.orbitSkipped);
    if (s.analyticRanked != sweep.analyticRanked)
        return "analytic-ranked " + std::to_string(s.analyticRanked);
    if (s.evaluated != sweep.evaluated || s.failed != 0)
        return "evaluated " + std::to_string(s.evaluated) + ", failed " +
               std::to_string(s.failed);
    if (!reference.empty() && rendered.output != reference)
        return "output differs from the first sweep";
    return "";
}

struct Models
{
    model::AreaParams area;
    model::TimingParams timing;
};

/**
 * The sweep recomposed from the public layer calls: the scan with the
 * analytic top-K heap in its sink (as the fused DSE front half does),
 * then accel::evaluateAndRank. Fills `work` with the elaborated items
 * and `layers` with the per-layer values when the tracer is active.
 */
std::vector<accel::DseCandidate>
composedSweep(const Sweep &sweep, Tracer &tracer, Work &work,
              LayerSample &layers, double &covered_ms)
{
    const auto &request = sweep.request;
    const auto functional = func::matmulSpec();
    const IntVec bounds{request.dim, request.dim, request.dim};
    const accel::DseOptions options = sweepOptions(request);
    Models models;
    const bool traced = tracer.active();

    dataflow::EnumerateStats scan_stats;
    double analytic_ms = 0.0;
    std::size_t scored = 0;
    work.clear();
    Span scan(tracer, "dataflow.scan");
    accel::AnalyticCostModel cost_model(
            functional, bounds, options.sparsity, options.dataWidth,
            options.macBits, models.area, models.timing);
    struct Ranked
    {
        bool saturated;
        double score;
        std::size_t index;
        dataflow::SpaceTimeTransform transform;
    };
    auto better = [](const Ranked &a, const Ranked &b) {
        if (a.saturated != b.saturated)
            return !a.saturated;
        if (a.score != b.score)
            return a.score < b.score;
        return a.index < b.index;
    };
    std::vector<Ranked> heap;
    dataflow::forEachTransform(
            functional, options.enumerate,
            [&](const dataflow::EnumeratedTransform &item) {
                // Scoring runs once per candidate inside the scan's
                // sink, so it is summed here instead of spanned.
                Clock::time_point start;
                if (traced)
                    start = Clock::now();
                auto analytic = cost_model.score(item.transform);
                scored++;
                Ranked ranked{analytic.saturated, analytic.score,
                              item.index, item.transform};
                if (heap.size() < options.analyticTopK) {
                    heap.push_back(std::move(ranked));
                    std::push_heap(heap.begin(), heap.end(), better);
                } else if (better(ranked, heap.front())) {
                    std::pop_heap(heap.begin(), heap.end(), better);
                    heap.back() = std::move(ranked);
                    std::push_heap(heap.begin(), heap.end(), better);
                }
                if (traced)
                    analytic_ms += msSince(start);
                return true;
            },
            &scan_stats);
    std::sort(heap.begin(), heap.end(),
              [](const Ranked &a, const Ranked &b) {
                  return a.index < b.index;
              });
    for (auto &ranked : heap)
        work.emplace_back(ranked.index, std::move(ranked.transform));
    double scan_ms = scan.stop();

    Span evaluate(tracer, "accel.evaluate_rank");
    accel::DseStats stats;
    auto ranked = accel::evaluateAndRank(work, functional, bounds, options,
                                         models.area, models.timing, stats);
    double evaluate_ms = evaluate.stop();

    covered_ms = scan_ms + evaluate_ms;
    if (traced) {
        double decoded = double(scan_stats.decoded);
        double yielded = double(scan_stats.yielded);
        layers["dataflow.scan_ms"] = scan_ms - analytic_ms;
        layers["dataflow.decoded"] = decoded;
        layers["dataflow.orbit_skipped"] = double(scan_stats.orbitSkipped);
        layers["dataflow.yielded"] = yielded;
        layers["dataflow.yield_ratio"] = decoded > 0 ? yielded / decoded : 0;
        layers["accel.analytic_ms"] = analytic_ms;
        layers["accel.analytic_per_s"] =
                analytic_ms > 0 ? double(scored) / (analytic_ms / 1e3) : 0;
        layers["accel.evaluate_rank_ms"] = evaluate_ms;
        layers["accel.evaluated"] = double(stats.evaluated);
    }
    return ranked;
}

/**
 * Split evaluateAndRank's per-candidate work into its layers: replay
 * every elaborated item through core::elaborate, core::applyTransform,
 * core::generate and the model scoring, on `threads` workers. The
 * layer values are busy time summed over the items. Returns false when
 * a replayed score differs from the ranked one.
 */
bool
probeElaboration(const Sweep &sweep, const Work &work,
                 const std::vector<accel::DseCandidate> &ranked,
                 std::size_t threads, Tracer &tracer, LayerSample &layers)
{
    const auto &request = sweep.request;
    const auto functional = func::matmulSpec();
    const IntVec bounds{request.dim, request.dim, request.dim};
    const accel::DseOptions options = sweepOptions(request);
    Models models;

    struct Slot
    {
        double elaborateMs = 0, applyMs = 0, generateMs = 0, scoreMs = 0;
        std::int64_t pes = 0;
        double score = 0;
    };
    std::vector<Slot> slots(work.size());
    SpanContext op = beginOperation(tracer);
    Span root(tracer, "probe.elaboration", op);
    SpanContext context = root.child();
    util::ThreadPool pool(threads);
    pool.parallelFor(work.size(), [&](std::size_t i) {
        Slot &slot = slots[i];
        const auto &transform = work[i].second;
        core::IterationSpace space = [&] {
            Span span(tracer, "core.elaborate", context);
            auto result = core::elaborate(functional, bounds);
            slot.elaborateMs = span.stop();
            return result;
        }();
        {
            Span span(tracer, "core.apply_transform", context);
            auto array = core::applyTransform(space, transform);
            slot.applyMs = span.stop();
            slot.pes = array.numPes();
        }
        core::AcceleratorSpec spec;
        spec.name = "dse";
        spec.functional = functional;
        spec.transform = transform;
        spec.elaborationBounds = bounds;
        Span generate_span(tracer, "core.generate", context);
        auto generated = core::generate(spec);
        slot.generateMs = generate_span.stop();

        Span score_span(tracer, "model.score", context);
        auto timing = model::timingOf(models.timing, generated, false);
        double area = model::arrayArea(models.area, generated,
                                       options.macBits, options.dataWidth,
                                       true);
        double seconds = double(generated.array.scheduleLength()) /
                         (timing.fmaxMhz() * 1e6);
        slot.score = seconds * area;
        slot.scoreMs = score_span.stop();
    });
    root.stop();

    LayerSample sums;
    for (const auto &slot : slots) {
        sums["core.elaborate_ms"] += slot.elaborateMs;
        sums["core.apply_transform_ms"] += slot.applyMs;
        sums["core.generate_ms"] += slot.generateMs;
        sums["model.score_ms"] += slot.scoreMs;
    }
    for (const auto &[name, value] : sums)
        layers[name] = value;

    for (const auto &candidate : ranked) {
        auto it = std::find_if(work.begin(), work.end(), [&](const auto &w) {
            return w.first == candidate.enumIndex;
        });
        if (it == work.end())
            return false;
        const Slot &slot = slots[std::size_t(it - work.begin())];
        if (slot.score != candidate.score || slot.pes != candidate.pes)
            return false;
    }
    return true;
}

/**
 * Compile the top-ranked candidate to Verilog (core::generate,
 * rtl::lowerToVerilog, rtl::lintDesign, Design::emit, rtl::lintText)
 * a few times and set the rtl layer values to the medians. Returns an
 * empty string when the design lints clean, has the candidate's PE
 * count and emits the same text every time, otherwise what failed.
 */
std::string
compileWinner(const Sweep &sweep, const accel::DseCandidate &winner,
              Tracer &tracer, LayerSample &layers)
{
    const auto &request = sweep.request;
    core::AcceleratorSpec spec;
    spec.name = "dse_winner";
    spec.functional = func::matmulSpec();
    spec.transform = winner.transform;
    spec.elaborationBounds = {request.dim, request.dim, request.dim};

    std::vector<LayerSample> reps;
    std::string first_text;
    for (int rep = 0; rep < 5; rep++) {
        SpanContext op = beginOperation(tracer);
        Span root(tracer, "op.compile_winner", op);
        auto generated = core::generate(spec);
        LayerSample sample;
        Span lower(tracer, "rtl.lower");
        rtl::Design verilog = rtl::lowerToVerilog(generated);
        sample["rtl.lower_ms"] = lower.stop();
        Span lint_design(tracer, "rtl.lint_design");
        auto issues = rtl::lintDesign(verilog);
        sample["rtl.lint_design_ms"] = lint_design.stop();
        Span emit(tracer, "rtl.emit");
        std::string text = verilog.emit();
        sample["rtl.emit_ms"] = emit.stop();
        Span lint_text(tracer, "rtl.lint_text");
        for (auto &issue : rtl::lintText(text))
            issues.push_back(std::move(issue));
        sample["rtl.lint_text_ms"] = lint_text.stop();
        sample["rtl.verilog_bytes"] = double(text.size());
        reps.push_back(sample);

        if (!issues.empty())
            return std::to_string(issues.size()) +
                   " lint issues, first: " + issues.front().message;
        if (generated.array.numPes() != winner.pes)
            return std::to_string(generated.array.numPes()) +
                   " PEs, ranked with " + std::to_string(winner.pes);
        if (rep == 0)
            first_text = text;
        else if (text != first_text)
            return "the Verilog differs between compiles";
    }
    for (const auto &[name, value] : medianLayers(reps))
        layers[name] = value;
    return "";
}

/** Shard-leg timings (traced only) and the merged result. */
struct ShardLeg
{
    std::vector<double> scanMs;
    double writeMs = 0, loadMs = 0, mergeMs = 0;
    double bytes = 0;
    std::string mergedOutput;                   //!< untraced: renderMerge
    std::vector<accel::DseCandidate> merged;    //!< traced: the merge result
    accel::DseStats mergedStats;
};

/**
 * Scan the sweep as `shards` shards, write each records file, then
 * merge them in a seed-shuffled file order (which must not change the
 * result). Untraced, the merge is serve::renderMerge, whose output must
 * equal renderDse's byte for byte; traced, loading and merging are
 * separate calls so each is timed, and the timings are filled.
 */
ShardLeg
runShardLeg(const Sweep &sweep, std::int64_t shards, std::uint64_t seed,
            Tracer &tracer)
{
    const auto &request = sweep.request;
    const auto functional = func::matmulSpec();
    const IntVec bounds{request.dim, request.dim, request.dim};
    Models models;
    accel::ShardConfig config;
    config.dim = request.dim;
    config.maxHop = request.maxHop;
    config.maxCoeff = request.maxCoeff;
    config.topK = std::int64_t(request.topK);
    config.analyticTopK = std::int64_t(request.analyticTopK);
    config.enumLimit = std::int64_t(request.enumLimit);
    config.maxPes = request.maxPes;

    ShardLeg leg;
    SpanContext op = beginOperation(tracer);
    Span root(tracer, "op.shard_merge", op);
    std::vector<std::string> paths;
    for (std::int64_t i = 0; i < shards; i++) {
        Span scan(tracer, "accel.shard_scan");
        auto shard = accel::scanShard(functional, bounds, config, i, shards,
                                      request.threads, models.area,
                                      models.timing);
        leg.scanMs.push_back(scan.stop());
        std::string path = "shard-" + std::to_string(i) + ".records";
        Span write(tracer, "accel.records_write");
        accel::saveShardRecordsFile(shard, path);
        leg.writeMs += write.stop();
        leg.bytes += double(std::filesystem::file_size(path));
        paths.push_back(path);
    }
    Rng rng(seed);
    for (std::size_t i = paths.size(); i > 1; i--)
        std::swap(paths[i - 1], paths[rng.nextBounded(i)]);

    if (!tracer.active()) {
        serve::MergeRequest merge;
        merge.inputs = paths;
        merge.threads = request.threads;
        leg.mergedOutput = serve::renderMerge(merge).output;
    } else {
        std::vector<accel::ShardRecords> loaded;
        Span load(tracer, "accel.records_load");
        for (const auto &path : paths)
            loaded.push_back(accel::loadShardRecordsFile(path));
        leg.loadMs = load.stop();
        accel::MergeEvalOptions eval;
        eval.threads = request.threads;
        Span merge(tracer, "accel.merge");
        leg.merged = accel::mergeShardRecords(
                std::move(loaded), functional, bounds, eval, models.area,
                models.timing, &leg.mergedStats);
        leg.mergeMs = merge.stop();
    }
    for (const auto &path : paths)
        std::filesystem::remove(path);
    return leg;
}

constexpr std::int64_t kShards = 4;

/** Time the set-up, a checked reference sweep, several times; returns
 *  the reference output, which serve::renderDse must also print. */
std::string
setUp(const Sweep &sweep, WorkloadResult &result)
{
    std::string reference;
    for (int rep = 0; rep < 5; rep++) {
        auto start = Clock::now();
        auto rendered = renderSweep(sweep.request);
        std::string why = sweepMismatch(sweep, rendered, reference);
        result.check(why.empty(), "set-up sweep: " + why);
        reference = rendered.output;
        result.setupSeconds.push_back(msSince(start) / 1e3);
    }
    std::string why =
            sweepMismatch(sweep, serve::renderDse(sweep.request), reference);
    result.check(why.empty(), "renderDse: " + why);
    return reference;
}

} // namespace

void
runDseScan(const RunConfig &config, Tracer &tracer, WorkloadResult &result)
{
    const Sweep sweep = makeSweep(config);
    result.threadsAsked["dse.threads"] = std::int64_t(sweep.request.threads);
    result.threadsAsked["enumerate.threads"] =
            std::int64_t(sweep.request.threads);
    const std::string reference = setUp(sweep, result);
    const std::string reference_table = rankTable(reference);

    if (!config.trace) {
        result.opMs = runWindow(config.seconds, 3, result,
                                [&](std::size_t) {
                                    auto rendered =
                                            renderSweep(sweep.request);
                                    std::string why = sweepMismatch(
                                            sweep, rendered, reference);
                                    result.check(why.empty(),
                                                 "sweep: " + why);
                                });
        auto leg = runShardLeg(sweep, kShards, config.seed, tracer);
        result.check(leg.mergedOutput == reference,
                     "shard + merge output differs from the whole sweep");
        return;
    }

    Work work;
    std::vector<accel::DseCandidate> ranked;
    runTracedWindow(config, tracer, result, "op.sweep",
                    [&](std::size_t, LayerSample &layers, double &covered) {
                        ranked = composedSweep(sweep, tracer, work, layers,
                                               covered);
                        result.check(formatTable(ranked) == reference_table,
                                     "composed sweep ranks differently from "
                                     "renderDse");
                    });

    result.check(probeElaboration(sweep, work, ranked, sweep.request.threads,
                                  tracer, result.layers),
                 "replayed core/model scores differ from evaluateAndRank");
    std::string why = ranked.empty() ? "no candidate ranked"
                                     : compileWinner(sweep, ranked.front(),
                                                     tracer, result.layers);
    result.check(why.empty(), "winner to Verilog: " + why);

    std::vector<LayerSample> legs;
    for (int rep = 0; rep < 2; rep++) {
        auto leg = runShardLeg(sweep, kShards, config.seed + rep, tracer);
        result.check(formatTable(leg.merged) == reference_table &&
                             leg.mergedStats.enumerated ==
                                     sweep.enumerated &&
                             leg.mergedStats.evaluated == sweep.evaluated,
                     "shard merge ranks differently from the whole "
                     "sweep");
        double max_scan = *std::max_element(leg.scanMs.begin(),
                                            leg.scanMs.end());
        double mean_scan = 0.0;
        for (double ms : leg.scanMs)
            mean_scan += ms / double(leg.scanMs.size());
        LayerSample sample;
        sample["accel.shard_scan_max_ms"] = max_scan;
        sample["accel.shard_imbalance"] =
                mean_scan > 0 ? max_scan / mean_scan : 0;
        sample["accel.records_bytes"] = leg.bytes;
        sample["accel.records_write_ms"] = leg.writeMs;
        sample["accel.records_load_ms"] = leg.loadMs;
        sample["accel.merge_ms"] = leg.mergeMs;
        sample["accel.shard_merge_ms"] =
                max_scan + leg.loadMs + leg.mergeMs;
        legs.push_back(sample);
    }
    for (const auto &[name, value] : medianLayers(legs))
        result.layers[name] = value;
}

} // namespace perfbench
