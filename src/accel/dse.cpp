#include "accel/dse.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "accel/analytic.hpp"
#include "accel/analytic_cost.hpp"
#include "core/prune.hpp"
#include "model/area.hpp"
#include "model/timing.hpp"
#include "util/fault_inject.hpp"
#include "util/thread_pool.hpp"
#include "util/watchdog.hpp"

namespace stellar::accel
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
}

DseCandidate
evaluateCandidate(const dataflow::SpaceTimeTransform &transform,
                  std::size_t enum_index,
                  const func::FunctionalSpec &functional,
                  const IntVec &bounds, const DseOptions &options,
                  const model::AreaParams &area_params,
                  const model::TimingParams &timing_params)
{
    util::fault::checkpoint("dse.evaluate");
    core::AcceleratorSpec spec;
    spec.name = "dse";
    spec.functional = functional;
    spec.transform = transform;
    spec.sparsity = options.sparsity;
    spec.balancing = options.balancing;
    spec.elaborationBounds = bounds;
    auto generated = core::generate(spec);
    util::fault::checkpoint("dse.score");

    DseCandidate candidate;
    candidate.transform = transform;
    candidate.enumIndex = enum_index;
    candidate.pes = generated.array.numPes();
    candidate.wires = generated.array.totalWires();
    candidate.wireLength = generated.array.totalWireLength();
    candidate.scheduleLength = generated.array.scheduleLength();
    auto timing = model::timingOf(timing_params, generated,
                                  /*centralized=*/false);
    candidate.fmaxMhz = timing.fmaxMhz();
    candidate.areaUm2 = model::arrayArea(area_params, generated,
                                         options.macBits,
                                         options.dataWidth, true);
    double seconds = double(candidate.scheduleLength) /
                     (candidate.fmaxMhz * 1e6);
    candidate.score = seconds * candidate.areaUm2;
    return candidate;
}

/** Resident-size estimate for a memoized candidate (LRU accounting). */
std::uint64_t
candidateBytes(const DseCandidate &candidate)
{
    const auto &matrix = candidate.transform.matrix();
    return sizeof(DseCandidate) +
           std::uint64_t(matrix.rows()) * std::uint64_t(matrix.cols()) *
                   sizeof(std::int64_t) +
           candidate.transform.name().size();
}

} // namespace

std::string
DesignPointMemo::candidateKey(const std::string &spec_key,
                              const IntVec &bounds, int data_width,
                              int mac_bits,
                              const dataflow::SpaceTimeTransform &transform)
{
    std::string key = spec_key;
    key += "|b=";
    key += vecToString(bounds);
    key += "|w=";
    key += std::to_string(data_width);
    key += "/";
    key += std::to_string(mac_bits);
    key += "|T=";
    const IntMatrix &matrix = transform.matrix();
    key += std::to_string(matrix.rows());
    key += "x";
    key += std::to_string(matrix.cols());
    key += ":";
    for (int r = 0; r < matrix.rows(); r++)
        for (int c = 0; c < matrix.cols(); c++) {
            key += std::to_string(matrix.at(r, c));
            key += ",";
        }
    key += transform.name();
    return key;
}

std::shared_ptr<const DseCandidate>
DesignPointMemo::lookup(const std::string &key)
{
    return std::static_pointer_cast<const DseCandidate>(
            cache_.lookup(key, util::fnv1a(key)));
}

std::shared_ptr<const DseCandidate>
DesignPointMemo::insert(const std::string &key, DseCandidate candidate)
{
    std::uint64_t bytes = candidateBytes(candidate);
    auto payload = std::make_shared<const DseCandidate>(
            std::move(candidate));
    return std::static_pointer_cast<const DseCandidate>(cache_.insert(
            key, util::fnv1a(key), std::move(payload), bytes));
}

double
DseStats::candidatesPerSecond() const
{
    if (evaluateMs <= 0.0)
        return 0.0;
    return double(evaluated) / (evaluateMs / 1e3);
}

double
DseStats::analyticCandidatesPerSecond() const
{
    if (analyticMs <= 0.0)
        return 0.0;
    return double(analyticRanked) / (analyticMs / 1e3);
}

std::vector<std::size_t>
analyticPrepassSurvivors(
        const std::vector<dataflow::SpaceTimeTransform> &transforms,
        const std::vector<std::size_t> &worklist, const IntVec &bounds,
        const core::IterationSpace &probe_space, std::size_t keep)
{
    struct Proxy
    {
        bool saturated;
        double proxy;
        std::size_t index;
    };
    std::vector<Proxy> proxies;
    proxies.reserve(worklist.size());
    for (std::size_t index : worklist) {
        auto probe = analyticProbe(transforms[index], bounds, probe_space);
        double proxy = double(probe.scheduleLength) * double(probe.pes);
        proxies.push_back({probe.saturated, proxy, index});
    }
    std::sort(proxies.begin(), proxies.end(),
              [](const Proxy &a, const Proxy &b) {
                  if (a.saturated != b.saturated)
                      return !a.saturated; // clamped counts rank last
                  if (a.proxy != b.proxy)
                      return a.proxy < b.proxy;
                  return a.index < b.index;
              });
    if (proxies.size() > keep)
        proxies.resize(keep);
    std::vector<std::size_t> survivors;
    survivors.reserve(proxies.size());
    for (const auto &proxy : proxies)
        survivors.push_back(proxy.index);
    std::sort(survivors.begin(), survivors.end());
    return survivors;
}

std::vector<DseCandidate>
exploreDataflows(const func::FunctionalSpec &functional,
                 const IntVec &bounds, const DseOptions &options,
                 const model::AreaParams &area_params,
                 const model::TimingParams &timing_params, DseStats *stats)
{
    DseStats local;

    // The evaluate phase below consumes (enumIndex, transform) pairs in
    // enumeration order; both the fused-streaming and the materialized
    // front halves produce exactly the same `work` sequence.
    std::vector<std::pair<std::size_t, dataflow::SpaceTimeTransform>> work;

    // Fused streaming front half: score candidates with the closed-form
    // model as the coefficient scan streams them. The bounded top-K
    // heap (keyed like the materialized tier: saturated, analytic
    // score, enumIndex) is the only O(K) state — the transform vector
    // is never materialized, which is what makes 1e8-code walks fit in
    // memory. The streamed survivor sequence is byte-identical to the
    // materialized scan, so the survivor set, counters, and final
    // ranking are unchanged. Engages only when the analytic tier alone
    // filters (a prepass needs the whole worklist at once).
    const bool fused = options.streamEnumeration &&
                       options.analyticTopK > 0 &&
                       options.analyticPrepass == 0;
    if (fused) {
        auto enumerate_start = Clock::now();
        AnalyticCostModel cost_model(functional, bounds, options.sparsity,
                                     options.dataWidth, options.macBits,
                                     area_params, timing_params);
        struct Ranked
        {
            bool saturated;
            double score;
            std::size_t index;
            dataflow::SpaceTimeTransform transform;
        };
        auto better = [](const Ranked &a, const Ranked &b) {
            if (a.saturated != b.saturated)
                return !a.saturated; // clamped scores rank last
            if (a.score != b.score)
                return a.score < b.score;
            return a.index < b.index;
        };
        std::vector<Ranked> heap;
        heap.reserve(std::min<std::size_t>(options.analyticTopK, 4096));
        std::size_t scored = 0;
        Clock::duration analytic_time{};
        dataflow::forEachTransform(
                functional, options.enumerate,
                [&](const dataflow::EnumeratedTransform &item) {
                    // Exact maxPes prune, same as the materialized path.
                    if (options.maxPes > 0 &&
                        analyticPeCount(item.transform, bounds) >
                                options.maxPes) {
                        local.prunedEarly++;
                        return true;
                    }
                    auto score_start = Clock::now();
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
                    analytic_time += Clock::now() - score_start;
                    return true;
                },
                &local.enumeration);
        local.enumerated = std::size_t(local.enumeration.yielded);
        local.orbitSkipped = std::size_t(local.enumeration.orbitSkipped);
        if (scored > options.analyticTopK) {
            local.analyticRanked = scored;
            local.analyticFiltered = scored - heap.size();
        }
        // else: too few survivors for the tier to filter — counters
        // stay 0, exactly as when the materialized tier is skipped.
        std::sort(heap.begin(), heap.end(),
                  [](const Ranked &a, const Ranked &b) {
                      return a.index < b.index;
                  });
        work.reserve(heap.size());
        for (auto &ranked : heap)
            work.emplace_back(ranked.index, std::move(ranked.transform));
        // The tier is fused into the scan: its scoring + heap time is
        // summed per candidate, and the scan keeps the rest of the wall.
        local.analyticMs =
                std::chrono::duration<double, std::milli>(analytic_time)
                        .count();
        local.enumerateMs = msSince(enumerate_start) - local.analyticMs;
    } else {
    auto enumerate_start = Clock::now();
    auto transforms = dataflow::enumerateTransforms(
            functional, options.enumerate, &local.enumeration);
    local.enumerateMs = msSince(enumerate_start);
    local.enumerated = transforms.size();
    local.orbitSkipped = std::size_t(local.enumeration.orbitSkipped);

    // Fix the work list (and each candidate's enumIndex) up front so the
    // ranking never depends on evaluation order. The maxPes prune is
    // exact: analyticPeCount equals the elaborated numPes(), so only
    // candidates that genuinely exceed the cap are dropped.
    std::vector<std::size_t> worklist;
    worklist.reserve(transforms.size());
    for (std::size_t i = 0; i < transforms.size(); i++) {
        if (options.maxPes > 0 &&
            analyticPeCount(transforms[i], bounds) > options.maxPes) {
            local.prunedEarly++;
            continue;
        }
        worklist.push_back(i);
    }

    // Optional analytic prepass: probe every surviving candidate in
    // closed form and keep only the most promising ones for the full
    // elaboration below. The probe shares one elaborated + sparsity-
    // pruned space across candidates (both are transform-independent;
    // balancing is transform-specific and deliberately left to the full
    // evaluation). The proxy is the same execution-time x area shape as
    // the real score with fmax and per-PE area held constant, and the
    // survivor list is re-sorted back into enumeration order so the
    // evaluate phase below behaves exactly as in a single-phase run.
    if (options.analyticPrepass > 0 &&
        worklist.size() > options.analyticPrepass) {
        auto prepass_start = Clock::now();
        core::IterationSpace probe_space =
                core::elaborate(functional, bounds);
        core::applySparsity(probe_space, options.sparsity);
        local.prepassFiltered = worklist.size() - options.analyticPrepass;
        worklist = analyticPrepassSurvivors(transforms, worklist, bounds,
                                            probe_space,
                                            options.analyticPrepass);
        local.prepassMs = msSince(prepass_start);
    }

    // Analytic top-K tier: score every surviving candidate with the
    // closed-form cost model (no elaboration) and keep only the best
    // analyticTopK for the exact evaluation below. The tier is scored
    // serially in enumeration order and its heap is keyed (saturated,
    // analytic score, enumIndex), so the survivor set — and therefore
    // the final ranking — is byte-identical at any thread or
    // enumeration-shard count; survivors are re-sorted back into
    // enumeration order so the evaluate phase behaves exactly as in a
    // single-phase run. With an empty balancing spec the analytic score
    // equals the elaborated score bit-for-bit, making this filter
    // lossless for the final top-K (see analytic_cost.hpp).
    if (options.analyticTopK > 0 && worklist.size() > options.analyticTopK) {
        auto analytic_start = Clock::now();
        AnalyticCostModel cost_model(functional, bounds, options.sparsity,
                                     options.dataWidth, options.macBits,
                                     area_params, timing_params);
        struct Ranked
        {
            bool saturated;
            double score;
            std::size_t index;
        };
        auto better = [](const Ranked &a, const Ranked &b) {
            if (a.saturated != b.saturated)
                return !a.saturated; // clamped scores rank last
            if (a.score != b.score)
                return a.score < b.score;
            return a.index < b.index;
        };
        // Bounded heap of the best K seen so far. With the "better"
        // ordering as the heap comparator, the front is the *worst*
        // kept candidate — the eviction point.
        std::vector<Ranked> heap;
        heap.reserve(std::min<std::size_t>(options.analyticTopK, 4096));
        for (std::size_t index : worklist) {
            auto analytic = cost_model.score(transforms[index]);
            Ranked ranked{analytic.saturated, analytic.score, index};
            if (heap.size() < options.analyticTopK) {
                heap.push_back(ranked);
                std::push_heap(heap.begin(), heap.end(), better);
            } else if (better(ranked, heap.front())) {
                std::pop_heap(heap.begin(), heap.end(), better);
                heap.back() = ranked;
                std::push_heap(heap.begin(), heap.end(), better);
            }
        }
        local.analyticRanked = worklist.size();
        local.analyticFiltered = worklist.size() - heap.size();
        worklist.clear();
        for (const auto &ranked : heap)
            worklist.push_back(ranked.index);
        std::sort(worklist.begin(), worklist.end());
        local.analyticMs = msSince(analytic_start);
    }

    work.reserve(worklist.size());
    for (std::size_t index : worklist)
        work.emplace_back(index, std::move(transforms[index]));
    } // end materialized front half

    auto candidates = evaluateAndRank(std::move(work), functional, bounds,
                                      options, area_params, timing_params,
                                      local);

    if (stats)
        *stats = local;
    return candidates;
}

std::vector<DseCandidate>
evaluateAndRank(
        std::vector<std::pair<std::size_t, dataflow::SpaceTimeTransform>>
                work,
        const func::FunctionalSpec &functional, const IntVec &bounds,
        const DseOptions &options, const model::AreaParams &area_params,
        const model::TimingParams &timing_params, DseStats &local)
{
    auto evaluate_start = Clock::now();
    // Each slot is evaluated independently; a throwing candidate leaves
    // its result slot empty and its exception in `errors`. Failure
    // isolation (and the failure *records*) therefore never depend on
    // scheduling: the reduction below walks slots in worklist order.
    std::atomic<std::size_t> retried{0};
    std::atomic<std::size_t> retry_succeeded{0};
    const bool use_memo =
            options.memo != nullptr && !options.memoSpecKey.empty();
    auto evaluate_once = [&](std::size_t i) {
        util::WatchdogScope guard("dse.candidate", options.stepBudget,
                                  options.timeBudgetMillis);
        if (!use_memo)
            return evaluateCandidate(work[i].second, work[i].first,
                                     functional, bounds, options,
                                     area_params, timing_params);
        std::string key = DesignPointMemo::candidateKey(
                options.memoSpecKey, bounds, options.dataWidth,
                options.macBits, work[i].second);
        if (auto hit = options.memo->lookup(key)) {
            // The payload's enumIndex belongs to whichever call
            // populated it; rebind to this enumeration so ranking
            // tie-breaks are identical warm or cold.
            DseCandidate candidate = *hit;
            candidate.enumIndex = work[i].first;
            return candidate;
        }
        auto candidate = evaluateCandidate(
                work[i].second, work[i].first, functional, bounds,
                options, area_params, timing_params);
        options.memo->insert(key, candidate);
        return candidate;
    };
    auto evaluate = [&](std::size_t i) {
        util::fault::ScopedContext context(work[i].first);
        if (!options.retryWallClockTimeout)
            return evaluate_once(i);
        try {
            return evaluate_once(i);
        } catch (const util::TimeoutError &err) {
            // Only wall-clock expiry can be transient; a step budget
            // counts deterministic work and would fail identically.
            if (!err.isWallClock())
                throw;
            retried.fetch_add(1, std::memory_order_relaxed);
            auto candidate = evaluate_once(i); // fresh watchdog budget
            retry_succeeded.fetch_add(1, std::memory_order_relaxed);
            return candidate;
        }
    };
    std::vector<DseCandidate> slots;
    std::vector<std::exception_ptr> errors;
    std::size_t threads = options.threads;
    if (threads == 0)
        threads = std::max<std::size_t>(
                1, std::thread::hardware_concurrency());
    if (threads == 1 || work.size() <= 1) {
        local.threadsUsed = 1;
        slots.resize(work.size());
        errors.assign(work.size(), nullptr);
        for (std::size_t i = 0; i < work.size(); i++) {
            try {
                slots[i] = evaluate(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    } else {
        util::ThreadPool pool(threads);
        local.threadsUsed = pool.size();
        slots = pool.parallelMapIsolated<DseCandidate>(work.size(),
                                                       evaluate, errors);
    }

    // Deterministic reduction: classify failures in work-list (i.e.
    // enumeration) order, so counts, kinds, and records are identical
    // at every thread count.
    std::vector<DseCandidate> candidates;
    candidates.reserve(work.size());
    for (std::size_t i = 0; i < work.size(); i++) {
        if (!errors[i]) {
            candidates.push_back(std::move(slots[i]));
            continue;
        }
        if (!options.isolateFailures)
            std::rethrow_exception(errors[i]);
        CandidateFailure failure;
        failure.enumIndex = work[i].first;
        failure.failure = util::classifyException(
                errors[i], "dse.candidate",
                "enum#" + std::to_string(work[i].first));
        local.failed++;
        local.failedByKind[std::size_t(failure.failure.kind)]++;
        local.failures.push_back(std::move(failure));
    }
    local.evaluated = candidates.size();
    local.retried = retried.load(std::memory_order_relaxed);
    local.retrySucceeded = retry_succeeded.load(std::memory_order_relaxed);
    local.evaluateMs = msSince(evaluate_start);

    // Deterministic top-K reduction: each candidate's score is a pure
    // function of its transform, so sorting by (score, enumIndex) gives
    // byte-identical rankings for serial and parallel runs.
    auto rank_start = Clock::now();
    std::sort(candidates.begin(), candidates.end(),
              [](const DseCandidate &a, const DseCandidate &b) {
                  if (a.score != b.score)
                      return a.score < b.score;
                  return a.enumIndex < b.enumIndex;
              });
    if (candidates.size() > options.topK)
        candidates.resize(options.topK);
    local.rankMs = msSince(rank_start);
    return candidates;
}

} // namespace stellar::accel
