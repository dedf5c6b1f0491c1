/**
 * @file
 * Elaboration-free analytic scoring: the complete delay-area score of a
 * DSE candidate computed in closed form, without `core::generate`.
 *
 * The probe in accel/analytic.hpp already gives the exact PE count,
 * schedule length, extents, and wire-instance counts of a candidate.
 * What the score additionally needs — per-PE pipeline registers, wire
 * track area, the regfile search depth, and the critical-path floor —
 * turns out to be either a closed form of the same per-axis geometry or
 * transform-*independent* altogether:
 *
 *  - Pipeline bits per PE are `sum(time-delta x width)` over the alive
 *    conn classes, a handful of saturating dot products.
 *  - Wire track area is `instances x L1(space-delta) x width` per conn,
 *    with `instances` from the kernel-overlap count.
 *  - In a DSE sweep the spec carries no buffer bindings, so every
 *    external tensor falls back to the fully-associative regfile whose
 *    searched-entry count equals `touchedElements` — a property of the
 *    fired IO points only, independent of the transform. Its search
 *    delay (and the SRAM/addr-gen components) is therefore a constant
 *    floor computed once per model.
 *
 * Because every accumulation below mirrors model::arrayArea /
 * model::timingOf term-for-term in the same order, the analytic score
 * is BIT-IDENTICAL to the elaborated score whenever nothing saturates.
 * That exactness is what lets the DSE's analytic tier keep only top-K
 * candidates and still reproduce the full ranking; the differential
 * tests pin it.
 *
 * A model instance is NOT thread-safe: score() reuses internal scratch
 * buffers so a sweep over a million candidates allocates nothing. The
 * DSE tier runs it serially in the enumeration scan's consumer
 * (exploreDataflows, scanShard), which is also what makes the tier's
 * ranking trivially byte-identical at any thread or shard count.
 */

#ifndef STELLAR_ACCEL_ANALYTIC_COST_HPP
#define STELLAR_ACCEL_ANALYTIC_COST_HPP

#include <cstdint>
#include <vector>

#include "core/accelerator.hpp"
#include "core/iteration_space.hpp"
#include "dataflow/transform.hpp"
#include "model/params.hpp"

namespace stellar::accel
{

/** Closed-form score of one candidate (mirrors DseCandidate's fields). */
struct AnalyticScore
{
    std::int64_t pes = 0;
    std::int64_t wires = 0;
    std::int64_t wireLength = 0;
    std::int64_t scheduleLength = 0;
    double fmaxMhz = 0.0;
    double areaUm2 = 0.0;

    /** Execution time x area; lower is better. */
    double score = 0.0;

    /**
     * True when any intermediate quantity was clamped to the int64
     * range: the numbers describe "astronomically large", not a usable
     * magnitude, and the candidate must rank after every unsaturated
     * one (see the (saturated, score, enumIndex) ordering in the DSE).
     */
    bool saturated = false;
};

/**
 * Shared precomputation for analytic scoring of one design space: the
 * elaborated + sparsity-pruned iteration space, per-conn geometry, and
 * the transform-independent regfile/SRAM delay floor. Construct once,
 * then call score() per candidate (~a hundred integer ops for a
 * 3-index spec — millions of candidates per second on one thread).
 */
class AnalyticCostModel
{
  public:
    AnalyticCostModel(const func::FunctionalSpec &functional,
                      const IntVec &bounds,
                      const sparsity::SparsitySpec &sparsity,
                      int data_width, int mac_bits,
                      const model::AreaParams &area_params,
                      const model::TimingParams &timing_params);

    /**
     * Score one candidate. Not thread-safe (reuses scratch buffers);
     * not `const` for the same reason.
     */
    AnalyticScore score(const dataflow::SpaceTimeTransform &transform);

  private:
    /** Transform-independent geometry of one alive conn class. */
    struct ConnGeometry
    {
        IntVec diff;
        int widthBits = 0;    //!< data width x bundle size
        IntVec subSpans;      //!< per-axis source sub-box span
    };

    core::IterationSpace space_;
    IntVec bounds_;
    int dims_ = 0;
    int macBits_ = 0;
    model::AreaParams area_;
    model::TimingParams timing_;
    std::vector<ConnGeometry> conns_;

    /** max(sram, addr-gen, per-tensor regfile search) — constant. */
    double constantDelayFloor_ = 0.0;

    // score() scratch, reused across calls (the allocation-free path).
    IntVec kernel_;
    IntVec spaceDelta_;
    IntVec extents_;
    std::vector<double> wireAreas_;
};

} // namespace stellar::accel

#endif // STELLAR_ACCEL_ANALYTIC_COST_HPP
