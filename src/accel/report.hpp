/**
 * @file
 * Human-readable design reports.
 *
 * For any generated accelerator, produce the summary an architect wants
 * when comparing design points: the five input specifications, the
 * pruning decisions, the physical array, regfile plans, buffer
 * pipelines, the modeled area breakdown, and the timing report. Used by
 * the examples and handy when exploring with the DSE driver.
 */

#ifndef STELLAR_ACCEL_REPORT_HPP
#define STELLAR_ACCEL_REPORT_HPP

#include <string>

#include "accel/dse.hpp"
#include "core/accelerator.hpp"
#include "model/params.hpp"

namespace stellar::accel
{

/** Render the full report; area uses the DSE's model widths
 *  (DseOptions::dataWidth/macBits). */
std::string designReport(const core::GeneratedAccelerator &accel,
                         const model::AreaParams &area_params,
                         const model::TimingParams &timing_params);

/**
 * One-paragraph summary of a DSE run: candidates enumerated, pruned
 * early, evaluated, per-phase wall time, and evaluation throughput.
 * Benches and the CLI print this after each exploration.
 *
 * `include_timings` = false drops the wall-time/throughput line — the
 * one nondeterministic line in the report — so outputs that must be
 * byte-identical across runs (the serve daemon's responses, and the
 * CLI under --no-timings) can use the same renderer unfiltered.
 */
std::string dseStatsReport(const DseStats &stats,
                           bool include_timings = true);

} // namespace stellar::accel

#endif // STELLAR_ACCEL_REPORT_HPP
