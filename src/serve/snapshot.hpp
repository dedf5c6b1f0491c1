/**
 * @file
 * Versioned on-disk snapshots of the design-point memo.
 *
 * A daemon restart should not re-pay elaboration for every design point
 * it had already scored, so the memo is serialized to a JSON file on
 * graceful shutdown and re-loaded on start. The file is *untrusted
 * input* — it sat on disk where anything may have scribbled on it — so
 * it is a util::envelope document (kind "stellar-design-memo", payload
 * member "entries"; docs/DISTRIBUTED.md describes the envelope) and
 * every mismatch, or a transform matrix that no longer inverts, raises
 * a classified FatalError. The server catches it, logs, and starts
 * cold; a corrupt snapshot can cost warmth, never correctness and
 * never the process.
 *
 * Each entry is {"key":"...","candidate":{"name":"...","rows":R,
 * "cols":C,"matrix":[...row-major ints...],"enum_index":N,"pes":N,
 * "wires":N,"wire_length":N,"schedule_length":N,"fmax_mhz":F,
 * "area_um2":F,"score":F}}.
 */

#ifndef STELLAR_SERVE_SNAPSHOT_HPP
#define STELLAR_SERVE_SNAPSHOT_HPP

#include <cstddef>
#include <string>

#include "accel/dse.hpp"
#include "util/envelope.hpp"

namespace stellar::serve
{

/** The snapshot envelope; another version is a classified load error. */
inline constexpr util::envelope::Format kSnapshotFormat{
        "design-memo snapshot", "stellar-design-memo", 1, "entries",
        util::json::Value::Kind::Array};

/** Serialize every resident memo entry. */
std::string serializeSnapshot(const accel::DesignPointMemo &memo);

/**
 * Validate and load a snapshot into `memo`; returns the number of
 * entries restored. FatalError on any violation: wrong kind or
 * version, checksum mismatch, malformed JSON, or a candidate whose
 * transform matrix is not invertible.
 */
std::size_t loadSnapshot(accel::DesignPointMemo &memo,
                         const std::string &text);

/** serializeSnapshot to `path` (atomically: temp file + rename). */
void saveSnapshotFile(const accel::DesignPointMemo &memo,
                      const std::string &path);

/**
 * Load the snapshot at `path` if one exists; a missing file is a cold
 * start (returns 0), anything else invalid raises like loadSnapshot.
 */
std::size_t loadSnapshotFile(accel::DesignPointMemo &memo,
                             const std::string &path);

} // namespace stellar::serve

#endif // STELLAR_SERVE_SNAPSHOT_HPP
