#include "dataflow/enumerate.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <future>
#include <optional>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace stellar::dataflow
{

namespace
{

/** Below this many codes the sharded scan is not worth a pool. */
constexpr std::int64_t kShardThreshold = 4096;

int
checkedIndices(const func::FunctionalSpec &spec)
{
    int n = spec.numIndices();
    require(n >= 1 && n <= 4,
            "transform enumeration supports 1 to 4 iterators");
    return n;
}

/** Historical cap for the materializing enumerateTransforms(). */
constexpr std::int64_t kMaxMaterializedCodes = 100000000;

/** Hard cap on the streaming scan (keeps code arithmetic in int64). */
constexpr std::int64_t kMaxStreamCodes = 2000000000;

/** A code that survived decode, invertibility, and causality checks. */
struct RawCandidate
{
    IntMatrix matrix;
    std::vector<std::int64_t> signature;
};

/**
 * Decode one coefficient code and run the per-candidate filters;
 * nullopt when rejected. The oracle's serial and sharded scans both
 * call this, which is what keeps their outputs byte-identical.
 */
std::optional<RawCandidate>
candidateAt(std::int64_t code, int n, std::int64_t min_coeff,
            std::int64_t range,
            const std::vector<func::Recurrence> &recurrences,
            const EnumerateOptions &options)
{
    IntMatrix m(n, n);
    std::int64_t rest = code;
    for (int r = 0; r < n; r++) {
        for (int c = 0; c < n; c++) {
            m.at(r, c) = min_coeff + rest % range;
            rest /= range;
        }
    }
    if (!m.isInvertible())
        return std::nullopt;

    // Causality + wiring constraints over the recurrences.
    std::vector<IntVec> displacements;
    for (const auto &rec : recurrences) {
        IntVec st = m * rec.diff;
        std::int64_t dt = st.back();
        if (dt < 0 || (dt == 0 && !options.allowBroadcast))
            return std::nullopt;
        std::int64_t hops = 0;
        for (std::size_t axis = 0; axis + 1 < st.size(); axis++)
            hops += st[axis] < 0 ? -st[axis] : st[axis];
        if (hops > options.maxHopLength)
            return std::nullopt;
        displacements.push_back(std::move(st));
    }

    // Canonical signature modulo spatial-axis permutation and
    // reflection: per-axis columns of |displacement|, sorted, plus
    // the time displacements.
    RawCandidate candidate;
    candidate.matrix = std::move(m);
    if (!displacements.empty()) {
        std::size_t dims = displacements[0].size();
        std::vector<IntVec> columns;
        for (std::size_t axis = 0; axis + 1 < dims; axis++) {
            IntVec column;
            for (const auto &st : displacements) {
                std::int64_t v = st[axis];
                column.push_back(v < 0 ? -v : v);
            }
            columns.push_back(std::move(column));
        }
        std::sort(columns.begin(), columns.end());
        for (const auto &column : columns)
            candidate.signature.insert(candidate.signature.end(),
                                       column.begin(), column.end());
        for (const auto &st : displacements)
            candidate.signature.push_back(st.back());
    }
    return candidate;
}

/**
 * Derived scan geometry. A code is the mixed-radix encoding of the
 * matrix cells (row 0 least significant, the time row most
 * significant), so each row occupies one base-`rowBlock` digit:
 *
 *   code = t * B^m + sum_r s[r] * B^r,  B = range^n, m = n - 1,
 *
 * with s[r] the spatial-row blocks and t the time-row block. The orbit
 * group (negate/permute spatial rows) acts purely on the multiset
 * {s[r]}: negating a row maps its block b -> (B-1) - b when the
 * coefficient range is symmetric, permuting rows permutes blocks. The
 * orbit's minimal code therefore has every spatial block <= `cap` and
 * the blocks non-increasing from row 0 up (smallest values at the
 * largest weights) — which is a test on raw coefficient structure, no
 * decode needed, and lets the scan jump whole non-canonical regions.
 */
struct Geometry
{
    int n = 0;
    std::int64_t minCoeff = 0;
    std::int64_t maxCoeff = 0;
    std::int64_t range = 0;
    std::int64_t total = 0;    //!< range^(n^2)
    std::int64_t rowBlock = 0; //!< range^n (one row's digit base)
    int spatialRows = 0;       //!< n - 1
    bool canonical = false;    //!< orbit skipping active
    std::int64_t cap = 0;      //!< max canonical spatial block value
    std::int64_t runTop = 0;   //!< last row-0 block of a canonical run
};

Geometry
geometryFor(int n, const EnumerateOptions &options)
{
    Geometry g;
    g.n = n;
    g.minCoeff = options.minCoeff;
    g.maxCoeff = options.maxCoeff;
    require(options.minCoeff < options.maxCoeff,
            "coefficient range must span at least two values");
    // Overflow-safe span: real span fits in uint64 whenever min < max.
    std::uint64_t span = std::uint64_t(options.maxCoeff) -
                         std::uint64_t(options.minCoeff);
    if (span >= std::uint64_t(kMaxStreamCodes)) {
        fatal("transform enumeration space too large; narrow the "
              "coefficient range");
    }
    g.range = std::int64_t(span) + 1;

    std::int64_t cells = std::int64_t(n) * n;
    g.total = 1;
    for (std::int64_t c = 0; c < cells; c++) {
        if (g.total > kMaxStreamCodes / g.range) {
            fatal("transform enumeration space too large; narrow the "
                  "coefficient range");
        }
        g.total *= g.range;
    }
    g.rowBlock = 1;
    for (int r = 0; r < n; r++)
        g.rowBlock *= g.range;

    g.spatialRows = n - 1;
    bool symmetric = options.minCoeff == -options.maxCoeff;
    // Sign flips need a symmetric range; permutations need >= 2 spatial
    // rows. With neither, every code is its own orbit.
    g.canonical = options.orbitCanonical && g.spatialRows >= 1 &&
                  (symmetric || g.spatialRows >= 2);
    g.cap = (g.canonical && symmetric) ? (g.rowBlock - 1) / 2
                                       : g.rowBlock - 1;
    g.runTop = g.canonical ? g.cap : g.rowBlock - 1;
    return g;
}

/**
 * The smallest orbit-canonical code >= `code` (total when exhausted).
 * Canonical means every spatial block <= cap and, most-significant
 * spatial digit first, the blocks are non-decreasing.
 */
std::int64_t
nextCanonical(const Geometry &g, std::int64_t code)
{
    if (!g.canonical)
        return code;
    const int m = g.spatialRows;
    const std::int64_t B = g.rowBlock;

    // w[i] = spatial block at significance rank i (w[0] most
    // significant = row m-1's block).
    std::int64_t rest = code;
    std::array<std::int64_t, 4> w{};
    for (int r = 0; r < m; r++) {
        w[std::size_t(m - 1 - r)] = rest % B;
        rest /= B;
    }
    std::int64_t t = rest;

    std::int64_t floor_v = 0;
    int bad = -1;
    bool over_cap = false;
    for (int i = 0; i < m; i++) {
        std::int64_t v = w[std::size_t(i)];
        if (v > g.cap) {
            bad = i;
            over_cap = true;
            break;
        }
        if (v < floor_v) {
            bad = i;
            break;
        }
        floor_v = v;
    }
    if (bad < 0)
        return code;

    if (!over_cap) {
        // Raise position `bad` to the running floor; the minimal valid
        // suffix repeats that value.
        for (int j = bad; j < m; j++)
            w[std::size_t(j)] = floor_v;
    } else {
        // Position `bad` exceeded the cap: increment the deepest prior
        // position that can absorb a carry, minimal suffix after it.
        int p = bad - 1;
        while (p >= 0 && w[std::size_t(p)] + 1 > g.cap)
            p--;
        if (p < 0) {
            t++;
            if (t >= B)
                return g.total; // exhausted
            for (int j = 0; j < m; j++)
                w[std::size_t(j)] = 0;
        } else {
            w[std::size_t(p)]++;
            for (int j = p + 1; j < m; j++)
                w[std::size_t(j)] = w[std::size_t(p)];
        }
    }

    std::int64_t out = t;
    for (int i = 0; i < m; i++)
        out = out * B + w[std::size_t(i)];
    return out;
}

/** The matrix `code` encodes: cell (r, c) is digit r*n + c. */
IntMatrix
matrixOf(const Geometry &g, std::int64_t code)
{
    IntMatrix m(g.n, g.n);
    for (int r = 0; r < g.n; r++) {
        for (int c = 0; c < g.n; c++) {
            m.at(r, c) = g.minCoeff + code % g.range;
            code /= g.range;
        }
    }
    return m;
}

/** Hash for dedup signatures; the sets only test membership. */
struct SignatureHash
{
    std::size_t operator()(const std::vector<std::int64_t> &sig) const
    {
        std::uint64_t h = 0x9e3779b97f4a7c15ull ^ sig.size();
        for (std::int64_t v : sig) {
            h ^= std::uint64_t(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
                 (h >> 2);
        }
        return std::size_t(h);
    }
};

using SignatureSet =
        std::unordered_set<std::vector<std::int64_t>, SignatureHash>;

/**
 * Per-chunk scan scratch, organised around *runs*: the codes
 * `base + b` for b in [first row-0 block, runTop] share rows 1..n-1, so
 * they share the time row, the hops of spatial rows 1..n-2 and the
 * cofactors of row 0. `loadRun` evaluates those once; when the time row
 * is not causal, the fixed hops already exceed the limit, or every
 * cofactor is zero (det = 0 whatever row 0 is), no code of the run can
 * survive. A live run is walked with row 0 as an odometer that carries
 * its coefficients and its displacement along every recurrence, so a
 * code costs one dot product for the determinant and one compare per
 * recurrence; only survivors build a signature.
 */
struct Scanner
{
    const Geometry &g;
    const EnumerateOptions &options;
    std::size_t recs = 0;
    std::vector<std::int64_t> diffs; //!< recurrence k's diff at [k*n]
    std::array<std::int64_t, 16> cells{}; //!< rows 1..n-1 of the run
    std::array<std::int64_t, 4> cofactor{}; //!< row 0's cofactors
    std::vector<std::int64_t> fixedHops; //!< per recurrence, rows 1..n-2
    std::vector<std::int64_t> spatial;   //!< |row r·diff_k| at [r*recs+k]
    std::vector<std::int64_t> times;     //!< per-recurrence dt
    // Row-0 odometer.
    std::array<std::int64_t, 4> row0{};
    std::vector<std::int64_t> row0Dot; //!< row0·diff_k
    std::array<int, 3> order{};         //!< spatial axes, sorted
    std::vector<std::int64_t> signature;

    Scanner(const Geometry &geometry,
            const std::vector<func::Recurrence> &recurrences,
            const EnumerateOptions &opts)
        : g(geometry), options(opts), recs(recurrences.size())
    {
        for (const auto &rec : recurrences)
            diffs.insert(diffs.end(), rec.diff.begin(), rec.diff.end());
        fixedHops.assign(recs, 0);
        spatial.assign(std::size_t(g.n) * recs, 0);
        times.assign(recs, 0);
        row0Dot.assign(recs, 0);
    }

    /**
     * Decode rows 1..n-1 of `code`'s run and check what they fix;
     * false when no code of the run can survive.
     */
    bool loadRun(std::int64_t code)
    {
        const int n = g.n;
        std::int64_t rest = code / g.rowBlock;
        for (int cell = n; cell < n * n; cell++) {
            cells[std::size_t(cell)] = g.minCoeff + rest % g.range;
            rest /= g.range;
        }
        for (std::size_t k = 0; k < recs; k++) {
            const std::int64_t *diff = diffs.data() + k * std::size_t(n);
            std::int64_t hops = 0;
            for (int r = 1; r < n; r++) {
                std::int64_t v = dot(rowAt(r), diff);
                if (r == n - 1) {
                    if (v < 0 || (v == 0 && !options.allowBroadcast))
                        return false;
                    times[k] = v;
                } else {
                    std::int64_t av = v < 0 ? -v : v;
                    spatial[std::size_t(r) * recs + k] = av;
                    hops += av;
                }
            }
            // Row 0 can only add hops (n == 1 has no spatial rows and
            // still compares 0 against the limit, as the filter does).
            if (hops > options.maxHopLength)
                return false;
            fixedHops[k] = hops;
        }
        computeCofactors();
        for (int c = 0; c < n; c++)
            if (cofactor[std::size_t(c)] != 0)
                return true;
        return false;
    }

    /** Point the row-0 odometer at `code`'s row-0 block. */
    void startRow0(std::int64_t code)
    {
        const int n = g.n;
        std::int64_t rest = code % g.rowBlock;
        for (int c = 0; c < n; c++) {
            row0[std::size_t(c)] = g.minCoeff + rest % g.range;
            rest /= g.range;
        }
        for (std::size_t k = 0; k < recs; k++)
            row0Dot[k] = dot(row0.data(), diffs.data() + k * std::size_t(n));
    }

    /** Advance row 0 to the next block value. */
    void stepRow0()
    {
        const int n = g.n;
        for (int c = 0; c < n; c++) {
            std::int64_t &v = row0[std::size_t(c)];
            const std::int64_t delta = v < g.maxCoeff ? 1 : 1 - g.range;
            v += delta;
            const std::int64_t *diff = diffs.data() + std::size_t(c);
            for (std::size_t k = 0; k < recs; k++)
                row0Dot[k] += delta * diff[k * std::size_t(n)];
            if (delta == 1)
                return;
        }
    }

    /** The filters for the odometer's row 0; true when it survives. */
    bool row0Survives() const
    {
        const int n = g.n;
        std::int64_t det = 0;
        for (int c = 0; c < n; c++)
            det += row0[std::size_t(c)] * cofactor[std::size_t(c)];
        if (det == 0)
            return false;
        if (n == 1) {
            // The only row is the time row.
            for (std::size_t k = 0; k < recs; k++) {
                std::int64_t dt = row0Dot[k];
                if (dt < 0 || (dt == 0 && !options.allowBroadcast))
                    return false;
            }
            return true;
        }
        for (std::size_t k = 0; k < recs; k++) {
            std::int64_t v = row0Dot[k];
            if (fixedHops[k] + (v < 0 ? -v : v) > options.maxHopLength)
                return false;
        }
        return true;
    }

    /**
     * Canonical signature modulo spatial-axis permutation and
     * reflection: per-axis columns of |displacement|, sorted, then the
     * time displacements.
     */
    void buildSignature()
    {
        signature.clear();
        if (recs == 0)
            return;
        const int axes = g.n - 1;
        if (axes == 0) {
            signature.assign(row0Dot.begin(), row0Dot.end());
            return;
        }
        for (std::size_t k = 0; k < recs; k++) {
            std::int64_t v = row0Dot[k];
            spatial[k] = v < 0 ? -v : v;
        }
        for (int a = 0; a < axes; a++)
            order[std::size_t(a)] = a;
        std::sort(order.begin(), order.begin() + axes, [&](int x, int y) {
            const std::int64_t *cx = spatial.data() + std::size_t(x) * recs;
            const std::int64_t *cy = spatial.data() + std::size_t(y) * recs;
            return std::lexicographical_compare(cx, cx + recs, cy, cy + recs);
        });
        for (int a = 0; a < axes; a++) {
            const std::int64_t *column =
                    spatial.data() + std::size_t(order[std::size_t(a)]) * recs;
            signature.insert(signature.end(), column, column + recs);
        }
        signature.insert(signature.end(), times.begin(), times.end());
    }

  private:
    const std::int64_t *rowAt(int r) const
    {
        return cells.data() + std::size_t(r) * std::size_t(g.n);
    }

    std::int64_t dot(const std::int64_t *row, const std::int64_t *diff) const
    {
        std::int64_t v = 0;
        for (int c = 0; c < g.n; c++)
            v += row[c] * diff[c];
        return v;
    }

    /** cofactor[c] = (-1)^c * minor(0, c) over rows 1..n-1, so that
     *  det = row0 · cofactor (the closed-form expansion along row 0). */
    void computeCofactors()
    {
        const std::int64_t *a = cells.data();
        switch (g.n) {
        case 1:
            cofactor[0] = 1;
            break;
        case 2:
            cofactor[0] = a[3];
            cofactor[1] = -a[2];
            break;
        case 3:
            cofactor[0] = a[4] * a[8] - a[5] * a[7];
            cofactor[1] = -(a[3] * a[8] - a[5] * a[6]);
            cofactor[2] = a[3] * a[7] - a[4] * a[6];
            break;
        default: {
            auto det3 = [&](int c1, int c2, int c3) {
                return a[4 + c1] * (a[8 + c2] * a[12 + c3] -
                                    a[8 + c3] * a[12 + c2]) -
                       a[4 + c2] * (a[8 + c1] * a[12 + c3] -
                                    a[8 + c3] * a[12 + c1]) +
                       a[4 + c3] * (a[8 + c1] * a[12 + c2] -
                                    a[8 + c2] * a[12 + c1]);
            };
            cofactor[0] = det3(1, 2, 3);
            cofactor[1] = -det3(0, 2, 3);
            cofactor[2] = det3(0, 1, 3);
            cofactor[3] = -det3(0, 1, 2);
            break;
        }
        }
    }
};

/**
 * One chunk-local survivor. The `*After` counters snapshot the chunk's
 * accounting through this survivor's code, so a `limit` stop can report
 * exactly the stats the serial scan would have at that code.
 */
struct ChunkSurvivor
{
    std::int64_t code = 0; //!< decoded into a matrix only if yielded
    std::vector<std::int64_t> signature;
    std::int64_t examinedAfter = 0; //!< codes of this chunk covered
    std::int64_t decodedAfter = 0;
    std::int64_t rejectedAfter = 0;
    std::int64_t duplicatesAfter = 0;
};

struct ChunkResult
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    std::int64_t decoded = 0;
    std::int64_t rejected = 0;
    std::int64_t duplicates = 0; //!< chunk-local signature duplicates
    std::vector<ChunkSurvivor> survivors;
};

/**
 * Chunk-local dedup keyed by position in the chunk's survivor list, so
 * each signature is stored once; a candidate's signature is looked up
 * directly (heterogeneous lookup).
 */
struct SurvivorKey
{
    using is_transparent = void;
    const std::vector<ChunkSurvivor> *survivors = nullptr;

    const std::vector<std::int64_t> &sig(std::size_t i) const
    {
        return (*survivors)[i].signature;
    }
    const std::vector<std::int64_t> &
    sig(const std::vector<std::int64_t> &signature) const
    {
        return signature;
    }

    template <typename Key>
    std::size_t operator()(const Key &key) const
    {
        return SignatureHash{}(sig(key));
    }
    template <typename A, typename B>
    bool operator()(const A &a, const B &b) const
    {
        return sig(a) == sig(b);
    }
};

/**
 * Scan [lo, hi) run by run, skipping non-canonical codes, dedup-ing
 * locally by signature (keeping the first code of each — exactly what
 * the global in-order merge keeps). A rejected run adds its length,
 * clipped to the chunk, to `decoded` and `rejected` at once; no
 * survivor lies inside it, so every survivor's snapshot stays exact.
 */
ChunkResult
scanChunk(Scanner &scanner, const Geometry &g, std::int64_t lo,
          std::int64_t hi)
{
    ChunkResult res;
    res.lo = lo;
    res.hi = hi;
    const SurvivorKey key{&res.survivors};
    std::unordered_set<std::size_t, SurvivorKey, SurvivorKey> local(0, key,
                                                                     key);
    std::int64_t code = nextCanonical(g, lo);
    while (code < hi) {
        const std::int64_t end = std::min(
                hi, code - code % g.rowBlock + g.runTop + 1);
        if (!scanner.loadRun(code)) {
            res.decoded += end - code;
            res.rejected += end - code;
        } else {
            scanner.startRow0(code);
            for (; code < end; code++, scanner.stepRow0()) {
                res.decoded++;
                if (!scanner.row0Survives()) {
                    res.rejected++;
                    continue;
                }
                scanner.buildSignature();
                if (local.find(scanner.signature) != local.end()) {
                    res.duplicates++;
                    continue;
                }
                ChunkSurvivor s;
                s.code = code;
                s.signature = scanner.signature;
                s.examinedAfter = code - lo + 1;
                s.decodedAfter = res.decoded;
                s.rejectedAfter = res.rejected;
                s.duplicatesAfter = res.duplicates;
                res.survivors.push_back(std::move(s));
                local.insert(res.survivors.size() - 1);
            }
        }
        if (end >= hi)
            break;
        code = nextCanonical(g, end);
    }
    return res;
}

/**
 * Deterministic chunk schedule, independent of the thread count: early
 * chunks are small so tiny `limit`s stop after near-serial work, later
 * chunks grow geometrically to amortize merge overhead.
 */
std::vector<std::pair<std::int64_t, std::int64_t>>
chunkBounds(std::int64_t total)
{
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    std::int64_t lo = 0;
    std::int64_t size = kShardThreshold;
    while (lo < total) {
        std::int64_t hi = std::min(total, lo + size);
        out.emplace_back(lo, hi);
        lo = hi;
        size = std::min<std::int64_t>(size * 2, std::int64_t(1) << 21);
    }
    if (out.empty())
        out.emplace_back(0, 0);
    return out;
}

/**
 * Chunk schedule restricted to the options' shard slice: the bounds of
 * `chunkBounds(hi - lo)` shifted by `lo`, where [lo, hi) is slice
 * `shardIndex` of `shardCount` equal contiguous pieces of the full
 * space — the same `total*i/N` arithmetic as the sharded oracle, so
 * the N slices partition [0, total) exactly. The scan itself needs no
 * other change: `nextCanonical` works from any starting code.
 */
std::vector<std::pair<std::int64_t, std::int64_t>>
shardChunkBounds(const Geometry &g, const EnumerateOptions &options)
{
    if (options.shardCount <= 0)
        return chunkBounds(g.total);
    require(options.shardIndex >= 0 &&
                    options.shardIndex < options.shardCount,
            "enumeration shard index out of range");
    std::int64_t lo = g.total * options.shardIndex / options.shardCount;
    std::int64_t hi =
            g.total * (options.shardIndex + 1) / options.shardCount;
    auto out = chunkBounds(hi - lo);
    for (auto &bounds : out) {
        bounds.first += lo;
        bounds.second += lo;
    }
    return out;
}

} // namespace

struct TransformStream::Impl
{
    EnumerateOptions options;
    Geometry g;
    std::vector<func::Recurrence> recurrences;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    std::size_t nextToIssue = 0;
    std::size_t window = 0;
    Scanner scanner; //!< serial-path scratch

    ChunkResult current;
    std::size_t cursor = 0;
    bool haveCurrent = false;
    bool done = false;

    SignatureSet signatures;
    // Totals over fully consumed chunks; merge-level duplicates are
    // tracked separately because they belong to the consuming walk.
    std::int64_t priorExamined = 0;
    std::int64_t priorDecoded = 0;
    std::int64_t priorRejected = 0;
    std::int64_t priorDuplicates = 0;
    std::int64_t mergeDuplicates = 0;
    // Serial-equivalent accounting at the last yielded code, for
    // `limit`/stop() finalization.
    std::int64_t lastExamined = 0;
    std::int64_t lastDecoded = 0;
    std::int64_t lastRejected = 0;
    std::int64_t lastDuplicates = 0;
    EnumerateStats stats;

    std::deque<std::future<ChunkResult>> inflight;
    // Declared last: destroyed first, so worker tasks referencing the
    // members above are joined/discarded before those members die.
    std::unique_ptr<util::ThreadPool> pool;

    Impl(const func::FunctionalSpec &spec, const EnumerateOptions &opts)
        : options(opts),
          g(geometryFor(checkedIndices(spec), opts)),
          recurrences(spec.recurrences()),
          chunks(shardChunkBounds(g, opts)),
          scanner(g, recurrences, options)
    {
        stats.codesTotal = g.total;
        std::size_t threads = options.threads;
        if (threads == 0)
            threads = std::max<std::size_t>(
                    1, std::thread::hardware_concurrency());
        if (threads > 1 && chunks.size() > 1) {
            window = threads * 2 + 2;
            pool = std::make_unique<util::ThreadPool>(threads);
        }
    }

    void issueChunk()
    {
        auto bounds = chunks[nextToIssue++];
        inflight.push_back(pool->submit([this, bounds]() {
            Scanner local(g, recurrences, options);
            return scanChunk(local, g, bounds.first, bounds.second);
        }));
    }

    bool fetchNextChunk()
    {
        if (pool) {
            while (inflight.size() < window && nextToIssue < chunks.size())
                issueChunk();
            if (inflight.empty())
                return false;
            current = inflight.front().get();
            inflight.pop_front();
            while (inflight.size() < window && nextToIssue < chunks.size())
                issueChunk();
        } else {
            if (nextToIssue >= chunks.size())
                return false;
            auto bounds = chunks[nextToIssue++];
            current = scanChunk(scanner, g, bounds.first, bounds.second);
        }
        cursor = 0;
        haveCurrent = true;
        return true;
    }

    void finalizeAtLastYield()
    {
        stats.codesExamined = lastExamined;
        stats.decoded = lastDecoded;
        stats.rejected = lastRejected;
        stats.duplicates = lastDuplicates;
        stats.orbitSkipped = stats.codesExamined - stats.decoded;
        done = true;
    }

    bool next(EnumeratedTransform &out)
    {
        if (done)
            return false;
        for (;;) {
            while (haveCurrent && cursor < current.survivors.size()) {
                ChunkSurvivor &s = current.survivors[cursor++];
                if (!signatures.insert(s.signature).second) {
                    mergeDuplicates++;
                    continue;
                }
                out.code = s.code;
                out.index = std::size_t(stats.yielded);
                out.signature = s.signature;
                out.transform = SpaceTimeTransform(
                        matrixOf(g, s.code),
                        "enumerated-" + std::to_string(out.index));
                stats.yielded++;
                lastExamined = priorExamined + s.examinedAfter;
                lastDecoded = priorDecoded + s.decodedAfter;
                lastRejected = priorRejected + s.rejectedAfter;
                lastDuplicates = priorDuplicates + s.duplicatesAfter +
                                 mergeDuplicates;
                out.examinedAfter = lastExamined;
                out.decodedAfter = lastDecoded;
                out.rejectedAfter = lastRejected;
                out.duplicatesAfter = lastDuplicates;
                if (std::uint64_t(stats.yielded) >=
                    std::uint64_t(options.limit))
                    finalizeAtLastYield();
                return true;
            }
            if (haveCurrent) {
                priorExamined += current.hi - current.lo;
                priorDecoded += current.decoded;
                priorRejected += current.rejected;
                priorDuplicates += current.duplicates;
                haveCurrent = false;
            }
            if (!fetchNextChunk()) {
                stats.codesExamined = priorExamined;
                stats.decoded = priorDecoded;
                stats.rejected = priorRejected;
                stats.duplicates = priorDuplicates + mergeDuplicates;
                stats.orbitSkipped = stats.codesExamined - stats.decoded;
                done = true;
                return false;
            }
        }
    }

    void stop()
    {
        if (done)
            return;
        if (stats.yielded > 0) {
            finalizeAtLastYield();
        } else {
            stats.codesExamined = 0;
            stats.orbitSkipped = 0;
            stats.decoded = 0;
            stats.rejected = 0;
            stats.duplicates = 0;
            done = true;
        }
    }
};

TransformStream::TransformStream(const func::FunctionalSpec &spec,
                                 const EnumerateOptions &options)
    : impl_(std::make_unique<Impl>(spec, options))
{
}

TransformStream::~TransformStream() = default;
TransformStream::TransformStream(TransformStream &&) noexcept = default;
TransformStream &
TransformStream::operator=(TransformStream &&) noexcept = default;

bool
TransformStream::next(EnumeratedTransform &out)
{
    return impl_->next(out);
}

void
TransformStream::stop()
{
    impl_->stop();
}

const EnumerateStats &
TransformStream::stats() const
{
    return impl_->stats;
}

void
forEachTransform(const func::FunctionalSpec &spec,
                 const EnumerateOptions &options, const TransformSink &sink,
                 EnumerateStats *stats)
{
    TransformStream stream(spec, options);
    EnumeratedTransform item;
    while (stream.next(item)) {
        if (!sink(item)) {
            stream.stop();
            break;
        }
    }
    if (stats)
        *stats = stream.stats();
}

std::vector<SpaceTimeTransform>
enumerateTransforms(const func::FunctionalSpec &spec,
                    const EnumerateOptions &options, EnumerateStats *stats)
{
    if (detail::codeSpaceSize(spec, options) > kMaxMaterializedCodes) {
        fatal("transform enumeration space too large; narrow the "
              "coefficient range");
    }
    std::vector<SpaceTimeTransform> found;
    forEachTransform(
            spec, options,
            [&](const EnumeratedTransform &item) {
                found.push_back(item.transform);
                return true;
            },
            stats);
    return found;
}

namespace detail
{

std::vector<SpaceTimeTransform>
enumerateTransformsOracle(const func::FunctionalSpec &spec,
                          const EnumerateOptions &options)
{
    int n = spec.numIndices();
    require(n >= 1 && n <= 4,
            "transform enumeration supports 1 to 4 iterators");
    std::int64_t range = options.maxCoeff - options.minCoeff + 1;
    require(range >= 2, "coefficient range must span at least two values");

    auto recurrences = spec.recurrences();

    std::int64_t cells = std::int64_t(n) * n;
    std::int64_t total = 1;
    for (std::int64_t c = 0; c < cells; c++) {
        total *= range;
        if (total > kMaxMaterializedCodes) {
            fatal("transform enumeration space too large; narrow the "
                  "coefficient range");
        }
    }

    std::size_t threads = options.threads;
    if (threads == 0)
        threads = std::max<std::size_t>(
                1, std::thread::hardware_concurrency());

    std::vector<SpaceTimeTransform> found;
    std::set<std::vector<std::int64_t>> signatures;

    if (threads <= 1 || total < kShardThreshold) {
        // Serial scan, with the early exit the sharded path cannot take.
        for (std::int64_t code = 0; code < total; code++) {
            auto candidate = candidateAt(code, n, options.minCoeff, range,
                                         recurrences, options);
            if (!candidate)
                continue;
            if (!signatures.insert(candidate->signature).second)
                continue; // same displacement structure as before
            found.emplace_back(std::move(candidate->matrix),
                               "enumerated-" +
                                       std::to_string(found.size()));
            if (found.size() >= options.limit)
                break;
        }
        return found;
    }

    // Sharded scan: contiguous code ranges, one survivor list per
    // shard. Each shard dedups locally (keeping the first code of every
    // signature, exactly what the global merge would keep), then the
    // merge walks shards in code order against the global signature
    // set, so names, dedup winners, and the result vector match the
    // serial scan byte for byte.
    std::size_t shard_count =
            std::size_t(std::min<std::int64_t>(std::int64_t(threads) * 8,
                                               total));
    util::ThreadPool pool(threads);
    auto shards = pool.parallelMap<std::vector<RawCandidate>>(
            shard_count, [&](std::size_t shard) {
                std::int64_t lo = total * std::int64_t(shard) /
                                  std::int64_t(shard_count);
                std::int64_t hi = total * (std::int64_t(shard) + 1) /
                                  std::int64_t(shard_count);
                std::vector<RawCandidate> survivors;
                std::set<std::vector<std::int64_t>> local;
                for (std::int64_t code = lo; code < hi; code++) {
                    auto candidate = candidateAt(code, n, options.minCoeff,
                                                 range, recurrences,
                                                 options);
                    if (!candidate)
                        continue;
                    if (!local.insert(candidate->signature).second)
                        continue;
                    survivors.push_back(std::move(*candidate));
                }
                return survivors;
            });

    for (auto &shard : shards) {
        for (auto &candidate : shard) {
            if (!signatures.insert(candidate.signature).second)
                continue;
            found.emplace_back(std::move(candidate.matrix),
                               "enumerated-" +
                                       std::to_string(found.size()));
            if (found.size() >= options.limit)
                return found;
        }
    }
    return found;
}

bool
codeIsOrbitCanonical(const func::FunctionalSpec &spec,
                     const EnumerateOptions &options, std::int64_t code)
{
    Geometry g = geometryFor(checkedIndices(spec),
                             options);
    return nextCanonical(g, code) == code;
}

bool
decodeCandidate(const func::FunctionalSpec &spec,
                const EnumerateOptions &options, std::int64_t code,
                IntMatrix *matrix, std::vector<std::int64_t> *signature)
{
    Geometry g = geometryFor(checkedIndices(spec), options);
    auto candidate = candidateAt(code, g.n, g.minCoeff, g.range,
                                 spec.recurrences(), options);
    if (!candidate)
        return false;
    if (matrix)
        *matrix = std::move(candidate->matrix);
    if (signature)
        *signature = std::move(candidate->signature);
    return true;
}

std::int64_t
codeSpaceSize(const func::FunctionalSpec &spec,
              const EnumerateOptions &options)
{
    return geometryFor(checkedIndices(spec), options)
            .total;
}

} // namespace detail

} // namespace stellar::dataflow
