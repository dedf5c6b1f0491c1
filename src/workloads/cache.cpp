#include "workloads/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "sparse/matrix.hpp"
#include "util/strings.hpp"
#include "workloads/alexnet.hpp"

namespace stellar::workloads
{

namespace
{

/** Exact hexfloat rendering, so 0.35 and 0.35000000001 never alias. */
std::string
hexDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%a", value);
    return buffer;
}

std::uint64_t
vectorBytes(std::size_t count, std::size_t element)
{
    return std::uint64_t(count) * std::uint64_t(element);
}

std::uint64_t
csrBytes(const sparse::CsrMatrix &m)
{
    return sizeof(sparse::CsrMatrix) +
           vectorBytes(m.rowPtr().size(), sizeof(std::int64_t)) +
           vectorBytes(m.colIdx().size(), sizeof(std::int64_t)) +
           vectorBytes(m.values().size(), sizeof(double));
}

std::uint64_t
partialsBytes(const std::vector<sparse::PartialMatrix> &partials)
{
    std::uint64_t bytes = vectorBytes(partials.size(),
                                      sizeof(sparse::PartialMatrix));
    for (const auto &partial : partials) {
        bytes += vectorBytes(partial.rowIds.size(), sizeof(std::int64_t));
        bytes += vectorBytes(partial.rowFibers.size(),
                             sizeof(sparse::Fiber));
        for (const auto &fiber : partial.rowFibers) {
            bytes += vectorBytes(fiber.coords.size(),
                                 sizeof(std::int64_t));
            bytes += vectorBytes(fiber.values.size(), sizeof(double));
        }
    }
    return bytes;
}

std::uint64_t
structuredBytes(const sparse::StructuredMatrix &m)
{
    return sizeof(sparse::StructuredMatrix) +
           vectorBytes(m.values.size(), sizeof(double)) +
           vectorBytes(m.selectors.size(), sizeof(std::uint8_t));
}

} // namespace

WorkloadKey &
WorkloadKey::set(const std::string &name, const std::string &value)
{
    params.emplace_back(name, value);
    return *this;
}

WorkloadKey &
WorkloadKey::set(const std::string &name, std::int64_t value)
{
    return set(name, std::to_string(value));
}

WorkloadKey &
WorkloadKey::set(const std::string &name, int value)
{
    return set(name, std::to_string(value));
}

WorkloadKey &
WorkloadKey::set(const std::string &name, double value)
{
    return set(name, hexDouble(value));
}

std::string
WorkloadKey::canonical() const
{
    std::string text = kind;
    text += "|seed=";
    text += std::to_string(seed);
    for (const auto &[name, value] : params) {
        text += '|';
        text += name;
        text += '=';
        text += value;
    }
    return text;
}

std::uint64_t
WorkloadKey::hash() const
{
    return util::fnv1a(canonical());
}

bool
cacheEnabledFromEnv(const char *value)
{
    if (value == nullptr)
        return true;
    return !(value[0] == '0' && value[1] == '\0');
}

Cache &
Cache::global()
{
    // Leaked intentionally: sweep workers may hold payloads at exit.
    static Cache *cache = [] {
        auto *instance = new Cache();
        instance->setEnabled(
                cacheEnabledFromEnv(std::getenv("STELLAR_WORKLOAD_CACHE")));
        return instance;
    }();
    return *cache;
}

WorkloadKey
suiteSparseKey(const sparse::MatrixProfile &profile, std::uint64_t seed)
{
    WorkloadKey key("suitesparse", seed);
    key.set("name", profile.name)
            .set("rows", profile.rows)
            .set("cols", profile.cols)
            .set("nnz", profile.nnz)
            .set("pattern", int(profile.pattern))
            .set("rowSkew", profile.rowSkew);
    return key;
}

std::shared_ptr<const sparse::CsrMatrix>
cachedSuiteSparse(const sparse::MatrixProfile &profile, std::uint64_t seed)
{
    return Cache::global().getOrCreate<sparse::CsrMatrix>(
            suiteSparseKey(profile, seed),
            [&] { return sparse::synthesize(profile, seed); }, csrBytes);
}

std::shared_ptr<const std::vector<sparse::PartialMatrix>>
cachedOuterPartials(const sparse::MatrixProfile &profile,
                    std::uint64_t seed)
{
    WorkloadKey key = suiteSparseKey(profile, seed);
    key.kind = "outer-partials";
    return Cache::global().getOrCreate<std::vector<sparse::PartialMatrix>>(
            key,
            [&] {
                auto matrix = cachedSuiteSparse(profile, seed);
                return sparse::outerProductPartials(
                        sparse::csrToCsc(*matrix), *matrix);
            },
            partialsBytes);
}

std::shared_ptr<const sparse::StructuredMatrix>
cachedStructured(std::int64_t rows, std::int64_t cols, int keep_n,
                 int group_m, std::uint64_t seed)
{
    WorkloadKey key("structured-nm", seed);
    key.set("rows", rows)
            .set("cols", cols)
            .set("keepN", keep_n)
            .set("groupM", group_m);
    return Cache::global().getOrCreate<sparse::StructuredMatrix>(
            key,
            [&] {
                Rng rng(seed);
                return sparse::generateStructured(rng, rows, cols, keep_n,
                                                  group_m);
            },
            structuredBytes);
}

std::shared_ptr<const std::vector<sim::ScnnLayer>>
cachedAlexnetLayers()
{
    WorkloadKey key("alexnet-conv");
    return Cache::global().getOrCreate<std::vector<sim::ScnnLayer>>(
            key, [] { return alexnetConvLayers(); },
            [](const std::vector<sim::ScnnLayer> &layers) {
                return vectorBytes(layers.size(), sizeof(sim::ScnnLayer));
            });
}

std::shared_ptr<const std::vector<MatmulLayer>>
cachedResnetLayers(bool representative)
{
    WorkloadKey key("resnet50");
    key.set("subset", representative ? "representative" : "full");
    return Cache::global().getOrCreate<std::vector<MatmulLayer>>(
            key,
            [&] {
                return representative ? resnet50Representative()
                                      : resnet50Layers();
            },
            [](const std::vector<MatmulLayer> &layers) {
                std::uint64_t bytes =
                        vectorBytes(layers.size(), sizeof(MatmulLayer));
                for (const auto &layer : layers)
                    bytes += layer.name.size();
                return bytes;
            });
}

std::string
cacheStatsReport(const CacheStats &stats)
{
    std::ostringstream os;
    os << "workload cache: " << stats.lookups << " lookups ("
       << stats.hits << " hits, " << stats.misses << " misses, "
       << formatDouble(stats.hitRate() * 100.0, 1) << "% hit rate), "
       << stats.entries << " entries, "
       << formatDouble(double(stats.bytes) / 1024.0, 1)
       << " KiB resident, " << stats.evictions << " evictions";
    return os.str();
}

std::string
cacheStatsJson(const CacheStats &stats)
{
    std::string out = "{";
    out += "\"lookups\":" + std::to_string(stats.lookups);
    out += ",\"hits\":" + std::to_string(stats.hits);
    out += ",\"misses\":" + std::to_string(stats.misses);
    out += ",\"evictions\":" + std::to_string(stats.evictions);
    out += ",\"bytes\":" + std::to_string(stats.bytes);
    out += ",\"entries\":" + std::to_string(stats.entries);
    out += "}";
    return out;
}

} // namespace stellar::workloads
