/**
 * @file
 * serve-mixed: one in-process serve::Server with default options (2
 * workers) on an AF_UNIX socket, driven by 4 closed-loop clients: each
 * client sends its next request only when the previous reply arrives,
 * so a slower server receives less load. Latency runs from connect to
 * the parsed reply.
 *
 * The request sequence is drawn from a fixed menu by the seed, in
 * blocks that each hold every menu entry a fixed number of times, so
 * seeds change the order but not the mix. This is the only workload
 * that runs the sim and sparse layers, the workloads cache, the design
 * memo and serve admission. Set-up sends one cold pass over the menu
 * (workload synthesis lands there), so the window measures warm
 * requests. Served dse requests are where scan pools oversubscribe the
 * cores, so process.threads_max is worth watching here.
 */

#include <algorithm>
#include <iostream>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "serve/commands.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/outerspace.hpp"
#include "sim/scnn.hpp"
#include "sparse/suitesparse.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "workloads/alexnet.hpp"
#include "workloads/cache.hpp"

namespace perfbench
{

namespace
{

using namespace stellar;

const char *const kSocketPath = "serve.sock";
constexpr int kClients = 4;
constexpr int kClientTimeoutMillis = 60000;

struct MenuItem
{
    bool sim = false;
    std::string text;
    int perBlock = 1;     //!< copies of this entry in each block
    std::string expected; //!< renderSim/renderDse output for the request
};

std::vector<MenuItem>
makeMenu(bool smoke)
{
    // Per block of 19 requests: outerspace is the one rare long request
    // (about 5%), and the analytic dse entries are the 63% bulk, so
    // both the median and the 90th percentile fall inside one request
    // kind instead of on the step between two. The analytic entries
    // scan the whole hop-3 +-2 space (enum_limit never binds).
    int dim = smoke ? 4 : 8;
    int big = smoke ? 6 : 12;
    std::string analytic = "\"max_hop\":3,\"max_coeff\":2,"
                           "\"analytic_top_k\":16,\"enum_limit\":1048576";
    return {
            {true, R"({"command":"sim","workload":"outerspace","threads":1})",
             1, ""},
            {true, R"({"command":"sim","workload":"scnn"})", 3, ""},
            {false,
             "{\"command\":\"dse\",\"dim\":" + std::to_string(dim) + "}", 3,
             ""},
            {false,
             "{\"command\":\"dse\",\"dim\":" + std::to_string(dim) + "," +
                     analytic + "}",
             6, ""},
            {false,
             "{\"command\":\"dse\",\"dim\":" + std::to_string(big) + "," +
                     analytic + "}",
             6, ""},
    };
}

/** The CLI rendering of a request: what a served `ok` must carry. */
std::string
renderExpected(const std::string &text)
{
    serve::Request request = serve::parseRequest(text);
    if (request.command == serve::Command::Sim)
        return serve::renderSim(request.sim).output;
    return serve::renderDse(request.dse).output;
}

/** `count` menu indices: seed-shuffled blocks of the weighted menu. */
std::vector<std::size_t>
drawSequence(const std::vector<MenuItem> &menu, std::uint64_t seed,
             std::size_t count)
{
    std::vector<std::size_t> block;
    for (std::size_t i = 0; i < menu.size(); i++)
        for (int c = 0; c < menu[i].perBlock; c++)
            block.push_back(i);
    Rng rng(seed);
    std::vector<std::size_t> sequence;
    while (sequence.size() < count) {
        for (std::size_t i = block.size(); i > 1; i--)
            std::swap(block[i - 1], block[rng.nextBounded(i)]);
        sequence.insert(sequence.end(), block.begin(), block.end());
    }
    sequence.resize(count);
    return sequence;
}

/** One request over the socket; the reply text, or "" on IO failure.
 *  Adds the time its spans cover to `covered_ms`. */
std::string
roundTrip(const std::string &text, Tracer &tracer, double &covered_ms)
{
    Span connect(tracer, "serve.connect");
    auto socket = util::LocalSocket::connectTo(kSocketPath);
    socket.setTimeouts(kClientTimeoutMillis);
    connect.stop();
    Span send(tracer, "serve.send");
    bool sent = socket.writeAll(text);
    socket.shutdownWrite();
    send.stop();
    Span reply(tracer, "serve.reply");
    std::string out;
    auto status = socket.readAll(out, 0);
    covered_ms += connect.stop() + send.stop() + reply.stop();
    return sent && status == util::SocketReadStatus::Eof ? out : "";
}

bool
replyMatches(const std::string &reply, const MenuItem &item)
{
    if (reply.empty())
        return false;
    auto response = serve::parseResponse(reply);
    return response.status == serve::Status::Ok && response.exitCode == 0 &&
           response.output == item.expected;
}

/** A Server running serve() on its own thread. */
class RunningServer
{
  public:
    RunningServer()
    {
        serve::ServeOptions options;
        options.socketPath = kSocketPath;
        server_ = std::make_unique<serve::Server>(options);
        thread_ = std::thread([this] {
            try {
                server_->serve();
            } catch (const std::exception &err) {
                std::cerr << "stellar_bench: serve() failed: " << err.what()
                          << "\n";
            }
        });
        // serve() binds on its own thread; poll until it answers.
        Tracer off;
        double unused = 0.0;
        for (int attempt = 0; attempt < 500; attempt++) {
            try {
                if (!roundTrip(R"({"command":"stats"})", off, unused)
                             .empty())
                    return;
            } catch (const std::exception &) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        std::cerr << "stellar_bench: server never answered\n";
    }

    ~RunningServer()
    {
        Tracer off;
        double unused = 0.0;
        try {
            roundTrip(R"({"command":"shutdown"})", off, unused);
        } catch (const std::exception &) {
            server_->requestDrain();
        }
        thread_.join();
    }

    RunningServer(const RunningServer &) = delete;
    RunningServer &operator=(const RunningServer &) = delete;

    serve::Server &server() { return *server_; }

  private:
    std::unique_ptr<serve::Server> server_;
    std::thread thread_;
};

struct Completed
{
    std::size_t item = 0;
    double latencyMs = 0.0;
    bool traced = false;
};

/** The outerspace sim suite as renderSim runs it, layer by layer. */
LayerSample
probeSimLayers(Tracer &tracer, bool &cycles_repeat)
{
    LayerSample layers;
    SpanContext op = beginOperation(tracer);
    Span root(tracer, "probe.sim", op);
    sim::OuterSpaceConfig config;
    config.dma = sim::DmaConfig::withRate(16);
    double synthesize_ms = 0.0;
    std::vector<double> outerspace_ms;
    std::vector<std::int64_t> cycles;
    for (int rep = 0; rep < 2; rep++) {
        double ms = 0.0;
        std::int64_t total = 0;
        for (const auto &profile : sparse::outerSpaceSuite()) {
            auto scaled = sparse::scaleProfile(profile, 60000);
            if (rep == 0) {
                Span span(tracer, "sparse.synthesize");
                sparse::synthesize(scaled, 1);
                synthesize_ms += span.stop();
            }
            auto matrix = workloads::cachedSuiteSparse(scaled, 1);
            Span span(tracer, "sim.outerspace");
            total += sim::simulateOuterSpace(config, *matrix).cycles;
            ms += span.stop();
        }
        outerspace_ms.push_back(ms);
        cycles.push_back(total);
    }
    cycles_repeat = cycles[0] == cycles[1];

    double scnn_ms = 0.0;
    sim::ScnnConfig handwritten;
    sim::ScnnConfig generated;
    generated.stellarGenerated = true;
    for (const auto &layer : *workloads::cachedAlexnetLayers()) {
        Span span(tracer, "sim.scnn");
        sim::simulateScnnLayer(handwritten, layer, 1);
        sim::simulateScnnLayer(generated, layer, 1);
        scnn_ms += span.stop();
    }
    double sim_ms = median(outerspace_ms);
    layers["sparse.synthesize_ms"] = synthesize_ms;
    layers["sim.outerspace_ms"] = sim_ms;
    layers["sim.scnn_ms"] = scnn_ms;
    layers["sim.cycles"] = double(cycles[0]);
    layers["sim.cycles_per_s"] =
            sim_ms > 0 ? double(cycles[0]) / (sim_ms / 1e3) : 0.0;
    return layers;
}

/** The outerspace suite's total simulated cycles, recorded at the
 *  commit that added this benchmark. */
constexpr std::int64_t kPinnedCycles = 15660930;

} // namespace

void
runServeMixed(const RunConfig &config, Tracer &tracer, WorkloadResult &result)
{
    std::vector<MenuItem> menu = makeMenu(config.smoke);
    for (auto &item : menu)
        item.expected = renderExpected(item.text);
    result.threadsAsked["serve.workers"] = 2;
    result.threadsAsked["serve.clients"] = kClients;
    result.threadsAsked["sim.threads"] = 1;
    result.threadsAsked["dse.threads"] = 1;
    result.threadsAsked["enumerate.threads"] = 0; // never set by serve

    // Set-up: a cold server (fresh memo, empty workload cache) answers
    // one pass over the menu. The last one stays up for the window.
    std::unique_ptr<RunningServer> running;
    Tracer off;
    double unused = 0.0;
    for (int rep = 0; rep < 3; rep++) {
        running.reset();
        auto start = Clock::now();
        workloads::Cache::global().reset();
        running = std::make_unique<RunningServer>();
        bool ok = true;
        for (const auto &item : menu)
            ok = ok && replyMatches(roundTrip(item.text, off, unused), item);
        result.setupSeconds.push_back(msSince(start) / 1e3);
        result.check(ok, "set-up: a cold reply differs from the CLI");
    }
    serve::Server &server = running->server();

    auto sequence = drawSequence(menu, config.seed, 1 << 16);
    auto cache_before = workloads::Cache::global().stats();
    auto memo_before = server.memo().stats();
    auto serve_before = server.stats();

    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::vector<Completed> completed;
    std::vector<double> coverage;
    result.beginWindow();
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                            config.seconds));
    auto client = [&] {
        while (Clock::now() < deadline) {
            std::size_t k = next.fetch_add(1);
            const MenuItem &item = menu[sequence[k % sequence.size()]];
            bool traced = config.trace && k % 2 == 0;
            Tracer &used = traced ? tracer : off;
            auto begin = Clock::now();
            bool ok = false;
            double covered = 0.0;
            {
                SpanContext op = beginOperation(used);
                Span root(used, "op.request", op);
                try {
                    ok = replyMatches(roundTrip(item.text, used, covered),
                                      item);
                } catch (const std::exception &) {
                }
            }
            double latency = msSince(begin);
            std::lock_guard<std::mutex> lock(mutex);
            if (traced)
                coverage.push_back(covered / latency);
            result.check(ok, "served reply differs from the CLI: " +
                                     item.text);
            if (ok)
                completed.push_back({sequence[k % sequence.size()], latency,
                                     traced});
        }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; c++)
        clients.emplace_back(client);
    for (auto &thread : clients)
        thread.join();
    result.windowSeconds = msSince(start) / 1e3;
    result.endWindow();
    std::vector<std::vector<double>> by_item(menu.size());
    for (const auto &done : completed) {
        by_item[done.item].push_back(done.latencyMs);
        if (!done.traced)
            result.opMs.push_back(done.latencyMs);
    }
    for (std::size_t i = 0; i < menu.size(); i++)
        std::cerr << "stellar_bench: " << menu[i].text << ": "
                  << by_item[i].size() << " requests, median "
                  << median(by_item[i]) << " ms\n";

    if (!config.trace)
        return;

    auto cache_after = workloads::Cache::global().stats();
    auto memo_after = server.memo().stats();
    auto serve_after = server.stats();
    auto &layers = result.layers;
    double lookups = double(cache_after.lookups - cache_before.lookups);
    layers["workloads.cache_hit_ratio"] =
            lookups > 0 ? double(cache_after.hits - cache_before.hits) / lookups
                        : 0.0;
    layers["workloads.cache_evictions"] =
            double(cache_after.evictions - cache_before.evictions);
    double memo_lookups = double(memo_after.lookups - memo_before.lookups);
    layers["accel.memo_hit_ratio"] =
            memo_lookups > 0
                    ? double(memo_after.hits - memo_before.hits) / memo_lookups
                    : 0.0;
    layers["serve.shed"] = double(serve_after.shed - serve_before.shed);
    layers["serve.errors"] = double(serve_after.errors - serve_before.errors);

    // In-process handle time of each menu entry on the same warm server.
    std::vector<double> handle_ms(menu.size());
    for (std::size_t i = 0; i < menu.size(); i++) {
        std::vector<double> reps;
        for (int rep = 0; rep < 3; rep++) {
            SpanContext op = beginOperation(tracer);
            Span span(tracer, "serve.handle", op);
            auto reply = server.handleRequestText(menu[i].text);
            reps.push_back(span.stop());
            result.check(replyMatches(reply, menu[i]),
                         "in-process reply differs from the CLI");
        }
        handle_ms[i] = median(reps);
    }
    std::vector<double> sim_handle, dse_handle, wait;
    std::vector<std::vector<double>> by_item_traced(menu.size()),
            by_item_untraced(menu.size());
    for (const auto &done : completed) {
        double handle = handle_ms[done.item];
        (menu[done.item].sim ? sim_handle : dse_handle).push_back(handle);
        wait.push_back(std::max(0.0, done.latencyMs - handle));
        (done.traced ? by_item_traced : by_item_untraced)[done.item]
                .push_back(done.latencyMs);
    }
    layers["serve.handle_ms.sim"] = median(sim_handle);
    layers["serve.handle_ms.dse"] = median(dse_handle);
    layers["serve.wait_ms"] = median(wait);

    // Overhead per menu entry, so the traced and untraced halves are
    // compared on the same mix.
    double traced_sum = 0.0, untraced_sum = 0.0;
    for (std::size_t i = 0; i < menu.size(); i++) {
        if (by_item_traced[i].empty() || by_item_untraced[i].empty())
            continue;
        traced_sum += median(by_item_traced[i]);
        untraced_sum += median(by_item_untraced[i]);
    }
    layers["trace.overhead"] =
            untraced_sum > 0 ? traced_sum / untraced_sum : 0.0;
    layers["trace.coverage"] = median(coverage);

    bool cycles_repeat = false;
    for (const auto &[name, value] : probeSimLayers(tracer, cycles_repeat))
        layers[name] = value;
    result.check(cycles_repeat &&
                         std::int64_t(layers["sim.cycles"]) == kPinnedCycles,
                 "outerspace simulated cycles differ: " +
                         std::to_string(std::int64_t(layers["sim.cycles"])));
}

} // namespace perfbench
