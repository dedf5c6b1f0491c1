#include "serve/server.hpp"

#include <cstdio>
#include <exception>

#include "serve/commands.hpp"
#include "serve/snapshot.hpp"
#include "util/fault_inject.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"
#include "util/thread_pool.hpp"
#include "workloads/cache.hpp"

namespace stellar::serve
{

namespace
{

/** Effective watchdog budget under a server-wide cap: a request asking
 *  for 0 (unlimited) or more than the cap gets exactly the cap. */
std::int64_t
clampBudget(std::int64_t requested, std::int64_t cap)
{
    if (cap <= 0)
        return requested;
    if (requested <= 0 || requested > cap)
        return cap;
    return requested;
}

std::string
memoStatsJson(const util::MemoStats &stats)
{
    std::string out = "{";
    out += "\"lookups\":" + std::to_string(stats.lookups);
    out += ",\"hits\":" + std::to_string(stats.hits);
    out += ",\"misses\":" + std::to_string(stats.misses);
    out += ",\"inserts\":" + std::to_string(stats.inserts);
    out += ",\"evictions\":" + std::to_string(stats.evictions);
    out += ",\"bytes\":" + std::to_string(stats.bytes);
    out += ",\"entries\":" + std::to_string(stats.entries);
    out += "}";
    return out;
}

} // namespace

Server::Server(ServeOptions options) : options_(std::move(options)) {}

Response
Server::executeOnce(const Request &request_in)
{
    util::fault::checkpoint("serve.execute");
    Request request = request_in;
    Response response;
    switch (request.command) {
      case Command::Sim: {
        request.sim.stepBudget = clampBudget(request.sim.stepBudget,
                                             options_.maxStepBudget);
        request.sim.timeBudgetMillis =
                clampBudget(request.sim.timeBudgetMillis,
                            options_.maxTimeBudgetMillis);
        RenderResult rendered = renderSim(request.sim);
        response.exitCode = rendered.exitCode;
        response.output = std::move(rendered.output);
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.simRequests++;
        break;
      }
      case Command::Dse: {
        request.dse.stepBudget = clampBudget(request.dse.stepBudget,
                                             options_.maxStepBudget);
        request.dse.timeBudgetMillis =
                clampBudget(request.dse.timeBudgetMillis,
                            options_.maxTimeBudgetMillis);
        RenderResult rendered = renderDse(request.dse, &memo_);
        response.exitCode = rendered.exitCode;
        response.output = std::move(rendered.output);
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.dseRequests++;
        stats_.dseEnumerated += rendered.dseStats.enumerated;
        stats_.dseEvaluated += rendered.dseStats.evaluated;
        stats_.dseFailed += rendered.dseStats.failed;
        stats_.dseCandidateRetries += rendered.dseStats.retried;
        stats_.dseOrbitSkipped += rendered.dseStats.orbitSkipped;
        break;
      }
      case Command::Stats:
        response.output = statsJson();
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.statsRequests++;
        }
        break;
      case Command::Shutdown:
        // Idempotent: asking a draining daemon to shut down is `ok`,
        // not an error — the double-shutdown path in the tests.
        requestDrain();
        response.output = "draining\n";
        break;
    }
    return response;
}

Response
Server::execute(const Request &request)
{
    if (!options_.retryWallClock)
        return executeOnce(request);
    try {
        return executeOnce(request);
    } catch (const util::TimeoutError &err) {
        // Only wall-clock expiry can be transient; a step budget
        // counts deterministic work and would fail identically.
        if (!err.isWallClock())
            throw;
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.retried++;
        }
        Response response = executeOnce(request); // fresh budget
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.retrySucceeded++;
        return response;
    }
}

void
Server::bumpError(const util::Failure &failure)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    stats_.errors++;
    stats_.errorsByKind[std::size_t(failure.kind)]++;
}

std::string
Server::handleRequestText(const std::string &text)
{
    Response response;
    try {
        Request request = parseRequest(text, options_.limits);
        bool is_work = request.command == Command::Sim ||
                       request.command == Command::Dse;
        if (draining() && is_work) {
            // Queued behind a drain: answered, never silently dropped.
            response.status = Status::ShuttingDown;
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.drained++;
        } else {
            response = execute(request);
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.completed++;
        }
    } catch (...) {
        // THE isolation point: any failure anywhere in parse/execute
        // becomes a classified error response; nothing escapes to the
        // worker, so no request input can take the daemon down.
        response.status = Status::Error;
        response.failure = util::classifyException(
                std::current_exception(), "serve.request");
        bumpError(response.failure);
    }
    return serializeResponse(response);
}

void
Server::handleConnection(util::LocalSocket &conn)
{
    if (draining()) {
        Response response;
        response.status = Status::ShuttingDown;
        if (!conn.writeAll(serializeResponse(response))) {
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.writeFailures++;
        }
        // Answered without reading the request: absorb it so the close
        // does not reset the peer under the reply (see drainRead).
        conn.drainRead(options_.limits.maxBytes);
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.drained++;
        return;
    }

    std::string text;
    util::SocketReadStatus status =
            conn.readAll(text, options_.limits.maxBytes);
    std::string reply;
    if (status == util::SocketReadStatus::Eof) {
        reply = handleRequestText(text);
    } else {
        // The request never fully arrived; classify the transport
        // failure directly (every outcome has a non-Unknown kind).
        Response response;
        response.status = Status::Error;
        response.failure.stage = "serve.read";
        switch (status) {
          case util::SocketReadStatus::Overflow:
            response.failure.kind = util::FailureKind::UserSpec;
            response.failure.message =
                    "request exceeds " +
                    std::to_string(options_.limits.maxBytes) + " bytes";
            break;
          case util::SocketReadStatus::Timeout:
            response.failure.kind = util::FailureKind::Timeout;
            response.failure.message =
                    "receive timed out after " +
                    std::to_string(options_.ioTimeoutMillis) +
                    " ms mid-request";
            break;
          default:
            response.failure.kind = util::FailureKind::UserSpec;
            response.failure.message = "socket read error";
            break;
        }
        bumpError(response.failure);
        reply = serializeResponse(response);
    }
    if (!conn.writeAll(reply)) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.writeFailures++;
    }
    if (status == util::SocketReadStatus::Overflow) {
        // The tail of the oversized request is still unread; absorb it
        // (bounded) so the reply survives the close.
        conn.drainRead(options_.limits.maxBytes);
    }
}

int
Server::serve()
{
    require(!options_.socketPath.empty(),
            "stellar_serve: a socket path is required");
    util::LocalSocket listener =
            util::LocalSocket::listenOn(options_.socketPath);

    if (!options_.snapshotPath.empty()) {
        try {
            std::size_t restored =
                    loadSnapshotFile(memo_, options_.snapshotPath);
            if (restored > 0)
                std::fprintf(stderr,
                             "stellar_serve: warm start: %zu memoized "
                             "design points\n",
                             restored);
        } catch (...) {
            // Never trust warm-start bytes: a corrupt snapshot costs
            // warmth, not correctness and not the process.
            util::Failure failure = util::classifyException(
                    std::current_exception(), "serve.snapshot",
                    options_.snapshotPath);
            std::fprintf(stderr, "stellar_serve: %s; starting cold\n",
                         failure.toString().c_str());
        }
    }

    std::size_t workers = std::max<std::size_t>(1, options_.workers);
    util::ThreadPool pool(workers);
    std::atomic<std::size_t> pending{0};

    while (true) {
        if (!draining() && options_.drainPoll && options_.drainPoll())
            requestDrain();
        if (draining() && pending.load(std::memory_order_acquire) == 0)
            break;
        if (!listener.waitReadable(50))
            continue;
        util::LocalSocket conn = listener.accept();
        if (!conn.valid())
            continue;
        conn.setTimeouts(options_.ioTimeoutMillis);
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.accepted++;
        }
        if (draining()) {
            Response response;
            response.status = Status::ShuttingDown;
            if (!conn.writeAll(serializeResponse(response))) {
                std::lock_guard<std::mutex> lock(statsMutex_);
                stats_.writeFailures++;
            }
            // This runs on the accept thread: re-arm a short receive
            // timeout so a slow peer cannot wedge admission while its
            // unsent request is absorbed.
            conn.setTimeouts(50);
            conn.drainRead(options_.limits.maxBytes);
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.drained++;
            continue;
        }
        // Admission control: bounded in-flight work, shed the rest
        // immediately so latency stays bounded under storms.
        if (pending.load(std::memory_order_acquire) >=
            workers + options_.maxQueueDepth) {
            Response response;
            response.status = Status::Overloaded;
            response.retryAfterMillis = options_.retryAfterMillis;
            if (!conn.writeAll(serializeResponse(response))) {
                std::lock_guard<std::mutex> lock(statsMutex_);
                stats_.writeFailures++;
            }
            conn.setTimeouts(50); // accept thread: bounded absorb
            conn.drainRead(options_.limits.maxBytes);
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.shed++;
            continue;
        }
        pending.fetch_add(1, std::memory_order_acq_rel);
        auto shared =
                std::make_shared<util::LocalSocket>(std::move(conn));
        pool.submit([this, shared, &pending] {
            try {
                handleConnection(*shared);
            } catch (...) {
                // handleConnection classifies everything itself; this
                // is belt-and-braces so `pending` can never leak.
            }
            pending.fetch_sub(1, std::memory_order_acq_rel);
        });
    }

    if (!options_.snapshotPath.empty()) {
        try {
            saveSnapshotFile(memo_, options_.snapshotPath);
        } catch (...) {
            util::Failure failure = util::classifyException(
                    std::current_exception(), "serve.snapshot",
                    options_.snapshotPath);
            std::fprintf(stderr, "stellar_serve: %s; snapshot skipped\n",
                         failure.toString().c_str());
        }
    }
    return 0;
}

ServeStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

std::string
Server::statsJson() const
{
    ServeStats s = stats();
    std::string out = "{\"serve\":{";
    out += "\"accepted\":" + std::to_string(s.accepted);
    out += ",\"completed\":" + std::to_string(s.completed);
    out += ",\"errors\":" + std::to_string(s.errors);
    out += ",\"shed\":" + std::to_string(s.shed);
    out += ",\"drained\":" + std::to_string(s.drained);
    out += ",\"write_failures\":" + std::to_string(s.writeFailures);
    out += ",\"sim_requests\":" + std::to_string(s.simRequests);
    out += ",\"dse_requests\":" + std::to_string(s.dseRequests);
    out += ",\"stats_requests\":" + std::to_string(s.statsRequests);
    out += ",\"retried\":" + std::to_string(s.retried);
    out += ",\"retry_succeeded\":" + std::to_string(s.retrySucceeded);
    out += ",\"errors_by_kind\":{";
    for (std::size_t k = 0; k < util::kFailureKindCount; k++) {
        if (k != 0)
            out += ",";
        out += util::json::quote(
                       util::failureKindName(util::FailureKind(k))) +
               ":" + std::to_string(s.errorsByKind[k]);
    }
    out += "}";
    out += ",\"dse\":{\"enumerated\":" + std::to_string(s.dseEnumerated);
    out += ",\"evaluated\":" + std::to_string(s.dseEvaluated);
    out += ",\"failed\":" + std::to_string(s.dseFailed);
    out += ",\"candidate_retries\":" +
           std::to_string(s.dseCandidateRetries);
    out += ",\"orbit_skipped\":" + std::to_string(s.dseOrbitSkipped);
    out += "}}";
    out += ",\"design_memo\":" + memoStatsJson(memo_.stats());
    out += ",\"workload_cache\":" +
           workloads::cacheStatsJson(
                   workloads::Cache::global().stats());
    out += "}";
    return out;
}

} // namespace stellar::serve
