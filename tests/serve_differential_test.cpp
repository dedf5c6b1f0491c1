/**
 * @file
 * Differential and concurrency tests of the full serve stack — socket,
 * accept loop, worker pool, admission control, drain — against the
 * one-shot renderers. The serve correctness contract: a served `ok`
 * response carries byte-identical output to the CLI for the same flags,
 * at any worker count, cold or warm. The robustness side: admission
 * sheds with `overloaded` under load, a drain mid-storm answers every
 * queued request with `shutting_down` (never drops one), and a
 * snapshot-warm restart serves the same bytes it served cold.
 *
 * Carries the "concurrency" ctest label so the TSan tree replays it.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/commands.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/fault_inject.hpp"
#include "util/logging.hpp"
#include "util/socket.hpp"

#include "temp_path.hpp"

namespace
{

using namespace stellar;
using serve::Response;
using serve::Status;

std::string
uniqueSocketPath()
{
    return test_util::uniqueTempPath("stellar_sdt", ".sock").string();
}

/** A serve() loop on its own thread, joined + unlinked on scope exit. */
class ServerFixture
{
  public:
    explicit ServerFixture(serve::ServeOptions options)
        : path_(options.socketPath.empty() ? uniqueSocketPath()
                                           : options.socketPath)
    {
        options.socketPath = path_;
        server_ = std::make_unique<serve::Server>(std::move(options));
        thread_ = std::thread([this] { rc_ = server_->serve(); });
        waitReady();
    }

    ~ServerFixture()
    {
        if (thread_.joinable()) {
            server_->requestDrain();
            thread_.join();
        }
        std::remove(path_.c_str());
    }

    /** Drain and join, returning serve()'s exit code. */
    int
    shutdown()
    {
        server_->requestDrain();
        thread_.join();
        return rc_;
    }

    serve::Server &server() { return *server_; }
    const std::string &path() const { return path_; }

    /** One request over the wire, parsed. Throws on transport failure. */
    Response
    request(const std::string &text)
    {
        auto conn = util::LocalSocket::connectTo(path_);
        conn.setTimeouts(60000);
        EXPECT_TRUE(conn.writeAll(text));
        conn.shutdownWrite();
        std::string reply;
        EXPECT_EQ(conn.readAll(reply, 64 << 20),
                  util::SocketReadStatus::Eof);
        return serve::parseResponse(reply);
    }

  private:
    void
    waitReady()
    {
        // The listener binds on the serve() thread; poll with a full
        // stats round-trip so tests never race the bind, and so the
        // probe's own connection has fully left the pending count
        // before any admission-control assertions run.
        for (int i = 0; i < 500; i++) {
            try {
                Response probe = request("{\"command\":\"stats\"}");
                if (probe.status == Status::Ok)
                    return;
            } catch (...) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        FAIL() << "server never became reachable on " << path_;
    }

    std::string path_;
    std::unique_ptr<serve::Server> server_;
    std::thread thread_;
    int rc_ = -1;
};

struct NamedRequest
{
    const char *wire;        //!< the JSON on the socket
    std::string reference;   //!< renderer output for the same flags
    int exitCode = 0;
};

/** The differential workload: a mixed batch whose references come from
 *  the same renderers the CLI prints. */
std::vector<NamedRequest>
differentialBatch()
{
    std::vector<NamedRequest> batch;
    {
        serve::DseRequest request;
        request.dim = 3;
        auto rendered = serve::renderDse(request);
        batch.push_back({"{\"command\":\"dse\",\"dim\":3}",
                         rendered.output, rendered.exitCode});
    }
    {
        serve::DseRequest request;
        request.dim = 4;
        request.threads = 2;
        request.topK = 5;
        auto rendered = serve::renderDse(request);
        batch.push_back(
                {"{\"command\":\"dse\",\"dim\":4,\"threads\":2,"
                 "\"topk\":5}",
                 rendered.output, rendered.exitCode});
    }
    {
        serve::SimRequest request;
        request.threads = 2;
        auto rendered = serve::renderSim(request);
        batch.push_back(
                {"{\"command\":\"sim\",\"workload\":\"scnn\","
                 "\"threads\":2}",
                 rendered.output, rendered.exitCode});
    }
    return batch;
}

TEST(ServeDifferential, ByteIdenticalAtEveryWorkerCountColdAndWarm)
{
    auto batch = differentialBatch();
    for (std::size_t workers : {1u, 2u, 4u}) {
        serve::ServeOptions options;
        options.workers = workers;
        ServerFixture fixture(std::move(options));

        // Two passes: the first runs cold (empty memo), the second is
        // served from the memo. Both must match the renderer bytes.
        for (int pass = 0; pass < 2; pass++) {
            std::vector<Response> responses(batch.size());
            std::vector<std::thread> clients;
            for (std::size_t i = 0; i < batch.size(); i++)
                clients.emplace_back([&, i] {
                    responses[i] = fixture.request(batch[i].wire);
                });
            for (auto &client : clients)
                client.join();
            for (std::size_t i = 0; i < batch.size(); i++) {
                ASSERT_EQ(responses[i].status, Status::Ok)
                        << "workers=" << workers << " pass=" << pass
                        << " " << batch[i].wire;
                EXPECT_EQ(responses[i].output, batch[i].reference)
                        << "workers=" << workers << " pass=" << pass
                        << " " << batch[i].wire;
                EXPECT_EQ(responses[i].exitCode, batch[i].exitCode);
            }
        }
        // The warm pass actually hit the memo.
        EXPECT_GT(fixture.server().memo().stats().hits, 0u)
                << "workers=" << workers;
        EXPECT_EQ(fixture.shutdown(), 0) << "workers=" << workers;
    }
}

TEST(ServeDifferential, HostileBytesOverTheWireStayClassified)
{
    serve::ServeOptions options;
    options.workers = 2;
    ServerFixture fixture(std::move(options));
    for (const char *wire :
         {"", "garbage", "{\"command\":\"dse\",\"bogus\":1}",
          "{\"command\":\"sim\",\"workload\":\"nope\"}",
          "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[["
          "[[[[[[[[[["}) {
        Response response = fixture.request(wire);
        EXPECT_EQ(response.status, Status::Error) << wire;
        EXPECT_NE(response.failure.kind, util::FailureKind::Unknown)
                << wire;
    }
    // The daemon survived all of it and still serves.
    Response after = fixture.request("{\"command\":\"stats\"}");
    EXPECT_EQ(after.status, Status::Ok);
    EXPECT_EQ(fixture.shutdown(), 0);
}

TEST(ServeDifferential, OversizedRequestIsRejectedAtTheSocket)
{
    serve::ServeOptions options;
    options.limits.maxBytes = 1024;
    ServerFixture fixture(std::move(options));
    std::string oversized = "{\"command\":\"stats\"}" +
                            std::string(4096, ' ');
    Response response = fixture.request(oversized);
    EXPECT_EQ(response.status, Status::Error);
    EXPECT_EQ(response.failure.kind, util::FailureKind::UserSpec);
    EXPECT_EQ(response.failure.stage, "serve.read");
    EXPECT_EQ(fixture.shutdown(), 0);
}

TEST(ServeDifferential, ListenRefusesToStealALiveDaemonsSocket)
{
    ServerFixture fixture(serve::ServeOptions{});
    // A second daemon pointed at the same --socket must fail loudly,
    // not silently unlink the live listener and hijack its clients.
    EXPECT_THROW(util::LocalSocket::listenOn(fixture.path()),
                 FatalError);
    // The original daemon is untouched and still serves.
    Response after = fixture.request("{\"command\":\"stats\"}");
    EXPECT_EQ(after.status, Status::Ok);
    EXPECT_EQ(fixture.shutdown(), 0);

    // Once the listener is gone the socket file is stale: a fresh
    // daemon may reclaim the path (the fixture already unlinked it,
    // so recreate a stale file the way a crashed daemon would).
    {
        auto stale = util::LocalSocket::listenOn(fixture.path());
    } // listener closed; file left behind
    auto reclaimed = util::LocalSocket::listenOn(fixture.path());
    EXPECT_TRUE(reclaimed.valid());
    std::remove(fixture.path().c_str());
}

TEST(ServeDifferential, AdmissionShedsWithRetryHintUnderStall)
{
    serve::ServeOptions options;
    options.workers = 1;
    options.maxQueueDepth = 0;
    options.retryAfterMillis = 75;
    ServerFixture fixture(std::move(options));

    // Pin the lone worker at the execute checkpoint: the first request
    // stalls 2 s, so the next connection must be shed immediately.
    util::fault::InjectionSpec spec;
    spec.stage = "serve.execute";
    spec.cls = util::fault::FaultClass::Stall;
    spec.stallMicros = 2000000;
    spec.allContexts = true;
    spec.maxFires = 1;
    util::fault::ScopedArm arm(spec);

    Response stalled;
    std::thread first([&] {
        stalled = fixture.request("{\"command\":\"stats\"}");
    });
    // Give the accept loop ample time to admit the first request.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    Response shed = fixture.request("{\"command\":\"stats\"}");
    first.join();

    EXPECT_EQ(stalled.status, Status::Ok);
    EXPECT_EQ(shed.status, Status::Overloaded);
    EXPECT_EQ(shed.retryAfterMillis, 75);
    EXPECT_GE(fixture.server().stats().shed, 1u);
    EXPECT_EQ(fixture.shutdown(), 0);
}

TEST(ServeDifferential, DrainMidStormAnswersEveryQueuedRequest)
{
    serve::ServeOptions options;
    options.workers = 1;
    options.maxQueueDepth = 8;
    ServerFixture fixture(std::move(options));

    // One slow request holds the lone worker; a shutdown and a sim
    // request queue up behind it. FIFO order guarantees: the slow one
    // completes `ok`, the shutdown flips the drain, and the sim request
    // is answered `shutting_down` — never silently dropped.
    util::fault::InjectionSpec spec;
    spec.stage = "serve.execute";
    spec.cls = util::fault::FaultClass::Stall;
    spec.stallMicros = 1500000;
    spec.allContexts = true;
    spec.maxFires = 1;
    util::fault::ScopedArm arm(spec);

    Response slow, shutdown_reply, queued;
    std::thread first([&] {
        slow = fixture.request("{\"command\":\"stats\"}");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    std::thread second([&] {
        shutdown_reply = fixture.request("{\"command\":\"shutdown\"}");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::thread third([&] {
        queued = fixture.request(
                "{\"command\":\"sim\",\"workload\":\"scnn\"}");
    });
    first.join();
    second.join();
    third.join();

    EXPECT_EQ(slow.status, Status::Ok);
    EXPECT_EQ(shutdown_reply.status, Status::Ok);
    EXPECT_EQ(shutdown_reply.output, "draining\n");
    EXPECT_EQ(queued.status, Status::ShuttingDown);
    EXPECT_EQ(fixture.shutdown(), 0);
    EXPECT_GE(fixture.server().stats().drained, 1u);
}

TEST(ServeDifferential, SnapshotWarmRestartServesIdenticalBytes)
{
    test_util::TempDir dir("stellar_serve_restart_test");
    std::string snapshot = (dir.path() / "memo.json").string();
    const char *wire = "{\"command\":\"dse\",\"dim\":3}";

    std::string cold_output;
    {
        serve::ServeOptions options;
        options.snapshotPath = snapshot;
        ServerFixture fixture(std::move(options));
        Response response = fixture.request(wire);
        ASSERT_EQ(response.status, Status::Ok);
        cold_output = response.output;
        ASSERT_EQ(fixture.shutdown(), 0);
    }
    ASSERT_TRUE(std::filesystem::exists(snapshot));
    {
        serve::ServeOptions options;
        options.snapshotPath = snapshot;
        ServerFixture fixture(std::move(options));
        Response response = fixture.request(wire);
        ASSERT_EQ(response.status, Status::Ok);
        EXPECT_EQ(response.output, cold_output);
        // Served from the restored memo, not re-elaborated.
        auto stats = fixture.server().memo().stats();
        EXPECT_GT(stats.hits, 0u);
        EXPECT_EQ(stats.misses, 0u);
        ASSERT_EQ(fixture.shutdown(), 0);
    }
}

} // namespace
