// Tests for the analysis service (service/job_queue.hpp,
// service/session_registry.hpp, service/server.hpp + client.hpp) and the
// PR's cross-cutting satellites: SimSession's concurrency contract, the
// wall-clock deadline path, and the acceptance criterion — N concurrent
// clients submitting the same fabric perform exactly ONE symbolic
// analysis between them and receive waveforms bit-identical to a direct
// SimSession::run.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/job_queue.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/session_registry.hpp"
#include "service/wire.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

namespace svc = service;
namespace json = service::json;
namespace wire = service::wire;

svc::JobPtr make_job(std::uint64_t id, int priority = 0,
                     double deadline_s = 0.0) {
    auto job = std::make_shared<svc::Job>();
    job->id = id;
    job->priority = priority;
    job->deadline_s = deadline_s;
    job->submitted = std::chrono::steady_clock::now();
    return job;
}

// ---- JobQueue ---------------------------------------------------------

TEST(JobQueue, PopsByPriorityThenFifo) {
    svc::JobQueue queue(8);
    ASSERT_TRUE(queue.push(make_job(1, 0)));
    ASSERT_TRUE(queue.push(make_job(2, 5)));
    ASSERT_TRUE(queue.push(make_job(3, 5)));
    ASSERT_TRUE(queue.push(make_job(4, -1)));
    std::vector<svc::JobPtr> expired;
    EXPECT_EQ(queue.pop(expired)->id, 2U); // highest priority first
    EXPECT_EQ(queue.pop(expired)->id, 3U); // FIFO within a priority
    EXPECT_EQ(queue.pop(expired)->id, 1U);
    EXPECT_EQ(queue.pop(expired)->id, 4U);
    EXPECT_TRUE(expired.empty());
}

TEST(JobQueue, BoundedDepthRejectsWithoutBlocking) {
    svc::JobQueue queue(2);
    EXPECT_TRUE(queue.push(make_job(1)));
    EXPECT_TRUE(queue.push(make_job(2)));
    EXPECT_FALSE(queue.push(make_job(3))); // backpressure, not a wait
    EXPECT_EQ(queue.depth(), 2U);
    std::vector<svc::JobPtr> expired;
    (void)queue.pop(expired);
    EXPECT_TRUE(queue.push(make_job(3))); // slot freed
}

TEST(JobQueue, CancelRemovesQueuedJob) {
    svc::JobQueue queue(8);
    const svc::JobPtr job = make_job(7);
    ASSERT_TRUE(queue.push(job));
    EXPECT_TRUE(queue.cancel(7));
    EXPECT_EQ(job->phase.load(), svc::JobPhase::cancelled);
    EXPECT_TRUE(job->cancel_requested.load());
    EXPECT_EQ(queue.depth(), 0U);
    EXPECT_FALSE(queue.cancel(7)); // unknown id now
}

TEST(JobQueue, ExpiredDeadlinesAreSweptBeforeDispatch) {
    svc::JobQueue queue(8);
    const svc::JobPtr stale = make_job(1, /*priority=*/9, /*deadline=*/1e-9);
    ASSERT_TRUE(queue.push(stale));
    ASSERT_TRUE(queue.push(make_job(2, 0)));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::vector<svc::JobPtr> expired;
    const svc::JobPtr job = queue.pop(expired);
    // The expired high-priority job must not win over the live one.
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->id, 2U);
    ASSERT_EQ(expired.size(), 1U);
    EXPECT_EQ(expired[0]->phase.load(), svc::JobPhase::expired);
}

TEST(JobQueue, CloseDrainsThenReturnsNull) {
    svc::JobQueue queue(8);
    ASSERT_TRUE(queue.push(make_job(1)));
    queue.close();
    EXPECT_FALSE(queue.push(make_job(2))); // closed to new work
    std::vector<svc::JobPtr> expired;
    EXPECT_EQ(queue.pop(expired)->id, 1U); // but drains what it holds
    EXPECT_EQ(queue.pop(expired), nullptr);
    EXPECT_TRUE(queue.closed());
}

// ---- SessionRegistry --------------------------------------------------

TEST(SessionRegistry, DedupesBySourceAndEvictsIdleLru) {
    svc::SessionRegistry registry(2);
    wire::CircuitSource mesh;
    mesh.builtin = "mesh:3x3";
    {
        const auto a = registry.acquire(mesh);
        const auto b = registry.acquire(mesh);
        EXPECT_EQ(&a.session(), &b.session()); // one live session
        EXPECT_EQ(registry.size(), 1U);
    }
    wire::CircuitSource mesh4;
    mesh4.builtin = "mesh:4x4";
    wire::CircuitSource mesh5;
    mesh5.builtin = "mesh:5x5";
    (void)registry.acquire(mesh4);
    (void)registry.acquire(mesh5); // capacity 2: evicts the idle LRU
    EXPECT_EQ(registry.size(), 2U);
}

TEST(SessionRegistry, ConcurrentAcquirersBuildOnce) {
    svc::SessionRegistry registry(4);
    wire::CircuitSource mesh;
    mesh.builtin = "mesh:8x8";
    std::vector<SimSession*> seen(8, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(seen.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
        threads.emplace_back([&, i] {
            const auto lease = registry.acquire(mesh);
            seen[i] = &lease.session();
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    for (const SimSession* s : seen) {
        EXPECT_EQ(s, seen[0]); // everyone got the same instance
    }
    EXPECT_EQ(registry.size(), 1U);
}

TEST(SessionRegistry, FailedBuildLeavesNoEntry) {
    svc::SessionRegistry registry(4);
    wire::CircuitSource bad;
    bad.builtin = "mesh:0x0";
    EXPECT_THROW((void)registry.acquire(bad), SimError);
    EXPECT_EQ(registry.size(), 0U);
    bad.deck = "not a netlist";
    bad.builtin.clear();
    EXPECT_THROW((void)registry.acquire(bad), SimError);
    EXPECT_EQ(registry.size(), 0U);
}

// ---- SimSession concurrency contract (satellite 2) --------------------

TEST(SimSessionContract, ReentrantRunThrows) {
    SimSession session(refckt::rc_mesh(3, 3));
    engines::AnalysisObserver observer;
    bool inner_threw = false;
    observer.on_progress = [&](double) {
        if (inner_threw) {
            return;
        }
        try {
            (void)session.run(OpSpec{}); // re-entrant: must be refused
        } catch (const AnalysisError&) {
            inner_threw = true;
        }
    };
    TranSpec tran;
    tran.t_stop = 1e-10;
    tran.common.dt_init = 1e-12;
    (void)session.run(tran, &observer);
    EXPECT_TRUE(inner_threw);
    // The guard resets: a fresh run on this thread still works.
    EXPECT_NO_THROW((void)session.run(OpSpec{}));
}

TEST(SimSessionContract, CrossThreadRunsSerializeSafely) {
    SimSession session(refckt::rc_mesh(4, 4));
    TranSpec tran;
    tran.t_stop = 2e-10;
    tran.common.dt_init = 1e-12;
    const AnalysisResult reference = session.run(tran);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&] {
            // Serialized on the internal run mutex; identical repeat
            // analyses must reproduce the reference bit-identically.
            const AnalysisResult r = session.run(tran);
            const auto& a = reference.tran().node_waves;
            const auto& b = r.tran().node_waves;
            if (a.size() != b.size()) {
                ++failures;
                return;
            }
            for (std::size_t w = 0; w < a.size(); ++w) {
                if (b[w].value() != a[w].value()) {
                    ++failures;
                }
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(failures.load(), 0);
}

// ---- deadline satellite ----------------------------------------------

TEST(Deadline, ExpiredBudgetReturnsAbortedPartialResult) {
    wire::CircuitSource source;
    source.builtin = "mesh:8x8";
    source.noise.push_back({"n4_4", 1e-9});
    SimSession session(source.build());
    MonteCarloSpec mc;
    mc.node = "n4_4";
    mc.t_stop = 1e-6; // far more work than the budget allows
    mc.runs = 10000;
    mc.common.deadline_s = 0.02;
    const auto t0 = std::chrono::steady_clock::now();
    const AnalysisResult result = session.run(mc); // no exception
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_TRUE(result.header.aborted);
    EXPECT_LT(elapsed, 5.0); // cancelled promptly, not run to completion
}

TEST(Deadline, GenerousBudgetDoesNotPerturbResults) {
    SimSession plain(refckt::rc_mesh(3, 3));
    SimSession budgeted(refckt::rc_mesh(3, 3));
    TranSpec tran;
    tran.t_stop = 1e-10;
    tran.common.dt_init = 1e-12;
    const AnalysisResult a = plain.run(tran);
    tran.common.deadline_s = 3600.0;
    const AnalysisResult b = budgeted.run(tran);
    EXPECT_FALSE(b.header.aborted);
    ASSERT_EQ(b.tran().node_waves.size(), a.tran().node_waves.size());
    for (std::size_t w = 0; w < a.tran().node_waves.size(); ++w) {
        EXPECT_EQ(b.tran().node_waves[w].value(),
                  a.tran().node_waves[w].value());
    }
}

// ---- server loopback --------------------------------------------------

json::Value submit_message(const wire::CircuitSource& circuit,
                           const AnalysisSpec& spec, bool subscribe) {
    json::Value msg{json::Object{}};
    msg.set("op", "submit");
    msg.set("circuit", circuit.to_json());
    msg.set("spec", wire::spec_to_json(spec));
    msg.set("subscribe", json::Value(subscribe));
    return msg;
}

TEST(ServerLoopback, PingSubmitStreamAndFetch) {
    svc::ServerOptions options;
    options.workers = 2;
    svc::Server server(options);
    server.start();
    svc::Client client("127.0.0.1", server.port());

    EXPECT_TRUE(client.request(json::parse(R"({"op":"ping"})"))
                    .at("ok")
                    .as_bool());
    // Malformed lines error the request, never the connection.
    EXPECT_FALSE(client.request(json::parse(R"({"op":"nope"})"))
                     .at("ok")
                     .as_bool());

    wire::CircuitSource circuit;
    circuit.builtin = "mesh:4x4";
    circuit.noise.push_back({"n2_2", 1e-9});
    MonteCarloSpec mc;
    mc.node = "n2_2";
    mc.t_stop = 5e-10;
    mc.runs = 8;
    mc.noise_dt = 5e-11;
    mc.grid_points = 21;

    // Events may interleave with the submit response (the worker can
    // start the job before the response line is written), so the same
    // collector watches both the request and the follow stream.
    bool started = false;
    bool done = false;
    int last_done = 0;
    const auto collect = [&](const json::Value& event) {
        const std::string& name = event.at("event").as_string();
        if (name == "started") {
            started = true;
        } else if (name == "trial") {
            const int count = event.at("done").as_int();
            EXPECT_GE(count, last_done); // monotone progress
            last_done = count;
        } else if (name == "done") {
            done = true;
        }
    };
    const json::Value accepted = client.request(
        submit_message(circuit, mc, /*subscribe=*/true), collect);
    ASSERT_TRUE(accepted.at("ok").as_bool());
    const std::uint64_t id = accepted.at("id").as_uint();
    if (!done) {
        const json::Value terminal = client.wait_for_terminal(id, collect);
        EXPECT_EQ(terminal.at("event").as_string(), "done");
    }
    EXPECT_TRUE(started);
    EXPECT_TRUE(done);

    json::Value fetch{json::Object{}};
    fetch.set("op", "result");
    fetch.set("id", json::Value(static_cast<double>(id)));
    const json::Value reply = client.request(fetch);
    ASSERT_TRUE(reply.at("ok").as_bool());
    const AnalysisResult streamed =
        wire::result_from_json(reply.at("result"));

    // Bit-identical to a direct in-process run of the same spec.
    SimSession direct(circuit.build());
    const AnalysisResult local = direct.run(mc);
    EXPECT_EQ(streamed.monte_carlo().mean.value(),
              local.monte_carlo().mean.value());
    EXPECT_EQ(streamed.monte_carlo().stddev.value(),
              local.monte_carlo().stddev.value());

    // Unknown ids and premature fetches are request errors.
    json::Value missing{json::Object{}};
    missing.set("op", "status");
    missing.set("id", json::Value(99999));
    EXPECT_FALSE(client.request(missing).at("ok").as_bool());

    server.stop(/*drain=*/true);
    server.wait();
}

TEST(ServerLoopback, BackpressureRejectsWhenQueueIsFull) {
    svc::ServerOptions options;
    options.workers = 1;
    options.queue_depth = 1;
    svc::Server server(options);
    server.start();
    svc::Client client("127.0.0.1", server.port());

    wire::CircuitSource circuit;
    circuit.builtin = "mesh:8x8";
    circuit.noise.push_back({"n4_4", 1e-9});
    MonteCarloSpec slow;
    slow.node = "n4_4";
    slow.t_stop = 1e-7;
    slow.runs = 5000;

    // First job occupies the single worker; the second sits in the
    // queue; the third must be rejected with the backpressure marker.
    const json::Value first =
        client.request(submit_message(circuit, slow, false));
    ASSERT_TRUE(first.at("ok").as_bool());
    json::Value queued{json::Object{}};
    std::uint64_t queued_id = 0;
    for (int attempt = 0; attempt < 200; ++attempt) {
        queued = client.request(submit_message(circuit, slow, false));
        if (!queued.at("ok").as_bool()) {
            break; // worker had not picked up the first job yet; retry
        }
        queued_id = queued.at("id").as_uint();
        const json::Value third =
            client.request(submit_message(circuit, slow, false));
        if (!third.at("ok").as_bool()) {
            EXPECT_EQ(third.at("rejected").as_string(), "backpressure");
            queued = third;
            break;
        }
        queued_id = third.at("id").as_uint();
    }
    EXPECT_FALSE(queued.at("ok").as_bool());
    (void)queued_id;

    // Cancel everything and force-stop: running jobs wind down through
    // the observer cancel path.
    server.stop(/*drain=*/false);
    server.wait();
}

TEST(ServerLoopback, CancelQueuedJobAndGracefulDrain) {
    svc::ServerOptions options;
    options.workers = 1;
    svc::Server server(options);
    server.start();
    auto client =
        std::make_unique<svc::Client>("127.0.0.1", server.port());

    wire::CircuitSource circuit;
    circuit.builtin = "mesh:4x4";
    TranSpec tran;
    tran.t_stop = 2e-10;
    tran.common.dt_init = 1e-12;

    // Terminal events interleave with responses on this connection, so
    // every request must collect the event lines it skips past.
    int terminal_events = 0;
    const auto collect = [&](const json::Value& event) {
        const std::string& name = event.at("event").as_string();
        if (name == "done" || name == "cancelled" || name == "failed" ||
            name == "expired") {
            EXPECT_NE(name, "failed");
            ++terminal_events;
        }
    };

    // A burst of jobs, all subscribed on this connection.
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
        const json::Value reply = client->request(
            submit_message(circuit, tran, true), collect);
        ASSERT_TRUE(reply.at("ok").as_bool());
        ids.push_back(reply.at("id").as_uint());
    }
    // Cancel the last one (it may be queued, running, or already done —
    // all are valid; a queued cancel publishes its terminal event here).
    json::Value cancel{json::Object{}};
    cancel.set("op", "cancel");
    cancel.set("id", json::Value(static_cast<double>(ids.back())));
    EXPECT_TRUE(client->request(cancel, collect).at("ok").as_bool());

    // Graceful drain: every job still reaches a terminal event, and the
    // events are delivered before the server tears the connection down.
    server.stop(/*drain=*/true);
    server.wait();
    while (terminal_events < 3) {
        const auto line = client->read();
        ASSERT_TRUE(line.has_value()); // EOF before all terminals = bug
        if (line->find("event") != nullptr) {
            collect(*line);
        }
    }
    EXPECT_EQ(terminal_events, 3);
}

TEST(ServerLoopback, SubscribeAfterCompletionStillGetsTerminalEvent) {
    svc::Server server{svc::ServerOptions{}};
    server.start();
    svc::Client client("127.0.0.1", server.port());
    wire::CircuitSource circuit;
    circuit.builtin = "mesh:3x3";
    const json::Value accepted =
        client.request(submit_message(circuit, OpSpec{}, false));
    ASSERT_TRUE(accepted.at("ok").as_bool());
    const std::uint64_t id = accepted.at("id").as_uint();

    // Poll status until terminal, then subscribe late.
    json::Value status{json::Object{}};
    status.set("op", "status");
    status.set("id", json::Value(static_cast<double>(id)));
    for (int i = 0; i < 500; ++i) {
        const json::Value reply = client.request(status);
        ASSERT_TRUE(reply.at("ok").as_bool());
        if (reply.at("phase").as_string() == "done") {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    json::Value subscribe{json::Object{}};
    subscribe.set("op", "subscribe");
    subscribe.set("id", json::Value(static_cast<double>(id)));
    EXPECT_TRUE(client.request(subscribe).at("ok").as_bool());
    const auto event = client.read(); // replayed terminal event
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->at("event").as_string(), "done");
    server.stop(true);
    server.wait();
}

TEST(ServerLoopback, DivergedOpResultDecodesOnEveryEngine) {
    // A 1e300 A source into 1e300 ohm diverges on every DC engine: the op
    // comes back unconverged with a non-finite residual and solution,
    // which travel as null and must decode as NaN.
    svc::Server server{svc::ServerOptions{}};
    server.start();
    svc::Client client("127.0.0.1", server.port());
    wire::CircuitSource circuit;
    circuit.deck = "* diverging op\nI1 0 a 1e300\nR1 a 0 1e300\n"
                   "C1 a 0 1p\n.op\n.end\n";
    for (const DcEngine engine :
         {DcEngine::swec, DcEngine::newton_raphson, DcEngine::mla}) {
        SCOPED_TRACE(engine_name(engine));
        OpSpec op;
        op.engine = engine;
        bool done = false;
        const auto collect = [&](const json::Value& event) {
            done = done || event.at("event").as_string() == "done";
        };
        const json::Value accepted = client.request(
            submit_message(circuit, op, /*subscribe=*/true), collect);
        ASSERT_TRUE(accepted.at("ok").as_bool());
        const std::uint64_t id = accepted.at("id").as_uint();
        if (!done) {
            EXPECT_EQ(client.wait_for_terminal(id, collect)
                          .at("event")
                          .as_string(),
                      "done");
        }
        json::Value fetch{json::Object{}};
        fetch.set("op", "result");
        fetch.set("id", json::Value(static_cast<double>(id)));
        const json::Value reply = client.request(fetch);
        ASSERT_TRUE(reply.at("ok").as_bool());
        const json::Value& doc = reply.at("result");

        const AnalysisResult result = wire::result_from_json(doc);
        EXPECT_EQ(result.header.engine, engine_name(engine));
        EXPECT_FALSE(result.dc().converged);
        EXPECT_TRUE(std::isnan(result.dc().residual));
        EXPECT_EQ(wire::result_to_json(result).dump(), doc.dump());
    }
    server.stop(true);
    server.wait();
}

TEST(ServerLoopback, RoundTripIsNotDelayedAckBound) {
    // The submit reply and the "started" event are two small writes back
    // to back.  With Nagle's algorithm on the server socket the second
    // waits for the client's delayed ACK (40 ms on Linux) on every job
    // after the first on a connection.
    svc::Server server{svc::ServerOptions{}};
    server.start();
    svc::Client client("127.0.0.1", server.port());
    wire::CircuitSource circuit;
    circuit.deck = "* divider\nV1 in 0 DC 1\nR1 in out 1000\n"
                   "R2 out 0 1000\n.op\n.end\n";
    json::Value fetch{json::Object{}};
    fetch.set("op", "result");

    constexpr std::size_t k_round_trips = 21;
    std::vector<double> rtt_s;
    for (std::size_t i = 0; i < k_round_trips; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        bool done = false;
        const auto collect = [&](const json::Value& event) {
            done = done || event.at("event").as_string() == "done";
        };
        const json::Value accepted = client.request(
            submit_message(circuit, OpSpec{}, /*subscribe=*/true), collect);
        ASSERT_TRUE(accepted.at("ok").as_bool());
        const std::uint64_t id = accepted.at("id").as_uint();
        if (!done) {
            ASSERT_EQ(client.wait_for_terminal(id).at("event").as_string(),
                      "done");
        }
        fetch.set("id", json::Value(static_cast<double>(id)));
        ASSERT_TRUE(client.request(fetch).at("ok").as_bool());
        rtt_s.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    const auto mid = rtt_s.begin() + k_round_trips / 2;
    std::nth_element(rtt_s.begin(), mid, rtt_s.end());
    EXPECT_LT(*mid, 20e-3) << "median submit -> done -> result round trip";
    server.stop(true);
    server.wait();
}

TEST(ServerLoopback, SessionLockWaitIsObserved) {
    // Jobs on one circuit share one SimSession, whose run() serializes on
    // the session lock: the second MC job waits for the first, and
    // service.session_wait_s shows that wait.
    obs::set_metrics_enabled(true);
    obs::metrics().reset();
    svc::ServerOptions options;
    options.workers = 2;
    svc::Server server(options);
    server.start();

    wire::CircuitSource circuit;
    circuit.builtin = "mesh:12x12";
    circuit.noise.push_back({"n6_6", 1e-9});
    MonteCarloSpec mc;
    mc.node = "n6_6";
    mc.t_stop = 2e-9;
    mc.runs = 16;
    mc.noise_dt = 1e-10;

    svc::Client first("127.0.0.1", server.port());
    svc::Client second("127.0.0.1", server.port());
    bool first_started = false;
    const json::Value a = first.request(
        submit_message(circuit, mc, /*subscribe=*/true),
        [&](const json::Value& event) {
            first_started = first_started ||
                            event.at("event").as_string() == "started";
        });
    ASSERT_TRUE(a.at("ok").as_bool());
    while (!first_started) {
        const auto line = first.read();
        ASSERT_TRUE(line.has_value());
        first_started = line->at("event").as_string() == "started";
    }
    const json::Value b =
        second.request(submit_message(circuit, mc, /*subscribe=*/true));
    ASSERT_TRUE(b.at("ok").as_bool());

    double shorter_run_s = 1e300;
    for (const auto& [client, reply] :
         {std::pair{&first, &a}, std::pair{&second, &b}}) {
        const std::uint64_t id = reply->at("id").as_uint();
        ASSERT_EQ(client->wait_for_terminal(id).at("event").as_string(),
                  "done");
        json::Value fetch{json::Object{}};
        fetch.set("op", "result");
        fetch.set("id", json::Value(static_cast<double>(id)));
        const AnalysisResult result =
            wire::result_from_json(client->request(fetch).at("result"));
        shorter_run_s = std::min(shorter_run_s, result.header.elapsed_s);
    }
    server.stop(true);
    server.wait();

    const obs::Histogram& wait = obs::metrics().histogram(
        "service.session_wait_s", obs::time_buckets());
    EXPECT_EQ(wait.count(), 2U);
    // Whichever job took the lock second waited for most of the other's
    // run (the second was submitted once the first had started), so the
    // sum is not merely positive.
    EXPECT_GT(wait.sum(), 0.25 * shorter_run_s);
    obs::metrics().reset();
    obs::set_metrics_enabled(false);
}

// ---- line framing -----------------------------------------------------

/// Owns a socket descriptor.
struct Fd {
    int fd = -1;
    explicit Fd(int f) : fd(f) {}
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;
    ~Fd() {
        if (fd >= 0) {
            ::close(fd);
        }
    }
};

/// Turns Nagle's algorithm off on `sock`, so each write below leaves as
/// its own segment.
void no_delay(const Fd& sock) {
    const int one = 1;
    ::setsockopt(sock.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Binds `sock` to an ephemeral loopback port and listens; returns the
/// port.
int listen_loopback(const Fd& sock) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (sock.fd < 0 ||
        ::bind(sock.fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(sock.fd, 1) != 0 ||
        ::getsockname(sock.fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
        throw IoError("test: cannot listen on loopback");
    }
    return ntohs(addr.sin_port);
}

/// Connects `sock` to a loopback port.
void connect_loopback(const Fd& sock, int port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (sock.fd < 0 ||
        ::connect(sock.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        throw IoError("test: cannot connect on loopback");
    }
}

/// Sends all of `bytes`; false when the socket fails.
bool write_all(int fd, std::string_view bytes) {
    while (!bytes.empty()) {
        const ssize_t n =
            ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n <= 0) {
            return false;
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

void pause_between_writes() {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

TEST(LineFraming, ClientReadReturnsEachLineWholeAndInOrder) {
    const Fd listener(::socket(AF_INET, SOCK_STREAM, 0));
    const int port = listen_loopback(listener);
    svc::ClientOptions options;
    options.read_timeout_s = 30.0; // a framing bug fails, not hangs
    svc::Client client("127.0.0.1", port, options);
    const Fd peer(::accept(listener.fd, nullptr, nullptr));
    ASSERT_GE(peer.fd, 0);
    no_delay(peer);

    const std::string blob(1200 * 1000, 'x'); // a 1.2 MB line
    // Two lines in one write, one line over three writes, the 1.2 MB
    // line, and one more after it.
    const std::vector<std::string> writes = {
        "{\"n\":1}\n{\"n\":2}\n", "{\"n\"", ":3", "}\n",
        "{\"blob\":\"" + blob + "\"}\n", "{\"n\":4}\n"};
    std::thread writer([&] {
        for (const std::string& bytes : writes) {
            if (!write_all(peer.fd, bytes)) {
                return; // the reader gave up and reports why
            }
            pause_between_writes();
        }
    });
    std::vector<json::Value> lines;
    try {
        while (lines.size() < 5) {
            std::optional<json::Value> line = client.read();
            if (!line.has_value()) {
                break;
            }
            lines.push_back(*std::move(line));
        }
    } catch (const std::exception& e) {
        ADD_FAILURE() << e.what();
    }
    ::shutdown(peer.fd, SHUT_RDWR); // unblocks the writer if reads stopped
    writer.join();

    ASSERT_EQ(lines.size(), 5U);
    EXPECT_EQ(lines[0].at("n").as_int(), 1);
    EXPECT_EQ(lines[1].at("n").as_int(), 2);
    EXPECT_EQ(lines[2].at("n").as_int(), 3);
    EXPECT_TRUE(lines[3].at("blob").as_string() == blob);
    EXPECT_EQ(lines[4].at("n").as_int(), 4);
}

TEST(LineFraming, ServerAnswersCoalescedAndSplitRequests) {
    svc::Server server{svc::ServerOptions{}};
    server.start();
    const Fd sock(::socket(AF_INET, SOCK_STREAM, 0));
    connect_loopback(sock, server.port());
    no_delay(sock);
    // Two pings in one write, then one ping split across two writes.
    ASSERT_TRUE(write_all(sock.fd, "{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n"));
    ASSERT_TRUE(write_all(sock.fd, "{\"op\":"));
    pause_between_writes();
    ASSERT_TRUE(write_all(sock.fd, "\"ping\"}\n"));

    std::string replies;
    while (std::count(replies.begin(), replies.end(), '\n') < 3) {
        pollfd p{sock.fd, POLLIN, 0};
        ASSERT_GT(::poll(&p, 1, 30000), 0) << "waiting after: " << replies;
        char chunk[256];
        const ssize_t n = ::recv(sock.fd, chunk, sizeof(chunk), 0);
        ASSERT_GT(n, 0) << "closed after: " << replies;
        replies.append(chunk, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(replies, "{\"ok\":true}\n{\"ok\":true}\n{\"ok\":true}\n");
    server.stop(true);
    server.wait();
}

// ---- acceptance criterion --------------------------------------------

TEST(ServiceAcceptance, ConcurrentClientsShareOneSymbolicAnalysis) {
    obs::set_metrics_enabled(true);
    obs::metrics().reset();

    svc::ServerOptions options;
    options.workers = 4;
    svc::Server server(options);
    server.start();

    wire::CircuitSource circuit;
    circuit.builtin = "mesh:32x32";
    TranSpec tran;
    tran.t_stop = 5e-11;
    tran.common.dt_init = 1e-12;

    constexpr int k_clients = 6;
    std::vector<std::string> encoded(k_clients);
    std::vector<std::thread> clients;
    clients.reserve(k_clients);
    for (int i = 0; i < k_clients; ++i) {
        clients.emplace_back([&, i] {
            svc::Client client("127.0.0.1", server.port());
            const json::Value accepted =
                client.request(submit_message(circuit, tran, true));
            ASSERT_TRUE(accepted.at("ok").as_bool());
            const std::uint64_t id = accepted.at("id").as_uint();
            const json::Value terminal = client.wait_for_terminal(id);
            ASSERT_EQ(terminal.at("event").as_string(), "done");
            json::Value fetch{json::Object{}};
            fetch.set("op", "result");
            fetch.set("id", json::Value(static_cast<double>(id)));
            const json::Value reply = client.request(fetch);
            ASSERT_TRUE(reply.at("ok").as_bool());
            encoded[i] = reply.at("result").dump();
        });
    }
    for (auto& t : clients) {
        t.join();
    }
    server.stop(true);
    server.wait();

    // Exactly one live session was built for the six clients...
    EXPECT_EQ(obs::metrics().counter("service.sessions_created").value(),
              1U);
    EXPECT_EQ(obs::metrics().counter("service.session_dedup_hits").value(),
              static_cast<std::uint64_t>(k_clients - 1));
    // ...and exactly one symbolic/full factorisation between them.
    EXPECT_EQ(
        obs::metrics().counter("service.solver_full_factors").value(), 1U);

    // Every job's waveforms are bit-identical to a direct run.
    SimSession direct(circuit.build());
    const AnalysisResult local = direct.run(tran);
    const auto& reference = local.tran().node_waves;
    for (const std::string& doc : encoded) {
        ASSERT_FALSE(doc.empty());
        const AnalysisResult streamed =
            wire::result_from_json(json::parse(doc));
        const auto& waves = streamed.tran().node_waves;
        ASSERT_EQ(waves.size(), reference.size());
        for (std::size_t w = 0; w < reference.size(); ++w) {
            ASSERT_EQ(waves[w].value(), reference[w].value());
        }
    }
    obs::metrics().reset();
    obs::set_metrics_enabled(false);
}

} // namespace
} // namespace nanosim
