#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/sim_session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "service/job_queue.hpp"
#include "service/json.hpp"
#include "service/line_buffer.hpp"
#include "service/session_registry.hpp"
#include "service/wire.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"

namespace nanosim::service {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a,
                                     Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Minimum spacing of streamed progress/trial/partial events — the
/// engines step far faster than a client wants lines.
constexpr auto k_event_interval = std::chrono::milliseconds(50);

/// One client connection.  The reader thread parses request lines; any
/// thread may write through send_line (worker event publishing races
/// with responses — the write mutex keeps lines whole).
struct Connection {
    int fd = -1;
    std::mutex write_mutex;
    std::atomic<bool> open{true};
    std::thread reader;
};

using ConnectionPtr = std::shared_ptr<Connection>;

/// Write `line` plus its '\n' as one NDJSON line; on any send failure
/// the connection is marked closed (the reader notices on its next
/// recv).  Taken by value: callers move their document in, so the '\n'
/// is appended without copying it.
void send_line(const ConnectionPtr& conn, std::string line) {
    if (!conn->open.load(std::memory_order_relaxed)) {
        return;
    }
    line.push_back('\n');
    const std::lock_guard<std::mutex> lock(conn->write_mutex);
    std::size_t sent = 0;
    while (sent < line.size()) {
        const ssize_t n = ::send(conn->fd, line.data() + sent,
                                 line.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) {
                continue;
            }
            conn->open.store(false, std::memory_order_relaxed);
            return;
        }
        sent += static_cast<std::size_t>(n);
    }
}

/// A job plus its event subscribers (server-side bookkeeping the
/// networking-free Job cannot carry).
struct JobRecord {
    JobPtr job;
    std::mutex sub_mutex;
    std::vector<std::weak_ptr<Connection>> subscribers;
    Clock::time_point started{};
};

using JobRecordPtr = std::shared_ptr<JobRecord>;

} // namespace

struct Server::Impl {
    explicit Impl(ServerOptions opts)
        : options(std::move(opts)), queue(options.queue_depth),
          sessions(options.max_sessions) {}

    ServerOptions options;
    JobQueue queue;
    SessionRegistry sessions;

    int listen_fd = -1;
    int wake_pipe[2] = {-1, -1};
    int bound_port = 0;
    std::atomic<bool> running{false};
    std::atomic<bool> stopping{false};

    std::unique_ptr<runtime::ThreadPool> pool;
    std::vector<std::future<void>> workers;
    std::thread accept_thread;

    std::mutex connections_mutex;
    std::vector<ConnectionPtr> connections;

    std::mutex jobs_mutex;
    std::map<std::uint64_t, JobRecordPtr> jobs;
    std::uint64_t next_job_id = 1;
    /// Idempotent-submit ledger: key -> job id.  Guarded by jobs_mutex;
    /// entries die with their job record (prune_history_locked).
    std::map<std::string, std::uint64_t> idempotency;

    // ---- event publishing ----------------------------------------------

    void publish(const JobRecordPtr& record, const std::string& line) {
        std::vector<ConnectionPtr> targets;
        {
            const std::lock_guard<std::mutex> lock(record->sub_mutex);
            targets.reserve(record->subscribers.size());
            for (const auto& weak : record->subscribers) {
                if (ConnectionPtr conn = weak.lock();
                    conn != nullptr &&
                    conn->open.load(std::memory_order_relaxed)) {
                    targets.push_back(std::move(conn));
                }
            }
        }
        for (const ConnectionPtr& conn : targets) {
            send_line(conn, line);
        }
    }

    [[nodiscard]] static std::string event_line(const char* event,
                                                std::uint64_t id) {
        json::Value msg{json::Object{}};
        msg.set("event", event);
        msg.set("id", json::Value(static_cast<double>(id)));
        return msg.dump();
    }

    /// The terminal event for a job's current phase (empty when the
    /// phase is not terminal).
    [[nodiscard]] static std::string terminal_event_line(const Job& job,
                                                        JobPhase phase) {
        switch (phase) {
        case JobPhase::done: return event_line("done", job.id);
        case JobPhase::cancelled: return event_line("cancelled", job.id);
        case JobPhase::expired: return event_line("expired", job.id);
        case JobPhase::failed: {
            json::Value msg{json::Object{}};
            msg.set("event", "failed");
            msg.set("id", json::Value(static_cast<double>(job.id)));
            msg.set("error", job.error);
            return msg.dump();
        }
        case JobPhase::queued:
        case JobPhase::running: break;
        }
        return {};
    }

    void count(const char* name) {
        if (obs::metrics_enabled()) {
            obs::metrics().counter(name).inc();
        }
    }
    void observe(const char* name, double seconds) {
        if (obs::metrics_enabled()) {
            obs::metrics()
                .histogram(name, obs::time_buckets())
                .observe(seconds);
        }
    }

    // ---- worker side ---------------------------------------------------

    [[nodiscard]] JobRecordPtr record_of(std::uint64_t id) {
        const std::lock_guard<std::mutex> lock(jobs_mutex);
        const auto it = jobs.find(id);
        return it == jobs.end() ? nullptr : it->second;
    }

    void finish_terminal(const JobRecordPtr& record, JobPhase phase,
                         const char* counter_name) {
        record->job->phase.store(phase, std::memory_order_release);
        count(counter_name);
        publish(record, terminal_event_line(*record->job, phase));
    }

    void worker_loop() {
        std::vector<JobPtr> expired;
        for (;;) {
            expired.clear();
            JobPtr job = queue.pop(expired);
            for (const JobPtr& e : expired) {
                // pop already stored phase = expired.
                if (JobRecordPtr record = record_of(e->id)) {
                    count("service.jobs_expired");
                    publish(record,
                            terminal_event_line(*e, JobPhase::expired));
                }
            }
            if (job == nullptr) {
                if (queue.closed()) {
                    return;
                }
                continue; // woke only to report expirations
            }
            if (JobRecordPtr record = record_of(job->id)) {
                try {
                    execute(record);
                } catch (...) {
                    // Absolute backstop: a job must NEVER kill a worker
                    // (the daemon would silently lose capacity).
                    // execute() already converts std::exception into a
                    // failed terminal; this catches anything exotic that
                    // escaped, including throws from the terminal
                    // publishing itself.
                    if (!job_phase_terminal(record->job->phase.load(
                            std::memory_order_acquire))) {
                        record->job->error =
                            "internal error: job worker threw past the "
                            "failure handler";
                        finish_terminal(record, JobPhase::failed,
                                        "service.jobs_failed");
                    }
                }
            }
        }
    }

    void execute(const JobRecordPtr& record) {
        const JobPtr& job = record->job;
        const auto t_start = Clock::now();
        record->started = t_start;
        observe("service.job_wait_s",
                seconds_between(job->submitted, t_start));
        if (job->cancel_requested.load(std::memory_order_relaxed)) {
            finish_terminal(record, JobPhase::cancelled,
                            "service.jobs_cancelled");
            return;
        }
        job->phase.store(JobPhase::running, std::memory_order_release);
        publish(record, event_line("started", job->id));
        const obs::Span span("service.job:" + std::to_string(job->id),
                             "service");
        try {
            SessionRegistry::Lease lease = sessions.acquire(job->circuit);

            AnalysisSpec spec = job->spec;
            if (job->deadline_s > 0.0) {
                // Queue wait already consumed part of the budget; hand
                // the engine only the remainder (through the spec's own
                // deadline knob so the observer wrapping is uniform).
                const double remaining =
                    seconds_between(Clock::now(), job->deadline());
                if (remaining <= 0.0) {
                    finish_terminal(record, JobPhase::expired,
                                    "service.jobs_expired");
                    return;
                }
                std::visit(
                    [remaining](auto& s) {
                        double& d = s.common.deadline_s;
                        d = d > 0.0 ? std::min(d, remaining) : remaining;
                    },
                    spec);
            }

            engines::AnalysisObserver observer =
                make_observer(record, job);
            if (failpoints::enabled()) {
                static auto& fp = failpoints::site("service.worker_stall");
                if (fp.fire()) {
                    // Simulated wedged worker: long enough for a
                    // deadline/heartbeat to trip, short enough for CI.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2000));
                }
            }
            const auto t_run = Clock::now();
            AnalysisResult result = lease.session().run(spec, &observer);
            // run() starts the elapsed_s clock after it takes the session
            // lock, so the rest is time spent waiting for another job on
            // the same circuit.
            observe("service.session_wait_s",
                    seconds_between(t_run, Clock::now()) -
                        result.header.elapsed_s);
            if (failpoints::enabled()) {
                static auto& fp =
                    failpoints::site("service.result_serialize");
                if (fp.fire()) {
                    throw ServiceError("fail-point service.result_serialize "
                                       "fired before encoding");
                }
            }

            if (obs::metrics_enabled()) {
                // The acceptance-criterion counter: total symbolic/full
                // factorisations performed on behalf of service jobs.
                obs::metrics()
                    .counter("service.solver_full_factors")
                    .inc(result.report.full_factors);
            }
            job->result_json = std::make_shared<const std::string>(
                wire::result_to_json(result).dump());
            const bool cancelled =
                result.header.aborted &&
                job->cancel_requested.load(std::memory_order_relaxed);
            observe("service.job_run_s",
                    seconds_between(t_start, Clock::now()));
            finish_terminal(record,
                            cancelled ? JobPhase::cancelled
                                      : JobPhase::done,
                            cancelled ? "service.jobs_cancelled"
                                      : "service.jobs_done");
        } catch (const std::exception& e) {
            job->error = e.what();
            observe("service.job_run_s",
                    seconds_between(t_start, Clock::now()));
            finish_terminal(record, JobPhase::failed,
                            "service.jobs_failed");
        }
    }

    [[nodiscard]] engines::AnalysisObserver
    make_observer(const JobRecordPtr& record, const JobPtr& job) {
        // Throttle state shared by the hooks; multi-worker campaigns call
        // them from worker threads, so it is mutex-guarded.
        struct Throttle {
            std::mutex mutex;
            Clock::time_point last_progress{};
            Clock::time_point last_partial{};
        };
        auto throttle = std::make_shared<Throttle>();
        auto* impl = this;

        engines::AnalysisObserver observer;
        observer.cancel = [job] {
            return job->cancel_requested.load(std::memory_order_relaxed);
        };
        observer.on_progress = [impl, record, job, throttle](double f) {
            {
                const std::lock_guard<std::mutex> lock(throttle->mutex);
                const auto now = Clock::now();
                if (f < 1.0 &&
                    now - throttle->last_progress < k_event_interval) {
                    return;
                }
                throttle->last_progress = now;
            }
            json::Value msg{json::Object{}};
            msg.set("event", "progress");
            msg.set("id", json::Value(static_cast<double>(job->id)));
            msg.set("fraction", json::Value(f));
            impl->publish(record, msg.dump());
        };
        observer.on_trial = [impl, record, job, throttle](int done,
                                                          int total) {
            {
                const std::lock_guard<std::mutex> lock(throttle->mutex);
                const auto now = Clock::now();
                if (done != total &&
                    now - throttle->last_progress < k_event_interval) {
                    return;
                }
                throttle->last_progress = now;
            }
            json::Value msg{json::Object{}};
            msg.set("event", "trial");
            msg.set("id", json::Value(static_cast<double>(job->id)));
            msg.set("done", json::Value(done));
            msg.set("total", json::Value(total));
            impl->publish(record, msg.dump());
        };
        observer.on_sample = [impl, record, job, throttle](
                                 double t, const double* x, int n) {
            {
                const std::lock_guard<std::mutex> lock(throttle->mutex);
                const auto now = Clock::now();
                if (now - throttle->last_partial < k_event_interval) {
                    return;
                }
                throttle->last_partial = now;
            }
            json::Value msg{json::Object{}};
            msg.set("event", "partial");
            msg.set("id", json::Value(static_cast<double>(job->id)));
            msg.set("t", json::Value(t));
            json::Array values;
            values.reserve(static_cast<std::size_t>(n));
            for (int i = 0; i < n; ++i) {
                values.emplace_back(x[i]);
            }
            msg.set("x", json::Value(std::move(values)));
            impl->publish(record, msg.dump());
        };
        observer.on_checkpoint =
            [impl, record, job](const engines::McCheckpoint& cp) {
                // Unthrottled: the engine already paces checkpoints by
                // checkpoint_every, and dropping one would widen the
                // window a kill-and-resume loses.
                json::Value msg{json::Object{}};
                msg.set("event", "checkpoint");
                msg.set("id", json::Value(static_cast<double>(job->id)));
                msg.set("checkpoint", wire::checkpoint_to_json(cp));
                impl->publish(record, msg.dump());
            };
        return observer;
    }

    // ---- request side --------------------------------------------------

    [[nodiscard]] static std::string error_line(const std::string& what) {
        json::Value msg{json::Object{}};
        msg.set("ok", json::Value(false));
        msg.set("error", what);
        return msg.dump();
    }

    void prune_history_locked() {
        // Keep the job map bounded: evict oldest TERMINAL records first
        // (ids are monotonic, so map order is submission order).
        for (auto it = jobs.begin();
             it != jobs.end() && jobs.size() > options.history;) {
            if (job_phase_terminal(
                    it->second->job->phase.load(std::memory_order_acquire))) {
                it = jobs.erase(it);
            } else {
                ++it;
            }
        }
        // Idempotency keys die with their job records.
        for (auto it = idempotency.begin(); it != idempotency.end();) {
            if (jobs.count(it->second) == 0) {
                it = idempotency.erase(it);
            } else {
                ++it;
            }
        }
    }

    void handle_submit(const ConnectionPtr& conn, const json::Value& msg) {
        for (const auto& [key, member] : msg.as_object()) {
            (void)member;
            if (key != "op" && key != "circuit" && key != "spec" &&
                key != "priority" && key != "deadline_s" &&
                key != "subscribe" && key != "failpoints" &&
                key != "idempotency_key") {
                throw ServiceError("unknown key \"" + key +
                                   "\" in submit request");
            }
        }
        if (const json::Value* p = msg.find("failpoints")) {
            // Chaos-testing hook: arm the process-wide registry from the
            // request (same spec syntax as NANOSIM_FAILPOINTS).
            failpoints::arm_from_spec(p->as_string());
        }
        std::string idem_key;
        if (const json::Value* p = msg.find("idempotency_key")) {
            idem_key = p->as_string();
        }
        auto job = std::make_shared<Job>();
        job->circuit = wire::CircuitSource::from_json(msg.at("circuit"));
        job->spec = msg.find("spec") != nullptr
                        ? wire::spec_from_json(*msg.find("spec"))
                        : AnalysisSpec{OpSpec{}};
        if (const json::Value* p = msg.find("priority")) {
            job->priority = p->as_int();
        }
        if (const json::Value* p = msg.find("deadline_s")) {
            job->deadline_s = p->as_number();
        }
        job->submitted = Clock::now();

        auto record = std::make_shared<JobRecord>();
        record->job = job;
        if (const json::Value* p = msg.find("subscribe");
            p != nullptr && p->as_bool()) {
            record->subscribers.emplace_back(conn);
        }
        std::uint64_t dup_id = 0;
        {
            const std::lock_guard<std::mutex> lock(jobs_mutex);
            // Idempotent replay check and key registration share the id
            // lock, so two racing retries of the same submit cannot both
            // enqueue.
            if (!idem_key.empty()) {
                const auto it = idempotency.find(idem_key);
                if (it != idempotency.end() &&
                    jobs.count(it->second) > 0) {
                    dup_id = it->second;
                }
            }
            if (dup_id == 0) {
                job->id = next_job_id++;
                jobs.emplace(job->id, record);
                if (!idem_key.empty()) {
                    idempotency[idem_key] = job->id;
                }
                prune_history_locked();
            }
        }
        if (dup_id != 0) {
            // The first submit won; hand its id back instead of running
            // the job twice.
            count("service.jobs_deduped");
            json::Value reply{json::Object{}};
            reply.set("ok", json::Value(true));
            reply.set("id", json::Value(static_cast<double>(dup_id)));
            reply.set("duplicate", json::Value(true));
            send_line(conn, reply.dump());
            // A following resubmit is a reconnect: attach it to the
            // ORIGINAL record (the one built above is discarded) and
            // replay the terminal event if the job already ended —
            // otherwise a retried client waits forever on events that
            // fired before it reconnected.
            if (const json::Value* p = msg.find("subscribe");
                p != nullptr && p->as_bool()) {
                if (const JobRecordPtr orig = record_of(dup_id)) {
                    {
                        const std::lock_guard<std::mutex> lock(
                            orig->sub_mutex);
                        orig->subscribers.emplace_back(conn);
                    }
                    const JobPhase phase = orig->job->phase.load(
                        std::memory_order_acquire);
                    if (job_phase_terminal(phase)) {
                        send_line(conn, terminal_event_line(*orig->job,
                                                            phase));
                    }
                }
            }
            return;
        }
        count("service.jobs_submitted");
        // Subscribing happened BEFORE the push: a worker grabbing the
        // job immediately cannot emit events the submitter misses.
        if (!queue.push(job)) {
            {
                const std::lock_guard<std::mutex> lock(jobs_mutex);
                jobs.erase(job->id);
                if (!idem_key.empty()) {
                    idempotency.erase(idem_key);
                }
            }
            count("service.jobs_rejected");
            json::Value reply{json::Object{}};
            reply.set("ok", json::Value(false));
            reply.set("error",
                      queue.closed() ? "server is shutting down"
                                     : "queue full");
            reply.set("rejected", queue.closed() ? "shutdown"
                                                 : "backpressure");
            send_line(conn, reply.dump());
            return;
        }
        json::Value reply{json::Object{}};
        reply.set("ok", json::Value(true));
        reply.set("id", json::Value(static_cast<double>(job->id)));
        reply.set("queued",
                  json::Value(static_cast<double>(queue.depth())));
        send_line(conn, reply.dump());
    }

    void handle_status(const ConnectionPtr& conn, std::uint64_t id) {
        const JobRecordPtr record = record_of(id);
        if (record == nullptr) {
            send_line(conn, error_line("unknown job id"));
            return;
        }
        const JobPhase phase =
            record->job->phase.load(std::memory_order_acquire);
        json::Value reply{json::Object{}};
        reply.set("ok", json::Value(true));
        reply.set("id", json::Value(static_cast<double>(id)));
        reply.set("phase", job_phase_name(phase));
        if (phase == JobPhase::failed) {
            reply.set("error", record->job->error);
        }
        send_line(conn, reply.dump());
    }

    void handle_result(const ConnectionPtr& conn, std::uint64_t id) {
        const JobRecordPtr record = record_of(id);
        if (record == nullptr) {
            send_line(conn, error_line("unknown job id"));
            return;
        }
        const JobPhase phase =
            record->job->phase.load(std::memory_order_acquire);
        if (!job_phase_terminal(phase) ||
            record->job->result_json == nullptr) {
            send_line(conn,
                      error_line(std::string("no result: job is ") +
                                 job_phase_name(phase)));
            return;
        }
        // Splice the cached wire document instead of re-parsing it; the
        // response is {"id":...,"ok":true,"phase":...,"result":<doc>},
        // built with one copy of the document.
        const std::string& doc = *record->job->result_json;
        std::string line = "{\"id\":" + std::to_string(id) +
                           ",\"ok\":true,\"phase\":\"" +
                           job_phase_name(phase) + "\",\"result\":";
        line.reserve(line.size() + doc.size() + 2); // "}" and the '\n'
        line += doc;
        line += '}';
        send_line(conn, std::move(line));
    }

    void handle_cancel(const ConnectionPtr& conn, std::uint64_t id) {
        const JobRecordPtr record = record_of(id);
        if (record == nullptr) {
            send_line(conn, error_line("unknown job id"));
            return;
        }
        const bool was_queued = queue.cancel(id);
        if (was_queued) {
            // queue.cancel stored phase = cancelled.
            count("service.jobs_cancelled");
            publish(record,
                    terminal_event_line(*record->job, JobPhase::cancelled));
        } else {
            // Running (worker winds it down) or already terminal.
            record->job->cancel_requested.store(
                true, std::memory_order_relaxed);
        }
        json::Value reply{json::Object{}};
        reply.set("ok", json::Value(true));
        reply.set("id", json::Value(static_cast<double>(id)));
        send_line(conn, reply.dump());
    }

    void handle_subscribe(const ConnectionPtr& conn, std::uint64_t id) {
        const JobRecordPtr record = record_of(id);
        if (record == nullptr) {
            send_line(conn, error_line("unknown job id"));
            return;
        }
        {
            const std::lock_guard<std::mutex> lock(record->sub_mutex);
            record->subscribers.emplace_back(conn);
        }
        json::Value reply{json::Object{}};
        reply.set("ok", json::Value(true));
        reply.set("id", json::Value(static_cast<double>(id)));
        send_line(conn, reply.dump());
        // A subscriber joining after the fact still gets the terminal
        // event (subscribe/completion race).
        const JobPhase phase =
            record->job->phase.load(std::memory_order_acquire);
        if (job_phase_terminal(phase)) {
            send_line(conn, terminal_event_line(*record->job, phase));
        }
    }

    void handle_line(const ConnectionPtr& conn, std::string_view line) {
        try {
            const json::Value msg = json::parse(line);
            const std::string& op = msg.at("op").as_string();
            if (op == "ping") {
                json::Value reply{json::Object{}};
                reply.set("ok", json::Value(true));
                send_line(conn, reply.dump());
            } else if (op == "submit") {
                handle_submit(conn, msg);
            } else if (op == "status") {
                handle_status(conn, msg.at("id").as_uint());
            } else if (op == "result") {
                handle_result(conn, msg.at("id").as_uint());
            } else if (op == "cancel") {
                handle_cancel(conn, msg.at("id").as_uint());
            } else if (op == "subscribe") {
                handle_subscribe(conn, msg.at("id").as_uint());
            } else if (op == "shutdown") {
                bool drain = true;
                if (const json::Value* p = msg.find("drain")) {
                    drain = p->as_bool();
                }
                json::Value reply{json::Object{}};
                reply.set("ok", json::Value(true));
                send_line(conn, reply.dump());
                stop(drain);
            } else {
                send_line(conn, error_line("unknown op \"" + op + "\""));
            }
        } catch (const std::exception& e) {
            // Malformed wire input must error the REQUEST, never crash
            // or wedge the connection.
            send_line(conn, error_line(e.what()));
        }
    }

    /// True when `conn` is subscribed to at least one non-terminal job.
    [[nodiscard]] bool has_live_subscription(const ConnectionPtr& conn) {
        std::vector<JobRecordPtr> records;
        {
            const std::lock_guard<std::mutex> lock(jobs_mutex);
            records.reserve(jobs.size());
            for (const auto& [id, record] : jobs) {
                (void)id;
                records.push_back(record);
            }
        }
        for (const JobRecordPtr& record : records) {
            if (job_phase_terminal(record->job->phase.load(
                    std::memory_order_acquire))) {
                continue;
            }
            const std::lock_guard<std::mutex> lock(record->sub_mutex);
            for (const auto& weak : record->subscribers) {
                if (weak.lock() == conn) {
                    return true;
                }
            }
        }
        return false;
    }

    void reader_loop(const ConnectionPtr& conn) {
        LineBuffer lines;
        bool probed = false; // heartbeat already sent this quiet spell
        while (conn->open.load(std::memory_order_relaxed)) {
            if (options.idle_timeout_s > 0.0) {
                pollfd p{conn->fd, POLLIN, 0};
                const int timeout_ms = std::max(
                    1, static_cast<int>(options.idle_timeout_s * 1e3));
                const int rc = ::poll(&p, 1, timeout_ms);
                if (rc < 0) {
                    if (errno == EINTR) {
                        continue;
                    }
                    break;
                }
                if (rc == 0) {
                    // Quiet interval: probe once, close on the second —
                    // unless the connection is subscribed to a live job
                    // (quietly RECEIVING events is not idleness; it
                    // keeps getting heartbeats instead).
                    if (probed && !has_live_subscription(conn)) {
                        break;
                    }
                    probed = true;
                    send_line(conn, "{\"event\":\"heartbeat\"}");
                    continue;
                }
                probed = false;
            }
            ssize_t n = lines.recv_from(conn->fd);
            if (failpoints::enabled() && n > 0) {
                static auto& fp = failpoints::site("service.socket_eof");
                if (fp.fire()) {
                    n = 0; // simulated peer hangup mid-stream
                }
            }
            if (n <= 0) {
                if (n < 0 && errno == EINTR) {
                    continue;
                }
                break;
            }
            while (const auto line = lines.next_line()) {
                handle_line(conn, *line);
            }
        }
        conn->open.store(false, std::memory_order_relaxed);
        // The fd itself is reclaimed later (reaper or stop), but the
        // peer must see EOF NOW — without the shutdown a client blocked
        // in recv would hang until some unrelated connection arrives.
        ::shutdown(conn->fd, SHUT_RDWR);
    }

    // ---- lifecycle -----------------------------------------------------

    void accept_loop() {
        for (;;) {
            pollfd fds[2];
            fds[0] = {listen_fd, POLLIN, 0};
            fds[1] = {wake_pipe[0], POLLIN, 0};
            if (::poll(fds, 2, -1) < 0) {
                if (errno == EINTR) {
                    continue;
                }
                return;
            }
            if ((fds[1].revents & POLLIN) != 0) {
                return; // stop() wrote the wake byte
            }
            if ((fds[0].revents & POLLIN) == 0) {
                continue;
            }
            const int fd = ::accept(listen_fd, nullptr, nullptr);
            if (fd < 0) {
                continue;
            }
            // Replies and events are small writes back to back (a submit
            // reply, then "started").  With Nagle's algorithm on, the
            // second waits for the client's delayed ACK, 40 ms on Linux.
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            auto conn = std::make_shared<Connection>();
            conn->fd = fd;
            conn->reader =
                std::thread([this, conn] { reader_loop(conn); });
            const std::lock_guard<std::mutex> lock(connections_mutex);
            // Reap connections whose reader already finished, so a
            // long-lived server does not accumulate dead entries.
            for (auto it = connections.begin();
                 it != connections.end();) {
                if (!(*it)->open.load(std::memory_order_relaxed)) {
                    (*it)->reader.join();
                    ::close((*it)->fd);
                    it = connections.erase(it);
                } else {
                    ++it;
                }
            }
            connections.push_back(std::move(conn));
        }
    }

    void stop(bool drain) {
        bool expected = false;
        if (!stopping.compare_exchange_strong(expected, true)) {
            if (!drain) {
                cancel_pending(); // upgrade a drain to a force-stop
            }
            return;
        }
        // Wake the accept loop; no new connections.
        if (wake_pipe[1] >= 0) {
            const char byte = 1;
            [[maybe_unused]] const ssize_t n =
                ::write(wake_pipe[1], &byte, 1);
        }
        if (!drain) {
            cancel_pending();
        }
        queue.close(); // workers drain what is left, then exit
    }

    void cancel_pending() {
        std::vector<JobRecordPtr> records;
        {
            const std::lock_guard<std::mutex> lock(jobs_mutex);
            records.reserve(jobs.size());
            for (const auto& [id, record] : jobs) {
                records.push_back(record);
            }
        }
        for (const JobRecordPtr& record : records) {
            const JobPhase phase =
                record->job->phase.load(std::memory_order_acquire);
            if (job_phase_terminal(phase)) {
                continue;
            }
            if (phase == JobPhase::queued &&
                queue.cancel(record->job->id)) {
                count("service.jobs_cancelled");
                publish(record, terminal_event_line(*record->job,
                                                    JobPhase::cancelled));
            } else {
                // Running, or popped by a worker that has not marked it
                // running yet (still "queued", but no longer in the
                // queue): execute() and the engine poll this flag.
                record->job->cancel_requested.store(
                    true, std::memory_order_relaxed);
            }
        }
    }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() {
    if (impl_->running.load()) {
        impl_->stop(false);
        wait();
    }
}

void Server::start() {
    Impl& s = *impl_;
    if (s.running.load()) {
        throw ServiceError("Server::start: already running");
    }
    if (::pipe(s.wake_pipe) != 0) {
        throw IoError("serve: cannot create wake pipe");
    }
    s.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (s.listen_fd < 0) {
        throw IoError("serve: cannot create socket");
    }
    const int one = 1;
    ::setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(s.options.port));
    if (::inet_pton(AF_INET, s.options.host.c_str(), &addr.sin_addr) != 1) {
        ::close(s.listen_fd);
        throw IoError("serve: bad host '" + s.options.host + "'");
    }
    if (::bind(s.listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(s.listen_fd, 16) != 0) {
        ::close(s.listen_fd);
        throw IoError("serve: cannot bind " + s.options.host + ":" +
                      std::to_string(s.options.port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(s.listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    s.bound_port = static_cast<int>(ntohs(bound.sin_port));

    const int workers = std::max(s.options.workers, 1);
    s.pool = std::make_unique<runtime::ThreadPool>(workers);
    s.workers.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
        s.workers.push_back(s.pool->submit([&s] { s.worker_loop(); }));
    }
    s.accept_thread = std::thread([&s] { s.accept_loop(); });
    s.running.store(true);
}

int Server::port() const { return impl_->bound_port; }

void Server::stop(bool drain) { impl_->stop(drain); }

void Server::wait() {
    Impl& s = *impl_;
    if (s.accept_thread.joinable()) {
        s.accept_thread.join();
    }
    if (s.listen_fd >= 0) {
        ::close(s.listen_fd);
        s.listen_fd = -1;
    }
    // Workers finish per stop()'s mode (drain or cancel).
    for (auto& f : s.workers) {
        if (f.valid()) {
            f.get();
        }
    }
    s.workers.clear();
    s.pool.reset();
    // Tear down the connections last so drained results reached their
    // subscribers first.
    std::vector<ConnectionPtr> connections;
    {
        const std::lock_guard<std::mutex> lock(s.connections_mutex);
        connections.swap(s.connections);
    }
    for (const ConnectionPtr& conn : connections) {
        conn->open.store(false, std::memory_order_relaxed);
        ::shutdown(conn->fd, SHUT_RDWR);
    }
    for (const ConnectionPtr& conn : connections) {
        if (conn->reader.joinable()) {
            conn->reader.join();
        }
        ::close(conn->fd);
    }
    for (int& fd : s.wake_pipe) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
    s.running.store(false);
}

bool Server::running() const { return impl_->running.load(); }

} // namespace nanosim::service
