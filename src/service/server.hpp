// Nano-Sim — `nanosim serve`: a long-lived analysis service over a
// newline-delimited JSON (NDJSON) TCP protocol.
//
// One running Server owns: a listening socket + accept thread, one
// reader thread per client connection, a bounded priority JobQueue, a
// SessionRegistry deduplicating live SimSessions by canonical circuit
// text (each session holds one solver cache), and a worker pool
// (runtime::ThreadPool) executing jobs.  Results are produced by the
// exact same SimSession::run path the CLI uses, so a job's waveforms are
// bit-identical to a direct in-process run of the same spec.
//
// Protocol: every request is ONE line of JSON; every response is one
// line with an "ok" field.  Subscribed connections additionally receive
// asynchronous event lines ({"event":...,"id":...}) interleaved between
// responses — a client tells them apart by the "event" key.  Accepted
// sockets set TCP_NODELAY, so an event written right after a reply is
// not held for the client's delayed ACK.
//
//   {"op":"ping"}
//     -> {"ok":true}
//   {"op":"submit","circuit":{...},"spec":{...},
//    "priority":0,"deadline_s":0,"subscribe":false,
//    "failpoints":"...","idempotency_key":"..."}
//     -> {"ok":true,"id":N,"queued":depth}
//     -> {"ok":true,"id":N,"duplicate":true}   (idempotency-key replay)
//     -> {"ok":false,"error":"...","rejected":"backpressure"}  (full)
//   "failpoints" arms the process-wide fail-point registry
//   (util/failpoints.hpp spec syntax; chaos testing only).
//   "idempotency_key" makes the submit retry-safe: a second submit with
//   the same key returns the EXISTING job id instead of enqueueing a
//   duplicate — how Client::submit_with_retry survives a connection
//   lost between send and response.
//   {"op":"status","id":N}
//     -> {"ok":true,"id":N,"phase":"queued|running|done|failed|
//         cancelled|expired","error":...}
//   {"op":"result","id":N}
//     -> {"ok":true,"id":N,"result":{...}}      (terminal with result)
//   {"op":"cancel","id":N}
//     -> {"ok":true,"id":N}
//   {"op":"subscribe","id":N}
//     -> {"ok":true,"id":N} then event lines:
//        {"event":"started","id":N}
//        {"event":"progress","id":N,"fraction":0.42}
//        {"event":"trial","id":N,"done":10,"total":200}
//        {"event":"partial","id":N,"t":1e-9,"x":[...]}   (throttled)
//        {"event":"checkpoint","id":N,"checkpoint":{...}}  (mc jobs with
//          checkpoint_every set; the doc resumes via submit --resume)
//        {"event":"done","id":N} | {"event":"failed","id":N,"error":..}
//        | {"event":"cancelled","id":N} | {"event":"expired","id":N}
//        {"event":"heartbeat"}   (idle connections, idle_timeout_s)
//   {"op":"shutdown","drain":true}
//     -> {"ok":true} and the server begins stopping.
//
// Shutdown: stop(drain=true) closes the listener, lets workers finish
// everything already queued, then tears down connections — the graceful
// SIGTERM path.  stop(drain=false) additionally cancels queued jobs and
// raises the cancel flag on running ones.
#ifndef NANOSIM_SERVICE_SERVER_HPP
#define NANOSIM_SERVICE_SERVER_HPP

#include <cstdint>
#include <memory>
#include <string>

namespace nanosim::service {

struct ServerOptions {
    std::string host = "127.0.0.1";
    int port = 0;              ///< 0 = ephemeral (read back via port())
    int workers = 2;           ///< concurrent analysis executors
    std::size_t queue_depth = 64; ///< backpressure bound
    std::size_t max_sessions = 8; ///< registry dedup capacity
    /// Finished jobs kept for status/result queries.
    std::size_t history = 256;
    /// Per-connection read idle budget [s]; 0 = wait forever.  After one
    /// quiet interval the server sends a {"event":"heartbeat"} probe;
    /// after a second with no traffic (and no live subscriptions being
    /// streamed) the connection is closed — a wedged client cannot pin
    /// a reader thread forever.
    double idle_timeout_s = 0.0;
};

/// The analysis service (see file comment for the protocol).
class Server {
public:
    explicit Server(ServerOptions options = {});
    ~Server(); ///< stop(drain=false) + wait() when still running

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind + listen + spawn accept/worker threads.  Throws IoError on
    /// bind failure.
    void start();

    /// The bound port (after start(); useful with options.port = 0).
    [[nodiscard]] int port() const;

    /// Begin shutdown: close the listener, then either drain the queue
    /// (drain = true) or cancel queued jobs and request cancellation of
    /// running ones.  Idempotent; a drain in progress is NOT upgraded —
    /// call stop(false) to force.  Returns immediately; wait() joins.
    void stop(bool drain);

    /// Join every thread (accept, workers, connection readers).  Returns
    /// once the queue is drained per stop()'s mode and all connections
    /// are closed.  Must be preceded by stop() (or an {"op":"shutdown"}
    /// request, which calls it).
    void wait();

    [[nodiscard]] bool running() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace nanosim::service

#endif // NANOSIM_SERVICE_SERVER_HPP
