// Nano-Sim — blocking NDJSON client for the analysis service.
//
// Thin wrapper over a connected TCP socket: send() writes one request
// line, read() returns the next line parsed (responses AND event lines
// in arrival order), request() sends and waits for the next RESPONSE
// (lines with an "event" key are handed to an optional callback and
// skipped).  Used by `nanosim submit` and the service tests; the
// protocol itself is documented in server.hpp.
//
// Robustness (PR-10): the constructor takes ClientOptions with a
// connect timeout (non-blocking connect + poll) and a per-read timeout
// (poll before recv), both off by default only for reads — a hung
// daemon surfaces as a diagnosed IoError instead of a wedged client.
// connect_with_retry / submit_with_retry add capped exponential backoff
// with deterministic jitter, and submits carry an idempotency key
// derived from the job signature so a resubmit after a lost connection
// never double-runs the job.
#ifndef NANOSIM_SERVICE_CLIENT_HPP
#define NANOSIM_SERVICE_CLIENT_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "service/json.hpp"
#include "service/line_buffer.hpp"

namespace nanosim::service {

/// Connection tuning for Client.  Zero disables a timeout (blocking
/// POSIX behaviour); the CLI defaults both on.
struct ClientOptions {
    double connect_timeout_s = 5.0; ///< TCP connect budget; 0 = blocking
    double read_timeout_s = 0.0;    ///< per-read() budget; 0 = blocking
};

/// Retry schedule for connect_with_retry / submit_with_retry: capped
/// exponential backoff with deterministic jitter (keyed, not sampled —
/// retries are reproducible).
struct RetryPolicy {
    int attempts = 3;               ///< total tries, >= 1
    double backoff_initial_s = 0.1; ///< delay before the first retry
    double backoff_max_s = 2.0;     ///< exponential growth cap
    std::uint64_t jitter_seed = 1;  ///< jitter key (vary per client)

    /// Delay before retry `retry` (1-based): the capped exponential
    /// base scaled into [0.5, 1.0) by a hash of (jitter_seed, retry).
    [[nodiscard]] double delay_s(int retry) const;
};

/// Blocking service connection (see file comment).  Not thread-safe.
class Client {
public:
    /// Connect; throws IoError when the host/port cannot be reached
    /// within options.connect_timeout_s.
    Client(const std::string& host, int port,
           const ClientOptions& options = {});
    ~Client();

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /// Write `message` as one NDJSON line.
    void send(const json::Value& message);

    /// Next line from the server, parsed; nullopt on EOF.  Throws
    /// ServiceError when the server sends malformed JSON and IoError
    /// when options.read_timeout_s elapses with no data.
    [[nodiscard]] std::optional<json::Value> read();

    /// send() then read() until a non-event line arrives.  Event lines
    /// seen on the way are passed to `on_event` (when set).  Throws
    /// IoError if the connection closes before a response.
    json::Value request(
        const json::Value& message,
        const std::function<void(const json::Value&)>& on_event = {});

    /// Read until the terminal event for job `id` ("done", "failed",
    /// "cancelled", "expired"); every event line seen (including the
    /// terminal one) is passed to `on_event`.  Returns the terminal
    /// event.  The connection must be subscribed to the job.
    json::Value wait_for_terminal(
        std::uint64_t id,
        const std::function<void(const json::Value&)>& on_event = {});

private:
    int fd_ = -1;
    double read_timeout_s_ = 0.0;
    LineBuffer lines_;
};

/// Connect with the RetryPolicy schedule: each failed attempt sleeps
/// the jittered backoff and tries again; the last failure's IoError
/// propagates.
[[nodiscard]] std::unique_ptr<Client>
connect_with_retry(const std::string& host, int port,
                   const ClientOptions& options = {},
                   const RetryPolicy& policy = {});

/// Deterministic idempotency key for a submit request: FNV-1a over the
/// job signature (the "circuit" and "spec" documents re-serialized
/// canonically), hex-encoded.  Two submits of the same job produce the
/// same key regardless of key order in the incoming JSON.
[[nodiscard]] std::string idempotency_key(const json::Value& submit_request);

/// One idempotent submit round-trip with retries: stamps the request
/// with its idempotency_key(), then per attempt connects (with its own
/// backoff) and sends; an IoError mid-flight tears the connection down,
/// sleeps the backoff, and resubmits the SAME key — the server dedupes,
/// so the job runs at most once.  Returns the live (subscribed)
/// connection plus the submit response.
struct SubmitOutcome {
    std::unique_ptr<Client> client;
    json::Value response;
};
[[nodiscard]] SubmitOutcome
submit_with_retry(const std::string& host, int port, json::Value request,
                  const ClientOptions& options = {},
                  const RetryPolicy& policy = {});

} // namespace nanosim::service

#endif // NANOSIM_SERVICE_CLIENT_HPP
