#include "service/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "util/error.hpp"
#include "util/failpoints.hpp"

namespace nanosim::service {

namespace {

/// splitmix64 — the jitter hash (deterministic, well mixed).
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

int poll_fd(int fd, short events, double timeout_s) {
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int timeout_ms =
        timeout_s <= 0.0
            ? -1
            : std::max(1, static_cast<int>(std::lround(timeout_s * 1e3)));
    for (;;) {
        const int rc = ::poll(&p, 1, timeout_ms);
        if (rc < 0 && errno == EINTR) {
            continue;
        }
        return rc;
    }
}

} // namespace

double RetryPolicy::delay_s(int retry) const {
    double base = backoff_initial_s;
    for (int i = 1; i < retry; ++i) {
        base = std::min(base * 2.0, backoff_max_s);
    }
    base = std::min(base, backoff_max_s);
    // Scale into [0.5, 1.0): full-jitter halves the thundering herd
    // without ever collapsing the delay to zero.
    const std::uint64_t h =
        mix64(jitter_seed ^ (static_cast<std::uint64_t>(retry) << 32));
    const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
    return base * (0.5 + 0.5 * unit);
}

Client::Client(const std::string& host, int port,
               const ClientOptions& options)
    : read_timeout_s_(options.read_timeout_s) {
    if (failpoints::enabled()) {
        static auto& fp = failpoints::site("service.client_connect");
        if (fp.fire()) {
            throw IoError("client: cannot connect to " + host + ":" +
                          std::to_string(port) +
                          " (fail-point service.client_connect fired)");
        }
    }
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        throw IoError("client: cannot create socket");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd_);
        fd_ = -1;
        throw IoError("client: bad host '" + host + "'");
    }
    const char* fail = nullptr;
    if (options.connect_timeout_s > 0.0) {
        // Non-blocking connect + poll: a dead host surfaces as a
        // diagnosed timeout instead of the kernel's multi-minute SYN
        // retry budget.
        const int flags = ::fcntl(fd_, F_GETFL, 0);
        ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
        const int rc = ::connect(
            fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
        if (rc != 0 && errno != EINPROGRESS) {
            fail = "cannot connect to ";
        } else if (rc != 0) {
            const int ready =
                poll_fd(fd_, POLLOUT, options.connect_timeout_s);
            int err = 0;
            socklen_t len = sizeof(err);
            if (ready <= 0) {
                fail = "connect timed out to ";
            } else if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err,
                                    &len) != 0 ||
                       err != 0) {
                fail = "cannot connect to ";
            }
        }
        if (fail == nullptr) {
            ::fcntl(fd_, F_SETFL, flags); // back to blocking I/O
        }
    } else if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) != 0) {
        fail = "cannot connect to ";
    }
    if (fail != nullptr) {
        ::close(fd_);
        fd_ = -1;
        throw IoError(std::string("client: ") + fail + host + ":" +
                      std::to_string(port));
    }
}

Client::~Client() {
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

void Client::send(const json::Value& message) {
    if (failpoints::enabled()) {
        static auto& fp = failpoints::site("service.client_send");
        if (fp.fire()) {
            throw IoError("client: connection lost while sending "
                          "(fail-point service.client_send fired)");
        }
    }
    std::string line = message.dump();
    line.push_back('\n');
    std::size_t sent = 0;
    while (sent < line.size()) {
        const ssize_t n = ::send(fd_, line.data() + sent,
                                 line.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) {
                continue;
            }
            throw IoError("client: connection lost while sending");
        }
        sent += static_cast<std::size_t>(n);
    }
}

std::optional<json::Value> Client::read() {
    for (;;) {
        if (const auto line = lines_.next_line()) {
            return json::parse(*line);
        }
        if (read_timeout_s_ > 0.0 &&
            poll_fd(fd_, POLLIN, read_timeout_s_) <= 0) {
            throw IoError("client: read timed out after " +
                          std::to_string(read_timeout_s_) + " s");
        }
        const ssize_t n = lines_.recv_from(fd_);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) {
                continue;
            }
            return std::nullopt;
        }
    }
}

json::Value Client::request(
    const json::Value& message,
    const std::function<void(const json::Value&)>& on_event) {
    send(message);
    for (;;) {
        std::optional<json::Value> line = read();
        if (!line.has_value()) {
            throw IoError("client: connection closed before a response");
        }
        if (line->find("event") != nullptr) {
            if (on_event) {
                on_event(*line);
            }
            continue;
        }
        return *std::move(line);
    }
}

json::Value Client::wait_for_terminal(
    std::uint64_t id,
    const std::function<void(const json::Value&)>& on_event) {
    for (;;) {
        std::optional<json::Value> line = read();
        if (!line.has_value()) {
            throw IoError(
                "client: connection closed while waiting for job " +
                std::to_string(id));
        }
        const json::Value* event = line->find("event");
        if (event == nullptr) {
            continue; // stray response (interleaved request elsewhere)
        }
        if (on_event) {
            on_event(*line);
        }
        const json::Value* jid = line->find("id");
        if (jid == nullptr || jid->as_uint() != id) {
            continue;
        }
        const std::string& name = event->as_string();
        if (name == "done" || name == "failed" || name == "cancelled" ||
            name == "expired") {
            return *std::move(line);
        }
    }
}

std::unique_ptr<Client> connect_with_retry(const std::string& host,
                                           int port,
                                           const ClientOptions& options,
                                           const RetryPolicy& policy) {
    const int attempts = std::max(policy.attempts, 1);
    for (int attempt = 1;; ++attempt) {
        try {
            return std::make_unique<Client>(host, port, options);
        } catch (const IoError&) {
            if (attempt >= attempts) {
                throw;
            }
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(policy.delay_s(attempt)));
    }
}

std::string idempotency_key(const json::Value& submit_request) {
    // Job signature = circuit + spec, re-serialized through the
    // deterministic dumper (object keys sort canonically there), so the
    // key survives a request being rebuilt field by field.
    std::string text;
    if (const json::Value* c = submit_request.find("circuit")) {
        text += c->dump();
    }
    text.push_back('\x1f');
    if (const json::Value* s = submit_request.find("spec")) {
        text += s->dump();
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(text)));
    return std::string(hex);
}

SubmitOutcome submit_with_retry(const std::string& host, int port,
                                json::Value request,
                                const ClientOptions& options,
                                const RetryPolicy& policy) {
    if (request.find("idempotency_key") == nullptr) {
        request.set("idempotency_key", idempotency_key(request));
    }
    const int attempts = std::max(policy.attempts, 1);
    for (int attempt = 1;; ++attempt) {
        try {
            auto client = std::make_unique<Client>(host, port, options);
            json::Value response = client->request(request);
            return SubmitOutcome{std::move(client), std::move(response)};
        } catch (const IoError&) {
            // Connection died mid-flight; the idempotency key makes the
            // resubmit safe (the server returns the existing job).
            if (attempt >= attempts) {
                throw;
            }
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(policy.delay_s(attempt)));
    }
}

} // namespace nanosim::service
