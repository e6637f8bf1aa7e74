// Nano-Sim — live-session deduplication for the analysis service.
//
// The whole point of a long-lived service is that a SimSession's
// symbolic factorization outlives one request.  The registry extends
// that across CLIENTS: sessions are keyed by the circuit source's
// canonical text (builtin spec / deck bytes + sorted noise injections),
// so N concurrent jobs on the same fabric acquire ONE SimSession — and
// its one solver cache, built by the session's first run, performs the
// symbolic analysis exactly once between them (asserted via the
// "service.sessions_created" / full-factor counters).
//
// Concurrency: acquire() hands out an RAII Lease.  The expensive
// first-build runs under a PER-ENTRY mutex, so two clients racing on a
// new circuit build it once while builds of unrelated circuits proceed
// in parallel (the registry-wide lock only guards the map).  The leased
// SimSession is shared — SimSession::run serializes internally, which
// is exactly the desired behaviour for cache sharing.  Zero-lease
// entries are evicted LRU once the registry exceeds max_sessions.
#ifndef NANOSIM_SERVICE_SESSION_REGISTRY_HPP
#define NANOSIM_SERVICE_SESSION_REGISTRY_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/sim_session.hpp"
#include "service/wire.hpp"

namespace nanosim::service {

/// Deduplicating cache of live SimSessions (see file comment).
class SessionRegistry {
public:
    /// `max_sessions` >= 1: distinct circuits kept alive at once
    /// (leased entries are never evicted, so the bound is best-effort
    /// under more than max_sessions concurrent DISTINCT circuits).
    explicit SessionRegistry(std::size_t max_sessions = 8);

    SessionRegistry(const SessionRegistry&) = delete;
    SessionRegistry& operator=(const SessionRegistry&) = delete;

    class Lease;

    /// Get-or-build the session for `source`.  Blocks while another
    /// thread is building the same circuit; throws what the build threw
    /// (NetlistError on a bad deck, ...) — a failed build leaves no
    /// entry behind.
    [[nodiscard]] Lease acquire(const wire::CircuitSource& source);

    /// Live entries (tests).
    [[nodiscard]] std::size_t size() const;

private:
    struct Entry {
        /// Guards the one-time build of `session`.
        std::mutex build_mutex;
        std::unique_ptr<SimSession> session;
        int active_leases = 0;   ///< guarded by the registry mutex
        std::uint64_t last_used = 0;
    };

    void release(const std::string& key, const std::shared_ptr<Entry>& entry);
    void evict_idle_locked();

    const std::size_t max_sessions_;
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<Entry>> entries_;
    std::uint64_t tick_ = 0;

    friend class Lease;
};

/// RAII handle on a registry session.  Movable, not copyable; the
/// underlying SimSession stays alive (and un-evictable) while any lease
/// on it exists.
class SessionRegistry::Lease {
public:
    Lease(Lease&& other) noexcept
        : registry_(other.registry_), key_(std::move(other.key_)),
          entry_(std::move(other.entry_)) {
        other.registry_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
        if (registry_ != nullptr) {
            registry_->release(key_, entry_);
        }
    }

    [[nodiscard]] SimSession& session() const { return *entry_->session; }

private:
    friend class SessionRegistry;
    Lease(SessionRegistry* registry, std::string key,
          std::shared_ptr<Entry> entry)
        : registry_(registry), key_(std::move(key)),
          entry_(std::move(entry)) {}

    SessionRegistry* registry_;
    std::string key_;
    std::shared_ptr<Entry> entry_;
};

} // namespace nanosim::service

#endif // NANOSIM_SERVICE_SESSION_REGISTRY_HPP
