#include "service/session_registry.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace nanosim::service {

SessionRegistry::SessionRegistry(std::size_t max_sessions)
    : max_sessions_(std::max<std::size_t>(max_sessions, 1)) {}

SessionRegistry::Lease
SessionRegistry::acquire(const wire::CircuitSource& source) {
    std::string key = source.canonical();
    std::shared_ptr<Entry> entry;
    bool created = false;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it == entries_.end()) {
            evict_idle_locked();
            entry = std::make_shared<Entry>();
            entries_.emplace(key, entry);
            created = true;
        } else {
            entry = it->second;
        }
        ++entry->active_leases;
        entry->last_used = ++tick_;
    }
    if (obs::metrics_enabled()) {
        obs::metrics()
            .counter(created ? "service.sessions_created"
                             : "service.session_dedup_hits")
            .inc();
    }
    // The build — deck parse / generator + assembly — happens under the
    // PER-ENTRY mutex: racing acquirers of the same circuit serialize
    // here and find the session already built; unrelated circuits build
    // concurrently.  The symbolic analysis waits for the first run.
    try {
        const std::lock_guard<std::mutex> build_lock(entry->build_mutex);
        if (entry->session == nullptr) {
            entry->session = std::make_unique<SimSession>(source.build());
        }
    } catch (...) {
        release(key, entry);
        throw;
    }
    return Lease(this, std::move(key), std::move(entry));
}

void SessionRegistry::release(const std::string& key,
                              const std::shared_ptr<Entry>& entry) {
    const std::lock_guard<std::mutex> lock(mutex_);
    --entry->active_leases;
    entry->last_used = ++tick_;
    // A failed build leaves no entry behind: without this, the broken
    // placeholder would count against max_sessions_ forever.
    if (entry->active_leases == 0 && entry->session == nullptr) {
        const auto it = entries_.find(key);
        if (it != entries_.end() && it->second == entry) {
            entries_.erase(it);
        }
    }
}

void SessionRegistry::evict_idle_locked() {
    while (entries_.size() >= max_sessions_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second->active_leases > 0 ||
                it->second->session == nullptr) {
                continue; // leased / still building: not evictable
            }
            if (victim == entries_.end() ||
                it->second->last_used < victim->second->last_used) {
                victim = it;
            }
        }
        if (victim == entries_.end()) {
            return; // everything is leased; exceed the bound best-effort
        }
        entries_.erase(victim);
    }
}

std::size_t SessionRegistry::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace nanosim::service
