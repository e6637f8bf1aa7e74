// Nano-Sim — worker thread pool for batch simulation jobs.
//
// A fixed set of workers drains a central task queue; submit() returns a
// std::future so results and *exceptions* propagate to the caller (a job
// that throws poisons only its own future, never the pool).  The pool is
// the execution substrate of the runtime orchestration layer: the sweep
// campaigns and the ensemble worker loop that Monte-Carlo and
// Euler-Maruyama share express their work as
// independent tasks and reduce in job-index order, which is what keeps
// parallel results bit-identical to single-threaded ones.
#ifndef NANOSIM_RUNTIME_THREAD_POOL_HPP
#define NANOSIM_RUNTIME_THREAD_POOL_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/execution_policy.hpp"

namespace nanosim::runtime {

/// Fixed-size worker pool over one shared task queue.
class ThreadPool {
public:
    /// Spawn `threads` workers (0 = one per hardware thread).
    explicit ThreadPool(int threads = 0);

    /// Convenience: spawn per an ExecutionPolicy.
    explicit ThreadPool(const ExecutionPolicy& policy)
        : ThreadPool(policy.resolved()) {}

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Drains the queue: every submitted task still runs to completion
    /// before the workers join (graceful shutdown, no broken futures).
    ~ThreadPool();

    /// Number of workers.
    [[nodiscard]] std::size_t size() const noexcept {
        return workers_.size();
    }

    /// Enqueue a callable; the future carries its result or exception.
    template <typename F>
    [[nodiscard]] auto submit(F&& fn)
        -> std::future<std::invoke_result_t<std::decay_t<F>>> {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
        std::future<R> future = task->get_future();
        Task entry;
        entry.fn = [task]() { (*task)(); };
        if (obs::metrics_enabled()) {
            entry.enqueued = std::chrono::steady_clock::now();
            entry.timed = true;
        }
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(std::move(entry));
        }
        cv_.notify_one();
        return future;
    }

private:
    struct Task {
        std::function<void()> fn;
        std::chrono::steady_clock::time_point enqueued;
        bool timed = false; ///< metrics were on at submit time
    };

    void worker_loop();
    /// Let the workers drain the queue and exit, then join them.
    void stop_and_join() noexcept;

    std::vector<std::thread> workers_;
    std::deque<Task> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/// Run body(0) .. body(n-1) on the pool and wait for all of them.  If any
/// task throws, every task still runs to completion and the exception of
/// the lowest-index failing task is rethrown (deterministic regardless of
/// scheduling).  Each task catches its own exception into a slot the
/// caller owns, so no pool thread still holds a reference to the
/// exception the caller rethrows.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

} // namespace nanosim::runtime

#endif // NANOSIM_RUNTIME_THREAD_POOL_HPP
