#include "runtime/thread_pool.hpp"

#include <exception>

namespace nanosim::runtime {

ThreadPool::ThreadPool(int threads) {
    const int n = threads > 0 ? threads : ExecutionPolicy{}.resolved();
    workers_.reserve(static_cast<std::size_t>(n));
    try {
        for (int i = 0; i < n; ++i) {
            workers_.emplace_back([this]() { worker_loop(); });
        }
    } catch (...) {
        // A failed spawn (std::system_error when the process is out of
        // threads or address space): no destructor runs for a half-built
        // pool, so join the workers already started before rethrowing.
        stop_and_join();
        throw;
    }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() noexcept {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) {
        w.join();
    }
}

void ThreadPool::worker_loop() {
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this]() { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                return; // stopping_ and nothing left to run
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        if (task.timed && obs::metrics_enabled()) {
            // Submit-to-dequeue latency: the queue-pressure signal the
            // RunReport surfaces (pool.queue_wait).  Billed to the global
            // registry, so per-run deltas survive pool destruction
            // (parallel drivers own short-lived pools).
            static obs::Counter& tasks = obs::metrics().counter("pool.tasks");
            static obs::Counter& waited =
                obs::metrics().counter("pool.queue_wait_ns");
            const auto wait = std::chrono::steady_clock::now() - task.enqueued;
            tasks.inc();
            waited.inc(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(wait)
                    .count()));
        }
        task.fn(); // packaged_task captures any exception into the future
    }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
    // A task's future never carries its exception: a pool thread would
    // then drop its reference to it while the caller reads it.
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        futures.push_back(pool.submit([&body, &errors, i]() {
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }));
    }
    for (auto& f : futures) {
        f.get();
    }
    for (const std::exception_ptr& e : errors) {
        if (e) {
            std::rethrow_exception(e);
        }
    }
}

} // namespace nanosim::runtime
