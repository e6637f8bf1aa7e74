// Nano-Sim — deterministic fault-injection sites ("fail points").
//
// A FailPoint is a named site in the solver / engines / service where a
// failure (singular pivot, allocation failure, socket EOF, worker stall,
// ...) can be injected on demand.  The framework follows the telemetry
// design rules (obs/metrics.hpp):
//
//  * DISABLED is the default and must be near-free.  The global gate is
//    one relaxed atomic load (`failpoints::enabled()`); a site costs one
//    predictable branch when nothing is armed, so production runs execute
//    the exact same numeric code.  Waveforms are bit-identical with the
//    framework compiled in vs. sites never firing (gated, with the
//    disabled-site cost, by tests/test_robustness.cpp).
//  * Sites have STABLE ADDRESSES for the life of the process: the
//    registry never erases an entry, so hot loops resolve a `FailPoint&`
//    once (static local) and keep the reference.
//  * Evaluation is lock-free (relaxed atomics); only registration and
//    arming take the registry mutex.  Fires are counted in the site and,
//    when metrics are enabled, in the PR-6 MetricsRegistry as
//    `failpoint.<name>.fired`.
//
// Arming (any of):
//  * environment:  NANOSIM_FAILPOINTS="linalg.singular_pivot=1in50,..."
//  * CLI:          nanosim run/serve/submit ... --failpoints SPEC
//  * wire:         {"op":"submit", ..., "failpoints":"SPEC"}
//
// SPEC is a comma list of `name=mode` where mode is one of
//   off      disarm the site
//   always   fire on every evaluation
//   1inN     fire on every Nth evaluation (deterministic counter, no RNG)
//   N        fire exactly once, on the Nth evaluation
//
// Typical call site:
//
//     static auto& fp = failpoints::site("linalg.singular_pivot");
//     if (failpoints::fire(fp)) {
//         throw SingularMatrixError("injected: singular pivot");
//     }
#ifndef NANOSIM_UTIL_FAILPOINTS_HPP
#define NANOSIM_UTIL_FAILPOINTS_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nanosim::failpoints {

/// True when at least one site is armed (one relaxed atomic load — the
/// disabled-path cost of every injection site).
[[nodiscard]] bool enabled() noexcept;

/// One named injection site.  Construction goes through site(); the
/// registry owns every instance forever (stable addresses).
class FailPoint {
public:
    enum class Mode : int {
        off = 0,    ///< never fires
        always = 1, ///< fires on every evaluation
        one_in_n = 2, ///< fires on every Nth evaluation
        nth = 3,    ///< fires exactly once, on the Nth evaluation
    };

    explicit FailPoint(std::string name) : name_(std::move(name)) {}

    FailPoint(const FailPoint&) = delete;
    FailPoint& operator=(const FailPoint&) = delete;

    /// Evaluate the site: true when this call should inject the failure.
    /// Deterministic (counter-based, no RNG) and lock-free.  Call behind
    /// `failpoints::enabled()` — see failpoints::fire().
    [[nodiscard]] bool fire() noexcept;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    /// Evaluations while any mode (incl. off) was set via arm().
    [[nodiscard]] std::uint64_t evaluations() const noexcept {
        return evals_.load(std::memory_order_relaxed);
    }
    /// Times this site actually injected a failure.
    [[nodiscard]] std::uint64_t fired() const noexcept {
        return fired_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] Mode mode() const noexcept {
        return static_cast<Mode>(mode_.load(std::memory_order_relaxed));
    }

    /// Set the firing mode (used by arm(); also resets the counters so a
    /// fresh `1inN` pattern starts from evaluation 1).
    void set_mode(Mode mode, std::uint64_t n) noexcept;

private:
    std::string name_;
    std::atomic<int> mode_{static_cast<int>(Mode::off)};
    std::atomic<std::uint64_t> n_{0};
    std::atomic<std::uint64_t> evals_{0};
    std::atomic<std::uint64_t> fired_{0};
    std::atomic<void*> metric_{nullptr}; ///< cached obs::Counter*
};

/// Get-or-create the site named `name`.  Returned reference is valid for
/// the life of the process — resolve once per call site (static local).
[[nodiscard]] FailPoint& site(const char* name);

/// The guarded evaluation every call site uses: free when nothing is
/// armed anywhere, deterministic counter check otherwise.
[[nodiscard]] inline bool fire(FailPoint& fp) noexcept {
    return enabled() && fp.fire();
}

/// Arm one site by name with a mode string ("off", "always", "1inN",
/// "N").  Throws AnalysisError on a malformed mode.
void arm(const std::string& name, const std::string& mode);

/// Arm from a comma-separated `name=mode` spec (the NANOSIM_FAILPOINTS /
/// --failpoints syntax).  Empty spec is a no-op.  Throws AnalysisError on
/// a malformed entry.
void arm_from_spec(const std::string& spec);

/// Apply the NANOSIM_FAILPOINTS environment variable (no-op when unset).
void arm_from_env();

/// Disarm every site (counters keep their totals; the global gate drops
/// back to free when nothing stays armed).
void disarm_all();

/// Total fires for `name` (0 when the site was never created).
[[nodiscard]] std::uint64_t fired(const std::string& name);

/// Snapshot of every registered site: (name, mode string, fired count).
/// Sorted by name — deterministic for tests and reports.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> catalog();

} // namespace nanosim::failpoints

#endif // NANOSIM_UTIL_FAILPOINTS_HPP
