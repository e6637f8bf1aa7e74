// Tests for the obs/ telemetry subsystem: metrics registry (thread
// safety under a real ThreadPool hammer), trace spans (nesting and
// ordering invariants, Chrome JSON well-formedness — parsed back by a
// minimal JSON reader), RunReport consistency against the SolverWork
// counters, and the bit-identity guarantee (telemetry on/off never
// changes simulation results).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/log.hpp"

namespace nanosim {
namespace {

// ---- minimal JSON reader ----------------------------------------------
// The repo deliberately has no JSON dependency; the exported telemetry
// formats are simple enough that a ~100-line recursive-descent reader
// can parse them back, which is exactly the round-trip the trace format
// promises external tools.

struct Json {
    enum class Kind { null, boolean, number, string, array, object };
    Kind kind = Kind::null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    [[nodiscard]] bool has(const std::string& key) const {
        return kind == Kind::object && obj.count(key) > 0;
    }
    [[nodiscard]] const Json& at(const std::string& key) const {
        return obj.at(key);
    }
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : s_(text) {}

    Json parse() {
        const Json v = value();
        skip_ws();
        if (pos_ != s_.size()) {
            throw std::runtime_error("trailing garbage at " +
                                     std::to_string(pos_));
        }
        return v;
    }

private:
    void skip_ws() {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
            ++pos_;
        }
    }
    char peek() {
        skip_ws();
        if (pos_ >= s_.size()) {
            throw std::runtime_error("unexpected end of input");
        }
        return s_[pos_];
    }
    void expect(char c) {
        if (peek() != c) {
            throw std::runtime_error(std::string("expected '") + c +
                                     "' at " + std::to_string(pos_));
        }
        ++pos_;
    }
    Json value() {
        switch (peek()) {
        case '{': return object();
        case '[': return array();
        case '"': {
            Json v;
            v.kind = Json::Kind::string;
            v.str = string();
            return v;
        }
        case 't': return literal("true", [] (Json& v) {
            v.kind = Json::Kind::boolean;
            v.b = true;
        });
        case 'f': return literal("false", [] (Json& v) {
            v.kind = Json::Kind::boolean;
            v.b = false;
        });
        case 'n':
            return literal("null", [](Json& v) { v.kind = Json::Kind::null; });
        default: return number();
        }
    }
    template <typename F>
    Json literal(const char* word, F&& fill) {
        skip_ws();
        const std::size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0) {
            throw std::runtime_error("bad literal at " + std::to_string(pos_));
        }
        pos_ += n;
        Json v;
        fill(v);
        return v;
    }
    Json number() {
        skip_ws();
        std::size_t used = 0;
        Json v;
        v.kind = Json::Kind::number;
        try {
            v.num = std::stod(s_.substr(pos_), &used);
        } catch (const std::exception&) {
            throw std::runtime_error("bad number at " + std::to_string(pos_));
        }
        pos_ += used;
        return v;
    }
    std::string string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= s_.size()) {
                throw std::runtime_error("unterminated string");
            }
            const char c = s_[pos_++];
            if (c == '"') {
                return out;
            }
            if (c == '\\') {
                if (pos_ >= s_.size()) {
                    throw std::runtime_error("bad escape");
                }
                const char e = s_[pos_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > s_.size()) {
                        throw std::runtime_error("bad \\u escape");
                    }
                    const unsigned code = static_cast<unsigned>(
                        std::stoul(s_.substr(pos_, 4), nullptr, 16));
                    pos_ += 4;
                    // Telemetry only escapes control chars (< 0x80).
                    out += static_cast<char>(code);
                    break;
                }
                default: throw std::runtime_error("bad escape char");
                }
            } else {
                out += c;
            }
        }
    }
    Json array() {
        expect('[');
        Json v;
        v.kind = Json::Kind::array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.arr.push_back(value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }
    Json object() {
        expect('{');
        Json v;
        v.kind = Json::Kind::object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            const std::string key = string();
            expect(':');
            v.obj[key] = value();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    const std::string& s_;
    std::size_t pos_ = 0;
};

/// RAII: leave both telemetry backends off no matter how a test exits.
struct TelemetryOff {
    ~TelemetryOff() {
        obs::set_metrics_enabled(false);
        obs::stop_trace();
    }
};

// ---- metrics ----------------------------------------------------------

TEST(ObsMetrics, HistogramBucketsAndExtrema) {
    obs::Histogram h({1.0, 10.0, 100.0});
    h.observe(0.5);   // bucket 0 (le 1)
    h.observe(5.0);   // bucket 1
    h.observe(10.0);  // bucket 1 (le is inclusive)
    h.observe(1e6);   // overflow
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucket_count(0), 1u);
    EXPECT_EQ(h.bucket_count(1), 2u);
    EXPECT_EQ(h.bucket_count(2), 0u);
    EXPECT_EQ(h.bucket_count(3), 1u); // overflow bucket
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 1e6);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 5.0 + 10.0 + 1e6);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

TEST(ObsMetrics, HistogramRejectsBadEdges) {
    EXPECT_THROW(obs::Histogram({}), AnalysisError);
    EXPECT_THROW(obs::Histogram({1.0, 1.0}), AnalysisError);
    EXPECT_THROW(obs::Histogram({2.0, 1.0}), AnalysisError);
}

TEST(ObsMetrics, LogBucketsCoverRange) {
    const std::vector<double> edges = obs::log_buckets(1e-9, 1.0, 3);
    ASSERT_GE(edges.size(), 2u);
    for (std::size_t i = 1; i < edges.size(); ++i) {
        EXPECT_LT(edges[i - 1], edges[i]);
    }
    EXPECT_LE(edges.front(), 1e-9 * 1.001);
    EXPECT_GE(edges.back(), 1.0 * 0.999);
}

TEST(ObsMetrics, RegistryStableAddresses) {
    obs::MetricsRegistry reg;
    obs::Counter& a = reg.counter("x.count");
    obs::Counter& b = reg.counter("x.count");
    EXPECT_EQ(&a, &b);
    obs::Histogram& h1 = reg.histogram("x.h", {1.0, 2.0});
    // Second registration with DIFFERENT edges returns the original.
    obs::Histogram& h2 = reg.histogram("x.h", {5.0});
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.edges().size(), 2u);
    EXPECT_EQ(reg.size(), 2u);
    a.inc(3);
    reg.reset();
    EXPECT_EQ(a.value(), 0u); // reset in place; reference still valid
}

TEST(ObsMetrics, RegistryThreadHammer) {
    obs::MetricsRegistry reg;
    constexpr int kThreads = 8;
    constexpr int kOpsPerTask = 5000;
    runtime::ThreadPool pool(kThreads);
    std::vector<std::future<void>> done;
    done.reserve(kThreads * 2);
    for (int t = 0; t < kThreads * 2; ++t) {
        done.push_back(pool.submit([&reg] {
            // Every task resolves instruments by name concurrently —
            // registration races are the interesting part.
            obs::Counter& c = reg.counter("hammer.count");
            obs::Histogram& h =
                reg.histogram("hammer.h", obs::log_buckets(1e-3, 1e3, 2));
            obs::Gauge& g = reg.gauge("hammer.g");
            for (int i = 0; i < kOpsPerTask; ++i) {
                c.inc();
                h.observe(static_cast<double>(i % 100) + 0.5);
                g.set(static_cast<double>(i));
            }
        }));
    }
    for (auto& f : done) {
        f.get();
    }
    EXPECT_EQ(reg.counter("hammer.count").value(),
              static_cast<std::uint64_t>(kThreads) * 2 * kOpsPerTask);
    EXPECT_EQ(reg.histogram("hammer.h", {1.0}).count(),
              static_cast<std::uint64_t>(kThreads) * 2 * kOpsPerTask);
    EXPECT_EQ(reg.size(), 3u);
}

TEST(ObsMetrics, ToJsonRoundTrips) {
    obs::MetricsRegistry reg;
    reg.counter("a.count").inc(7);
    reg.gauge("a.gauge").set(2.5);
    reg.histogram("a.hist", {1.0, 2.0}).observe(1.5);
    const Json root = JsonParser(reg.to_json()).parse();
    ASSERT_EQ(root.kind, Json::Kind::object);
    EXPECT_DOUBLE_EQ(root.at("counters").at("a.count").num, 7.0);
    EXPECT_DOUBLE_EQ(root.at("gauges").at("a.gauge").num, 2.5);
    const Json& h = root.at("histograms").at("a.hist");
    EXPECT_DOUBLE_EQ(h.at("count").num, 1.0);
    const Json& buckets = h.at("buckets");
    ASSERT_EQ(buckets.kind, Json::Kind::array);
    ASSERT_EQ(buckets.arr.size(), 3u); // 2 finite + overflow
    EXPECT_DOUBLE_EQ(buckets.arr[1].at("count").num, 1.0);
    // The overflow bucket's edge is the string "inf", not a number.
    EXPECT_EQ(buckets.arr[2].at("le").kind, Json::Kind::string);
    EXPECT_EQ(buckets.arr[2].at("le").str, "inf");
}

TEST(ObsMetrics, JsonEscape) {
    EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// ---- trace spans ------------------------------------------------------

TEST(ObsTrace, DisabledSpanRecordsNothing) {
    const TelemetryOff off;
    obs::stop_trace();
    const std::size_t before = obs::trace_event_count();
    {
        const obs::Span s("ghost", "test");
    }
    EXPECT_EQ(obs::trace_event_count(), before);
}

TEST(ObsTrace, NestingAndOrderingInvariants) {
    const TelemetryOff off;
    obs::start_trace();
    {
        const obs::Span outer("outer", "test");
        {
            const obs::Span inner("inner", "test");
        }
        {
            const obs::Span inner2("inner2", "test");
        }
    }
    std::thread([] {
        const obs::Span other("other-thread", "test");
    }).join();
    obs::stop_trace();

    const std::vector<obs::TraceEvent> events = obs::trace_snapshot();
    ASSERT_EQ(events.size(), 4u);

    // Sorted by (tid, ts); within a tid any two spans are either
    // disjoint or properly nested — never partially overlapping.
    for (std::size_t i = 1; i < events.size(); ++i) {
        if (events[i - 1].tid == events[i].tid) {
            EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
        } else {
            EXPECT_LT(events[i - 1].tid, events[i].tid);
        }
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
        for (std::size_t j = i + 1; j < events.size(); ++j) {
            if (events[i].tid != events[j].tid) {
                continue;
            }
            const auto a0 = events[i].ts_ns;
            const auto a1 = a0 + events[i].dur_ns;
            const auto b0 = events[j].ts_ns;
            const auto b1 = b0 + events[j].dur_ns;
            const bool disjoint = a1 <= b0 || b1 <= a0;
            const bool nested = (a0 <= b0 && b1 <= a1) ||
                                (b0 <= a0 && a1 <= b1);
            EXPECT_TRUE(disjoint || nested)
                << events[i].name << " vs " << events[j].name;
        }
    }

    // The nested spans lie inside their parent.
    const auto find = [&events](const std::string& name) {
        for (const auto& e : events) {
            if (e.name == name) {
                return e;
            }
        }
        throw std::runtime_error("missing span " + name);
    };
    const obs::TraceEvent outer = find("outer");
    const obs::TraceEvent inner = find("inner");
    const obs::TraceEvent inner2 = find("inner2");
    EXPECT_EQ(outer.tid, inner.tid);
    EXPECT_GE(inner.ts_ns, outer.ts_ns);
    EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);
    EXPECT_GE(inner2.ts_ns, inner.ts_ns + inner.dur_ns);
    // The helper thread got its own (later) tid.
    EXPECT_NE(find("other-thread").tid, outer.tid);
}

TEST(ObsTrace, JsonWellFormed) {
    const TelemetryOff off;
    obs::start_trace();
    {
        const obs::Span s("alpha", "test");
        const obs::Span t("beta \"quoted\"", "test");
    }
    obs::stop_trace();
    const Json root = JsonParser(obs::trace_to_json()).parse();
    ASSERT_TRUE(root.has("traceEvents"));
    const Json& evs = root.at("traceEvents");
    ASSERT_EQ(evs.kind, Json::Kind::array);
    ASSERT_EQ(evs.arr.size(), 2u);
    for (const Json& e : evs.arr) {
        EXPECT_EQ(e.at("ph").str, "X");
        EXPECT_GE(e.at("ts").num, 0.0);
        EXPECT_GE(e.at("dur").num, 0.0);
        EXPECT_GE(e.at("tid").num, 1.0);
        EXPECT_DOUBLE_EQ(e.at("pid").num, 1.0);
        EXPECT_FALSE(e.at("name").str.empty());
        EXPECT_FALSE(e.at("cat").str.empty());
    }
    // start_trace resets the buffers.
    obs::start_trace();
    obs::stop_trace();
    EXPECT_EQ(obs::trace_event_count(), 0u);
}

// ---- RunReport --------------------------------------------------------

TEST(ObsReport, MatchesSolverWorkCounters) {
    SimSession session(refckt::rc_mesh(6, 6));
    TranSpec spec;
    spec.t_stop = 40e-9;
    spec.common.dt_init = 0.1e-9;
    const AnalysisResult result = session.run(spec);
    const engines::TranResult& tran = result.tran();
    const obs::RunReport& rep = result.report;

    EXPECT_EQ(rep.kind, "tran");
    EXPECT_EQ(rep.engine, result.header.engine);
    EXPECT_EQ(rep.steps_accepted,
              static_cast<std::uint64_t>(tran.steps_accepted));
    EXPECT_EQ(rep.steps_rejected,
              static_cast<std::uint64_t>(tran.steps_rejected));
    EXPECT_EQ(rep.full_factors, result.header.solver.full_factors);
    EXPECT_EQ(rep.fast_refactors, result.header.solver.fast_refactors);
    EXPECT_EQ(rep.dense_solves, result.header.solver.dense_solves);
    EXPECT_EQ(rep.pivot_fallbacks, result.header.solver.pivot_fallbacks);
    EXPECT_EQ(rep.pattern_rebuilds, result.header.solver.pattern_rebuilds);
    EXPECT_EQ(rep.tables_built, result.header.solver.tables_built);
    EXPECT_EQ(rep.cache_signature, result.header.cache_signature);
    EXPECT_DOUBLE_EQ(rep.eval_s, result.header.solver.eval_s);
    EXPECT_DOUBLE_EQ(rep.analyze_s, result.header.solver.analyze_s);
    // Per-step bound attribution is exhaustive: every accepted step was
    // limited by exactly one bound.
    EXPECT_EQ(rep.bounds.total(), rep.steps_accepted);
    EXPECT_EQ(tran.step_bounds.total(),
              static_cast<std::uint64_t>(tran.steps_accepted));
    // The last step lands exactly on t_stop, so at least one accepted
    // step was clipped by the horizon (or a breakpoint coincided).
    EXPECT_GE(rep.bounds.horizon + rep.bounds.breakpoint, 1u);
    EXPECT_GT(rep.elapsed_s, 0.0);
    EXPECT_GT(rep.min_dt, 0.0);
    EXPECT_GE(rep.max_dt, rep.min_dt);
}

TEST(ObsReport, ToJsonRoundTrips) {
    SimSession session(refckt::rc_mesh(4, 4));
    OpSpec spec;
    const AnalysisResult result = session.run(spec);
    const Json root = JsonParser(result.report.to_json()).parse();
    EXPECT_EQ(root.at("kind").str, "op");
    EXPECT_GE(root.at("steps_accepted").num, 1.0);
    EXPECT_TRUE(root.has("step_bounds"));
    EXPECT_TRUE(root.at("step_bounds").has("device"));
    EXPECT_TRUE(root.has("pool_queue_wait_s"));
    // pretty() exists and mentions the identity line.
    EXPECT_NE(result.report.pretty().find("run report"), std::string::npos);
}

TEST(ObsMetrics, McTrialTimeObservedForEveryTrialAtAnyWorkerCount) {
    const TelemetryOff off;
    obs::set_metrics_enabled(true);
    const obs::Histogram& trial_s =
        obs::metrics().histogram("mc.trial_s", obs::time_buckets());
    const std::uint64_t before = trial_s.count();

    SimSession session(refckt::noisy_rc());
    MonteCarloSpec mc;
    mc.node = "n1";
    mc.t_stop = 1e-9;
    mc.runs = 6;
    mc.grid_points = 11;
    mc.parallel = true;
    mc.threads = 2;
    const AnalysisResult result = session.run(mc);
    obs::set_metrics_enabled(false);

    EXPECT_EQ(result.monte_carlo().stats.paths(), 6u);
    EXPECT_EQ(trial_s.count() - before, 6u);
}

// ---- bit identity -----------------------------------------------------

TEST(ObsBitIdentity, TelemetryOnOffIdenticalWaveforms) {
    const TelemetryOff off;
    TranSpec spec;
    spec.t_stop = 30e-9;
    spec.common.dt_init = 0.1e-9;

    obs::set_metrics_enabled(false);
    obs::stop_trace();
    SimSession plain(refckt::rc_mesh(5, 5));
    const AnalysisResult base = plain.run(spec);

    obs::set_metrics_enabled(true);
    obs::start_trace();
    SimSession instrumented(refckt::rc_mesh(5, 5));
    const AnalysisResult traced = instrumented.run(spec);
    obs::stop_trace();
    obs::set_metrics_enabled(false);

    const auto& w0 = base.tran().node_waves;
    const auto& w1 = traced.tran().node_waves;
    ASSERT_EQ(w0.size(), w1.size());
    for (std::size_t n = 0; n < w0.size(); ++n) {
        ASSERT_EQ(w0[n].size(), w1[n].size()) << w0[n].label();
        for (std::size_t i = 0; i < w0[n].size(); ++i) {
            // Bit-exact, not approximately equal: telemetry must never
            // perturb the numerics.
            ASSERT_EQ(w0[n].time_at(i), w1[n].time_at(i));
            ASSERT_EQ(w0[n].value_at(i), w1[n].value_at(i));
        }
    }
    // The instrumented run actually recorded something.
    EXPECT_GT(obs::trace_event_count(), 0u);
    EXPECT_GT(obs::metrics().histogram("swec.step_size_s", {1.0}).count(),
              0u);
}

// ---- thread-pool queue-wait metric ------------------------------------

TEST(ObsPool, QueueWaitCollectedWhenEnabled) {
    const TelemetryOff off;
    obs::set_metrics_enabled(true);
    runtime::ThreadPool pool(2);
    std::vector<std::future<void>> done;
    for (int i = 0; i < 16; ++i) {
        done.push_back(pool.submit([] {}));
    }
    for (auto& f : done) {
        f.get();
    }
    const runtime::ThreadPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.tasks, 16u);
    EXPECT_GE(stats.queue_wait_s, 0.0);
}

TEST(ObsPool, StatsSnapshotTearFreeUnderHammer) {
    // Stats{tasks, queue_wait_s} must move together: the historical
    // implementation kept them in two independent relaxed atomics, so a
    // reader could pair a post-update task count with a pre-update wait
    // sum (a torn snapshot).  Hammer an 8-worker pool while a reader
    // polls; every snapshot must be monotone in BOTH fields and the
    // final one exact.
    const TelemetryOff off;
    obs::set_metrics_enabled(true);
    constexpr int kThreads = 8;
    constexpr int kTasks = 4000;
    runtime::ThreadPool pool(kThreads);

    std::atomic<bool> stop{false};
    std::thread reader([&pool, &stop] {
        runtime::ThreadPool::Stats prev{};
        while (!stop.load(std::memory_order_relaxed)) {
            const runtime::ThreadPool::Stats s = pool.stats();
            EXPECT_GE(s.tasks, prev.tasks);
            EXPECT_GE(s.queue_wait_s, prev.queue_wait_s);
            EXPECT_LE(s.tasks, static_cast<std::uint64_t>(kTasks));
            prev = s;
        }
    });

    std::vector<std::future<void>> done;
    done.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        done.push_back(pool.submit([] {}));
    }
    for (auto& f : done) {
        f.get();
    }
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    const runtime::ThreadPool::Stats final_stats = pool.stats();
    EXPECT_EQ(final_stats.tasks, static_cast<std::uint64_t>(kTasks));
    EXPECT_GE(final_stats.queue_wait_s, 0.0);
}

// ---- factor-time attribution ------------------------------------------

TEST(ObsReport, FactorTimeIsCallerWallClock) {
    // Attribution contract: factor_s is the caller's wall clock over the
    // factor section, one of the disjoint sections of elapsed_s.
    const TelemetryOff off;
    obs::set_metrics_enabled(true);

    SimSession session(refckt::rc_mesh(12, 12));
    TranSpec spec;
    spec.t_stop = 40e-9;
    spec.common.dt_init = 0.1e-9;
    const AnalysisResult result = session.run(spec);
    obs::set_metrics_enabled(false);

    const obs::RunReport& rep = result.report;
    EXPECT_GT(rep.fast_refactors, 0u);
    EXPECT_GT(rep.factor_s, 0.0);
    EXPECT_LE(rep.factor_s, rep.elapsed_s)
        << "factor time is a section of the run's wall clock";
    EXPECT_LE(rep.analyze_s + rep.eval_s + rep.stamp_s + rep.factor_s +
                  rep.solve_s + rep.step_s + rep.record_s,
              rep.elapsed_s)
        << "time-split buckets are disjoint sections of one wall clock";
}

TEST(ObsReport, NestedTimersBillSelfTime) {
    // An inner timer's scope is billed to the inner layer only: the two
    // layers add up to the outer scope's wall clock, not more.
    double outer = 0.0;
    double inner = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    {
        const obs::ScopedTimer a(outer, "outer");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        {
            const obs::ScopedTimer b(inner, "inner");
            std::this_thread::sleep_for(std::chrono::milliseconds(3));
        }
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    EXPECT_GE(inner, 3e-3);
    EXPECT_GE(outer, 2e-3);
    EXPECT_LE(outer + inner, wall);
}

TEST(ObsReport, LayersCoverAChainTransient) {
    // On the RTD chain the step loop is billed whole: the cache's layers,
    // the SWEC step control and the recorder.  What is left (session and
    // result set-up) is a few percent of the run.
    const TelemetryOff off;
    refckt::ChainSpec chain;
    chain.stages = 200;
    SimSession session(refckt::rtd_chain(chain));
    TranSpec spec;
    spec.t_stop = 1e-6;
    const obs::RunReport rep = session.run(spec).report;
    EXPECT_GT(rep.step_s, 0.0);
    EXPECT_GT(rep.record_s, 0.0);
    const double layers = rep.analyze_s + rep.eval_s + rep.stamp_s +
                          rep.factor_s + rep.solve_s + rep.step_s +
                          rep.record_s;
    EXPECT_LE(layers, rep.elapsed_s);
    EXPECT_GE(layers, 0.8 * rep.elapsed_s)
        << "unattributed: " << rep.elapsed_s - layers << " s of "
        << rep.elapsed_s << " s";
    const std::string text = rep.pretty();
    EXPECT_NE(text.find("step control"), std::string::npos);
    EXPECT_NE(text.find("record"), std::string::npos);
}

// ---- NANOSIM_LOG ------------------------------------------------------

TEST(ObsLog, LevelFromNameAndEnv) {
    EXPECT_EQ(log::level_from_name("INFO"), log::Level::info);
    EXPECT_EQ(log::level_from_name("Warning"), log::Level::warn);
    EXPECT_EQ(log::level_from_name("none"), log::Level::off);
    EXPECT_EQ(log::level_from_name("loud"), std::nullopt);

    const log::Level saved = log::level();
    ::setenv("NANOSIM_LOG", "error", 1);
    EXPECT_TRUE(log::set_level_from_env());
    EXPECT_EQ(log::level(), log::Level::error);
    ::setenv("NANOSIM_LOG", "not-a-level", 1);
    EXPECT_FALSE(log::set_level_from_env());
    EXPECT_EQ(log::level(), log::Level::error); // unchanged on bad value
    ::unsetenv("NANOSIM_LOG");
    EXPECT_FALSE(log::set_level_from_env());
    log::set_level(saved);
}

} // namespace
} // namespace nanosim
