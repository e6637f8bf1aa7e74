// Tests for the obs/ telemetry subsystem: metrics registry (thread
// safety under a real ThreadPool hammer), trace spans (nesting and
// ordering invariants, Chrome JSON well-formedness — parsed back by a
// minimal JSON reader), RunReport's solver work against the solver
// caches and the time split's coverage, the bit-identity guarantee
// (telemetry on/off never changes simulation results), and the cost of
// the disabled path (at most 50 ns per site, under 2% of a Monte-Carlo
// run).
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
#include <utility>
#include <variant>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "devices/passives.hpp"
#include "devices/sources.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "service/json.hpp"
#include "service/wire.hpp"
#include "timing_gate.hpp"
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

/// `got` equals `want` on every SolverWork field, bit for bit.
void expect_same_work(const obs::SolverWork& got,
                      const obs::SolverWork& want) {
    for_each_field<obs::SolverWork>([&](const auto& field) {
        EXPECT_EQ(got.*field.member, want.*field.member) << field.key;
    });
}

[[nodiscard]] std::uint64_t solves(const obs::SolverWork& w) {
    return w.full_factors + w.fast_refactors + w.refactors_skipped +
           w.dense_solves + w.pattern_rebuilds;
}

TEST(ObsReport, SolverWorkIsTheSessionCacheDeltaPlusExtraWorkers) {
    // 16x16: the sparse path, with stale-factor reuse across the drive
    // edge at 50 ns.
    Circuit mesh = refckt::rc_mesh(16, 16);
    mesh.add<NoiseCurrentSource>("NOISE1", k_ground,
                                 mesh.find_node("n8_8"), 1e-9);
    SimSession session(std::move(mesh));

    DcSweepSpec dc;
    dc.source = "VIN";
    dc.stop = 2.0;
    dc.step = 0.5;
    TranSpec tran;
    tran.t_stop = 52e-9;
    MonteCarloSpec mc;
    mc.node = "n8_8";
    mc.t_stop = 2e-9;
    mc.runs = 4;
    mc.grid_points = 11;
    MonteCarloSpec mc2 = mc;
    mc2.parallel = true;
    mc2.threads = 2;
    EnsembleSpec em;
    em.node = "n8_8";
    em.t_stop = 1e-9;
    em.dt = 1e-11;
    em.scheme = engines::EmScheme::implicit_be;
    em.paths = 3;

    const std::vector<std::pair<const char*, AnalysisSpec>> runs = {
        {"op", OpSpec{}}, {"dc", dc}, {"tran", tran},
        {"mc x1", mc}, {"mc x2", mc2}, {"em", em}};
    for (const auto& [name, spec] : runs) {
        SCOPED_TRACE(name);
        const mna::SystemCache::Stats before = session.solver_cache().stats();
        const AnalysisResult result = session.run(spec);
        const mna::SystemCache::Stats after = session.solver_cache().stats();
        const obs::RunReport& rep = result.report;

        // The report holds the session cache's delta plus the caches the
        // driver built for its extra workers (only a 2-worker MC has one).
        obs::SolverWork extra;
        std::visit(
            [&extra](const auto& payload) {
                if constexpr (requires { payload.solver; }) {
                    extra = payload.solver;
                }
            },
            result.payload);
        if (std::string(name) == "mc x2") {
            EXPECT_GT(solves(extra), 0u);
        } else {
            expect_same_work(extra, obs::SolverWork{});
        }
        obs::SolverWork want = after.since(before);
        want += extra;
        expect_same_work(rep, want);

        // Every solve of the session cache lands in exactly one bucket.
        EXPECT_GT(after.steps, before.steps);
        EXPECT_EQ(after.steps - before.steps, solves(after.since(before)));

        // The counters and the time split cross the wire intact.
        const AnalysisResult back = service::wire::result_from_json(
            service::json::parse(service::wire::result_to_json(result).dump()));
        expect_same_work(back.report, rep);
        EXPECT_EQ(back.report.to_json(), rep.to_json());
    }
}

TEST(ObsReport, TransientReportsItsStepControl) {
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
    EXPECT_EQ(rep.cache_signature, result.header.cache_signature);
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

// ---- bit identity and the disabled path -------------------------------

/// A 10x10 RC mesh with white noise at its centre node n5_5.
Circuit noisy_mesh() {
    Circuit ckt = refckt::rc_mesh(10, 10);
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node("n5_5"),
                                1e-9);
    return ckt;
}

/// 8 Monte-Carlo trials at n5_5 of noisy_mesh(), fixed steps on the
/// noise grid.
MonteCarloSpec noisy_mesh_mc() {
    MonteCarloSpec mc;
    mc.node = "n5_5";
    mc.t_stop = 5e-9;
    mc.noise_dt = 2.5e-10;
    mc.runs = 8;
    mc.grid_points = 26;
    mc.tran.adaptive = false;
    mc.tran.dt_init = mc.noise_dt;
    return mc;
}

/// The waves an analysis returns: every node of a transient, the mean
/// and stddev of a Monte-Carlo campaign.
std::vector<analysis::Waveform> waves_of(const AnalysisResult& result) {
    if (result.header.kind == AnalysisKind::monte_carlo) {
        return {result.monte_carlo().mean, result.monte_carlo().stddev};
    }
    return result.tran().node_waves;
}

TEST(ObsBitIdentity, TelemetryOnOffIdenticalWaveforms) {
    const TelemetryOff off;
    TranSpec tran;
    tran.t_stop = 30e-9;
    tran.common.dt_init = 0.1e-9;
    struct Input {
        const char* label;
        Circuit (*make)();
        AnalysisSpec spec;
    };
    const Input inputs[] = {
        {"transient", [] { return refckt::rc_mesh(5, 5); }, tran},
        {"monte-carlo", noisy_mesh, noisy_mesh_mc()},
    };
    for (const Input& in : inputs) {
        SCOPED_TRACE(in.label);
        obs::set_metrics_enabled(false);
        obs::stop_trace();
        SimSession plain(in.make());
        const AnalysisResult base = plain.run(in.spec);

        obs::set_metrics_enabled(true);
        obs::start_trace();
        SimSession instrumented(in.make());
        const AnalysisResult traced = instrumented.run(in.spec);
        obs::stop_trace();
        obs::set_metrics_enabled(false);
        // The instrumented run actually recorded something.
        EXPECT_GT(obs::trace_event_count(), 0u);

        const std::vector<analysis::Waveform> w0 = waves_of(base);
        const std::vector<analysis::Waveform> w1 = waves_of(traced);
        ASSERT_EQ(w0.size(), w1.size());
        for (std::size_t n = 0; n < w0.size(); ++n) {
            ASSERT_EQ(w0[n].size(), w1[n].size()) << w0[n].label();
            for (std::size_t i = 0; i < w0[n].size(); ++i) {
                // Bit-exact, not approximately equal: telemetry must
                // never perturb the numerics.
                ASSERT_EQ(w0[n].time_at(i), w1[n].time_at(i));
                ASSERT_EQ(w0[n].value_at(i), w1[n].value_at(i));
            }
        }
    }
    EXPECT_GT(obs::metrics().histogram("swec.step_size_s", {1.0}).count(),
              0u);
}

TEST(ObsOverhead, DisabledSitesCostUnderTwoPercentOfAMonteCarloRun) {
    // An idle instrumentation site is a Span whose constructor sees
    // tracing off plus the metrics_enabled() gate: at most 50 ns.  The
    // spans of a Monte-Carlo run (counted from its trace) times that
    // cost, doubled for the metric gates beside them, must stay within
    // 2% of the run.
    if (timing::sanitized()) {
        GTEST_SKIP() << timing::k_sanitized_skip;
    }
    const TelemetryOff off;
    obs::set_metrics_enabled(false);
    obs::stop_trace();
    std::uint64_t open_gates = 0;
    const double site_ns = timing::site_ns(5, 1 << 20, [&open_gates] {
        const obs::Span span("test", "obs");
        open_gates += obs::metrics_enabled() ? 1 : 0;
        asm volatile("" : : "r"(&span) : "memory");
    });
    EXPECT_EQ(open_gates, 0u);

    const auto run_mc = [] {
        SimSession session(noisy_mesh());
        (void)session.run(noisy_mesh_mc());
    };
    const double run_s = timing::min_seconds(3, run_mc);
    obs::start_trace();
    run_mc();
    obs::stop_trace();
    const std::size_t spans = obs::trace_event_count();
    EXPECT_GT(spans, 0u);
    const double predicted = timing::predicted_share(spans, site_ns, run_s);
    EXPECT_LE(site_ns, 50.0);
    EXPECT_LE(predicted, 0.02)
        << spans << " spans x " << site_ns << " ns against a "
        << run_s * 1e3 << " ms run";
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

/// A branch-free RC ladder of `nodes` nodes, each with a capacitor to
/// ground (so C is invertible and explicit Euler-Maruyama applies),
/// driven by a current source at n1 and with white noise at its far end.
Circuit noisy_rc_ladder(int nodes) {
    Circuit ckt;
    NodeId prev = ckt.node("n1");
    ckt.add<ISource>("I1", k_ground, prev, 1e-3);
    ckt.add<Capacitor>("C1", prev, k_ground, 1e-12);
    for (int i = 2; i <= nodes; ++i) {
        const std::string tag = std::to_string(i);
        const NodeId node = ckt.node("n" + tag);
        ckt.add<Resistor>("R" + tag, prev, node, 1e3);
        ckt.add<Capacitor>("C" + tag, node, k_ground, 1e-12);
        prev = node;
    }
    ckt.add<Resistor>("RL", prev, k_ground, 1e3);
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, prev, 1e-9);
    return ckt;
}

TEST(ObsReport, LayersCoverAnEulerMaruyamaEnsemble) {
    // Both schemes bill the whole step: the cache's layers, the explicit
    // scheme's C^-1 solve (solve_s) and the step's own work (step_s).
    const TelemetryOff off;
    for (const engines::EmScheme scheme :
         {engines::EmScheme::explicit_em, engines::EmScheme::implicit_be}) {
        SCOPED_TRACE(scheme == engines::EmScheme::explicit_em ? "explicit"
                                                              : "implicit");
        SimSession session(noisy_rc_ladder(256));
        EnsembleSpec spec;
        spec.node = "n256";
        spec.t_stop = 2e-9;
        spec.dt = 1e-11;
        spec.paths = 8;
        spec.scheme = scheme;
        const obs::RunReport rep = session.run(spec).report;
        EXPECT_GT(rep.step_s, 0.0);
        EXPECT_GT(rep.solve_s, 0.0);
        const double layers = rep.analyze_s + rep.eval_s + rep.stamp_s +
                              rep.factor_s + rep.solve_s + rep.step_s +
                              rep.record_s;
        EXPECT_LE(layers, rep.elapsed_s);
        EXPECT_GE(layers, 0.9 * rep.elapsed_s)
            << "unattributed: " << rep.elapsed_s - layers << " s of "
            << rep.elapsed_s << " s";
    }
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
