// Tests for the service wire schema (service/json.hpp + service/wire.hpp).
//
// Contracts under test: the strict JSON parser (malformed input throws
// ServiceError with an offset, never crashes, never accepts duplicates
// or trailing garbage); spec round-trips are BIT-identical for all five
// analysis kinds with default values omitted from the encoding; unknown
// keys are rejected; results round-trip with bit-identical waveforms;
// CircuitSource canonicalization is noise-order invariant and drives
// distinct signatures for distinct fabrics.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "service/json.hpp"
#include "service/wire.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

namespace json = service::json;
namespace wire = service::wire;

// ---- JSON parser ------------------------------------------------------

TEST(ServiceJson, ParsesScalarsAndNesting) {
    const json::Value v = json::parse(
        R"({"a":1.5,"b":[true,false,null],"c":{"d":"x\ny","e":-2e-3}})");
    EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.5);
    EXPECT_TRUE(v.at("b").as_array()[0].as_bool());
    EXPECT_TRUE(v.at("b").as_array()[2].is_null());
    EXPECT_EQ(v.at("c").at("d").as_string(), "x\ny");
    EXPECT_DOUBLE_EQ(v.at("c").at("e").as_number(), -2e-3);
}

TEST(ServiceJson, DumpParsesBackBitIdentically) {
    json::Value v{json::Object{}};
    v.set("pi", json::Value(3.141592653589793));
    v.set("tiny", json::Value(4.9406564584124654e-324));
    v.set("neg", json::Value(-1.0000000000000002));
    json::Array arr;
    arr.emplace_back(1e308);
    arr.emplace_back(-0.0);
    v.set("arr", json::Value(std::move(arr)));
    const json::Value back = json::parse(v.dump());
    EXPECT_EQ(back.at("pi").as_number(), 3.141592653589793);
    EXPECT_EQ(back.at("tiny").as_number(), 4.9406564584124654e-324);
    EXPECT_EQ(back.at("neg").as_number(), -1.0000000000000002);
    EXPECT_EQ(back.at("arr").as_array()[0].as_number(), 1e308);
    EXPECT_TRUE(std::signbit(back.at("arr").as_array()[1].as_number()));
    // Deterministic encoding: dumping the reparse reproduces the bytes.
    EXPECT_EQ(back.dump(), v.dump());
}

TEST(ServiceJson, RejectsMalformedDocuments) {
    EXPECT_THROW(json::parse(""), ServiceError);
    EXPECT_THROW(json::parse("{"), ServiceError);
    EXPECT_THROW(json::parse("{\"a\":1,}"), ServiceError);
    EXPECT_THROW(json::parse("{\"a\":1}x"), ServiceError);   // trailing
    EXPECT_THROW(json::parse("{\"a\":1,\"a\":2}"), ServiceError); // dup
    EXPECT_THROW(json::parse("[1,2"), ServiceError);
    EXPECT_THROW(json::parse("\"\\q\""), ServiceError); // bad escape
    EXPECT_THROW(json::parse("01"), ServiceError);      // leading zero
    EXPECT_THROW(json::parse("nul"), ServiceError);
    EXPECT_THROW(json::parse("NaN"), ServiceError);
    std::string deep;
    for (int i = 0; i < 100; ++i) {
        deep += "[";
    }
    EXPECT_THROW(json::parse(deep), ServiceError); // depth bound
}

TEST(ServiceJson, EveryTruncationErrorsCleanly) {
    // The fuzz contract: any prefix of a valid document must parse or
    // throw ServiceError — never crash, never hang.
    const std::string doc =
        R"({"kind":"mc","node":"n1_1","t_stop":1e-9,"runs":16,)"
        R"("probes":["a","b"],"seed":"18446744073709551615"})";
    for (std::size_t cut = 0; cut < doc.size(); ++cut) {
        const std::string prefix = doc.substr(0, cut);
        try {
            (void)json::parse(prefix);
        } catch (const ServiceError&) {
            continue; // expected for nearly every cut
        }
    }
    // A structurally-valid but incomplete spec parses (defaults refill);
    // the missing node/t_stop are a RUN-time validation error, so the
    // wire layer itself never rejects it.
    const auto mc = std::get<MonteCarloSpec>(
        wire::spec_from_json(json::parse(R"({"kind":"mc"})")));
    EXPECT_TRUE(mc.node.empty());
    EXPECT_EQ(mc.t_stop, 0.0);
}

// ---- spec round-trips -------------------------------------------------

/// Round-trip a spec and require the re-encoding to be byte-identical —
/// with to_chars double encoding this implies field-level bit identity.
void expect_spec_roundtrip(const AnalysisSpec& spec) {
    const json::Value encoded = wire::spec_to_json(spec);
    const AnalysisSpec back =
        wire::spec_from_json(json::parse(encoded.dump()));
    EXPECT_EQ(wire::spec_to_json(back).dump(), encoded.dump());
    EXPECT_EQ(back.index(), spec.index());
}

TEST(WireSpec, OpRoundTrip) {
    OpSpec op;
    op.name = "warm";
    op.engine = DcEngine::newton_raphson;
    op.common.abstol = 1e-9;
    op.common.deadline_s = 2.5;
    expect_spec_roundtrip(op);
}

TEST(WireSpec, DcSweepRoundTrip) {
    DcSweepSpec dc;
    dc.source = "V1";
    dc.start = -0.30000000000000004; // not exactly representable decimal
    dc.stop = 0.7;
    dc.step = 0.01;
    dc.engine = DcEngine::mla;
    expect_spec_roundtrip(dc);
}

TEST(WireSpec, TranRoundTrip) {
    TranSpec tran;
    tran.t_stop = 2e-9;
    tran.engine = TranEngine::pwl;
    tran.start_from_dc = false;
    tran.initial = {0.0, 0.55, -0.1};
    tran.eps = 0.02;
    tran.adaptive = false;
    tran.growth_limit = 1.5;
    tran.common.dt_init = 1e-12;
    expect_spec_roundtrip(tran);
}

TEST(WireSpec, MonteCarloRoundTrip) {
    MonteCarloSpec mc;
    mc.node = "n3_3";
    mc.t_stop = 5e-9;
    mc.runs = 32;
    mc.noise_dt = 2.5e-11;
    mc.grid_points = 101;
    mc.seed = 42;
    mc.probes = {"n1_1", "n2_2"};
    mc.tran.eps = 0.1;
    expect_spec_roundtrip(mc);
}

TEST(WireSpec, EnsembleRoundTrip) {
    EnsembleSpec em;
    em.node = "out";
    em.t_stop = 1e-9;
    em.dt = 1e-12;
    em.paths = 64;
    em.scheme = engines::EmScheme::implicit_be;
    em.parallel = true;
    em.threads = 4;
    expect_spec_roundtrip(em);
}

TEST(WireSpec, DefaultsAreOmittedAndRefilled) {
    // A default spec encodes as the bare discriminator...
    const json::Value op = wire::spec_to_json(OpSpec{});
    EXPECT_EQ(op.dump(), R"({"kind":"op"})");
    // ...and the bare discriminator decodes to the default spec.
    const AnalysisSpec back = wire::spec_from_json(json::parse(
        R"({"kind":"op"})"));
    EXPECT_EQ(std::get<OpSpec>(back).name, "op");
    EXPECT_EQ(std::get<OpSpec>(back).engine, DcEngine::swec);
    EXPECT_EQ(std::get<OpSpec>(back).common.deadline_s, 0.0);
}

TEST(WireSpec, UnknownKeysAreRejected) {
    EXPECT_THROW(
        wire::spec_from_json(json::parse(R"({"kind":"op","bogus":1})")),
        ServiceError);
    EXPECT_THROW(wire::spec_from_json(json::parse(
                     R"({"kind":"tran","t_sop":1e-9})")),
                 ServiceError); // the motivating typo
    EXPECT_THROW(wire::spec_from_json(json::parse(R"({"kind":"nope"})")),
                 ServiceError);
    EXPECT_THROW(wire::spec_from_json(json::parse(R"({})")), ServiceError);
    EXPECT_THROW(wire::spec_from_json(json::parse(
                     R"({"kind":"mc","batch":8})")),
                 ServiceError); // the retired trial-batch width
}

TEST(WireSpec, RetiredSwecUpdateKeyIsRejected) {
    // EM always refreshes its chords.  The retired chord-refresh key
    // (spelled in two literals here) stamped every nonlinear device
    // open for the whole path when false.
    const char* const em =
        R"({"kind":"em","node":"n1","t_stop":1e-9,"dt":1e-11)";
    EXPECT_NO_THROW(
        (void)wire::spec_from_json(json::parse(std::string(em) + "}")));
    for (const char* value : {"true", "false"}) {
        EXPECT_THROW((void)wire::spec_from_json(json::parse(
                         std::string(em) + R"(,"swec_)" "update\":" + value +
                         "}")),
                     ServiceError)
            << value;
    }
}

TEST(WireSpec, LargeSeedTravelsAsString) {
    MonteCarloSpec mc;
    mc.node = "n1_1";
    mc.t_stop = 1e-9;
    mc.seed = (1ULL << 60) + 3; // not representable as a double
    const json::Value encoded = wire::spec_to_json(mc);
    EXPECT_TRUE(encoded.at("seed").is_string());
    const auto back =
        std::get<MonteCarloSpec>(wire::spec_from_json(encoded));
    EXPECT_EQ(back.seed, (1ULL << 60) + 3);
}

TEST(WireSpec, NoiseRealizationsNeverSerialize) {
    TranSpec tran;
    tran.t_stop = 1e-9;
    tran.noise.emplace_back(); // engine-internal per-trial state
    EXPECT_THROW((void)wire::spec_to_json(AnalysisSpec{tran}),
                 ServiceError);
}

TEST(WireSpec, EnginesAndSchemesAreEncoded) {
    OpSpec op;
    op.engine = DcEngine::mla;
    TranSpec tran;
    tran.engine = TranEngine::newton_raphson;
    EnsembleSpec em;
    em.scheme = engines::EmScheme::implicit_be;
    const json::Value op_doc = wire::spec_to_json(op);
    const json::Value tran_doc = wire::spec_to_json(tran);
    const json::Value em_doc = wire::spec_to_json(em);
    EXPECT_EQ(op_doc.at("engine").as_string(), "mla");
    EXPECT_EQ(tran_doc.at("engine").as_string(), "nr");
    EXPECT_EQ(em_doc.at("scheme").as_string(), "implicit");
    EXPECT_EQ(std::get<OpSpec>(wire::spec_from_json(op_doc)).engine,
              DcEngine::mla);
    EXPECT_EQ(std::get<TranSpec>(wire::spec_from_json(tran_doc)).engine,
              TranEngine::newton_raphson);
    EXPECT_EQ(std::get<EnsembleSpec>(wire::spec_from_json(em_doc)).scheme,
              engines::EmScheme::implicit_be);
    EXPECT_THROW(wire::spec_from_json(json::parse(
                     R"({"kind":"op","engine":"spice"})")),
                 ServiceError);
}

TEST(WireSpec, MonteCarloTranNoiseNeverSerializes) {
    MonteCarloSpec mc;
    mc.tran.noise.emplace_back(); // engine-internal per-trial state
    EXPECT_THROW((void)wire::spec_to_json(AnalysisSpec{mc}), ServiceError);
}

TEST(WireSpec, NullIsRejected) {
    EXPECT_THROW(wire::spec_from_json(json::parse(
                     R"({"kind":"tran","t_stop":null})")),
                 ServiceError);
    EXPECT_THROW(wire::spec_from_json(json::parse(
                     R"({"kind":"tran","initial":[0.5,null]})")),
                 ServiceError);
}

// ---- result round-trips -----------------------------------------------

/// Bit identity, not tolerance: the wire uses shortest round-trip
/// doubles.
void expect_same_waves(const std::vector<analysis::Waveform>& a,
                       const std::vector<analysis::Waveform>& b) {
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t w = 0; w < a.size(); ++w) {
        EXPECT_EQ(b[w].label(), a[w].label());
        EXPECT_EQ(b[w].time(), a[w].time());
        EXPECT_EQ(b[w].value(), a[w].value());
    }
}

/// Occurrences of `needle` in `text`.
std::size_t count_of(const std::string& text, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t p = text.find(needle); p != std::string::npos;
         p = text.find(needle, p + 1)) {
        ++n;
    }
    return n;
}

TEST(WireResult, TranResultRoundTripsBitIdentically) {
    SimSession session(refckt::rc_mesh(3, 3));
    TranSpec tran;
    tran.t_stop = 1e-9;
    tran.common.dt_init = 1e-11;
    const AnalysisResult direct = session.run(tran);

    const json::Value encoded = wire::result_to_json(direct);
    const AnalysisResult back =
        wire::result_from_json(json::parse(encoded.dump()));

    EXPECT_EQ(back.header.name, direct.header.name);
    EXPECT_EQ(back.header.engine, direct.header.engine);
    EXPECT_EQ(back.header.elapsed_s, direct.header.elapsed_s);
    EXPECT_EQ(back.report.fast_refactors, direct.report.fast_refactors);
    EXPECT_EQ(back.header.cache_signature, direct.header.cache_signature);

    const auto& a = direct.tran();
    const auto& b = back.tran();
    ASSERT_GT(a.node_waves.size(), 1U);
    ASSERT_GT(a.node_waves[0].size(), 2U);
    expect_same_waves(a.node_waves, b.node_waves);
    EXPECT_EQ(b.steps_accepted, a.steps_accepted);
    EXPECT_EQ(b.flops.total(), a.flops.total());
    // The nodes share one time axis, and the document holds it once:
    // one label and one value row per node, each row as long as "t".
    const json::Value& waves = encoded.at("payload").at("node_waves");
    EXPECT_EQ(waves.as_object().size(), 3U);
    EXPECT_EQ(waves.at("labels").as_array().size(), a.node_waves.size());
    const json::Array& rows = waves.at("v").as_array();
    ASSERT_EQ(rows.size(), a.node_waves.size());
    for (const json::Value& row : rows) {
        EXPECT_EQ(row.as_array().size(), waves.at("t").as_array().size());
    }
    const std::string text = encoded.dump();
    EXPECT_EQ(count_of(text, "\"t\":"), 1U);
    // Re-encoding the decoded result reproduces the document bytes.
    EXPECT_EQ(wire::result_to_json(back).dump(), text);
}

TEST(WireResult, TranWavesShareOneAxisInMemoryAndAfterDecoding) {
    SimSession session(refckt::rc_mesh(3, 3));
    TranSpec tran;
    tran.t_stop = 1e-9;
    tran.common.dt_init = 1e-11;
    const AnalysisResult direct = session.run(tran);
    const AnalysisResult back = wire::result_from_json(
        json::parse(wire::result_to_json(direct).dump()));
    for (const AnalysisResult* r : {&direct, &back}) {
        const auto& waves = r->tran().node_waves;
        ASSERT_GT(waves.size(), 1U);
        for (const analysis::Waveform& w : waves) {
            EXPECT_EQ(&w.time(), &waves.front().time()) << w.label();
        }
    }
    // The engine-side layers travel in the report.
    EXPECT_GT(direct.report.step_s, 0.0);
    EXPECT_GT(direct.report.record_s, 0.0);
    EXPECT_EQ(back.report.step_s, direct.report.step_s);
    EXPECT_EQ(back.report.record_s, direct.report.record_s);
}

TEST(WireResult, SolverReuseCountersRoundTrip) {
    // A 16x16 mesh passes the stale-factor reuse gate: the transient
    // across the drive edge skips refactors and refines.
    SimSession session(refckt::rc_mesh(16, 16));
    TranSpec tran;
    tran.t_stop = 52e-9;
    const AnalysisResult direct = session.run(tran);
    ASSERT_GT(direct.report.refactors_skipped, 0U);
    ASSERT_GT(direct.report.max_backward_error, 0.0);

    const json::Value encoded = wire::result_to_json(direct);
    const AnalysisResult back =
        wire::result_from_json(json::parse(encoded.dump()));
    EXPECT_EQ(back.report.refactors_skipped, direct.report.refactors_skipped);
    EXPECT_EQ(back.report.refine_sweeps, direct.report.refine_sweeps);
    EXPECT_EQ(back.report.max_backward_error,
              direct.report.max_backward_error);
    EXPECT_EQ(wire::result_to_json(back).dump(), encoded.dump());
}

TEST(WireResult, OpResultRoundTrips) {
    SimSession session(refckt::rc_mesh(2, 2));
    const AnalysisResult direct = session.run(OpSpec{});
    const AnalysisResult back = wire::result_from_json(
        json::parse(wire::result_to_json(direct).dump()));
    const auto& a = direct.dc();
    const auto& b = back.dc();
    EXPECT_EQ(b.converged, a.converged);
    EXPECT_EQ(b.iterations, a.iterations);
    ASSERT_EQ(b.x.size(), a.x.size());
    for (std::size_t i = 0; i < a.x.size(); ++i) {
        EXPECT_EQ(b.x[i], a.x[i]);
    }
}

/// A 4-trial MC on a noisy 3x3 mesh, observing n1_1 and probing n2_2.
AnalysisResult small_mc_result() {
    wire::CircuitSource source;
    source.builtin = "mesh:3x3";
    source.noise.push_back({"n1_1", 1e-9});
    SimSession session(source.build());
    MonteCarloSpec mc;
    mc.node = "n1_1";
    mc.t_stop = 5e-10;
    mc.runs = 4;
    mc.noise_dt = 5e-11;
    mc.grid_points = 21;
    mc.probes = {"n2_2"};
    return session.run(mc);
}

TEST(WireResult, MonteCarloResultRoundTrips) {
    const AnalysisResult direct = small_mc_result();
    const AnalysisResult back = wire::result_from_json(
        json::parse(wire::result_to_json(direct).dump()));
    const auto& a = direct.monte_carlo();
    const auto& b = back.monte_carlo();
    ASSERT_EQ(b.grid.size(), a.grid.size());
    ASSERT_EQ(b.mean.size(), a.mean.size());
    for (std::size_t i = 0; i < a.mean.size(); ++i) {
        EXPECT_EQ(b.grid[i], a.grid[i]);
        EXPECT_EQ(b.mean.value()[i], a.mean.value()[i]);
        EXPECT_EQ(b.stddev.value()[i], a.stddev.value()[i]);
    }
    ASSERT_EQ(b.probes.size(), 1U);
    EXPECT_EQ(b.probes[0].mean.value(), a.probes[0].mean.value());
    // EnsembleStats is a documented summary (parsing restores an empty
    // accumulator), so compare the documents with every "stats" dropped —
    // everything else must re-encode byte-identically.
    const auto without_stats = [](const AnalysisResult& r) {
        json::Value doc = wire::result_to_json(r);
        json::Object& payload = doc.as_object()["payload"].as_object();
        payload.erase("stats");
        for (json::Value& probe : payload["probes"].as_array()) {
            probe.as_object().erase("stats");
        }
        return doc.dump();
    };
    EXPECT_EQ(without_stats(back), without_stats(direct));
}

AnalysisResult small_op_result() {
    SimSession session(refckt::rc_mesh(2, 2));
    return session.run(OpSpec{});
}

AnalysisResult small_tran_result() {
    SimSession session(refckt::rc_mesh(2, 2));
    TranSpec tran;
    tran.t_stop = 1e-9;
    tran.common.dt_init = 1e-10;
    return session.run(tran);
}

json::Value& member(json::Value& v, const char* key) {
    return v.as_object()[std::string(key)];
}

/// Decoding `doc` throws a ServiceError whose message names `key`.
void expect_rejected(const json::Value& doc, const std::string& key) {
    try {
        (void)wire::result_from_json(json::parse(doc.dump()));
        ADD_FAILURE() << "decoded without error";
    } catch (const ServiceError& e) {
        EXPECT_NE(std::string(e.what()).find('"' + key + '"'),
                  std::string::npos)
            << e.what();
    } catch (const std::exception& e) {
        ADD_FAILURE() << "not a ServiceError: " << e.what();
    }
}

/// A waveform inside a result document: its key, and where it sits.
struct WaveSite {
    const char* key;
    std::function<json::Value&(json::Value&)> find;
};

TEST(WireResult, MalformedWaveformsAreServiceErrors) {
    const json::Value doc = wire::result_to_json(small_mc_result());
    // The single-waveform reader: the MC mean and stddev, and a probe's.
    const std::vector<WaveSite> sites = {
        {"mean",
         [](json::Value& d) -> json::Value& {
             return member(member(d, "payload"), "mean");
         }},
        {"stddev",
         [](json::Value& d) -> json::Value& {
             return member(member(d, "payload"), "stddev");
         }},
        {"mean",
         [](json::Value& d) -> json::Value& {
             json::Value& probes = member(member(d, "payload"), "probes");
             return member(probes.as_array().at(0), "mean");
         }},
    };
    for (std::size_t i = 0; i < sites.size(); ++i) {
        SCOPED_TRACE("site " + std::to_string(i));
        const WaveSite& site = sites[i];
        json::Value short_t = doc;
        member(site.find(short_t), "t").as_array().pop_back();
        expect_rejected(short_t, site.key);

        json::Value null_t = doc;
        member(site.find(null_t), "t").as_array()[1] = json::Value();
        expect_rejected(null_t, site.key);

        json::Value empty_t = doc;
        member(site.find(empty_t), "t") = json::Value(json::Array{});
        expect_rejected(empty_t, site.key);
    }
}

TEST(WireResult, TranWavesOnDifferentAxesDoNotEncode) {
    AnalysisResult r = small_tran_result();
    auto& waves = std::get<engines::TranResult>(r.payload).node_waves;
    ASSERT_GE(waves.size(), 2U);
    std::vector<double> t = waves[1].time();
    t.back() *= 1.5;
    waves[1] = analysis::Waveform(waves[1].label(), t, waves[1].value());
    EXPECT_THROW((void)wire::result_to_json(r), ServiceError);
    // Equal as numbers is not enough: -0 would decode as the first axis's 0.
    t = waves[0].time();
    ASSERT_EQ(t[0], 0.0);
    t[0] = -0.0;
    waves[1] = analysis::Waveform(waves[1].label(), t, waves[1].value());
    EXPECT_THROW((void)wire::result_to_json(r), ServiceError);
}

TEST(WireResult, MalformedTranWavesAreServiceErrors) {
    const json::Value doc = wire::result_to_json(small_tran_result());
    const auto node_waves = [](json::Value& d) -> json::Value& {
        return member(member(d, "payload"), "node_waves");
    };
    const auto row = [&](json::Value& d, std::size_t i) -> json::Array& {
        return member(node_waves(d), "v").as_array().at(i).as_array();
    };

    json::Value missing_row = doc;
    member(node_waves(missing_row), "v").as_array().pop_back();
    expect_rejected(missing_row, "node_waves");

    json::Value extra_label = doc;
    member(node_waves(extra_label), "labels").as_array().push_back("v(x)");
    expect_rejected(extra_label, "node_waves");

    json::Value short_row = doc;
    row(short_row, 1).pop_back();
    expect_rejected(short_row, "node_waves");

    json::Value long_row = doc;
    row(long_row, 1).push_back(0.5);
    expect_rejected(long_row, "node_waves");

    json::Value null_t = doc;
    member(node_waves(null_t), "t").as_array()[1] = json::Value();
    expect_rejected(null_t, "node_waves");

    json::Value falling_t = doc;
    json::Array& t = member(node_waves(falling_t), "t").as_array();
    std::swap(t[1], t[2]);
    expect_rejected(falling_t, "node_waves");

    json::Value empty_t = doc;
    member(node_waves(empty_t), "t") = json::Value(json::Array{});
    expect_rejected(empty_t, "node_waves");
}

TEST(WireResult, EmptyNodeSetRoundTrips) {
    AnalysisResult r = small_tran_result();
    std::get<engines::TranResult>(r.payload).node_waves.clear();
    const json::Value doc = wire::result_to_json(r);
    EXPECT_EQ(doc.at("payload").at("node_waves").dump(),
              R"({"labels":[],"t":[],"v":[]})");
    const AnalysisResult back = wire::result_from_json(json::parse(doc.dump()));
    EXPECT_TRUE(back.tran().node_waves.empty());
    EXPECT_EQ(wire::result_to_json(back).dump(), doc.dump());
}

TEST(WireResult, CancelledTransientRoundTripsBitIdentically) {
    SimSession session(refckt::rc_mesh(3, 3));
    TranSpec tran;
    tran.t_stop = 1e-9;
    tran.common.dt_init = 1e-11;
    int steps = 0;
    engines::AnalysisObserver observer;
    observer.on_step = [&steps](double, int) { ++steps; };
    observer.cancel = [&steps] { return steps >= 5; };
    const AnalysisResult direct = session.run(tran, &observer);
    const auto& a = direct.tran();
    ASSERT_TRUE(a.aborted);
    ASSERT_FALSE(a.node_waves.empty());
    ASSERT_GT(a.node_waves[0].size(), 1U);
    ASSERT_LT(a.node_waves[0].t_end(), tran.t_stop);

    const json::Value encoded = wire::result_to_json(direct);
    const AnalysisResult back =
        wire::result_from_json(json::parse(encoded.dump()));
    EXPECT_TRUE(back.tran().aborted);
    expect_same_waves(a.node_waves, back.tran().node_waves);
    EXPECT_EQ(wire::result_to_json(back).dump(), encoded.dump());
}

TEST(WireResult, UnknownKeysInRecordBlocksAreRejected) {
    const json::Value doc = wire::result_to_json(small_op_result());
    for (const char* block : {"report", "payload", "header"}) {
        SCOPED_TRACE(block);
        json::Value bad = doc;
        bad.as_object()[std::string(block)].set("bogus", json::Value(1));
        EXPECT_THROW((void)wire::result_from_json(bad), ServiceError);
    }
}

TEST(WireResult, ReportSignatureTravelsExactly) {
    AnalysisResult r = small_op_result();
    // Distinct from the header's, so the report must be decoded from its
    // own block; neither is representable as a double.
    r.header.cache_signature = (1ULL << 60) + 1;
    r.report.cache_signature = (1ULL << 60) + 3;
    const json::Value doc = wire::result_to_json(r);
    EXPECT_EQ(doc.at("report").at("cache_signature").as_string(),
              std::to_string(r.report.cache_signature));
    const AnalysisResult back = wire::result_from_json(json::parse(doc.dump()));
    EXPECT_EQ(back.header.cache_signature, r.header.cache_signature);
    EXPECT_EQ(back.report.cache_signature, r.report.cache_signature);
}

TEST(WireResult, NonFiniteNumbersDecodeAsNan) {
    AnalysisResult r = small_op_result();
    engines::DcResult& dc = std::get<engines::DcResult>(r.payload);
    dc.residual = std::numeric_limits<double>::infinity();
    dc.x[0] = -std::numeric_limits<double>::infinity();
    r.report.max_dt = std::numeric_limits<double>::quiet_NaN();
    const json::Value doc = json::parse(wire::result_to_json(r).dump());
    EXPECT_TRUE(doc.at("payload").at("residual").is_null());
    const AnalysisResult back = wire::result_from_json(doc);
    EXPECT_TRUE(std::isnan(back.dc().residual));
    EXPECT_TRUE(std::isnan(back.dc().x[0])); // the sign of inf is lost
    EXPECT_TRUE(std::isnan(back.report.max_dt));
    EXPECT_EQ(wire::result_to_json(back).dump(), doc.dump());
}

// ---- circuit source ---------------------------------------------------

TEST(WireCircuitSource, CanonicalIsNoiseOrderInvariant) {
    wire::CircuitSource a;
    a.builtin = "mesh:4x4";
    a.noise = {{"n1_1", 1e-9}, {"n2_2", 2e-9}};
    wire::CircuitSource b = a;
    std::swap(b.noise[0], b.noise[1]);
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.signature(), b.signature());
}

TEST(WireCircuitSource, DistinctSourcesGetDistinctSignatures) {
    wire::CircuitSource mesh4;
    mesh4.builtin = "mesh:4x4";
    wire::CircuitSource mesh5;
    mesh5.builtin = "mesh:5x5";
    wire::CircuitSource noisy = mesh4;
    noisy.noise = {{"n1_1", 1e-9}};
    EXPECT_NE(mesh4.signature(), mesh5.signature());
    EXPECT_NE(mesh4.signature(), noisy.signature());
}

TEST(WireCircuitSource, ExactlyOneSourceKindRequired) {
    wire::CircuitSource none;
    EXPECT_THROW((void)none.canonical(), ServiceError);
    wire::CircuitSource both;
    both.builtin = "mesh:2x2";
    both.deck = "* deck\n.end\n";
    EXPECT_THROW((void)both.canonical(), ServiceError);
}

TEST(WireCircuitSource, BuildsBuiltinsAndDecks) {
    wire::CircuitSource mesh;
    mesh.builtin = "mesh:3x3";
    mesh.noise.push_back({"n2_2", 1e-9});
    const Circuit built = mesh.build();
    EXPECT_GT(built.device_count(), 0U);

    wire::CircuitSource deck;
    deck.deck = "* rc\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1p\n.op\n.end\n";
    EXPECT_GT(deck.build().device_count(), 0U);

    wire::CircuitSource bad = mesh;
    bad.noise[0].node = "no_such_node";
    EXPECT_THROW((void)bad.build(), NetlistError);
    bad = mesh;
    bad.noise[0].sigma = 0.0;
    EXPECT_THROW((void)bad.build(), ServiceError);
}

TEST(WireCircuitSource, JsonRoundTrip) {
    wire::CircuitSource source;
    source.builtin = "grid:4x4:2";
    source.noise = {{"vdd_1_1", 2.5e-9}};
    const wire::CircuitSource back = wire::CircuitSource::from_json(
        json::parse(source.to_json().dump()));
    EXPECT_EQ(back.canonical(), source.canonical());
    EXPECT_THROW(wire::CircuitSource::from_json(json::parse(
                     R"({"builtin":"mesh:2x2","typo":1})")),
                 ServiceError);
}

} // namespace
} // namespace nanosim
