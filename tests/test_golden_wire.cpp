// Golden wire documents: one spec of each kind, one result of each kind,
// one Monte-Carlo checkpoint, a builtin and a deck circuit source, and the
// RunReport::to_json() string, each built by hand with every wire field
// away from its default, compared with tests/golden/wire_documents.txt.
//
// Two checks per document: encoding the built struct reproduces the
// file's bytes, and decoding the file then encoding again reproduces them
// too.  The second check drops the result "stats" summaries, which decode
// to an empty accumulator by design.  Together the checks fail when a
// field goes missing from either the encoder or the decoder.
//
// The file is regenerated only on purpose, in a change that says why the
// documents moved:
//
//   ./build/test_golden_wire --gtest_also_run_disabled_tests
//                            --gtest_filter=GoldenWire.DISABLED_Regenerate
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis_spec.hpp"
#include "service/json.hpp"
#include "service/wire.hpp"

namespace nanosim {
namespace {

namespace json = service::json;
namespace wire = service::wire;

const char* const k_golden_path = NANOSIM_GOLDEN_DIR "/wire_documents.txt";

/// Above 2^53, so it must travel as a decimal string.
constexpr std::uint64_t k_signature = 16045690984503098381ULL;
constexpr std::uint64_t k_seed = (1ULL << 60) + 3;

// ---- hand-built structs, every wire field off its default -----------------

CommonOptions common() {
    return CommonOptions{.abstol = 1e-9,
                         .reltol = 1e-4,
                         .dt_init = 1e-12,
                         .dt_min = 1e-15,
                         .dt_max = 1e-10,
                         .deadline_s = 2.5};
}

FlopCounter flops() {
    FlopCounter f;
    f.add = (1ULL << 60) + 7;
    f.mul = 2;
    f.div = 3;
    f.special = 4;
    f.lu_factor = 5;
    f.lu_solve = 6;
    f.device_eval = 7;
    return f;
}

obs::StepBoundCounts bounds() {
    obs::StepBoundCounts b;
    b.device = 11;
    b.node = 12;
    b.growth = 13;
    b.dt_max = 14;
    b.dt_min = 15;
    b.breakpoint = 16;
    b.horizon = 17;
    b.fixed = 18;
    return b;
}

obs::RescueCounts rescues() {
    obs::RescueCounts r;
    r.dt_backoff_attempted = 21;
    r.dt_backoff_succeeded = 22;
    r.gmin_attempted = 23;
    r.gmin_succeeded = 24;
    r.source_attempted = 25;
    r.source_succeeded = 26;
    return r;
}

obs::RunReport report(const char* kind) {
    obs::RunReport r;
    r.analysis = "golden \"run\"";
    r.kind = kind;
    r.engine = "swec";
    r.elapsed_s = 0.125;
    r.aborted = true;
    r.steps_accepted = 31;
    r.steps_rejected = 32;
    r.nr_iterations = 33;
    r.nonconverged_steps = 34;
    r.bounds = bounds();
    r.min_dt = 1e-12;
    r.max_dt = 0.1;
    r.rescues = rescues();
    r.failed_trials = 35;
    r.trials = 36;
    r.full_factors = 37;
    r.fast_refactors = 38;
    r.refactors_skipped = 39;
    r.dense_solves = 40;
    r.pivot_fallbacks = 41;
    r.pattern_rebuilds = 42;
    r.refine_sweeps = 43;
    r.max_backward_error = 3.5e-16;
    r.tables_built = 44;
    r.analyze_s = 1.5e-3;
    r.eval_s = 2.5e-3;
    r.stamp_s = 3.5e-3;
    r.factor_s = 4.5e-3;
    r.solve_s = 5.5e-3;
    r.step_s = 7.5e-3;
    r.record_s = 8.5e-3;
    r.cache_signature = k_signature;
    r.pool_tasks = 45;
    r.pool_queue_wait_s = 6.5e-3;
    return r;
}

AnalysisHeader header(AnalysisKind kind) {
    AnalysisHeader h;
    h.name = "golden";
    h.kind = kind;
    h.engine = "swec";
    h.elapsed_s = 0.125;
    h.aborted = true;
    h.cache_signature = k_signature;
    return h;
}

AnalysisResult result(AnalysisKind kind, AnalysisResult::Payload payload) {
    AnalysisResult r;
    r.header = header(kind);
    r.payload = std::move(payload);
    r.report = report(analysis_kind_name(kind));
    return r;
}

analysis::Waveform wave(const char* label, double scale) {
    return analysis::Waveform(label, {0.0, 1e-9, 2e-9},
                              {0.1 * scale, -0.25 * scale, 0.3 * scale});
}

stochastic::EnsembleStats stats() {
    stochastic::EnsembleStats s(3);
    s.add_path({0.1, 0.2, 0.3});
    s.add_path({0.3, 0.1, 0.7});
    return s;
}

engines::McFailedTrial failed_trial() {
    return engines::McFailedTrial{3, k_seed, "singular \"pivot\"\nat row 2"};
}

engines::McEnsembleState ensemble_state(double scale) {
    engines::McEnsembleState s;
    for (std::uint64_t i = 1; i <= 3; ++i) {
        const double x = scale * static_cast<double>(i);
        s.per_point.push_back(engines::McStatState{i, x, 0.5 * x, -x, 2 * x});
    }
    s.peak = engines::McStatState{k_seed, 0.7 * scale, 0.01, 0.3, 0.9};
    s.peaks = {0.3 * scale, 0.9 * scale};
    s.paths = 5;
    return s;
}

engines::McCheckpoint checkpoint() {
    engines::McCheckpoint cp;
    cp.base_seed = k_seed;
    cp.next_trial = 5;
    cp.runs = 8;
    cp.grid_points = 3;
    cp.primary = ensemble_state(1.0);
    cp.probes = {ensemble_state(2.0)};
    cp.trial_steps = {12, 14, 13, 15, 11};
    cp.failed_trials = {failed_trial()};
    cp.flops = flops();
    cp.rescues = rescues();
    return cp;
}

OpSpec op_spec() {
    return OpSpec{.name = "golden_op",
                  .engine = DcEngine::newton_raphson,
                  .common = common()};
}

DcSweepSpec dc_spec() {
    return DcSweepSpec{.name = "golden_dc",
                       .engine = DcEngine::mla,
                       .common = common(),
                       .source = "V1",
                       .start = -0.30000000000000004,
                       .stop = 0.7,
                       .step = 0.01};
}

TranSpec tran_spec() {
    return TranSpec{.name = "golden_tran",
                    .engine = TranEngine::pwl,
                    .common = common(),
                    .t_stop = 2e-9,
                    .start_from_dc = false,
                    .initial = {0.0, 0.55, -0.1},
                    .eps = 0.02,
                    .adaptive = false,
                    .use_predictor = false,
                    .growth_limit = 1.5,
                    .geq_floor = 1e-11,
                    .noise = {}};
}

MonteCarloSpec mc_spec() {
    MonteCarloSpec s;
    s.name = "golden_mc";
    s.common = common();
    s.node = "n3_3";
    s.t_stop = 5e-9;
    s.runs = 8;
    s.noise_dt = 2.5e-11;
    s.grid_points = 3;
    s.seed = k_seed;
    s.parallel = true;
    s.threads = 3;
    s.probes = {"n1_1", "n2_2"};
    s.checkpoint_every = 4;
    s.resume = std::make_shared<const engines::McCheckpoint>(checkpoint());
    s.tran.t_stop = 4e-9;
    s.tran.dt_init = 1e-12;
    s.tran.dt_min = 1e-16;
    s.tran.dt_max = 1e-10;
    s.tran.eps = 0.1;
    s.tran.adaptive = false;
    s.tran.use_predictor = false;
    s.tran.growth_limit = 3.0;
    s.tran.geq_floor = 1e-13;
    s.tran.start_from_dc = false;
    s.tran.initial = {0.25, 0.5};
    return s;
}

EnsembleSpec em_spec() {
    return EnsembleSpec{.name = "golden_em",
                        .common = common(),
                        .node = "out",
                        .t_stop = 1e-9,
                        .dt = 1e-12,
                        .paths = 64,
                        .scheme = engines::EmScheme::implicit_be,
                        .start_from_dc = true,
                        .initial = {0.1, 0.2},
                        .seed = k_seed,
                        .parallel = true,
                        .threads = 4};
}

engines::DcResult dc_result() {
    engines::DcResult r;
    r.x = {0.5, -1.25, 3e-3};
    r.converged = true;
    r.aborted = true;
    r.oscillation_detected = true;
    r.iterations = 17;
    r.residual = 1.5e-13;
    r.flops = flops();
    r.trace = {{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}};
    return r;
}

engines::SweepResult sweep_result() {
    engines::SweepResult r;
    r.values = {0.0, 0.5};
    r.solutions = {{0.0, 0.1}, {0.5, 0.35}};
    r.converged = {true, false};
    r.total_iterations = 9;
    r.aborted = true;
    r.flops = flops();
    return r;
}

engines::TranResult tran_result() {
    engines::TranResult r;
    r.node_waves = {wave("v(a)", 1.0), wave("v(b)", 2.0)};
    r.aborted = true;
    r.steps_accepted = 10;
    r.steps_rejected = 2;
    r.nr_iterations = 30;
    r.nonconverged_steps = 1;
    r.min_dt_used = 1e-13;
    r.max_dt_used = 1e-10;
    r.max_local_error = 0.03;
    r.avg_local_error = 0.01;
    r.step_bounds = bounds();
    r.rescues = rescues();
    r.flops = flops();
    return r;
}

engines::McResult mc_result() {
    std::vector<engines::McNodeStats> probes;
    probes.push_back(engines::McNodeStats{.node = 5,
                                          .name = "n2_2",
                                          .mean = wave("mean v(n2_2)", 3.0),
                                          .stddev = wave("std v(n2_2)", 0.1),
                                          .stats = stats()});
    return engines::McResult{.grid = {0.0, 1e-9, 2e-9},
                             .mean = wave("mean v(n3_3)", 1.0),
                             .stddev = wave("std v(n3_3)", 0.2),
                             .stats = stats(),
                             .probes = std::move(probes),
                             .trial_steps = {12, 14},
                             .failed_trials = {failed_trial()},
                             .rescues = rescues(),
                             .aborted = true,
                             .flops = flops(),
                             .solver = {}};
}

engines::EmEnsembleResult em_result() {
    return engines::EmEnsembleResult{.grid = {0.0, 1e-9, 2e-9},
                                     .mean = wave("mean v(out)", 1.0),
                                     .stddev = wave("std v(out)", 0.2),
                                     .stats = stats(),
                                     .aborted = true,
                                     .flops = flops(),
                                     .solver = {}};
}

wire::CircuitSource builtin_source() {
    wire::CircuitSource s;
    s.builtin = "mesh:4x4";
    s.noise = {{"n1_1", 1e-9}, {"n2_2", 2.5e-9}};
    return s;
}

wire::CircuitSource deck_source() {
    wire::CircuitSource s;
    s.deck = "* rc\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1p\n.op\n.end\n";
    s.noise = {{"out", 3e-9}};
    return s;
}

// ---- the documents ---------------------------------------------------------

/// Drop the EnsembleStats summaries, which decode to an empty accumulator.
json::Value without_stats(json::Value doc) {
    const auto payload = doc.as_object().find("payload");
    if (payload == doc.as_object().end()) {
        return doc;
    }
    json::Object& fields = payload->second.as_object();
    fields.erase(std::string("stats"));
    if (const auto probes = fields.find("probes"); probes != fields.end()) {
        for (json::Value& probe : probes->second.as_array()) {
            probe.as_object().erase(std::string("stats"));
        }
    }
    return doc;
}

struct Document {
    std::string name;
    std::string encoded; ///< encode(built)
    /// encode(decode(text)) for the second check; empty when the document
    /// has no decoder of its own.
    std::function<std::string(const std::string&)> reencode;
};

Document spec_doc(const std::string& name, const AnalysisSpec& spec) {
    return {name, wire::spec_to_json(spec).dump(), [](const std::string& t) {
                return wire::spec_to_json(wire::spec_from_json(json::parse(t)))
                    .dump();
            }};
}

Document result_doc(const std::string& name, const AnalysisResult& r) {
    return {name, wire::result_to_json(r).dump(),
            [](const std::string& t) {
                return wire::result_to_json(
                           wire::result_from_json(json::parse(t)))
                    .dump();
            }};
}

std::vector<Document> documents() {
    std::vector<Document> docs;
    docs.push_back(spec_doc("spec.op", op_spec()));
    docs.push_back(spec_doc("spec.dc", dc_spec()));
    docs.push_back(spec_doc("spec.tran", tran_spec()));
    docs.push_back(spec_doc("spec.mc", mc_spec()));
    docs.push_back(spec_doc("spec.em", em_spec()));
    docs.push_back(result_doc("result.op",
                              result(AnalysisKind::op, dc_result())));
    docs.push_back(result_doc("result.dc",
                              result(AnalysisKind::dc_sweep, sweep_result())));
    docs.push_back(result_doc("result.tran",
                              result(AnalysisKind::tran, tran_result())));
    docs.push_back(result_doc("result.mc",
                              result(AnalysisKind::monte_carlo, mc_result())));
    docs.push_back(result_doc("result.em",
                              result(AnalysisKind::ensemble, em_result())));
    docs.push_back({"checkpoint", wire::checkpoint_to_json(checkpoint()).dump(),
                    [](const std::string& t) {
                        return wire::checkpoint_to_json(
                                   wire::checkpoint_from_json(json::parse(t)))
                            .dump();
                    }});
    for (const auto& [name, source] :
         {std::pair{"circuit.builtin", builtin_source()},
          std::pair{"circuit.deck", deck_source()}}) {
        docs.push_back({name, source.to_json().dump(),
                        [](const std::string& t) {
                            return wire::CircuitSource::from_json(
                                       json::parse(t))
                                .to_json()
                                .dump();
                        }});
    }
    docs.push_back({"report.to_json", report("tran").to_json(), nullptr});
    return docs;
}

// ---- file format: "NAME DOCUMENT" per line, '#' comments --------------------

std::map<std::string, std::string> load() {
    std::ifstream in(k_golden_path);
    EXPECT_TRUE(in.good()) << "cannot open " << k_golden_path;
    std::map<std::string, std::string> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line.front() == '#') {
            continue;
        }
        const std::size_t space = line.find(' ');
        out[line.substr(0, space)] = line.substr(space + 1);
    }
    return out;
}

// ---- the checks ------------------------------------------------------------

TEST(GoldenWire, EncodingMatchesGolden) {
    const std::map<std::string, std::string> golden = load();
    const std::vector<Document> docs = documents();
    EXPECT_EQ(golden.size(), docs.size());
    for (const Document& doc : docs) {
        SCOPED_TRACE(doc.name);
        ASSERT_EQ(golden.count(doc.name), 1U);
        EXPECT_EQ(doc.encoded, golden.at(doc.name));
    }
}

TEST(GoldenWire, DecodeThenEncodeReproducesGolden) {
    const std::map<std::string, std::string> golden = load();
    for (const Document& doc : documents()) {
        if (!doc.reencode) {
            continue;
        }
        SCOPED_TRACE(doc.name);
        ASSERT_EQ(golden.count(doc.name), 1U);
        const std::string& text = golden.at(doc.name);
        EXPECT_EQ(without_stats(json::parse(doc.reencode(text))).dump(),
                  without_stats(json::parse(text)).dump());
    }
}

TEST(GoldenWire, DISABLED_Regenerate) {
    std::ofstream out(k_golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << k_golden_path;
    out << "# Golden wire documents, checked by tests/test_golden_wire.cpp:\n"
           "# hand-built specs, results, a checkpoint, circuit sources and\n"
           "# the RunReport JSON, every wire field away from its default.\n"
           "# Regenerate only in a change that explains why they moved:\n"
           "#   ./build/test_golden_wire --gtest_also_run_disabled_tests \\\n"
           "#       --gtest_filter=GoldenWire.DISABLED_Regenerate\n"
           "# Format: NAME DOCUMENT (one compact JSON document per line)\n";
    for (const Document& doc : documents()) {
        out << doc.name << ' ' << doc.encoded << '\n';
    }
}

} // namespace
} // namespace nanosim
