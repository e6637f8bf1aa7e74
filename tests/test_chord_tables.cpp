// Tabulated chord models, the default SWEC transient path: accuracy
// against the closed form and independence from the visit order.
//
// Every SWEC transient evaluates RTD / diode / nanowire chords from
// lazily filled tables (devices/tabulated.hpp), each segment gated to
// TableConfig::rel_tol.  The gate here is end to end: on the paper's
// circuits the default run must take the same accepted steps as the
// closed-form run (tables.enabled = false) and stay within 1e-6 of each
// node waveform's max |v|.  Both legs run on a fresh cache.
//
// Euler-Maruyama paths restamp their chords through the same cache: the
// same gate holds for one Wiener path through a default cache (tables)
// and through a cache without a stamp program (closed forms).
//
// The fill order must not matter either: a node's value depends only on
// its voltage and the gate's floor is fixed at construction, so a table
// read in any order returns the same bits.  That property keeps serial
// and parallel Monte-Carlo bit-identical when every worker fills its own
// tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/ref_circuits.hpp"
#include "devices/diode.hpp"
#include "devices/passives.hpp"
#include "devices/rtd.hpp"
#include "devices/sources.hpp"
#include "devices/tabulated.hpp"
#include "devices/waveform.hpp"
#include "engines/em_engine.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"

namespace nanosim {
namespace {

struct AccuracyCase {
    std::string name;
    std::function<Circuit()> make;
    double t_stop;
};

std::vector<AccuracyCase> accuracy_cases() {
    return {
        {"fig8_inverter", [] { return refckt::fet_rtd_inverter(); }, 400e-9},
        {"fig9_dff", [] { return refckt::rtd_dff(); }, 500e-9},
        {"rtd_chain200",
         [] {
             refckt::ChainSpec spec;
             spec.stages = 200;
             return refckt::rtd_chain(spec);
         },
         400e-9},
        {"rtd_mesh24x24",
         [] {
             refckt::MeshSpec spec;
             spec.rows = 24;
             spec.cols = 24;
             spec.rtd_stride = 1;
             return refckt::rc_mesh(spec);
         },
         100e-9},
    };
}

engines::TranResult run(const AccuracyCase& c, bool tables) {
    Circuit ckt = c.make();
    const mna::MnaAssembler assembler(ckt);
    engines::SwecTranOptions o;
    o.t_stop = c.t_stop;
    o.tables.enabled = tables;
    return engines::run_tran_swec(assembler, o); // fresh cache
}

TEST(ChordTables, DefaultTransientWithinGateOfClosedForm) {
    constexpr int k_points = 2001;
    constexpr double k_tol = 1e-6;
    for (const AccuracyCase& c : accuracy_cases()) {
        SCOPED_TRACE(c.name);
        const engines::TranResult exact = run(c, false);
        const engines::TranResult tab = run(c, true);
        EXPECT_EQ(tab.steps_accepted, exact.steps_accepted);
        ASSERT_EQ(tab.node_waves.size(), exact.node_waves.size());

        double worst = 0.0; // max over nodes of max|dv| / max|v|
        for (std::size_t n = 0; n < exact.node_waves.size(); ++n) {
            const auto& we = exact.node_waves[n];
            const auto& wt = tab.node_waves[n];
            double dev = 0.0;
            double scale = 0.0;
            for (int i = 0; i < k_points; ++i) {
                const double t = c.t_stop * i / (k_points - 1);
                const double v = we.at(t);
                dev = std::max(dev, std::abs(wt.at(t) - v));
                scale = std::max(scale, std::abs(v));
            }
            EXPECT_LE(dev, k_tol * scale) << we.label();
            if (scale > 0.0) {
                worst = std::max(worst, dev / scale);
            }
        }
        std::cout << "  " << c.name << ": " << exact.steps_accepted
                  << " steps, max |dv| / max |v| = " << worst << '\n';
    }
}

/// A two-node RTD ladder for the explicit scheme: a pulsed current into
/// "n1", an RTD and a capacitor at both nodes, white noise at "n1".
Circuit current_driven_rtd_pair() {
    Circuit ckt;
    const NodeId n1 = ckt.node("n1");
    const NodeId n2 = ckt.node("n2");
    ckt.add<ISource>("I1", k_ground, n1,
                     std::make_shared<PulseWave>(0.0, 20e-3, 1e-9, 1e-9,
                                                 1e-9, 3e-9, 10e-9));
    ckt.add<Rtd>("RTD1", n1, k_ground);
    ckt.add<Capacitor>("C1", n1, k_ground, 10e-12);
    ckt.add<Resistor>("R12", n1, n2, 100.0);
    ckt.add<Rtd>("RTD2", n2, k_ground);
    ckt.add<Capacitor>("C2", n2, k_ground, 10e-12);
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, n1, 1e-9);
    return ckt;
}

TEST(ChordTables, EmPathWithinGateOfClosedForm) {
    constexpr double k_tol = 1e-6;
    refckt::MeshSpec mesh;
    mesh.period = 8e-9; // the pulse edge lands inside the window
    mesh.edge = 1e-9;
    struct EmCase {
        std::string name;
        Circuit ckt;
        engines::EmScheme scheme;
    };
    EmCase cases[] = {
        {"rtd_mesh8x8/implicit", refckt::rc_mesh(mesh),
         engines::EmScheme::implicit_be},
        {"rtd_pair/explicit", current_driven_rtd_pair(),
         engines::EmScheme::explicit_em},
    };
    cases[0].ckt.add<NoiseCurrentSource>(
        "NOISE1", k_ground, cases[0].ckt.find_node("n4_4"), 1e-9);
    for (const EmCase& c : cases) {
        SCOPED_TRACE(c.name);
        const mna::MnaAssembler assembler(c.ckt);
        engines::EmOptions o;
        o.t_stop = 6e-9;
        o.dt = 1e-11;
        o.scheme = c.scheme;
        const engines::EmEngine engine(assembler, o);
        stochastic::Rng rng(7);
        std::vector<stochastic::WienerPath> paths;
        for (std::size_t k = 0; k < assembler.noise_sources().size(); ++k) {
            paths.emplace_back(rng, o.t_stop, engine.steps());
        }
        mna::SystemCache tables(assembler);
        mna::SystemCache closed(
            assembler, mna::SystemCache::Options{.use_stamp_program = false});
        const engines::EmPathResult tab = engine.run_path(paths, &tables);
        const engines::EmPathResult exact = engine.run_path(paths, &closed);
        EXPECT_GT(tables.stats().tables_built, 0u);

        double worst = 0.0; // max over nodes of max|dv| / max|v|
        double peak = 0.0;
        for (std::size_t n = 0; n < exact.node_waves.size(); ++n) {
            const auto& we = exact.node_waves[n];
            const auto& wt = tab.node_waves[n];
            ASSERT_EQ(wt.size(), we.size());
            double dev = 0.0;
            double scale = 0.0;
            for (std::size_t j = 0; j < we.size(); ++j) {
                dev = std::max(dev, std::abs(wt.value_at(j) - we.value_at(j)));
                scale = std::max(scale, std::abs(we.value_at(j)));
            }
            EXPECT_LE(dev, k_tol * scale) << we.label();
            if (scale > 0.0) {
                worst = std::max(worst, dev / scale);
            }
            peak = std::max(peak, scale);
        }
        std::cout << "  " << c.name << ": max |v| " << peak
                  << " V, max |dv| / max |v| = " << worst << '\n';
    }
}

/// Every lookup's outcome, bit for bit.
struct Reading {
    bool hit = false;
    std::uint64_t g = 0;
    std::uint64_t dg = 0;

    bool operator==(const Reading&) const = default;
};

/// Read a fresh table of `dev` under `cfg` at `volts[order[j]]` for
/// every j, and return the readings indexed like `volts`.
std::vector<Reading> read_in_order(const Device& dev, const TableConfig& cfg,
                                   const std::vector<double>& volts,
                                   const std::vector<std::size_t>& order) {
    TableStore store;
    std::size_t builds = 0;
    const auto table = store.acquire(dev, cfg, builds);
    std::vector<Reading> out(volts.size());
    for (const std::size_t j : order) {
        double g = 0.0;
        double dg = 0.0;
        out[j].hit = table->lookup(volts[j], g, &dg);
        out[j].g = std::bit_cast<std::uint64_t>(g);
        out[j].dg = std::bit_cast<std::uint64_t>(dg);
    }
    return out;
}

TEST(ChordTables, LookupsIdenticalInAnyVisitOrder) {
    // Off-grid voltages over the whole range and a little beyond it.
    std::vector<double> volts;
    for (int i = 0; i <= 6000; ++i) {
        volts.push_back(-2.1 + 10.2 * i / 6000.0);
    }
    std::vector<std::size_t> ascending(volts.size());
    for (std::size_t j = 0; j < volts.size(); ++j) {
        ascending[j] = j;
    }
    const std::vector<std::size_t> descending(ascending.rbegin(),
                                              ascending.rend());
    std::vector<std::size_t> shuffled = ascending;
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(20260517));

    // The RTD on the default grid and on a coarse one whose gate rejects
    // about half the segments; a diode on a mid grid, whose chord spans
    // some nineteen decades, so the gate's error floor decides verdicts.
    const Rtd rtd("RTD1", 1, k_ground, RtdParams::date05());
    const Diode diode("D1", 1, k_ground);
    TableConfig coarse;
    coarse.points = 65;
    TableConfig mid;
    mid.points = 257;
    const std::vector<std::pair<const Device*, TableConfig>> tables = {
        {&rtd, TableConfig{}}, {&rtd, coarse}, {&diode, mid}};
    for (const auto& [dev, cfg] : tables) {
        SCOPED_TRACE(dev->name() + " @ " + std::to_string(cfg.points));
        const auto up = read_in_order(*dev, cfg, volts, ascending);
        const auto down = read_in_order(*dev, cfg, volts, descending);
        const auto mixed = read_in_order(*dev, cfg, volts, shuffled);
        std::size_t hits = 0;
        std::size_t rejected = 0; // in-range misses
        for (std::size_t j = 0; j < volts.size(); ++j) {
            EXPECT_EQ(up[j], down[j]) << volts[j];
            EXPECT_EQ(up[j], mixed[j]) << volts[j];
            hits += up[j].hit ? 1 : 0;
            const bool in_range =
                volts[j] >= cfg.v_min && volts[j] <= cfg.v_max;
            rejected += in_range && !up[j].hit ? 1 : 0;
        }
        EXPECT_GT(hits, 0u);
        EXPECT_LT(hits, volts.size()); // out-of-range reads miss
        if (cfg != TableConfig{}) {
            EXPECT_GT(rejected, 0u);
        }
    }
}

} // namespace
} // namespace nanosim
