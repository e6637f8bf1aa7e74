#include "mna/stamp_program.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <typeinfo>

#include "devices/diode.hpp"
#include "devices/mosfet.hpp"
#include "devices/nanowire.hpp"
#include "devices/passives.hpp"
#include "devices/rtd.hpp"
#include "devices/rtt.hpp"
#include "devices/sources.hpp"
#include "devices/tv_conductor.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace nanosim::mna {

namespace {

/// Voltage window of the chord V->0 switch — must equal the constant the
/// legacy TwoTerminalNonlinear::chord_conductance uses (device.cpp) for
/// the program's evaluation to stay bit-identical.
constexpr double k_chord_v_eps = 1e-9;

[[nodiscard]] std::ptrdiff_t node_row_of(NodeId n) noexcept {
    return n == k_ground ? -1 : static_cast<std::ptrdiff_t>(n - 1);
}

} // namespace

std::size_t StampProgram::require_slot(const SlotFn& slot_of,
                                       std::size_t row,
                                       std::size_t col) const {
    const std::size_t s = slot_of(row, col);
    if (s == k_npos) {
        throw AnalysisError(
            "StampProgram: stamp coordinate (" + std::to_string(row) + ", " +
            std::to_string(col) + ") missing from the frozen pattern");
    }
    return s;
}

StampProgram::Pair StampProgram::make_pair(NodeId a, NodeId b,
                                           const SlotFn& slot_of) const {
    Pair p;
    const auto ra = static_cast<std::size_t>(a - 1);
    const auto rb = static_cast<std::size_t>(b - 1);
    if (a != k_ground) {
        p.aa = require_slot(slot_of, ra, ra);
    }
    if (b != k_ground) {
        p.bb = require_slot(slot_of, rb, rb);
    }
    if (a != k_ground && b != k_ground) {
        p.ab = require_slot(slot_of, ra, rb);
        p.ba = require_slot(slot_of, rb, ra);
    }
    return p;
}

StampProgram::StampProgram(const MnaAssembler& assembler,
                           const SlotFn& slot_of)
    : assembler_(&assembler) {
    const auto& nonlinear = assembler.nonlinear_devices();
    const std::size_t nl = nonlinear.size();
    kind_.resize(nl);
    class_pos_.resize(nl);
    pair_.resize(nl);
    diag_a_.assign(nl, -1);
    diag_b_.assign(nl, -1);
    rhs_a_.assign(nl, -1);
    rhs_b_.assign(nl, -1);

    // Resolve a single NR entry slot, ground rows dropped (k_npos) —
    // mirrors Stamper::conductance_entry.
    auto entry_slot = [&](NodeId row, NodeId col) -> std::size_t {
        if (row == k_ground || col == k_ground) {
            return k_npos;
        }
        return require_slot(slot_of, static_cast<std::size_t>(row - 1),
                            static_cast<std::size_t>(col - 1));
    };

    for (std::size_t k = 0; k < nl; ++k) {
        const Device* dev = nonlinear[k];
        const auto idx = static_cast<std::uint32_t>(k);
        const auto& type = typeid(*dev);
        NodeId a = k_ground;
        NodeId b = k_ground;
        if (type == typeid(Rtd)) {
            kind_[k] = Kind::rtd;
            const auto* r = static_cast<const Rtd*>(dev);
            class_pos_[k] = static_cast<std::uint32_t>(rtds_.dev.size());
            rtds_.dev.push_back(r);
            rtds_.params.push_back(r->params());
            rtds_.pos.push_back(r->pos());
            rtds_.neg.push_back(r->neg());
            rtds_.idx.push_back(idx);
            rtds_.table.push_back(nullptr);
            a = r->pos();
            b = r->neg();
        } else if (type == typeid(Diode)) {
            kind_[k] = Kind::diode;
            const auto* d = static_cast<const Diode*>(dev);
            class_pos_[k] = static_cast<std::uint32_t>(diodes_.dev.size());
            diodes_.dev.push_back(d);
            diodes_.pos.push_back(d->pos());
            diodes_.neg.push_back(d->neg());
            diodes_.idx.push_back(idx);
            diodes_.table.push_back(nullptr);
            a = d->pos();
            b = d->neg();
        } else if (type == typeid(Nanowire)) {
            kind_[k] = Kind::nanowire;
            const auto* w = static_cast<const Nanowire*>(dev);
            class_pos_[k] = static_cast<std::uint32_t>(wires_.dev.size());
            wires_.dev.push_back(w);
            wires_.pos.push_back(w->pos());
            wires_.neg.push_back(w->neg());
            wires_.idx.push_back(idx);
            wires_.table.push_back(nullptr);
            a = w->pos();
            b = w->neg();
        } else if (type == typeid(Mosfet)) {
            kind_[k] = Kind::mosfet;
            const auto* m = static_cast<const Mosfet*>(dev);
            class_pos_[k] = static_cast<std::uint32_t>(mosfets_.dev.size());
            mosfets_.dev.push_back(m);
            mosfets_.drain.push_back(m->drain());
            mosfets_.gate.push_back(m->gate());
            mosfets_.source.push_back(m->source());
            mosfets_.idx.push_back(idx);
            mosfets_.nr_slot.push_back(
                {entry_slot(m->drain(), m->gate()),
                 entry_slot(m->drain(), m->source()),
                 entry_slot(m->drain(), m->drain()),
                 entry_slot(m->source(), m->gate()),
                 entry_slot(m->source(), m->source()),
                 entry_slot(m->source(), m->drain())});
            a = m->drain();
            b = m->source();
        } else if (type == typeid(Rtt)) {
            kind_[k] = Kind::rtt;
            const auto* r = static_cast<const Rtt*>(dev);
            const std::vector<NodeId> t = r->terminals(); // {c, b, e}
            class_pos_[k] = static_cast<std::uint32_t>(rtts_.dev.size());
            rtts_.dev.push_back(r);
            rtts_.collector.push_back(t[0]);
            rtts_.base.push_back(t[1]);
            rtts_.emitter.push_back(t[2]);
            rtts_.idx.push_back(idx);
            rtts_.nr_slot.push_back(
                {entry_slot(t[0], t[0]), entry_slot(t[0], t[2]),
                 entry_slot(t[0], t[1]), entry_slot(t[2], t[0]),
                 entry_slot(t[2], t[2]), entry_slot(t[2], t[1])});
            norton_fast_ = false; // RTT is not a PWL device
            a = t[0];
            b = t[2];
        } else {
            kind_[k] = Kind::generic;
            class_pos_[k] = static_cast<std::uint32_t>(generics_.size());
            generics_.push_back(
                GenericEntry{dev, idx, assembler.branch_base_of(dev)});
            norton_fast_ = false;
            gdiag_fast_ = false;
            continue; // no known principal pair
        }
        pair_[k] = make_pair(a, b, slot_of);
        diag_a_[k] = node_row_of(a);
        diag_b_[k] = node_row_of(b);
        rhs_a_[k] = node_row_of(a);
        rhs_b_[k] = node_row_of(b);
    }

    // Terminal slots for the vectorised eval gather: node i sits at
    // index i of the ground-padded voltage copy, ground at index 0 —
    // the branchy per-terminal ground test becomes a plain load.
    auto fill_slots = [](const std::vector<NodeId>& nodes,
                         std::vector<std::uint32_t>& slots) {
        slots.resize(nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            slots[i] = static_cast<std::uint32_t>(nodes[i]);
        }
    };
    fill_slots(rtds_.pos, rtds_.pos_slot);
    fill_slots(rtds_.neg, rtds_.neg_slot);
    fill_slots(diodes_.pos, diodes_.pos_slot);
    fill_slots(diodes_.neg, diodes_.neg_slot);
    fill_slots(wires_.pos, wires_.pos_slot);
    fill_slots(wires_.neg, wires_.neg_slot);

    // ---- compiled rhs plan ----
    // Only V/I sources write b(t); every other known class's stamp_rhs
    // is the empty default.  A device of unrecognised concrete type
    // could override stamp_rhs, so its presence invalidates the whole
    // plan (eval_rhs callers fall back to MnaAssembler::rhs).
    unknowns_ = static_cast<std::size_t>(assembler.unknowns());
    const auto num_nodes = static_cast<std::size_t>(assembler.num_nodes());
    for (const auto& dev_ptr : assembler.circuit().devices()) {
        const Device* dev = dev_ptr.get();
        const auto& type = typeid(*dev);
        if (type == typeid(VSource)) {
            const auto* vs = static_cast<const VSource*>(dev);
            RhsSource e;
            e.vs = vs;
            e.branch_row =
                num_nodes +
                static_cast<std::size_t>(assembler.branch_base_of(dev));
            rhs_sources_.push_back(e);
        } else if (type == typeid(ISource)) {
            const auto* is = static_cast<const ISource*>(dev);
            RhsSource e;
            e.is = is;
            e.pos_row = node_row_of(is->pos());
            e.neg_row = node_row_of(is->neg());
            rhs_sources_.push_back(e);
        } else if (type != typeid(Resistor) && type != typeid(Capacitor) &&
                   type != typeid(Inductor) && type != typeid(Diode) &&
                   type != typeid(Mosfet) && type != typeid(Rtd) &&
                   type != typeid(Rtt) && type != typeid(Nanowire) &&
                   type != typeid(TimeVaryingConductor) &&
                   type != typeid(NoiseCurrentSource)) {
            rhs_fast_ = false;
        }
    }
    for (const Device* dev : assembler.noise_sources()) {
        const auto* src = static_cast<const NoiseCurrentSource*>(dev);
        rhs_noise_.push_back(
            RhsNoise{node_row_of(src->pos()), node_row_of(src->neg())});
    }

    for (const Device* dev : assembler.time_varying_devices()) {
        TvEntry e;
        e.dev = dev;
        e.branch_base = assembler.branch_base_of(dev);
        if (typeid(*dev) == typeid(TimeVaryingConductor)) {
            e.fast = static_cast<const TimeVaryingConductor*>(dev);
            const std::vector<NodeId> t = dev->terminals(); // {a, b}
            e.pair = make_pair(t[0], t[1], slot_of);
            e.diag_a = node_row_of(t[0]);
            e.diag_b = node_row_of(t[1]);
        } else {
            gdiag_fast_ = false;
        }
        tv_.push_back(e);
    }
}

// ---------------------------------------------------------------------------
// Device-model evaluation: one tight loop per device class.  Each branch
// reproduces the legacy virtual chain's arithmetic exactly — see the
// bit-identity contract in the header.
// ---------------------------------------------------------------------------

namespace {

/// TwoTerminalNonlinear::chord_conductance, devirtualised: Dev must
/// provide non-virtual-dispatch current()/didv() via a qualified call.
template <typename Dev>
[[nodiscard]] double chord_2t(const Dev* d, double v) {
    if (std::abs(v) < k_chord_v_eps) {
        return d->Dev::didv(0.0);
    }
    count_div();
    return d->Dev::current(v) / v;
}

/// TwoTerminalNonlinear::chord_conductance_dv (the generic quotient
/// rule), devirtualised.
template <typename Dev>
[[nodiscard]] double chord_dv_2t(const Dev* d, double v) {
    if (std::abs(v) < k_chord_v_eps) {
        const double h = 1e-6;
        count_div(2);
        return (d->Dev::didv(h) - d->Dev::didv(-h)) / (4.0 * h);
    }
    count_mul(2);
    count_add(1);
    count_div(1);
    return (v * d->Dev::didv(v) - d->Dev::current(v)) / (v * v);
}

} // namespace

namespace {

/// Vectorisable terminal-difference gather: out[i] = vp[pos[i]] -
/// vp[neg[i]] over a ground-padded voltage array.  Contiguous output,
/// branch-free body, __restrict'ed streams — the compiler's auto-
/// vectoriser turns this into SIMD gathers + packed subtracts.  The
/// subtraction is the exact expression the scalar path computed
/// (v(pos) - v(neg)), so downstream values stay bit-identical.
void gather_vd(const double* __restrict vp,
               const std::uint32_t* __restrict pos,
               const std::uint32_t* __restrict neg, double* __restrict out,
               std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = vp[pos[i]] - vp[neg[i]];
    }
}

} // namespace

void StampProgram::eval_chords(const NodeVoltages& v,
                               const NodeVoltages& dvdt, bool with_rate,
                               std::span<double> geq,
                               std::span<double> geq_rate) const {
    if (!with_rate && !geq_rate.empty()) {
        std::fill(geq_rate.begin(), geq_rate.end(), 0.0);
    }
    const bool tables = tables_on_;

    // Ground-padded voltage (and rate) copies: index 0 reads exactly
    // 0.0, node i at index i.  One memcpy each, then every two-terminal
    // class's vd/vdot comes from one SIMD gather-subtract pass instead
    // of four branchy NodeVoltages calls per device.
    const std::size_t num_nodes =
        std::min(v.num_nodes(), v.raw().size()); // branch rows excluded
    vpad_.resize(num_nodes + 1);
    vpad_[0] = 0.0;
    if (num_nodes > 0) {
        std::memcpy(vpad_.data() + 1, v.raw().data(),
                    num_nodes * sizeof(double));
    }
    if (with_rate) {
        dpad_.resize(num_nodes + 1);
        dpad_[0] = 0.0;
        if (num_nodes > 0) {
            std::memcpy(dpad_.data() + 1, dvdt.raw().data(),
                        num_nodes * sizeof(double));
        }
    }
    const std::size_t max_class = std::max(
        {rtds_.dev.size(), diodes_.dev.size(), wires_.dev.size()});
    vd_.resize(max_class);
    vdot_.resize(with_rate ? max_class : 0);

    const std::size_t n_rtd = rtds_.dev.size();
    gather_vd(vpad_.data(), rtds_.pos_slot.data(), rtds_.neg_slot.data(),
              vd_.data(), n_rtd);
    if (with_rate) {
        gather_vd(dpad_.data(), rtds_.pos_slot.data(),
                  rtds_.neg_slot.data(), vdot_.data(), n_rtd);
    }
    for (std::size_t i = 0; i < n_rtd; ++i) {
        const double vd = vd_[i];
        const std::uint32_t k = rtds_.idx[i];
        ChordTable* tb = tables ? rtds_.table[i] : nullptr;
        double dg = 0.0;
        if (tb != nullptr &&
            tb->lookup(vd, geq[k], with_rate ? &dg : nullptr)) {
            if (with_rate) {
                geq_rate[k] = dg * vdot_[i];
            }
            continue;
        }
        if (with_rate) {
            // Fused chord + derivative — shares the Schulman subterms
            // between the two closed forms, bit-identical to separate
            // chord()/chord_dv() calls (see rtd_math::chord_and_dv).
            double g = 0.0;
            double dg = 0.0;
            rtd_math::chord_and_dv(rtds_.params[i], vd, g, dg);
            geq[k] = g;
            count_mul(1);
            count_add(2);
            geq_rate[k] = dg * vdot_[i];
        } else {
            geq[k] = rtd_math::chord(rtds_.params[i], vd);
        }
    }

    const std::size_t n_diode = diodes_.dev.size();
    gather_vd(vpad_.data(), diodes_.pos_slot.data(),
              diodes_.neg_slot.data(), vd_.data(), n_diode);
    if (with_rate) {
        gather_vd(dpad_.data(), diodes_.pos_slot.data(),
                  diodes_.neg_slot.data(), vdot_.data(), n_diode);
    }
    for (std::size_t i = 0; i < n_diode; ++i) {
        const double vd = vd_[i];
        const std::uint32_t k = diodes_.idx[i];
        ChordTable* tb = tables ? diodes_.table[i] : nullptr;
        double dg = 0.0;
        if (tb != nullptr &&
            tb->lookup(vd, geq[k], with_rate ? &dg : nullptr)) {
            if (with_rate) {
                geq_rate[k] = dg * vdot_[i];
            }
            continue;
        }
        geq[k] = chord_2t(diodes_.dev[i], vd);
        if (with_rate) {
            count_mul(1);
            count_add(2);
            geq_rate[k] = chord_dv_2t(diodes_.dev[i], vd) * vdot_[i];
        }
    }

    const std::size_t n_wire = wires_.dev.size();
    gather_vd(vpad_.data(), wires_.pos_slot.data(), wires_.neg_slot.data(),
              vd_.data(), n_wire);
    if (with_rate) {
        gather_vd(dpad_.data(), wires_.pos_slot.data(),
                  wires_.neg_slot.data(), vdot_.data(), n_wire);
    }
    for (std::size_t i = 0; i < n_wire; ++i) {
        const double vd = vd_[i];
        const std::uint32_t k = wires_.idx[i];
        ChordTable* tb = tables ? wires_.table[i] : nullptr;
        double dg = 0.0;
        if (tb != nullptr &&
            tb->lookup(vd, geq[k], with_rate ? &dg : nullptr)) {
            if (with_rate) {
                geq_rate[k] = dg * vdot_[i];
            }
            continue;
        }
        geq[k] = chord_2t(wires_.dev[i], vd);
        if (with_rate) {
            count_mul(1);
            count_add(2);
            geq_rate[k] = chord_dv_2t(wires_.dev[i], vd) * vdot_[i];
        }
    }

    for (std::size_t i = 0; i < mosfets_.dev.size(); ++i) {
        const Mosfet* m = mosfets_.dev[i];
        const std::uint32_t k = mosfets_.idx[i];
        geq[k] = m->Mosfet::swec_conductance(v);
        if (with_rate) {
            geq_rate[k] = m->Mosfet::swec_conductance_rate(v, dvdt);
        }
    }

    for (std::size_t i = 0; i < rtts_.dev.size(); ++i) {
        const Rtt* r = rtts_.dev[i];
        const std::uint32_t k = rtts_.idx[i];
        geq[k] = r->Rtt::swec_conductance(v);
        if (with_rate) {
            geq_rate[k] = r->Rtt::swec_conductance_rate(v, dvdt);
        }
    }

    for (const GenericEntry& e : generics_) {
        geq[e.idx] = e.dev->swec_conductance(v);
        if (with_rate) {
            geq_rate[e.idx] = e.dev->swec_conductance_rate(v, dvdt);
        }
    }
}

std::size_t StampProgram::tabulated_devices() const noexcept {
    if (!tables_on_) {
        return 0;
    }
    std::size_t n = 0;
    for (const auto* t : rtds_.table) {
        n += t != nullptr ? 1 : 0;
    }
    for (const auto* t : diodes_.table) {
        n += t != nullptr ? 1 : 0;
    }
    for (const auto* t : wires_.table) {
        n += t != nullptr ? 1 : 0;
    }
    return n;
}

// ---------------------------------------------------------------------------
// Restamps
// ---------------------------------------------------------------------------

void StampProgram::apply_swec(std::span<const double> geq,
                              std::span<double> values,
                              Stamper& fallback) const {
    double* v = values.data();
    const std::size_t nl = kind_.size();
    for (std::size_t k = 0; k < nl; ++k) {
        if (kind_[k] == Kind::generic) {
            const GenericEntry& e = generics_[class_pos_[k]];
            e.dev->stamp_swec(fallback, e.branch_base, geq[k]);
            continue;
        }
        scatter_pair(pair_[k], geq[k], v);
    }
}

void StampProgram::eval_nr(std::span<const double> x) const {
    const NodeVoltages nv = assembler_->view(x);
    const std::size_t nl = kind_.size();
    nr_lin_.resize(nl);
    for (std::size_t k = 0; k < nl; ++k) {
        NrLinear& lin = nr_lin_[k];
        switch (kind_[k]) {
        case Kind::rtd: {
            const std::size_t i = class_pos_[k];
            const RtdParams& p = rtds_.params[i];
            const double vd = nv(rtds_.pos[i]) - nv(rtds_.neg[i]);
            // Fused tangent + current (bit-identical to the separate
            // didv()/current() calls of the legacy stamp).
            double i0 = 0.0;
            double g = 0.0;
            rtd_math::current_and_didv(p, vd, i0, g);
            lin.entry[0] = g;
            lin.ieq = i0 - g * vd;
            count_mul(2);
            count_add(2);
            break;
        }
        case Kind::diode: {
            const std::size_t i = class_pos_[k];
            const Diode* d = diodes_.dev[i];
            const double vd = nv(diodes_.pos[i]) - nv(diodes_.neg[i]);
            const double g = d->Diode::didv(vd);
            const double i0 = d->Diode::current(vd);
            lin.entry[0] = g;
            lin.ieq = i0 - g * vd;
            count_mul(2);
            count_add(2);
            break;
        }
        case Kind::nanowire: {
            const std::size_t i = class_pos_[k];
            const Nanowire* w = wires_.dev[i];
            const double vd = nv(wires_.pos[i]) - nv(wires_.neg[i]);
            const double g = w->Nanowire::didv(vd);
            const double i0 = w->Nanowire::current(vd);
            lin.entry[0] = g;
            lin.ieq = i0 - g * vd;
            count_mul(2);
            count_add(2);
            break;
        }
        case Kind::mosfet: {
            const std::size_t i = class_pos_[k];
            const Mosfet* m = mosfets_.dev[i];
            const double v_gs = nv(mosfets_.gate[i]) - nv(mosfets_.source[i]);
            const double v_ds =
                nv(mosfets_.drain[i]) - nv(mosfets_.source[i]);
            const double i0 = m->Mosfet::drain_current(v_gs, v_ds);
            const auto [gm, gds] = m->Mosfet::derivatives(v_gs, v_ds);
            // Entry order and value expressions exactly as in
            // Mosfet::stamp_nr.
            lin.entry = {gm, -gm - gds, gds, -gm, gm + gds, -gds};
            lin.ieq = i0 - gm * v_gs - gds * v_ds;
            count_mul(2);
            count_add(4);
            break;
        }
        case Kind::rtt: {
            const std::size_t i = class_pos_[k];
            const Rtt* r = rtts_.dev[i];
            const double v_ce =
                nv(rtts_.collector[i]) - nv(rtts_.emitter[i]);
            const double v_be = nv(rtts_.base[i]) - nv(rtts_.emitter[i]);
            const double i0 = r->Rtt::collector_current(v_ce, v_be);
            const double g_ce = r->Rtt::gce(v_ce, v_be);
            // Numeric transconductance, exactly as in Rtt::stamp_nr.
            const double h = 1e-7;
            const double g_m = (r->Rtt::collector_current(v_ce, v_be + h) -
                                r->Rtt::collector_current(v_ce, v_be - h)) /
                               (2.0 * h);
            lin.entry = {g_ce, -g_ce - g_m, g_m, -g_ce, g_ce + g_m, -g_m};
            lin.ieq = i0 - g_ce * v_ce - g_m * v_be;
            count_mul(3);
            count_add(5);
            count_div(1);
            break;
        }
        case Kind::generic:
            break; // evaluated by its own stamp_nr in scatter_nr
        }
    }
}

void StampProgram::scatter_nr(std::span<const double> x,
                              std::span<double> values, linalg::Vector& rhs,
                              Stamper& fallback) const {
    double* v = values.data();
    const auto scatter_entries =
        [v](const std::array<std::size_t, 6>& slots,
            const std::array<double, 6>& entry) {
            for (std::size_t j = 0; j < 6; ++j) {
                if (slots[j] != k_npos) {
                    v[slots[j]] += entry[j];
                }
            }
        };
    const std::size_t nl = kind_.size();
    for (std::size_t k = 0; k < nl; ++k) {
        const NrLinear& lin = nr_lin_[k];
        switch (kind_[k]) {
        case Kind::rtd:
        case Kind::diode:
        case Kind::nanowire:
            scatter_pair(pair_[k], lin.entry[0], v);
            break;
        case Kind::mosfet:
            scatter_entries(mosfets_.nr_slot[class_pos_[k]], lin.entry);
            break;
        case Kind::rtt:
            scatter_entries(rtts_.nr_slot[class_pos_[k]], lin.entry);
            break;
        case Kind::generic: {
            const GenericEntry& e = generics_[class_pos_[k]];
            e.dev->stamp_nr(fallback, e.branch_base, assembler_->view(x));
            continue;
        }
        }
        scatter_rhs_pair(rhs_a_[k], rhs_b_[k], lin.ieq, rhs);
    }
}

void StampProgram::apply_time_varying(double t, std::span<double> values,
                                      Stamper& fallback) const {
    double* v = values.data();
    for (const TvEntry& e : tv_) {
        if (e.fast != nullptr) {
            const double g = e.fast->conductance(t);
            if (g < 0.0) {
                // Same failure contract as
                // TimeVaryingConductor::stamp_time_varying.
                throw AnalysisError("tv_conductor '" + e.fast->name() +
                                    "': negative conductance at t=" +
                                    std::to_string(t));
            }
            scatter_pair(e.pair, g, v);
        } else {
            e.dev->stamp_time_varying(fallback, e.branch_base, t);
        }
    }
}

void StampProgram::apply_nortons(std::span<const double> g,
                                 std::span<const double> ioff,
                                 std::span<double> values,
                                 linalg::Vector& rhs) const {
    double* v = values.data();
    const std::size_t nl = kind_.size();
    for (std::size_t k = 0; k < nl; ++k) {
        scatter_pair(pair_[k], g[k], v);
        scatter_rhs_pair(rhs_a_[k], rhs_b_[k], ioff[k], rhs);
    }
}

void StampProgram::add_swec_gdiag(double t, std::span<const double> geq,
                                  std::span<double> gdiag) const {
    // Same accumulation order as the legacy scratch-builder pass:
    // time-varying devices first, nonlinear devices second, each
    // contributing its (a,a) then (b,b) diagonal entry.
    for (const TvEntry& e : tv_) {
        const double g = e.fast->conductance(t);
        if (g < 0.0) {
            throw AnalysisError("tv_conductor '" + e.fast->name() +
                                "': negative conductance at t=" +
                                std::to_string(t));
        }
        if (e.diag_a >= 0) {
            gdiag[static_cast<std::size_t>(e.diag_a)] += g;
        }
        if (e.diag_b >= 0) {
            gdiag[static_cast<std::size_t>(e.diag_b)] += g;
        }
    }
    const std::size_t nl = kind_.size();
    for (std::size_t k = 0; k < nl; ++k) {
        const double g = geq[k];
        if (diag_a_[k] >= 0) {
            gdiag[static_cast<std::size_t>(diag_a_[k])] += g;
        }
        if (diag_b_[k] >= 0) {
            gdiag[static_cast<std::size_t>(diag_b_[k])] += g;
        }
    }
}

double StampProgram::device_step_bound(const NodeVoltages& v,
                                       const NodeVoltages& dvdt,
                                       std::span<const double> geq,
                                       std::span<const double> geq_rate,
                                       double eps) const {
    double bound = std::numeric_limits<double>::infinity();
    const std::size_t nl = kind_.size();
    for (std::size_t k = 0; k < nl; ++k) {
        switch (kind_[k]) {
        case Kind::rtd:
        case Kind::diode:
        case Kind::nanowire:
        case Kind::rtt: {
            // h <= eps * G_eq / |dG_eq/dt| — the chord-rate bound of
            // TwoTerminalNonlinear::step_limit / Rtt::step_limit, fed
            // the chord and rate this step already evaluated (the same
            // pure-function values step_limit would recompute).
            const double g = geq[k];
            const double gdot = std::abs(geq_rate[k]);
            if (gdot <= 0.0 || g <= 0.0) {
                break;
            }
            count_div();
            count_mul();
            bound = std::min(bound, eps * g / gdot);
            break;
        }
        case Kind::mosfet:
            // Transcendental-free V_GS bound (paper eq. 12, transistor
            // term); qualified call = direct dispatch.
            bound = std::min(bound, mosfets_.dev[class_pos_[k]]
                                        ->Mosfet::step_limit(v, dvdt, eps));
            break;
        case Kind::generic:
            bound = std::min(
                bound,
                generics_[class_pos_[k]].dev->step_limit(v, dvdt, eps));
            break;
        }
    }
    return bound;
}

void StampProgram::eval_rhs(double t,
                            const MnaAssembler::NoiseRealization* noise,
                            linalg::Vector& out) const {
    out.assign(unknowns_, 0.0);
    for (const RhsSource& e : rhs_sources_) {
        if (e.vs != nullptr) {
            // VSource::stamp_rhs -> branch_rhs(branch, wave.value(t)).
            out[e.branch_row] += e.vs->wave().value(t);
        } else {
            // ISource::stamp_rhs: current drawn out of pos, into neg.
            const double i = e.is->wave().value(t);
            if (e.pos_row >= 0) {
                out[static_cast<std::size_t>(e.pos_row)] += -i;
            }
            if (e.neg_row >= 0) {
                out[static_cast<std::size_t>(e.neg_row)] += +i;
            }
        }
    }
    if (noise != nullptr) {
        if (noise->size() != rhs_noise_.size()) {
            throw AnalysisError("rhs: noise realization size mismatch");
        }
        for (std::size_t k = 0; k < rhs_noise_.size(); ++k) {
            const double i = (*noise)[k]->value(t);
            if (rhs_noise_[k].pos_row >= 0) {
                out[static_cast<std::size_t>(rhs_noise_[k].pos_row)] += -i;
            }
            if (rhs_noise_[k].neg_row >= 0) {
                out[static_cast<std::size_t>(rhs_noise_[k].neg_row)] += +i;
            }
        }
    }
}

std::size_t StampProgram::bind_tables(TableStore& store,
                                      const TableConfig& cfg) {
    std::size_t builds = 0;
    table_refs_.clear();
    auto bind = [&](const Device* dev, ChordTable*& slot) {
        slot = nullptr;
        std::shared_ptr<ChordTable> table = store.acquire(*dev, cfg, builds);
        if (table != nullptr) {
            slot = table.get();
            table_refs_.push_back(std::move(table));
        }
    };
    for (std::size_t i = 0; i < rtds_.dev.size(); ++i) {
        bind(rtds_.dev[i], rtds_.table[i]);
    }
    for (std::size_t i = 0; i < diodes_.dev.size(); ++i) {
        bind(diodes_.dev[i], diodes_.table[i]);
    }
    for (std::size_t i = 0; i < wires_.dev.size(); ++i) {
        bind(wires_.dev[i], wires_.table[i]);
    }
    tables_bound_ = true;
    tables_on_ = true;
    return builds;
}

} // namespace nanosim::mna
