// Nano-Sim — wire schema: AnalysisSpec / AnalysisResult <-> JSON.
//
// The service protocol (service/server.hpp) ships analysis requests and
// results as JSON documents; this module is the schema, usable standalone
// (save a spec to disk, replay a result) without any networking.  A job's
// circuit travels as a CircuitSource, whose canonical() text is the key
// under which the server shares one live session per circuit.
//
// One codec walks the field table declared beside each struct
// (util/fields.hpp), in one of two modes; both REJECT unknown keys
// (ServiceError), so a typo like "t_sop" cannot silently run a different
// simulation.
//
//  * Spec mode (the five specs, their option blocks, CircuitSource):
//    fields equal to the default-constructed struct are OMITTED and
//    parsing refills them from the same defaults, so
//    spec_from_json(spec_to_json(s)) reproduces `s` bit-identically and
//    `{"kind":"op"}` is a complete request.  A spec is discriminated by
//    "kind": "op" | "dc" | "tran" | "mc" | "em" (analysis_kind_name).
//    null is rejected.  TranSpec::noise / SwecTranOptions::noise
//    (per-trial noise realizations) are Monte-Carlo ENGINE internals,
//    never wire state; spec_to_json throws if they are set.
//  * Record mode (results: header, payload and RunReport, which alone
//    carries the solver work; Monte-Carlo checkpoints): every key is
//    written and required.  Non-finite doubles have no JSON spelling: they encode as
//    null and decode as NaN, losing the sign of an infinity.
//
// A waveform travels as {"label","t","v"}, except a transient's node
// waveforms (TranResult::node_waves): the engines record every node at
// each accepted step on one shared time axis, so they travel on it,
// {"labels":[...],"t":[...],"v":[[...],...]}, one label and one value row
// per node, and decode onto one shared axis again.  Encoding throws
// ServiceError when the waves do not share that axis bit for bit (waves
// holding the same axis object pass without a comparison).  Decoding
// throws ServiceError, naming the key, on a time that is null or not
// strictly increasing and on value counts that differ from the time
// count.
//
// Unsigned counters, seeds and signatures above 2^53 travel as decimal
// strings (JSON numbers are doubles); the parser accepts both spellings,
// so the header and report cache_signature are exact.  Doubles print as
// shortest round-trip decimals, so a result crossing the wire compares
// BIT-IDENTICAL to the in-process AnalysisResult, except for the one
// summary member: stochastic::EnsembleStats travels as paths/points/peak
// summary + per-path peaks and decodes to an empty accumulator (the mean
// and stddev WAVEFORMS carry the ensemble statistics losslessly).
#ifndef NANOSIM_SERVICE_WIRE_HPP
#define NANOSIM_SERVICE_WIRE_HPP

#include <string>
#include <vector>

#include "core/analysis_spec.hpp"
#include "engines/checkpoint.hpp"
#include "netlist/circuit.hpp"
#include "service/json.hpp"

namespace nanosim::service::wire {

// ---- AnalysisSpec ----------------------------------------------------

[[nodiscard]] json::Value spec_to_json(const AnalysisSpec& spec);
[[nodiscard]] AnalysisSpec spec_from_json(const json::Value& v);

// ---- AnalysisResult --------------------------------------------------

[[nodiscard]] json::Value result_to_json(const AnalysisResult& result);
[[nodiscard]] AnalysisResult result_from_json(const json::Value& v);

// ---- Monte-Carlo checkpoints -----------------------------------------

/// Full-fidelity encoding of a resumable MC campaign state: raw Welford
/// accumulators travel with shortest-round-trip doubles and u64s as
/// decimal strings past 2^53, so checkpoint_from_json(checkpoint_to_json)
/// reproduces the state bit-identically — the resume contract.  These
/// documents ride "checkpoint" service events and the `submit --resume`
/// path ("resume" key of an mc spec).
[[nodiscard]] json::Value checkpoint_to_json(const engines::McCheckpoint& cp);
[[nodiscard]] engines::McCheckpoint checkpoint_from_json(const json::Value& v);

// ---- circuit source --------------------------------------------------

/// One extra white-noise current source to inject into the circuit
/// (node -> ground), so Monte-Carlo / EM jobs on generator-built fabrics
/// can be requested over the wire (the generators themselves carry no
/// noise sources).
struct NoiseInjection {
    std::string node;
    double sigma = 0.0; ///< intensity [A sqrt(s)], > 0
};

/// Where a job's circuit comes from: exactly one of `builtin` (a
/// refckt::builtin_circuit spec like "mesh:32x32") or `deck` (full
/// netlist text), plus optional noise injections.  The canonical text is
/// the SessionRegistry dedup key — two clients submitting the same
/// builtin spec (or byte-identical deck) share one live SimSession and
/// its symbolic factorization.
struct CircuitSource {
    std::string builtin;
    std::string deck;
    std::vector<NoiseInjection> noise;

    /// Canonical description: source kind + text + sorted noise list —
    /// the session dedup key.
    [[nodiscard]] std::string canonical() const;
    /// Materialize the circuit (builds the generator / parses the deck,
    /// then injects the noise sources).  Throws NetlistError/ServiceError
    /// on bad sources.
    [[nodiscard]] Circuit build() const;

    [[nodiscard]] json::Value to_json() const;
    [[nodiscard]] static CircuitSource from_json(const json::Value& v);
};

} // namespace nanosim::service::wire

#endif // NANOSIM_SERVICE_WIRE_HPP
