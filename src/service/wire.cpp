#include "service/wire.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <concepts>
#include <limits>
#include <memory>
#include <utility>
#include <variant>

#include "core/ref_circuits.hpp"
#include "devices/sources.hpp"
#include "netlist/parser.hpp"
#include "util/error.hpp"

namespace nanosim::service::wire {

// The tables of the two structs wire.hpp declares.

constexpr auto field_table(std::type_identity<NoiseInjection>) {
    return std::tuple{
        Field{"node", &NoiseInjection::node},
        Field{"sigma", &NoiseInjection::sigma}};
}

constexpr auto field_table(std::type_identity<CircuitSource>) {
    return std::tuple{
        Field{"builtin", &CircuitSource::builtin},
        Field{"deck", &CircuitSource::deck},
        Field{"noise", &CircuitSource::noise}};
}

namespace {

using json::Array;
using json::Object;
using json::Value;

/// Spec mode leaves out fields at their default and refills missing keys
/// from the defaults.  Record mode writes and requires every key, and
/// reads null as NaN (non-finite doubles have no JSON spelling).  Both
/// reject unknown keys.
enum class Mode { spec, record };

/// Names the key (or the whole document) being read, for error messages.
using Key = std::string_view;

/// The discriminator of a spec document: an AnalysisKind name.
constexpr const char* k_kind = "kind";

// ---- wire shapes of the classes without public fields ----------------

struct WaveDoc {
    std::string label;
    std::vector<double> t;
    std::vector<double> v;
};

constexpr auto field_table(std::type_identity<WaveDoc>) {
    return std::tuple{
        Field{"label", &WaveDoc::label},
        Field{"t", &WaveDoc::t},
        Field{"v", &WaveDoc::v}};
}

/// A set of waveforms on one time axis (TranResult::node_waves: the
/// engines record every node at each accepted step, on one shared axis),
/// sent once: one label and one value row per waveform.
struct WavesDoc {
    std::vector<std::string> labels;
    std::vector<double> t;
    std::vector<std::vector<double>> v;
};

constexpr auto field_table(std::type_identity<WavesDoc>) {
    return std::tuple{
        Field{"labels", &WavesDoc::labels},
        Field{"t", &WavesDoc::t},
        Field{"v", &WavesDoc::v}};
}

struct PeakDoc {
    std::uint64_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
};

constexpr auto field_table(std::type_identity<PeakDoc>) {
    return std::tuple{
        Field{"count", &PeakDoc::count},
        Field{"mean", &PeakDoc::mean},
        Field{"stddev", &PeakDoc::stddev},
        Field{"min", &PeakDoc::min},
        Field{"max", &PeakDoc::max}};
}

/// EnsembleStats travels as a SUMMARY: the per-point accumulators cannot
/// be rebuilt from it, so it decodes to an empty accumulator of the right
/// width.  The mean and stddev waveforms carry the statistics losslessly.
struct StatsDoc {
    std::uint64_t paths = 0;
    std::uint64_t points = 0;
    PeakDoc peak;
    std::vector<double> peaks;
};

constexpr auto field_table(std::type_identity<StatsDoc>) {
    return std::tuple{
        Field{"paths", &StatsDoc::paths},
        Field{"points", &StatsDoc::points},
        Field{"peak", &StatsDoc::peak},
        Field{"peaks", &StatsDoc::peaks}};
}

// ---- name maps of the enum fields ------------------------------------
// Enumerators count up from 0, and each map answers "?" past the last.

const char* name_of(DcEngine e) { return engine_name(e); }
const char* name_of(TranEngine e) { return engine_name(e); }
const char* name_of(AnalysisKind k) { return analysis_kind_name(k); }
const char* name_of(engines::EmScheme s) {
    switch (s) {
    case engines::EmScheme::explicit_em: return "explicit";
    case engines::EmScheme::implicit_be: return "implicit";
    }
    return "?";
}

/// The alternative of V at `index`, default-constructed.  AnalysisSpec
/// and AnalysisResult::Payload list theirs in AnalysisKind order.
template <typename V>
V alternative(std::size_t index) {
    return [index]<std::size_t... I>(std::index_sequence<I...>) {
        V out;
        ((I == index ? (void)out.template emplace<I>() : void()), ...);
        return out;
    }(std::make_index_sequence<std::variant_size_v<V>>{});
}

// ---- value codec: one write(x, mode) and read(v, x, mode, key) per type

Value write(double v, Mode) { return Value(v); }
Value write(bool v, Mode) { return Value(v); }
Value write(int v, Mode) { return Value(v); }
Value write(const std::string& v, Mode) { return Value(v); }

void read(const Value& v, double& out, Mode mode, Key) {
    const bool nan = mode == Mode::record && v.is_null();
    out = nan ? std::numeric_limits<double>::quiet_NaN() : v.as_number();
}
void read(const Value& v, bool& out, Mode, Key) { out = v.as_bool(); }
void read(const Value& v, int& out, Mode, Key) { out = v.as_int(); }
void read(const Value& v, std::string& out, Mode, Key) { out = v.as_string(); }

/// Unsigned counts, seeds and signatures (bool takes its own overload): a
/// plain number while exactly representable, a decimal string past 2^53.
template <std::unsigned_integral U>
Value write(U v, Mode) {
    constexpr U k_max_exact = U{1} << 53;
    return v <= k_max_exact ? Value(static_cast<double>(v))
                            : Value(std::to_string(v));
}

template <std::unsigned_integral U>
void read(const Value& v, U& out, Mode, Key key) {
    if (v.is_number()) {
        out = static_cast<U>(v.as_uint());
        return;
    }
    const std::string& s = v.as_string();
    const char* end = s.data() + s.size();
    std::uint64_t x = 0;
    if (const auto r = std::from_chars(s.data(), end, x);
        r.ec != std::errc() || r.ptr != end) {
        throw ServiceError("bad uint64 string for " + std::string(key));
    }
    out = static_cast<U>(x);
}

template <typename E>
    requires std::is_enum_v<E>
Value write(E e, Mode) {
    return Value(name_of(e));
}

template <typename E>
    requires std::is_enum_v<E>
void read(const Value& v, E& out, Mode, Key key) {
    const std::string& name = v.as_string();
    std::string have;
    for (int i = 0; std::string_view(name_of(E(i))) != "?"; ++i) {
        if (name == name_of(E(i))) {
            out = E(i);
            return;
        }
        have += (i == 0 ? "" : ", ") + std::string(name_of(E(i)));
    }
    throw ServiceError("unknown " + std::string(key) + " \"" + name +
                       "\" (have: " + have + ")");
}

template <typename T>
Value write(const std::vector<T>& xs, Mode mode) {
    Array arr;
    arr.reserve(xs.size());
    for (const T& x : xs) {
        arr.push_back(write(x, mode));
    }
    return Value(std::move(arr));
}

template <typename T>
void read(const Value& v, std::vector<T>& out, Mode mode, Key key) {
    const Array& arr = v.as_array();
    out.clear();
    out.reserve(arr.size());
    for (const Value& e : arr) {
        T x{};
        read(e, x, mode, key);
        out.push_back(std::move(x));
    }
}

template <typename... A>
Value write(const std::variant<A...>& v, Mode mode) {
    return std::visit([mode](const auto& alt) { return write(alt, mode); },
                      v);
}

/// Reads into the alternative `out` already holds.
template <typename... A>
void read(const Value& v, std::variant<A...>& out, Mode mode, Key key) {
    std::visit([&](auto& alt) { read(v, alt, mode, key); }, out);
}

// ---- structs with a field table --------------------------------------

/// The default-constructed S: what spec mode leaves out.
template <typename S>
const S& defaults() {
    static const S d{};
    return d;
}

template <HasFields S>
Value write_fields(const S& s, Mode mode) {
    Value obj{Object{}};
    for_each_field<S>([&](const auto& field) {
        Value value = write(s.*field.member, mode);
        if (mode == Mode::spec &&
            value == write(defaults<S>().*field.member, mode)) {
            return;
        }
        obj.set(field.key, std::move(value));
    });
    return obj;
}

template <HasFields S>
Value write(const S& s, Mode mode) {
    return write_fields(s, mode);
}

/// Keys of `v` that `known` refuses fail the request: a typo ("t_sop")
/// must not silently run the default.
template <typename Known>
void reject_unknown_keys(const Value& v, Key what, Known known) {
    for (const auto& entry : v.as_object()) {
        if (!known(entry.first)) {
            throw ServiceError("unknown key \"" + entry.first + "\" in " +
                               std::string(what));
        }
    }
}

/// Read the table's keys; a missing key keeps its default in spec mode
/// and throws in record mode.
template <HasFields S>
void read_fields(const Value& v, S& out, Mode mode) {
    for_each_field<S>([&](const auto& field) {
        const Value* p =
            mode == Mode::record ? &v.at(field.key) : v.find(field.key);
        if (p != nullptr) {
            read(*p, out.*field.member, mode, field.key);
        }
    });
}

template <HasFields S>
void read(const Value& v, S& out, Mode mode, Key key) {
    reject_unknown_keys(v, key, is_field_of<S>);
    read_fields(v, out, mode);
}

template <HasFields S>
S decode(const Value& v, Mode mode, Key key) {
    S out{};
    read(v, out, mode, key);
    return out;
}

// ---- hand-written members --------------------------------------------

/// A decoded time axis must be finite (record mode reads null as NaN, and
/// `NaN <= x` is false) and strictly increasing.
void check_time_axis(const std::vector<double>& t, Key key) {
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!std::isfinite(t[i]) || (i > 0 && !(t[i] > t[i - 1]))) {
            throw ServiceError("\"" + std::string(key) +
                               "\": \"t\" is not finite and strictly "
                               "increasing at sample " +
                               std::to_string(i));
        }
    }
}

/// `label`'s row of values `v` must match its axis of `t_size` times.
void check_row(const std::string& label, const std::vector<double>& v,
               std::size_t t_size, Key key) {
    if (v.size() != t_size) {
        throw ServiceError("\"" + std::string(key) + "\": \"" + label +
                           "\" has " + std::to_string(v.size()) +
                           " values on " + std::to_string(t_size) +
                           " times");
    }
}

Value write(const analysis::Waveform& w, Mode mode) {
    return write(WaveDoc{w.label(), w.time(), w.value()}, mode);
}

void read(const Value& v, analysis::Waveform& out, Mode mode, Key key) {
    WaveDoc doc = decode<WaveDoc>(v, mode, key);
    check_time_axis(doc.t, key);
    check_row(doc.label, doc.v, doc.t.size(), key);
    out = analysis::Waveform(std::move(doc.label), std::move(doc.t),
                             std::move(doc.v));
}

/// Equal down to the bits, so the one axis sent is every wave's own.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return std::ranges::equal(a, b, [](double x, double y) {
        return std::bit_cast<std::uint64_t>(x) ==
               std::bit_cast<std::uint64_t>(y);
    });
}

Value write(const std::vector<analysis::Waveform>& waves, Mode mode) {
    WavesDoc doc;
    if (!waves.empty()) {
        doc.t = waves.front().time();
    }
    doc.labels.reserve(waves.size());
    doc.v.reserve(waves.size());
    for (const analysis::Waveform& w : waves) {
        // Engine results share one axis object: nothing to compare.
        if (&w.time() != &waves.front().time() &&
            !same_bits(w.time(), doc.t)) {
            throw ServiceError("waveform \"" + w.label() +
                               "\" is not on the time axis of \"" +
                               waves.front().label() +
                               "\": a waveform set shares one axis");
        }
        doc.labels.push_back(w.label());
        doc.v.push_back(w.value());
    }
    return write(doc, mode);
}

void read(const Value& v, std::vector<analysis::Waveform>& out, Mode mode,
          Key key) {
    WavesDoc doc = decode<WavesDoc>(v, mode, key);
    if (doc.labels.size() != doc.v.size()) {
        throw ServiceError("\"" + std::string(key) + "\": " +
                           std::to_string(doc.labels.size()) +
                           " labels but " + std::to_string(doc.v.size()) +
                           " rows in \"v\"");
    }
    check_time_axis(doc.t, key);
    for (std::size_t i = 0; i < doc.labels.size(); ++i) {
        check_row(doc.labels[i], doc.v[i], doc.t.size(), key);
    }
    out = analysis::Waveform::on_shared_axis(
        std::move(doc.t), std::move(doc.labels), std::move(doc.v));
}

Value write(const stochastic::EnsembleStats& s, Mode mode) {
    const stochastic::RunningStats& peak = s.peak_stats();
    return write(StatsDoc{s.paths(), s.points(),
                          PeakDoc{peak.count(), peak.mean(), peak.stddev(),
                                  peak.min(), peak.max()},
                          s.peaks()},
                 mode);
}

void read(const Value& v, stochastic::EnsembleStats& out, Mode mode,
          Key key) {
    out = stochastic::EnsembleStats(
        static_cast<std::size_t>(decode<StatsDoc>(v, mode, key).points));
}

/// McEnsembleState: its table's fields, plus per_point as one array per
/// McStatState field with one entry per grid point — compact, and every
/// double round-trips exactly.
Value write(const engines::McEnsembleState& s, Mode mode) {
    Value obj = write_fields(s, mode);
    for_each_field<engines::McStatState>([&](const auto& field) {
        Array column;
        column.reserve(s.per_point.size());
        for (const engines::McStatState& p : s.per_point) {
            column.push_back(write(p.*field.member, mode));
        }
        obj.set(field.key, Value(std::move(column)));
    });
    return obj;
}

void read(const Value& v, engines::McEnsembleState& out, Mode mode,
          Key key) {
    reject_unknown_keys(v, key, [](Key k) {
        return is_field_of<engines::McEnsembleState>(k) ||
               is_field_of<engines::McStatState>(k);
    });
    read_fields(v, out, mode);
    bool sized = false;
    for_each_field<engines::McStatState>([&](const auto& field) {
        const Array& column = v.at(field.key).as_array();
        if (!sized) {
            out.per_point.assign(column.size(), engines::McStatState{});
            sized = true;
        } else if (column.size() != out.per_point.size()) {
            throw ServiceError("ensemble state arrays disagree in length");
        }
        for (std::size_t i = 0; i < column.size(); ++i) {
            read(column[i], out.per_point[i].*field.member, mode, field.key);
        }
    });
}

/// MonteCarloSpec::resume: a checkpoint record inside a spec.
Value write(const std::shared_ptr<const engines::McCheckpoint>& cp, Mode) {
    return cp ? checkpoint_to_json(*cp) : Value();
}

void read(const Value& v, std::shared_ptr<const engines::McCheckpoint>& out,
          Mode, Key) {
    out = std::make_shared<const engines::McCheckpoint>(
        checkpoint_from_json(v));
}

/// Per-trial noise realizations are Monte-Carlo engine state, never wire
/// state: encoding a spec that carries them throws.
template <typename S>
Value write_without_noise(const S& s, Mode mode, const char* who) {
    if (!s.noise.empty()) {
        throw ServiceError(std::string(who) +
                           "::noise (per-trial noise realizations) is "
                           "engine-internal state and cannot be serialized");
    }
    return write_fields(s, mode);
}
Value write(const TranSpec& s, Mode mode) {
    return write_without_noise(s, mode, "TranSpec");
}
Value write(const engines::SwecTranOptions& s, Mode mode) {
    return write_without_noise(s, mode, "SwecTranOptions");
}

/// A result's payload is read into the alternative its header's kind
/// names, so the header is listed, and read, first.
void read(const Value& v, AnalysisResult& out, Mode mode, Key key) {
    reject_unknown_keys(v, key, is_field_of<AnalysisResult>);
    for_each_field<AnalysisResult>([&](const auto& field) {
        auto& member = out.*field.member;
        if constexpr (std::is_same_v<std::decay_t<decltype(member)>,
                                     AnalysisResult::Payload>) {
            member = alternative<AnalysisResult::Payload>(
                static_cast<std::size_t>(out.header.kind));
        }
        read(v.at(field.key), member, mode, field.key);
    });
}

void require_one_source(const CircuitSource& s) {
    if (s.builtin.empty() == s.deck.empty()) {
        throw ServiceError("circuit source wants exactly one of "
                           "\"builtin\" or \"deck\"");
    }
}

/// FNV-1a (the signature convention the solver caches use).
std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace

// ---- public API --------------------------------------------------------

Value spec_to_json(const AnalysisSpec& spec) {
    Value obj = write(spec, Mode::spec);
    obj.set(k_kind, name_of(static_cast<AnalysisKind>(spec.index())));
    return obj;
}

AnalysisSpec spec_from_json(const Value& v) {
    AnalysisKind kind{};
    read(v.at(k_kind), kind, Mode::spec, k_kind);
    AnalysisSpec spec =
        alternative<AnalysisSpec>(static_cast<std::size_t>(kind));
    std::visit(
        [&](auto& s) {
            using S = std::decay_t<decltype(s)>;
            reject_unknown_keys(v, std::string(name_of(kind)) + " spec",
                                [](Key key) {
                                    return key == k_kind ||
                                           is_field_of<S>(key);
                                });
            read_fields(v, s, Mode::spec);
        },
        spec);
    return spec;
}

Value result_to_json(const AnalysisResult& result) {
    return write(result, Mode::record);
}

AnalysisResult result_from_json(const Value& v) {
    return decode<AnalysisResult>(v, Mode::record, "analysis result");
}

Value checkpoint_to_json(const engines::McCheckpoint& cp) {
    return write(cp, Mode::record);
}

engines::McCheckpoint checkpoint_from_json(const Value& v) {
    return decode<engines::McCheckpoint>(v, Mode::record, "mc checkpoint");
}

// ---- CircuitSource ----------------------------------------------------

std::string CircuitSource::canonical() const {
    require_one_source(*this);
    std::string text =
        builtin.empty() ? "deck\n" + deck : "builtin:" + builtin;
    // Sorted so two clients listing the same injections in a different
    // order still share a session.
    std::vector<std::string> entries;
    entries.reserve(noise.size());
    for (const NoiseInjection& n : noise) {
        entries.push_back(n.node + ":" + json::number_to_string(n.sigma));
    }
    std::sort(entries.begin(), entries.end());
    for (const std::string& e : entries) {
        text += "\n+noise:" + e;
    }
    return text;
}

std::uint64_t CircuitSource::signature() const {
    return fnv1a(canonical());
}

Circuit CircuitSource::build() const {
    require_one_source(*this);
    Circuit ckt = builtin.empty() ? parse_deck(deck).circuit
                                  : refckt::builtin_circuit(builtin);
    int index = 0;
    for (const NoiseInjection& n : noise) {
        if (!(n.sigma > 0.0)) {
            throw ServiceError("noise injection on \"" + n.node +
                               "\" wants sigma > 0");
        }
        // find_node throws NetlistError on an unknown node.
        ckt.add<NoiseCurrentSource>("NOISEW" + std::to_string(++index),
                                    k_ground, ckt.find_node(n.node),
                                    n.sigma);
    }
    return ckt;
}

Value CircuitSource::to_json() const {
    return write(*this, Mode::spec);
}

CircuitSource CircuitSource::from_json(const Value& v) {
    CircuitSource src =
        decode<CircuitSource>(v, Mode::spec, "circuit source");
    require_one_source(src);
    return src;
}

} // namespace nanosim::service::wire
