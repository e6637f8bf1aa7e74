// nanosim perfbench — service_mix: an in-process service::Server on
// loopback driven by a closed loop of C clients.  Each client submits a
// short job (subscribed), waits for its terminal event and fetches the
// result before submitting the next.
//
// Why: jobs are short, so the per-job service cost (connection, queue,
// event stream, result encoding) dominates the engine time.  Most jobs hit
// one of two shared builtin circuits (the registry dedups their session);
// a fixed share are registry misses on distinct generated decks, which
// pay a parse, a session build and a full symbolic analysis with
// ordering — linalg work of a different shape than mesh_mc's refactors.
//
// The shared jobs are the repository's own service traffic: the loopback
// smoke test of the CI workflow submits one Monte-Carlo job (mesh:12x12,
// noise n6_6:1e-9, 16 trials, t_stop 2 ns, noise_dt 0.1 ns) and four
// 50 ns transients on mesh:12x12, and a block here holds exactly those
// five.  The sixth job of a block, an op on a distinct deck, is an
// assumption: nothing in the repository says how often a service sees a
// new circuit (README "Workloads" gives the effect of dropping it).
//
// The seed fixes the job sequence: the order of the jobs, the MC seeds
// and the distinct decks.  Every fetched result must be bit-identical to
// an in-process SimSession::run of the same spec on the same circuit.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/sim_session.hpp"
#include "netlist/parser.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"

namespace perfbench {
namespace {

using namespace nanosim;
namespace json = service::json;
namespace wire = service::wire;

constexpr const char* k_shared_circuit = "mesh:12x12";
constexpr const char* k_noise_node = "n6_6";
constexpr int k_setup_reps = 9;
constexpr int k_mc_seeds = 4;   ///< distinct MC seeds among the mc jobs

/// One block of k_block jobs holds exactly this mix, in a seeded order,
/// so every seed runs the same proportions.
enum class Kind { tran_shared, mc_shared, op_miss };
constexpr int k_block = 6;
constexpr int k_block_mix[] = {4, 1, 1}; // per Kind, sums to k_block

struct Job {
    Kind kind = Kind::tran_shared;
    wire::CircuitSource source;
    AnalysisSpec spec;
    std::string ref_key; ///< jobs with equal keys have identical results
};

std::uint64_t mix64(std::uint64_t z) { // splitmix64 finaliser
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// A distinct RTD ladder deck (70..110 stages, so the sparse path with a
/// fill-reducing ordering runs) for registry miss `index`.
std::string miss_deck(std::uint64_t seed, std::uint64_t index) {
    const std::uint64_t h = mix64(seed * 1000003ULL + index);
    const int stages = 70 + static_cast<int>(h % 41);
    const double r = 80.0 + static_cast<double>((h >> 16) % 40001) / 1000.0;
    std::ostringstream d;
    d << "* perfbench service_mix miss " << index << '\n'
      << "V1 in 0 DC 2\n";
    std::string prev = "in";
    for (int i = 1; i <= stages; ++i) {
        const std::string node = "n" + std::to_string(i);
        d << "R" << i << ' ' << prev << ' ' << node << ' ' << r << '\n'
          << "RTD" << i << ' ' << node << " 0\n"
          << "C" << i << ' ' << node << " 0 100p\n";
        prev = node;
    }
    d << ".end\n";
    return d.str();
}

/// Job `index` of the seeded sequence.
Job make_job(std::uint64_t seed, std::uint64_t index) {
    // The block's kinds, shuffled with a key of (seed, block).
    std::vector<Kind> kinds;
    for (int k = 0; k < 3; ++k) {
        kinds.insert(kinds.end(), k_block_mix[k], static_cast<Kind>(k));
    }
    const std::uint64_t block = index / k_block;
    std::uint64_t state = mix64(seed ^ mix64(block));
    for (std::size_t i = kinds.size() - 1; i > 0; --i) {
        state = mix64(state);
        std::swap(kinds[i], kinds[state % (i + 1)]);
    }
    Job job;
    job.kind = kinds[index % k_block];
    switch (job.kind) {
    case Kind::tran_shared: {
        job.source.builtin = k_shared_circuit;
        TranSpec t;
        t.t_stop = 50e-9;
        job.spec = t;
        job.ref_key = "tran_shared";
        break;
    }
    case Kind::mc_shared: {
        job.source.builtin = k_shared_circuit;
        job.source.noise.push_back(wire::NoiseInjection{k_noise_node, 1e-9});
        MonteCarloSpec mc;
        mc.node = k_noise_node;
        mc.t_stop = 2e-9;
        mc.runs = 16;
        mc.noise_dt = 1e-10;
        mc.seed = seed * 16 + mix64(index) % k_mc_seeds;
        job.spec = mc;
        job.ref_key = "mc_shared:" + std::to_string(mc.seed);
        break;
    }
    case Kind::op_miss:
        job.source.deck = miss_deck(seed, index);
        job.spec = OpSpec{};
        job.ref_key = "miss:" + std::to_string(index);
        break;
    }
    return job;
}

/// FNV-1a over the bytes of every numeric output of a result — equal
/// digests mean bit-identical outputs.
class Digest {
public:
    void add(const std::vector<double>& v) {
        for (const double d : v) {
            unsigned char b[sizeof d];
            std::memcpy(b, &d, sizeof d);
            for (const unsigned char c : b) {
                h_ = (h_ ^ c) * 0x100000001B3ULL;
            }
        }
        h_ = (h_ ^ v.size()) * 0x100000001B3ULL;
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::uint64_t digest(const AnalysisResult& r) {
    Digest d;
    switch (r.header.kind) {
    case AnalysisKind::op:
        d.add(r.dc().x);
        break;
    case AnalysisKind::tran:
        for (const analysis::Waveform& w : r.tran().node_waves) {
            d.add(w.time());
            d.add(w.value());
        }
        break;
    case AnalysisKind::monte_carlo: {
        const engines::McResult& mc = r.monte_carlo();
        d.add(mc.mean.time());
        d.add(mc.mean.value());
        d.add(mc.stddev.value());
        d.add(std::vector<double>(mc.trial_steps.begin(), mc.trial_steps.end()));
        break;
    }
    default:
        throw std::logic_error("service_mix: unexpected result kind");
    }
    return d.value();
}

const FlopCounter& flops_of(const AnalysisResult& r) {
    return std::visit([](const auto& p) -> const FlopCounter& { return p.flops; },
                      r.payload);
}

/// What the benchmark keeps of one finished job.
struct JobRecord {
    std::uint64_t index = 0;
    bool ok = false;
    bool rejected = false;
    std::uint64_t digest = 0;
    double rtt_s = 0.0;
    double submit_ack_s = 0.0;
    double start_wait_s = 0.0;
    double engine_s = 0.0;
    double fetch_s = 0.0;
    double result_bytes = 0.0;
    obs::RunReport report;
    FlopCounter flops;
};

/// Submit `job` (request id `req` in the trace), wait for its terminal
/// event and fetch its result.
JobRecord run_job(service::Client& client, const Job& job, std::uint64_t req) {
    const Span span("service", "job", req);
    JobRecord rec;

    json::Value submit{json::Object{}};
    submit.set("op", "submit");
    submit.set("circuit", job.source.to_json());
    submit.set("spec", wire::spec_to_json(job.spec));
    submit.set("subscribe", true);

    const auto t0 = Clock::now();
    double t_started = -1.0;
    std::string terminal;
    // One job per connection at a time: every event is this job's.
    const auto on_event = [&](const json::Value& e) {
        const std::string& name = e.at("event").as_string();
        if (name == "started") {
            t_started = seconds_since(t0);
        } else if (name == "done" || name == "failed" || name == "cancelled" ||
                   name == "expired") {
            terminal = name;
        }
    };
    json::Value ack;
    {
        const Span s("service", "Client::request(submit)", req);
        ack = client.request(submit, on_event);
    }
    const double t_ack = seconds_since(t0);
    if (!ack.at("ok").as_bool()) {
        rec.rejected = true;
        return rec;
    }
    const std::uint64_t id = ack.at("id").as_uint();
    if (terminal.empty()) {
        const Span s("service", "Client::wait_for_terminal", req);
        terminal = client.wait_for_terminal(id, on_event).at("event").as_string();
    }
    const double t_done = seconds_since(t0);
    if (terminal != "done") {
        return rec;
    }
    json::Value fetch{json::Object{}};
    fetch.set("op", "result");
    fetch.set("id", json::Value(static_cast<double>(id)));
    json::Value res;
    {
        const Span s("service", "Client::request(result)", req);
        res = client.request(fetch);
    }
    rec.rtt_s = seconds_since(t0);
    if (!res.at("ok").as_bool()) {
        return rec;
    }
    AnalysisResult result;
    {
        const Span s("wire", "result_from_json", req);
        result = wire::result_from_json(res.at("result"));
    }
    if (tracing()) {
        rec.result_bytes = static_cast<double>(res.dump().size());
    }
    rec.ok = !result.header.aborted;
    rec.digest = digest(result);
    rec.submit_ack_s = t_ack;
    rec.start_wait_s = t_started < 0.0 ? 0.0 : std::max(0.0, t_started - t_ack);
    rec.engine_s = result.header.elapsed_s;
    rec.fetch_s = rec.rtt_s - t_done;
    rec.report = result.report;
    rec.flops = flops_of(result);
    return rec;
}

/// A connected server with C clients.
struct Rig {
    std::unique_ptr<service::Server> server;
    std::vector<std::unique_ptr<service::Client>> clients;

    void stop() {
        clients.clear();
        if (server != nullptr) {
            server->stop(true);
            server->wait();
            server.reset();
        }
    }
};

/// The shared circuits' sessions are built by one op job each: set-up
/// ends with the registry warm, as a long-running service would be.
void warm_registry(service::Client& client) {
    for (const bool noisy : {false, true}) {
        Job job;
        job.source.builtin = k_shared_circuit;
        if (noisy) {
            job.source.noise.push_back(wire::NoiseInjection{k_noise_node, 1e-9});
        }
        if (!run_job(client, job, 0).ok) {
            throw std::runtime_error("service_mix: warm-up job failed");
        }
    }
}

Rig start_rig(const Config& cfg) {
    Rig rig;
    service::ServerOptions so;
    so.workers = cfg.server_workers;
    {
        const Span s("service", "Server::start");
        rig.server = std::make_unique<service::Server>(so);
        rig.server->start();
    }
    service::ClientOptions co;
    co.read_timeout_s = 60.0; // a wedged server fails the run, not hangs it
    for (int c = 0; c < cfg.clients; ++c) {
        const Span s("service", "Client()");
        rig.clients.push_back(std::make_unique<service::Client>(
            "127.0.0.1", rig.server->port(), co));
    }
    warm_registry(*rig.clients.front());
    return rig;
}

/// Closed loop for `seconds`: each client runs jobs back to back, taking
/// the next index of the seeded sequence.
std::vector<JobRecord> closed_loop(Rig& rig, const Config& cfg,
                                   std::atomic<std::uint64_t>& next,
                                   double seconds, double& wall_s) {
    std::mutex mutex; // guards records and error
    std::vector<JobRecord> records;
    std::string error;
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (auto& client : rig.clients) {
        threads.emplace_back([&, c = client.get()] {
            try {
                while (seconds_since(t0) < seconds) {
                    const std::uint64_t index = next.fetch_add(1);
                    JobRecord r =
                        run_job(*c, make_job(cfg.seed, index), index + 1);
                    r.index = index;
                    const std::lock_guard<std::mutex> lock(mutex);
                    records.push_back(std::move(r));
                }
            } catch (const std::exception& e) {
                const std::lock_guard<std::mutex> lock(mutex);
                error = e.what();
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    wall_s = seconds_since(t0);
    if (!error.empty()) {
        throw std::runtime_error("service_mix: client failed: " + error);
    }
    return records;
}

} // namespace

Outcome run_service_mix(const Config& cfg) {
    Outcome out;
    set_tracing(cfg.trace);

    std::vector<double> setup;
    Rig rig;
    for (int k = 0; k < k_setup_reps; ++k) {
        rig.stop();
        const auto t0 = Clock::now();
        {
            const Span span("perfbench", "setup");
            rig = start_rig(cfg);
        }
        setup.push_back(seconds_since(t0));
    }

    std::atomic<std::uint64_t> next{0};
    double untraced_rtt = 0.0;
    std::vector<JobRecord> untraced;
    if (cfg.trace) {
        set_tracing(false);
        double wall = 0.0;
        untraced =
            closed_loop(rig, cfg, next, cfg.seconds * k_untraced_share, wall);
        std::vector<double> rtt;
        for (const JobRecord& r : untraced) {
            rtt.push_back(r.rtt_s);
        }
        untraced_rtt = median(rtt);
        set_tracing(true);
        obs::set_metrics_enabled(true);
        obs::metrics().reset();
    }
    const double window =
        cfg.trace ? cfg.seconds * (1.0 - k_untraced_share) : cfg.seconds;
    double loop_wall = 0.0;
    const double c0 = cpu_seconds();
    const std::vector<JobRecord> records =
        closed_loop(rig, cfg, next, window, loop_wall);
    const double loop_cpu = cpu_seconds() - c0;
    const double sessions_created =
        static_cast<double>(obs::metrics().counter("service.sessions_created").value());
    const double dedup_hits = static_cast<double>(
        obs::metrics().counter("service.session_dedup_hits").value());
    obs::set_metrics_enabled(false);
    rig.stop();

    // Checks: every result against an in-process run of the same job.
    std::map<std::string, std::uint64_t> refs; // ref_key -> result digest
    std::map<std::string, std::unique_ptr<SimSession>> shared_sessions;
    std::unique_ptr<AnalysisResult> tran_ref;
    auto reference = [&](const Job& job) {
        const auto it = refs.find(job.ref_key);
        if (it != refs.end()) {
            return it->second;
        }
        const bool miss = job.kind == Kind::op_miss;
        std::unique_ptr<SimSession> own;
        SimSession* session = nullptr;
        const std::string canon = job.source.canonical();
        if (miss) {
            Circuit circuit;
            {
                const Span s("netlist", "parse_deck");
                circuit = parse_deck(job.source.deck).circuit;
            }
            const Span s("core", "SimSession()");
            own = std::make_unique<SimSession>(std::move(circuit));
            session = own.get();
        } else {
            auto& slot = shared_sessions[canon];
            if (slot == nullptr) {
                Circuit circuit = job.source.build();
                const Span s("core", "SimSession()");
                slot = std::make_unique<SimSession>(std::move(circuit));
            }
            session = slot.get();
        }
        AnalysisResult r;
        {
            const Span s("core", "SimSession::run(reference)");
            r = session->run(job.spec);
        }
        if (job.kind == Kind::tran_shared) {
            tran_ref = std::make_unique<AnalysisResult>(r);
        }
        return refs[job.ref_key] = digest(r);
    };

    std::vector<double> rtt;
    std::vector<double> engine;
    double rejected = 0.0;
    std::uint64_t misses = 0;
    // Jobs of the untraced window of a traced run are checked too, but
    // only the measured window's jobs feed the metrics.
    std::vector<std::pair<const JobRecord*, bool>> checked;
    for (const JobRecord& r : untraced) {
        checked.emplace_back(&r, false);
    }
    for (const JobRecord& r : records) {
        checked.emplace_back(&r, true);
    }
    for (const auto& [rp, timed] : checked) {
        const JobRecord& r = *rp;
        ++out.attempted;
        const Job job = make_job(cfg.seed, r.index);
        misses += timed && job.kind == Kind::op_miss ? 1 : 0;
        if (r.rejected) {
            rejected += 1.0;
            out.fail_check("service_mix: job " + std::to_string(r.index) +
                           " rejected");
            continue;
        }
        if (!r.ok) {
            out.fail_check("service_mix: job " + std::to_string(r.index) +
                           " did not complete");
            continue;
        }
        if (r.digest != reference(job)) {
            out.fail_check("service_mix: job " + std::to_string(r.index) +
                           " (" + job.ref_key +
                           ") differs from the in-process run");
        }
        if (timed) {
            rtt.push_back(r.rtt_s);
            engine.push_back(r.engine_s);
        }
    }
    if (rtt.empty()) {
        out.fail_check("service_mix: no job completed");
        rtt.push_back(0.0);
    }

    const double jobs = static_cast<double>(records.size());
    out.e2e.set("setup_s", median(setup), "s");
    out.e2e.set("wall_s", quantile(rtt, 0.5), "s");
    // Each job runs single-threaded on one server worker: its engine time
    // (the result header's elapsed_s) is the job without the service path.
    out.e2e.set("wall_1t_s", median(engine), "s");
    out.e2e.set("cpu_s", loop_cpu / std::max(jobs, 1.0), "s");
    out.extra.set("rtt_p50_s", quantile(rtt, 0.5), "s");
    out.extra.set("rtt_p90_s", quantile(rtt, 0.9), "s");
    out.extra.set("rtt_samples", static_cast<double>(rtt.size()), "count");
    out.extra.set("rtt_samples_beyond_p90",
                  static_cast<double>(rtt.size()) * 0.1, "count");
    out.extra.set("jobs_per_s", jobs / loop_wall, "1/s");
    out.extra.set("registry_misses", static_cast<double>(misses), "count");

    if (cfg.trace) {
        Metrics& l = out.layer;
        std::vector<double> ack, start, overhead, fetch, bytes;
        obs::RunReport total; // summed over completed jobs
        FlopCounter flops;
        for (const JobRecord& r : records) {
            if (!r.ok) {
                continue;
            }
            ack.push_back(r.submit_ack_s);
            start.push_back(r.start_wait_s);
            overhead.push_back(r.rtt_s - r.engine_s);
            fetch.push_back(r.fetch_s);
            bytes.push_back(r.result_bytes);
            const obs::RunReport& rep = r.report;
            total.elapsed_s += rep.elapsed_s;
            total.eval_s += rep.eval_s;
            total.factor_s += rep.factor_s;
            total.steps_accepted += rep.steps_accepted;
            total.steps_rejected += rep.steps_rejected;
            total.bounds.device += rep.bounds.device;
            total.bounds.node += rep.bounds.node;
            total.bounds.growth += rep.bounds.growth;
            total.bounds.dt_max += rep.bounds.dt_max;
            total.bounds.breakpoint += rep.bounds.breakpoint;
            total.bounds.horizon += rep.bounds.horizon;
            total.rescues += rep.rescues;
            flops += r.flops;
        }
        l.set("netlist.parse_s", median(span_durations("netlist", "parse_deck")),
              "s");
        l.set("core.session_build_s",
              median(span_durations("core", "SimSession()")), "s");
        // Work counts are per completed job (mean over the mix).
        report_run(total, flops, std::max<double>(1.0, ack.size()), l);
        l.set("engines.worker_util",
              loop_cpu / (cfg.server_workers * loop_wall), "ratio");
        l.set("service.connect_s", median(span_durations("service", "Client()")),
              "s");
        l.set("service.submit_ack_s", median(ack), "s");
        l.set("service.start_wait_s", median(start), "s");
        l.set("service.engine_s", median(engine), "s");
        l.set("service.overhead_s", median(overhead), "s");
        l.set("service.fetch_s", median(fetch), "s");
        l.set("service.result_bytes", median(bytes), "bytes");
        l.set("service.sessions_created", sessions_created, "count");
        l.set("service.dedup_hits", dedup_hits, "count");
        l.set("service.rejected", rejected, "count");
        l.set("obs.trace_overhead_frac",
              quantile(rtt, 0.5) / untraced_rtt - 1.0, "ratio");

        // wire: encode / decode of the shared transient's result.
        if (tran_ref != nullptr) {
            std::string text = wire::result_to_json(*tran_ref).dump();
            l.set("service.wire_encode_us",
                  per_call_us("wire", "result_to_json+dump", 1, 0.25, [&] {
                      text = wire::result_to_json(*tran_ref).dump();
                  }),
                  "us");
            l.set("service.wire_decode_us",
                  per_call_us("wire", "parse+result_from_json", 1, 0.25, [&] {
                      (void)wire::result_from_json(json::parse(text));
                  }),
                  "us");
        }

        // mna / linalg on the shared circuit at its operating point.
        wire::CircuitSource shared;
        shared.builtin = k_shared_circuit;
        SimSession session(shared.build());
        const AnalysisResult op = session.run(OpSpec{});
        report_probe(probe_layers(session.assembler(), op.dc().x, 1e-10, 2.0),
                     l);
    }
    set_tracing(false);
    return out;
}

} // namespace perfbench
