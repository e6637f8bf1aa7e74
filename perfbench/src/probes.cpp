// nanosim perfbench — per-layer probes of the mna and linalg layers.
//
// Each probe times repeated calls of one public function on the
// workload's own circuit at one state: SystemCache construction (the
// symbolic analysis), eval_chords, begin + restamp_swec, the ordering
// candidates SystemCache scores at freeze time, and a SparseLu refactor
// and solve of the SWEC step matrix under the ordering the cache chose.
// Every batch of calls is one span; per-call figures are the median over
// batches.
#include <algorithm>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_lu.hpp"
#include "mna/system_cache.hpp"
#include "util/flops.hpp"

namespace perfbench {
namespace {

using nanosim::linalg::Ordering;
using nanosim::linalg::Permutation;

/// Batch size that makes one batch take roughly `target_s`.
template <typename F>
int calibrate(double target_s, F&& call) {
    const auto t0 = Clock::now();
    call();
    const double once = std::max(seconds_since(t0), 1e-8);
    return std::clamp(static_cast<int>(target_s / once), 1, 1 << 20);
}

} // namespace

LayerProbe probe_layers(const nanosim::mna::MnaAssembler& assembler,
                        std::span<const double> x, double h,
                        double budget_s) {
    namespace mna = nanosim::mna;
    namespace linalg = nanosim::linalg;
    LayerProbe p;
    const double slice = budget_s / 5.0;

    // mna: symbolic analysis = building a SystemCache.
    std::vector<double> analyze;
    std::unique_ptr<mna::SystemCache> cache;
    for (int i = 0; i < 3; ++i) {
        const auto t0 = Clock::now();
        {
            const Span span("mna", "SystemCache()");
            cache = std::make_unique<mna::SystemCache>(assembler);
        }
        analyze.push_back(seconds_since(t0));
    }
    p.analyze_s = median(analyze);

    const std::size_t n = static_cast<std::size_t>(assembler.unknowns());
    const std::size_t nl = assembler.nonlinear_devices().size();
    std::vector<double> dvdt(n, 0.0);
    std::vector<double> geq(nl, 0.0);
    std::vector<double> geq_rate(nl, 0.0);
    auto eval = [&] { cache->eval_chords(x, dvdt, true, geq, geq_rate); };
    p.eval_us = per_call_us("mna", "eval_chords", calibrate(1e-3, eval),
                            slice, eval);

    nanosim::linalg::Vector rhs = cache->rhs(0.0);
    nanosim::linalg::Vector b = rhs;
    auto stamp = [&] {
        b = rhs;
        (void)cache->begin(1.0 / h, b);
        cache->restamp_swec(geq);
    };
    p.stamp_us = per_call_us("mna", "begin+restamp_swec",
                             calibrate(1e-3, stamp), slice, stamp);
    (void)cache->solve(b); // closes the step; fills the factor stats
    p.pattern_nnz = static_cast<double>(cache->stats().pattern_nnz);

    // linalg: the SWEC step matrix at this state, ordered as the cache
    // chose, factored once and then refactored / solved repeatedly.
    linalg::Triplets a = assembler.static_g();
    assembler.add_time_varying_stamps(0.0, a);
    assembler.add_swec_stamps(geq, a);
    for (const auto& e : assembler.c_triplets().entries()) {
        a.add(e.row, e.col, e.value / h);
    }
    const linalg::CscForm csc = linalg::compress_columns(a);
    Permutation rcm;
    Permutation amd;
    auto order = [&] {
        rcm = linalg::reverse_cuthill_mckee(n, csc.col_ptr, csc.row_idx);
        amd = linalg::min_degree_ordering(n, csc.col_ptr, csc.row_idx);
        (void)linalg::predicted_fill(n, csc.col_ptr, csc.row_idx);
        (void)linalg::predicted_fill(n, csc.col_ptr, csc.row_idx, rcm);
        (void)linalg::predicted_fill(n, csc.col_ptr, csc.row_idx, amd);
    };
    p.ordering_s = 1e-6 * per_call_us("linalg", "ordering", 1, slice, order);

    const Ordering chosen = cache->stats().ordering;
    const Permutation perm = chosen == Ordering::rcm          ? rcm
                             : chosen == Ordering::min_degree ? amd
                                                              : Permutation{};
    linalg::SparseLu lu(n, csc.col_ptr, csc.row_idx, csc.values, perm);
    p.factor_nnz = static_cast<double>(lu.nnz_factors());
    {
        nanosim::FlopScope scope;
        (void)lu.refactor(csc.values);
        p.refactor_flops = static_cast<double>(scope.counter().lu_factor);
    }
    {
        nanosim::FlopScope scope;
        (void)lu.solve(rhs);
        p.solve_flops = static_cast<double>(scope.counter().lu_solve);
    }
    auto refactor = [&] { (void)lu.refactor(csc.values); };
    p.refactor_us = per_call_us("linalg", "SparseLu::refactor",
                                calibrate(1e-3, refactor), slice, refactor);
    linalg::Vector sol;
    auto solve = [&] { sol = lu.solve(rhs); };
    p.solve_us = per_call_us("linalg", "SparseLu::solve",
                             calibrate(1e-3, solve), slice, solve);
    return p;
}

} // namespace perfbench
