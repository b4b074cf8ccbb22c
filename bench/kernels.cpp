// Hot-path kernel microbenchmarks: the four inner loops the CSR/arena
// flattening targets, measured in isolation so a regression in one kernel
// is visible without re-profiling the whole flow.
//
//   spmv           the two-lane SpMV with its p.Ap fold
//                  (SparseMatrix::multiply_fold) over the subject graph's
//                  placement Laplacian, whose rows run from 2 to ~25
//                  entries — the matrix the inchoate placement solves
//   cg_pair        one level-0 lockstep solve of both axes against that
//                  Laplacian (QuadraticPlacer::place_quadratic); its items
//                  column is the CG iterations, both axes summed
//   matcher_walk   pattern matching at every gate node of a decomposed
//                  subject graph through the frozen SubjectTopology, with
//                  the pooled in-place matches_at overload
//   rect_assembly  true-fanout rectangle assembly: per node, gather fanout
//                  positions from the CSR view, bound them, then take the
//                  Manhattan median of the rectangle set (the Lily wire
//                  model's geometric core)
//   dp_scan        the full Lily DP candidate scan (LilyMapper::map_checked
//                  on the same subject graph, single thread)
//   genlib_parse   read_genlib_checked(msu_big_genlib()): equation parsing plus
//                  NAND2/INV pattern enumeration for every gate
//   maze_route     route_global on a fixed, congested (scattered)
//                  placement of the same subject graph: L-shape passes
//                  plus the goal-bounded maze detours; its items column
//                  is the heap entries the maze searches popped per sweep
//
// Each kernel reports best-of-rep wall milliseconds per sweep plus the
// heap-allocation delta of a *warmed* sweep — the pooled-scratch design
// makes the steady-state matcher and rectangle sweeps allocation-free, and
// this harness is where that claim is checked numerically. genlib_parse and
// maze_route are report-only and exempt from that gate: every parse builds a
// fresh Library and every route a fresh RouteResult, so their allocation
// counts are per-call costs, not warm-state churn.
//
// Usage: kernels [--quick] [--out=BENCH_kernels.json]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "library/standard_cells.hpp"
#include "lily/lily_mapper.hpp"
#include "match/matcher.hpp"
#include "place/netlist_adapters.hpp"
#include "place/placement.hpp"
#include "route/global_router.hpp"
#include "subject/decompose.hpp"
#include "util/alloc_stats.hpp"
#include "util/geometry.hpp"
#include "util/sparse.hpp"

using namespace lily;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct KernelReport {
    std::string name;
    std::size_t work_items = 0;   // rows, nodes, ... per sweep
    double best_ms = 0.0;         // best-of-reps wall time per sweep
    std::uint64_t warm_allocs = 0;  // operator-new calls in one warmed sweep
    double checksum = 0.0;        // defeats DCE; also a change detector
};

/// Time `sweep()` best-of-`reps` after one untimed warmup, and capture the
/// allocation count of the final (fully warmed) sweep.
template <typename F>
KernelReport run_kernel(const std::string& name, std::size_t work_items, int reps,
                        F&& sweep) {
    KernelReport rep;
    rep.name = name;
    rep.work_items = work_items;
    rep.checksum = sweep();  // warmup: grows every pool to steady state
    rep.best_ms = 1e300;
    for (int i = 0; i < reps; ++i) {
        const AllocStats a0 = alloc_stats_snapshot();
        const Clock::time_point t0 = Clock::now();
        rep.checksum = sweep();
        rep.best_ms = std::min(rep.best_ms, ms_since(t0));
        rep.warm_allocs = alloc_stats_snapshot().count - a0.count;
    }
    return rep;
}

KernelReport bench_spmv(const SparseMatrix& a, int reps) {
    const std::size_t n = a.size();
    std::vector<double> x(lane_vector_size(n), 0.0), y(lane_vector_size(n));
    for (std::size_t i = 0; i < n; ++i) {
        x[2 * i] = 1.0 + 1e-3 * static_cast<double>(i % 97);
        x[2 * i + 1] = 2.0 - 1e-3 * static_cast<double>(i % 89);
    }
    return run_kernel("spmv", n, reps, [&] {
        const LanePair f = a.multiply_fold(x, y);
        return f[0] + f[1];
    });
}

KernelReport bench_cg_pair(QuadraticPlacer& placer, std::span<const Point> pads,
                           const Rect& region, int reps) {
    std::size_t iterations = 0;
    KernelReport rep = run_kernel("cg_pair", 0, reps, [&] {
        const QpCounters before = qp_counters();
        const GlobalPlacement gp = placer.place_quadratic(pads, region);
        iterations = qp_counters().cg_iterations - before.cg_iterations;
        return gp.positions.empty() ? 0.0 : gp.positions.front().x + gp.positions.back().y;
    });
    rep.work_items = iterations;
    return rep;
}

KernelReport bench_matcher_walk(const SubjectGraph& g, const Matcher& matcher, int reps) {
    MatchScratch scratch;
    std::vector<Match> pool;
    return run_kernel("matcher_walk", g.size(), reps, [&] {
        std::size_t total = 0;
        for (SubjectId v = 0; v < g.size(); ++v) {
            total += matcher.matches_at(g, v, scratch, pool);
        }
        return static_cast<double>(total);
    });
}

KernelReport bench_rect_assembly(const SubjectGraph& g, int reps) {
    const SubjectTopology& t = g.topology();
    // Deterministic synthetic placement: what the inchoate placer would
    // hand the wire model.
    std::vector<Point> pos(g.size());
    for (SubjectId v = 0; v < g.size(); ++v) {
        pos[v] = {static_cast<double>((v * 37) % 101), static_cast<double>((v * 53) % 89)};
    }
    std::vector<Point> pts;
    std::vector<Rect> rects;
    MedianScratch median;
    return run_kernel("rect_assembly", g.size(), reps, [&] {
        double acc = 0.0;
        rects.clear();
        for (SubjectId v = 0; v < g.size(); ++v) {
            const std::span<const SubjectId> fo = t.fanouts_of(v);
            if (fo.empty()) continue;
            pts.clear();
            for (SubjectId u : fo) pts.push_back(pos[u]);
            rects.push_back(bounding_box(pts));
            if (rects.size() == 16) {
                const Point m = manhattan_median_of_rects(rects, median);
                acc += m.x + m.y;
                rects.clear();
            }
        }
        if (!rects.empty()) {
            const Point m = manhattan_median_of_rects(rects, median);
            acc += m.x + m.y;
        }
        return acc;
    });
}

KernelReport bench_dp_scan(const SubjectGraph& g, const Library& lib, int reps) {
    const LilyMapper mapper(lib);
    // The DP allocates its solution arrays per map() call by design; the
    // interesting number here is the wall time, not the allocation delta.
    return run_kernel("dp_scan", g.size(), reps, [&] {
        const LilyResult res = mapper.map_checked(g).take_or_raise();
        return res.total_area + res.estimated_wirelength;
    });
}

KernelReport bench_genlib_parse(int reps) {
    const std::size_t gates = read_genlib_checked(msu_big_genlib()).take_or_raise().size();
    return run_kernel("genlib_parse", gates, reps, [] {
        const Library lib = read_genlib_checked(msu_big_genlib()).take_or_raise();
        std::size_t patterns = 0;
        for (const Gate& g : lib.gates()) patterns += g.patterns.size();
        return static_cast<double>(patterns);
    });
}

KernelReport bench_maze_route(const SubjectGraph& g, int reps) {
    SubjectPlacementView view = make_placement_view(g);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    // Deterministic scattered placement: long, crossing connections overflow
    // the demand-derived capacity, so many of them take maze detours.
    std::vector<Point> pos(view.netlist.n_cells);
    for (std::size_t i = 0; i < pos.size(); ++i) {
        pos[i] = {region.ll.x + region.width() * static_cast<double>((i * 37) % 101) / 101.0,
                  region.ll.y + region.height() * static_cast<double>((i * 53) % 89) / 89.0};
    }
    std::size_t expanded = 0;
    KernelReport rep = run_kernel("maze_route", 0, reps, [&] {
        const RouteResult r = route_global(view.netlist, pos, region);
        expanded = r.maze_expanded;
        return r.total_wirelength + r.total_overflow;
    });
    rep.work_items = expanded;
    return rep;
}

std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::string out_path = "BENCH_kernels.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else {
            std::fprintf(stderr, "usage: kernels [--quick] [--out=FILE]\n");
            return 2;
        }
    }

    const int reps = quick ? 3 : 8;
    const unsigned gates = quick ? 300 : 1200;

    const Library lib = load_msu_big();
    const Network net =
        make_control_logic(gates / 8 + 8, gates / 16 + 4, gates, 0xBEEF, "kernels");
    const DecomposeResult dec = decompose(net);
    const SubjectGraph& g = dec.graph;
    const Matcher matcher(lib);
    g.topology();  // freeze the CSR view outside the timed regions

    SubjectPlacementView view = make_placement_view(g);
    const Rect region = make_region(view.netlist.total_cell_area());
    const std::vector<Point> ring = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    QuadraticPlacer placer(view.netlist);

    std::vector<KernelReport> reports;
    reports.push_back(bench_cg_pair(placer, ring, region, reps));
    reports.push_back(bench_spmv(placer.laplacian(), reps));
    reports.push_back(bench_matcher_walk(g, matcher, reps));
    reports.push_back(bench_rect_assembly(g, reps));
    reports.push_back(bench_dp_scan(g, lib, reps));
    reports.push_back(bench_genlib_parse(quick ? 5 : 20));
    reports.push_back(bench_maze_route(g, reps));

    bool ok = true;
    for (const KernelReport& r : reports) {
        std::fprintf(stderr, "%-14s %7zu items  %9.3f ms/sweep  %6llu allocs warm\n",
                     r.name.c_str(), r.work_items, r.best_ms,
                     static_cast<unsigned long long>(r.warm_allocs));
        // The pooled kernels must stay allocation-free once warmed; a few
        // stragglers are tolerated (stdio, one-off rehashes), a return to
        // per-node churn is not.
        if ((r.name == "matcher_walk" || r.name == "rect_assembly" || r.name == "spmv") &&
            r.warm_allocs > 16) {
            std::fprintf(stderr, "FAIL: %s allocated %llu times in a warmed sweep\n",
                         r.name.c_str(), static_cast<unsigned long long>(r.warm_allocs));
            ok = false;
        }
    }

    std::ostringstream os;
    os << "{\n  \"quick\": " << (quick ? "true" : "false") << ",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const KernelReport& r = reports[i];
        os << "    {\"name\": \"" << r.name << "\", \"work_items\": " << r.work_items
           << ", \"best_ms\": " << json_num(r.best_ms)
           << ", \"warm_allocs\": " << r.warm_allocs
           << ", \"checksum\": " << json_num(r.checksum) << "}"
           << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::ofstream f(out_path);
    f << os.str();
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    return ok ? 0 : 1;
}
