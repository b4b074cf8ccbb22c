#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "flow/pipeline.hpp"
#include "library/standard_cells.hpp"
#include "netlist/delta.hpp"
#include "place/netlist_adapters.hpp"
#include "route/chip_area.hpp"
#include "route/global_router.hpp"
#include "route/wire_models.hpp"
#include "route_oracle.hpp"
#include "subject/decompose.hpp"
#include "util/rng.hpp"

namespace lily {
namespace {

// ------------------------------------------------------------- wire models

TEST(WireModels, ChungHwangFactorProperties) {
    EXPECT_DOUBLE_EQ(chung_hwang_factor(2), 1.0);
    EXPECT_DOUBLE_EQ(chung_hwang_factor(3), 1.0);
    double prev = 1.0;
    for (std::size_t n = 4; n <= 200; ++n) {
        const double f = chung_hwang_factor(n);
        EXPECT_GE(f, prev);  // monotone
        EXPECT_GE(f, 1.0);
        EXPECT_LE(f, 2.5);
        prev = f;
    }
    EXPECT_DOUBLE_EQ(chung_hwang_factor(10'000), 2.5);  // saturates
}

TEST(WireModels, TwoPinExact) {
    const std::array<Point, 2> pins{Point{0, 0}, Point{3, 4}};
    EXPECT_DOUBLE_EQ(steiner_estimate(pins), 7.0);
    EXPECT_DOUBLE_EQ(rectilinear_mst_length(pins), 7.0);
}

TEST(WireModels, MstOnSquare) {
    // Unit square corners: RMST = 3 unit edges.
    const std::array<Point, 4> pins{Point{0, 0}, Point{1, 0}, Point{0, 1}, Point{1, 1}};
    EXPECT_DOUBLE_EQ(rectilinear_mst_length(pins), 3.0);
    // HPWL = 2; Steiner estimate = 2 * factor(4) which must not exceed RMST
    // by construction of the factor... (estimate vs bound: just check order
    // of magnitude agreement here.)
    EXPECT_GT(steiner_estimate(pins), 2.0);
    EXPECT_LE(steiner_estimate(pins), 3.0);
}

TEST(WireModels, MstDominatesHpwlAndIsSubadditive) {
    Rng rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<Point> pins(2 + rng.next_below(10));
        for (Point& p : pins) p = {rng.next_double(0, 100), rng.next_double(0, 100)};
        const double hp = half_perimeter_wirelength(pins);
        const double mst = rectilinear_mst_length(pins);
        EXPECT_GE(mst + 1e-9, hp * 0.5);  // weak sanity: MST >= HP/2 always
        // MST connects everything: at least the bounding box extent in one
        // dimension must be traversed.
        const Rect bb = bounding_box(pins);
        EXPECT_GE(mst + 1e-9, std::max(bb.width(), bb.height()));
    }
}

TEST(WireModels, DegenerateNets) {
    EXPECT_DOUBLE_EQ(rectilinear_mst_length({}), 0.0);
    const std::array<Point, 1> one{Point{5, 5}};
    EXPECT_DOUBLE_EQ(rectilinear_mst_length(one), 0.0);
    EXPECT_DOUBLE_EQ(steiner_estimate(one), 0.0);
    // Coincident pins cost nothing.
    const std::array<Point, 3> same{Point{1, 1}, Point{1, 1}, Point{1, 1}};
    EXPECT_DOUBLE_EQ(rectilinear_mst_length(same), 0.0);
}

TEST(WireModels, DispatchMatchesImplementations) {
    Rng rng(6);
    std::vector<Point> pins(6);
    for (Point& p : pins) p = {rng.next_double(0, 10), rng.next_double(0, 10)};
    EXPECT_DOUBLE_EQ(net_wirelength(pins, WireModel::SteinerHpwl), steiner_estimate(pins));
    EXPECT_DOUBLE_EQ(net_wirelength(pins, WireModel::SpanningTree),
                     rectilinear_mst_length(pins));
}

// ------------------------------------------------------------------ router

PlacementNetlist two_pin_netlist(Point a, Point b) {
    PlacementNetlist nl;
    nl.n_cells = 2;
    nl.cell_area = {1.0, 1.0};
    PlacementNetlist::Net net;
    net.cells = {0, 1};
    nl.nets.push_back(net);
    nl.pad_positions = {};
    (void)a;
    (void)b;
    return nl;
}

TEST(Router, SingleNetLengthMatchesManhattan) {
    const PlacementNetlist nl = two_pin_netlist({0, 0}, {0, 0});
    const Rect region({0, 0}, {32, 32});
    const std::array<Point, 2> pos{Point{4.5, 4.5}, Point{20.5, 12.5}};
    RouterOptions opts;
    opts.grid = 32;
    const RouteResult r = route_global(nl, pos, region, opts);
    // Grid cells are 1x1: routed length equals grid Manhattan distance.
    EXPECT_NEAR(r.total_wirelength, 16.0 + 8.0, 1.0);
    EXPECT_EQ(r.total_overflow, 0.0);
}

TEST(Router, CongestionAwareChoosesDetour) {
    // Many identical connections between two corners: usage must spread
    // over both L-shapes rather than piling on one.
    PlacementNetlist nl;
    nl.n_cells = 20;
    nl.cell_area.assign(20, 1.0);
    for (std::size_t i = 0; i + 1 < 20; i += 2) {
        PlacementNetlist::Net net;
        net.cells = {i, i + 1};
        nl.nets.push_back(net);
    }
    std::vector<Point> pos(20);
    for (std::size_t i = 0; i < 20; i += 2) {
        pos[i] = {1.5, 1.5};
        pos[i + 1] = {30.5, 30.5};
    }
    const Rect region({0, 0}, {32, 32});
    RouterOptions opts;
    opts.grid = 32;
    opts.capacity_per_edge = 2.0;
    const RouteResult r = route_global(nl, pos, region, opts);
    // Both the horizontal-first and vertical-first L paths must carry load.
    double top_h = 0.0, bottom_h = 0.0;
    for (std::size_t x = 0; x < 31; ++x) {
        bottom_h += r.h_usage[x + 1 * 31];
        top_h += r.h_usage[x + 30 * 31];
    }
    EXPECT_GT(top_h, 0.0);
    EXPECT_GT(bottom_h, 0.0);
}

TEST(Router, RealCircuitRoutes) {
    Rng rng(7);
    Network net("r");
    std::vector<NodeId> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(net.add_input("i" + std::to_string(i)));
    for (int i = 0; i < 80; ++i) {
        const NodeId a = pool[rng.next_below(pool.size())];
        const NodeId b = pool[rng.next_below(pool.size())];
        pool.push_back(a == b ? net.make_not(a) : net.make_and2(a, b));
    }
    for (int i = 0; i < 4; ++i) net.add_output("o" + std::to_string(i),
                                               pool[pool.size() - 1 - i]);
    net.sweep();
    const DecomposeResult dr = decompose(net);
    SubjectPlacementView view = make_placement_view(dr.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const GlobalPlacement gp = place_global(view.netlist, region);
    const RouteResult r = route_global(view.netlist, gp.positions, region);
    EXPECT_GT(r.total_wirelength, 0.0);
    EXPECT_GE(r.max_congestion, 0.0);
    // Routed length is at least the HPWL lower bound (both in region units),
    // up to grid quantization.
    EXPECT_GT(r.total_wirelength, total_hpwl(view.netlist, gp.positions) * 0.4);
}

TEST(Router, BetterPlacementRoutesShorter) {
    // Same netlist, random positions vs placed positions: the placed one
    // must route substantially shorter.
    Rng rng(8);
    Network net("r2");
    std::vector<NodeId> pool;
    for (int i = 0; i < 10; ++i) pool.push_back(net.add_input("i" + std::to_string(i)));
    for (int i = 0; i < 120; ++i) {
        const NodeId a = pool[rng.next_below(pool.size())];
        const NodeId b = pool[rng.next_below(pool.size())];
        pool.push_back(a == b ? net.make_not(a) : net.make_or2(a, b));
    }
    for (int i = 0; i < 5; ++i) net.add_output("o" + std::to_string(i),
                                               pool[pool.size() - 1 - i]);
    net.sweep();
    const DecomposeResult dr = decompose(net);
    SubjectPlacementView view = make_placement_view(dr.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const GlobalPlacement gp = place_global(view.netlist, region);
    std::vector<Point> random_pos(view.netlist.n_cells);
    for (Point& p : random_pos) {
        p = {rng.next_double(region.ll.x, region.ur.x),
             rng.next_double(region.ll.y, region.ur.y)};
    }
    const RouteResult placed = route_global(view.netlist, gp.positions, region);
    const RouteResult scattered = route_global(view.netlist, random_pos, region);
    EXPECT_LT(placed.total_wirelength, scattered.total_wirelength * 0.8);
}

TEST(Router, MazeFallbackReducesOverflow) {
    // Funnel: many two-pin connections forced through the same column.
    PlacementNetlist nl;
    nl.n_cells = 40;
    nl.cell_area.assign(40, 1.0);
    for (std::size_t i = 0; i + 1 < 40; i += 2) {
        PlacementNetlist::Net net;
        net.cells = {i, i + 1};
        nl.nets.push_back(net);
    }
    std::vector<Point> pos(40);
    for (std::size_t i = 0; i < 40; i += 2) {
        pos[i] = {1.5, 15.5 + (i % 8) * 0.1};   // left wall
        pos[i + 1] = {30.5, 15.5 + (i % 8) * 0.1};  // right wall
    }
    const Rect region({0, 0}, {32, 32});
    RouterOptions no_maze;
    no_maze.grid = 32;
    no_maze.capacity_per_edge = 3.0;
    no_maze.maze_passes = 0;
    RouterOptions with_maze = no_maze;
    with_maze.maze_passes = 2;
    const RouteResult r0 = route_global(nl, pos, region, no_maze);
    const RouteResult r1 = route_global(nl, pos, region, with_maze);
    EXPECT_GT(r0.total_overflow, 0.0);
    EXPECT_LT(r1.total_overflow, r0.total_overflow);
    EXPECT_GT(r1.mazed_connections, 0u);
    // Detours cost wire but never less than the Manhattan lower bound.
    EXPECT_GE(r1.total_wirelength + 1e-9, r0.total_wirelength);
}

TEST(Router, MazeKeepsWirelengthWhenUncongested) {
    PlacementNetlist nl;
    nl.n_cells = 2;
    nl.cell_area = {1.0, 1.0};
    PlacementNetlist::Net net;
    net.cells = {0, 1};
    nl.nets.push_back(net);
    const std::array<Point, 2> pos{Point{2.5, 2.5}, Point{20.5, 10.5}};
    const Rect region({0, 0}, {32, 32});
    RouterOptions opts;
    opts.grid = 32;
    const RouteResult r = route_global(nl, pos, region, opts);
    EXPECT_EQ(r.mazed_connections, 0u);
    EXPECT_NEAR(r.total_wirelength, 18.0 + 8.0, 1.0);
}

// ---------------------------------------------- exactness against the oracle

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(bits(a[i]), bits(b[i])) << what << "[" << i << "]";
    }
}

/// Full RouteResult equality with the reference router: plan (detours
/// unpacked from the arena), usage maps and every summary figure, bit for
/// bit.
void expect_same_route(const RouteResult& r, const oracle::OracleRoute& o,
                       const std::string& what) {
    const std::size_t n = std::max<std::size_t>(r.grid, 2);
    EXPECT_EQ(bits(r.total_wirelength), bits(o.total_wirelength)) << what;
    EXPECT_EQ(r.mazed_connections, o.mazed_connections) << what;
    EXPECT_EQ(bits(r.max_congestion), bits(o.max_congestion)) << what;
    EXPECT_EQ(bits(r.total_overflow), bits(o.total_overflow)) << what;
    EXPECT_EQ(r.grid, o.grid) << what;
    EXPECT_EQ(r.budget_exhausted, o.budget_exhausted) << what;
    EXPECT_EQ(bits(r.capacity), bits(o.capacity)) << what;
    EXPECT_EQ(r.kept_connections, o.kept_connections) << what;
    EXPECT_EQ(r.rerouted_connections, o.rerouted_connections) << what;
    expect_same_bits(r.h_usage, o.h_usage, what + " h_usage");
    expect_same_bits(r.v_usage, o.v_usage, what + " v_usage");
    ASSERT_EQ(r.plan.size(), o.plan.size()) << what;
    for (std::size_t i = 0; i < r.plan.size(); ++i) {
        const RouteResult::Connection& c = r.plan[i];
        const oracle::OracleRoute::Connection& oc = o.plan[i];
        ASSERT_EQ(c.x0, oc.x0) << what << " connection " << i;
        ASSERT_EQ(c.y0, oc.y0) << what << " connection " << i;
        ASSERT_EQ(c.x1, oc.x1) << what << " connection " << i;
        ASSERT_EQ(c.y1, oc.y1) << what << " connection " << i;
        ASSERT_EQ(c.horiz_first, oc.horiz_first) << what << " connection " << i;
        std::vector<std::pair<std::size_t, std::size_t>> path;
        for (const std::uint32_t cell : r.detour(c)) path.emplace_back(cell % n, cell / n);
        ASSERT_EQ(path, oc.maze_path) << what << " connection " << i;
    }
}

/// A random usage map on an n x n grid: background load around the
/// capacity plus a few rectangular hot spots far past it.
std::pair<std::vector<double>, std::vector<double>> random_usage(Rng& rng, std::size_t n,
                                                                 double capacity) {
    std::vector<double> h((n - 1) * n), v(n * (n - 1));
    const auto load = [&] {
        return static_cast<double>(rng.next_below(static_cast<std::uint64_t>(capacity) + 3));
    };
    for (double& u : h) u = load();
    for (double& u : v) u = load();
    for (std::size_t spot = rng.next_below(4); spot > 0; --spot) {
        const std::size_t x0 = rng.next_below(n), y0 = rng.next_below(n);
        const std::size_t side = 1 + rng.next_below(std::max<std::size_t>(1, n / 3));
        const double heat = capacity + 1.0 + static_cast<double>(rng.next_below(8));
        for (std::size_t y = y0; y < std::min(n, y0 + side); ++y) {
            for (std::size_t x = x0; x < std::min(n, x0 + side); ++x) {
                if (x + 1 < n) h[x + y * (n - 1)] += heat;
                if (y + 1 < n) v[x + y * n] += heat;
            }
        }
    }
    return {std::move(h), std::move(v)};
}

TEST(RouterOracle, MazeSearchMatchesUnboundedDijkstra) {
    Rng rng(0x3A2E);
    const std::array<double, 6> penalties{0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
    std::size_t expanded = 0, oracle_cells = 0;
    for (int trial = 0; trial < 600; ++trial) {
        const std::size_t n = 2 + rng.next_below(63);
        const double capacity = trial % 3 == 0 ? 0.5 + rng.next_double(0.0, 5.0)
                                               : static_cast<double>(1 + rng.next_below(6));
        const double penalty = trial % 2 == 0 ? penalties[rng.next_below(penalties.size())]
                                              : rng.next_double(0.5, 16.0);
        const auto [h, v] = random_usage(rng, n, capacity);
        std::uint32_t x0 = static_cast<std::uint32_t>(rng.next_below(n));
        std::uint32_t y0 = static_cast<std::uint32_t>(rng.next_below(n));
        std::uint32_t x1 = static_cast<std::uint32_t>(rng.next_below(n));
        std::uint32_t y1 = static_cast<std::uint32_t>(rng.next_below(n));
        switch (trial % 5) {
            case 0: x1 = x0; y1 = y0; break;  // src == dst
            case 1: y1 = y0; break;           // same row
            case 2: x1 = x0; break;           // same column
            default: break;
        }
        const std::string what = "trial " + std::to_string(trial) + " n=" + std::to_string(n);
        const MazeSearch got = maze_search(n, capacity, penalty, h, v, x0, y0, x1, y1);
        const oracle::OracleMaze want =
            oracle::oracle_maze_route(n, capacity, penalty, h, v, x0, y0, x1, y1);
        std::vector<std::pair<std::size_t, std::size_t>> path;
        for (const std::uint32_t cell : got.path) path.emplace_back(cell % n, cell / n);
        ASSERT_EQ(path, want.path) << what;
        ASSERT_EQ(bits(got.cost), bits(want.cost)) << what;
        expanded += got.expanded;
        oracle_cells += n * n;
    }
    EXPECT_GT(expanded, 0u);
    EXPECT_LT(expanded, oracle_cells);
}

/// A random placed netlist: cells and pads scattered over a 32x32 region,
/// nets of 2-6 pins, a few of them with coincident or collinear pins.
struct RandomLayout {
    PlacementNetlist nl;
    std::vector<Point> pos;
    Rect region{{0, 0}, {32, 32}};
};

RandomLayout random_layout(Rng& rng, std::size_t cells) {
    RandomLayout l;
    l.nl.n_cells = cells;
    l.nl.cell_area.assign(cells, 1.0);
    for (int p = 0; p < 8; ++p) {
        l.nl.pad_positions.push_back({rng.next_double(0, 32), p % 2 == 0 ? 0.0 : 32.0});
    }
    l.pos.resize(cells);
    for (Point& p : l.pos) p = {rng.next_double(0, 32), rng.next_double(0, 32)};
    for (std::size_t k = 0; k < cells; ++k) {
        PlacementNetlist::Net net;
        const std::size_t pins = 2 + rng.next_below(5);
        for (std::size_t i = 0; i < pins; ++i) net.cells.push_back(rng.next_below(cells));
        if (rng.next_below(4) == 0) net.pads.push_back(rng.next_below(8));
        l.nl.nets.push_back(std::move(net));
    }
    l.pos[1] = l.pos[0];          // coincident pins
    l.pos[2] = {l.pos[0].x, 7.5};  // collinear pins
    return l;
}

TEST(RouterOracle, RandomNetlistsAndDeltasMatch) {
    Rng rng(0xB0B);
    for (int trial = 0; trial < 40; ++trial) {
        RandomLayout l = random_layout(rng, 40 + rng.next_below(160));
        RouterOptions opts;
        opts.grid = 2 + rng.next_below(63);
        opts.capacity_per_edge = trial % 2 == 0 ? 0.0 : 0.5 + rng.next_double(0.0, 4.0);
        opts.congestion_penalty = rng.next_double(0.5, 16.0);
        opts.reroute_passes = rng.next_below(3);
        opts.maze_passes = 1 + rng.next_below(2);
        const std::string what = "trial " + std::to_string(trial);
        RouteResult got = route_global(l.nl, l.pos, l.region, opts);
        oracle::OracleRoute want = oracle::oracle_route_global(l.nl, l.pos, l.region, opts);
        expect_same_route(got, want, what);
        // A chain of small deltas patched incrementally.
        for (int step = 0; step < 3; ++step) {
            for (std::size_t moved = 1 + rng.next_below(6); moved > 0; --moved) {
                l.pos[rng.next_below(l.nl.n_cells)] = {rng.next_double(0, 32),
                                                       rng.next_double(0, 32)};
            }
            RouteResult next = route_incremental(l.nl, l.pos, l.region, got, opts);
            oracle::OracleRoute next_want =
                oracle::oracle_route_incremental(l.nl, l.pos, l.region, want, opts);
            expect_same_route(next, next_want, what + " step " + std::to_string(step));
            got = std::move(next);
            want = std::move(next_want);
        }
    }
}

/// The batch back end's routing inputs, rebuilt from a flow result.
struct BackendLayout {
    MappedPlacementView view;
    std::vector<Point> positions;
    Rect region;
};

BackendLayout backend_layout(const PipelineState& state) {
    BackendLayout b{make_placement_view(state.flow.netlist, *state.lib),
                    state.flow.final_positions, state.flow.region};
    b.view.netlist.pad_positions = state.flow.pad_positions;
    return b;
}

FlowOptions oracle_flow_options() {
    FlowOptions opts;
    opts.check = CheckLevel::Off;
    opts.verify = VerifyLevel::Off;
    return opts;
}

TEST(RouterOracle, Table1SuiteMatches) {
    const Library lib = load_msu_big();
    for (const Benchmark& b : paper_suite(0.25)) {
        StatusOr<PipelineState> built = build_pipeline(b.network, lib, oracle_flow_options());
        ASSERT_TRUE(built.is_ok()) << b.name << ": " << built.status().to_string();
        const PipelineState& state = built.value();
        const BackendLayout l = backend_layout(state);
        expect_same_route(state.routed,
                          oracle::oracle_route_global(l.view.netlist, l.positions, l.region,
                                                      state.opts.router),
                          b.name);
    }
}

TEST(RouterOracle, EcoChainMatches) {
    const Library lib = load_msu_big();
    const Network net = make_control_logic(48, 24, 1200, 0xEC0C, "eco_oracle");
    StatusOr<PipelineState> built = build_pipeline(net, lib, oracle_flow_options());
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    PipelineState state = std::move(built).value();
    BackendLayout l = backend_layout(state);
    oracle::OracleRoute want =
        oracle::oracle_route_global(l.view.netlist, l.positions, l.region, state.opts.router);
    expect_same_route(state.routed, want, "batch");
    std::size_t searches = 0, kept = 0;
    for (std::uint64_t edit = 0; edit < 6; ++edit) {
        const StatusOr<EcoStats> eco =
            run_eco_flow_checked(state, local_delta(state.net, 6, 0x0AC1E + edit));
        ASSERT_TRUE(eco.is_ok()) << eco.status().to_string();
        l = backend_layout(state);
        want = eco.value().full_reflow
                   ? oracle::oracle_route_global(l.view.netlist, l.positions, l.region,
                                                 state.opts.router)
                   : oracle::oracle_route_incremental(l.view.netlist, l.positions, l.region,
                                                      want, state.opts.router);
        expect_same_route(state.routed, want, "edit " + std::to_string(edit));
        searches += state.routed.maze_searches;
        kept += state.routed.kept_connections;
    }
    // The chain must exercise both the kept-route and the detour paths.
    EXPECT_GT(searches, 0u);
    EXPECT_GT(kept, 0u);
}

// ------------------------------------------------------- route_incremental

/// A congested random layout routed on a 32-cell grid: every connection
/// set hits overflow, so plans carry detours.
RouterOptions congested_options() {
    RouterOptions opts;
    opts.grid = 32;
    opts.capacity_per_edge = 2.0;
    return opts;
}

TEST(RouteIncremental, NoMoveKeepsEveryConnection) {
    Rng rng(41);
    const RandomLayout l = random_layout(rng, 160);
    const RouterOptions opts = congested_options();
    const RouteResult prior = route_global(l.nl, l.pos, l.region, opts);
    ASSERT_GT(prior.mazed_connections, 0u);
    const RouteResult r = route_incremental(l.nl, l.pos, l.region, prior, opts);
    EXPECT_EQ(r.kept_connections, prior.plan.size());
    EXPECT_EQ(r.rerouted_connections, 0u);
    EXPECT_EQ(r.maze_searches, 0u);
    expect_same_bits(r.h_usage, prior.h_usage, "h_usage");
    expect_same_bits(r.v_usage, prior.v_usage, "v_usage");
    // Duplicate endpoint keys may trade records (see the LIFO test), so the
    // plan is compared through what it adds up to.
    EXPECT_EQ(bits(r.total_wirelength), bits(prior.total_wirelength));
    EXPECT_EQ(r.mazed_connections, prior.mazed_connections);
    EXPECT_EQ(r.maze_cells.size(), prior.maze_cells.size());
}

TEST(RouteIncremental, MovingOneCellReroutesOnlyItsNets) {
    Rng rng(42);
    RandomLayout l = random_layout(rng, 160);
    const RouterOptions opts = congested_options();
    const RouteResult prior = route_global(l.nl, l.pos, l.region, opts);
    const std::size_t moved = 17;
    std::size_t touched = 0;  // connections of the nets the moved cell is on
    for (const PlacementNetlist::Net& net : l.nl.nets) {
        if (std::find(net.cells.begin(), net.cells.end(), moved) != net.cells.end()) {
            touched += net.pin_count() - 1;
        }
    }
    ASSERT_GT(touched, 0u);
    l.pos[moved] = {l.pos[moved].x < 16 ? 30.5 : 1.5, l.pos[moved].y < 16 ? 30.5 : 1.5};
    const RouteResult r = route_incremental(l.nl, l.pos, l.region, prior, opts);
    EXPECT_GE(r.rerouted_connections, 1u);
    EXPECT_LE(r.rerouted_connections, touched);
    EXPECT_EQ(r.kept_connections + r.rerouted_connections, r.plan.size());
}

TEST(RouteIncremental, DuplicateEndpointsMatchLifo) {
    // Ten identical connections spread over both L-shapes (and detours).
    // Re-routing the unchanged netlist hands each key's highest unused prior
    // index out first, so the i-th connection takes prior record 9 - i.
    PlacementNetlist nl;
    nl.n_cells = 20;
    nl.cell_area.assign(20, 1.0);
    std::vector<Point> pos(20);
    for (std::size_t i = 0; i < 20; i += 2) {
        PlacementNetlist::Net net;
        net.cells = {i, i + 1};
        nl.nets.push_back(net);
        pos[i] = {1.5, 1.5};
        pos[i + 1] = {30.5, 30.5};
    }
    const Rect region({0, 0}, {32, 32});
    const RouterOptions opts = congested_options();
    const RouteResult prior = route_global(nl, pos, region, opts);
    ASSERT_EQ(prior.plan.size(), 10u);
    bool mixed = false;
    for (const RouteResult::Connection& c : prior.plan) {
        mixed = mixed || c.horiz_first != prior.plan[0].horiz_first || c.path_length != 0;
    }
    ASSERT_TRUE(mixed) << "the duplicates must carry different routes";
    const RouteResult r = route_incremental(nl, pos, region, prior, opts);
    EXPECT_EQ(r.kept_connections, 10u);
    for (std::size_t i = 0; i < 10; ++i) {
        const RouteResult::Connection& want = prior.plan[9 - i];
        EXPECT_EQ(r.plan[i].horiz_first, want.horiz_first) << i;
        const std::span<const std::uint32_t> a = r.detour(r.plan[i]);
        const std::span<const std::uint32_t> b = prior.detour(want);
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << i;
    }
    expect_same_bits(r.h_usage, prior.h_usage, "h_usage");
    expect_same_bits(r.v_usage, prior.v_usage, "v_usage");
}

TEST(RouteIncremental, PriorOnAnotherGridFallsBackToGlobal) {
    Rng rng(43);
    const RandomLayout l = random_layout(rng, 120);
    RouterOptions coarse = congested_options();
    coarse.grid = 16;
    const RouteResult prior = route_global(l.nl, l.pos, l.region, coarse);
    const RouterOptions opts = congested_options();
    const RouteResult r = route_incremental(l.nl, l.pos, l.region, prior, opts);
    const RouteResult fresh = route_global(l.nl, l.pos, l.region, opts);
    EXPECT_EQ(r.grid, 32u);
    EXPECT_EQ(r.kept_connections, 0u);
    EXPECT_EQ(r.rerouted_connections, 0u);
    EXPECT_EQ(bits(r.total_wirelength), bits(fresh.total_wirelength));
    expect_same_bits(r.h_usage, fresh.h_usage, "h_usage");
    expect_same_bits(r.v_usage, fresh.v_usage, "v_usage");
}

TEST(RouteIncremental, BudgetExhaustionKeepsFreshLShapes) {
    Rng rng(44);
    RandomLayout l = random_layout(rng, 160);
    RouterOptions opts = congested_options();
    const RouteResult prior = route_global(l.nl, l.pos, l.region, opts);
    for (std::size_t c = 0; c < 40; ++c) l.pos[c] = {31.5 - l.pos[c].x, 31.5 - l.pos[c].y};
    const RouteResult unbudgeted = route_incremental(l.nl, l.pos, l.region, prior, opts);
    ASSERT_GT(unbudgeted.maze_searches, 0u) << "the moved cells must need detours";
    EXPECT_FALSE(unbudgeted.budget_exhausted);

    StageBudget spent = StageBudget::iterations(1);
    spent.tick();
    opts.budget = &spent;
    const RouteResult r = route_incremental(l.nl, l.pos, l.region, prior, opts);
    EXPECT_TRUE(r.budget_exhausted);
    EXPECT_EQ(r.maze_searches, 0u);
    EXPECT_EQ(r.kept_connections, unbudgeted.kept_connections);
    EXPECT_EQ(r.rerouted_connections, unbudgeted.rerouted_connections);
    // Kept routes keep their detours; every fresh connection stays an L.
    std::size_t detours = 0;
    for (const RouteResult::Connection& c : r.plan) detours += c.path_length != 0 ? 1 : 0;
    EXPECT_LT(detours, unbudgeted.mazed_connections);
}

TEST(RouteIncremental, EcoRoutingStageHonorsRoutingBudget) {
    const Library lib = load_msu_big();
    const Network net = make_control_logic(24, 12, 400, 0xB4D6, "eco_budget");
    StatusOr<PipelineState> built = build_pipeline(net, lib, oracle_flow_options());
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    PipelineState state = std::move(built).value();
    StageBudget spent = StageBudget::iterations(1);
    spent.tick();  // spent before the first detour
    state.opts.router.budget = &spent;
    const StatusOr<EcoStats> eco = run_eco_flow_checked(state, local_delta(state.net, 4, 5));
    ASSERT_TRUE(eco.is_ok()) << eco.status().to_string();
    ASSERT_FALSE(eco.value().full_reflow);
    const StageDiagnostics* d = eco.value().diagnostics.find("eco-routing");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->state, StageState::Degraded) << d->note;
    EXPECT_NE(d->note.find("budget exhausted"), std::string::npos) << d->note;
    EXPECT_TRUE(state.routed.budget_exhausted);
    EXPECT_EQ(state.routed.maze_searches, 0u);
}

TEST(Router, RejectsGridBeyondItsLimit) {
    const PlacementNetlist nl = two_pin_netlist({0, 0}, {0, 0});
    const std::array<Point, 2> pos{Point{1, 1}, Point{5, 5}};
    const Rect region({0, 0}, {8, 8});
    RouterOptions opts;
    opts.grid = kMaxRouterGrid + 1;
    try {
        (void)route_global(nl, pos, region, opts);
        FAIL() << "route_global accepted grid " << opts.grid;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("65535"), std::string::npos) << e.what();
    }
    RouterOptions small;
    small.grid = 8;
    const RouteResult prior = route_global(nl, pos, region, small);
    EXPECT_THROW((void)route_incremental(nl, pos, region, prior, opts), std::invalid_argument);
}

// --------------------------------------------------------------- chip area

TEST(ChipArea, ScalesWithWirelengthAndOverflow) {
    RouteResult r;
    r.total_wirelength = 100.0;
    r.total_overflow = 0.0;
    const ChipAreaEstimate a = estimate_chip_area(50.0, r);
    EXPECT_DOUBLE_EQ(a.cell_area, 50.0);
    EXPECT_GT(a.routing_area, 0.0);
    EXPECT_DOUBLE_EQ(a.chip_area, a.cell_area + a.routing_area);

    RouteResult congested = r;
    congested.total_overflow = 10.0;
    const ChipAreaEstimate b = estimate_chip_area(50.0, congested);
    EXPECT_GT(b.chip_area, a.chip_area);

    RouteResult longer = r;
    longer.total_wirelength = 200.0;
    EXPECT_GT(estimate_chip_area(50.0, longer).chip_area, a.chip_area);
}

}  // namespace
}  // namespace lily
