// Congestion-aware grid global router — the repository's stand-in for the
// TimberWolf global router + YACR channel router the paper's back end used.
// Nets are decomposed into two-pin connections along their rectilinear MST;
// each connection is routed with the less congested of its two L-shapes.
// The router reports routed wirelength and congestion, which feed the chip
// area model; applied identically to both mapping flows it preserves the
// paper's comparisons.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "place/placement.hpp"
#include "util/budget.hpp"
#include "util/geometry.hpp"

namespace lily {

/// Largest accepted RouterOptions::grid: plan endpoints are packed 16 bits
/// per coordinate and grid cells are numbered by 32-bit ids.
inline constexpr std::size_t kMaxRouterGrid = 65535;

struct RouterOptions {
    std::size_t grid = 32;            // grid cells per axis (<= kMaxRouterGrid)
    double congestion_penalty = 4.0;  // cost multiplier past capacity
    double capacity_per_edge = 0.0;   // 0 = derive from demand (avg + 60%)
    /// Rip-up-and-reroute iterations after the initial pass: each pass
    /// removes and re-routes every connection against the then-current
    /// congestion map, letting early nets move off edges later nets filled.
    std::size_t reroute_passes = 2;
    /// After the L-shape passes, connections still crossing overflowed
    /// edges are ripped up and maze-routed (Dijkstra over congestion
    /// costs), allowing detours. 0 disables.
    std::size_t maze_passes = 1;
    /// Optional stage budget (non-owning; must outlive the call). The
    /// initial L-shape pass always completes so a full routing exists; on
    /// exhaustion the rip-up and maze refinement passes are skipped (the
    /// connections not yet detoured keep their L-shapes) and the result is
    /// flagged. Null = unlimited.
    StageBudget* budget = nullptr;
};

struct RouteResult {
    double total_wirelength = 0.0;  // in region length units
    std::size_t mazed_connections = 0;  // connections that took a detour path
    double max_congestion = 0.0;    // peak usage / capacity
    double total_overflow = 0.0;    // sum of (usage - capacity)+ over edges
    std::size_t grid = 0;
    /// True when the stage budget fired and refinement passes were skipped
    /// (the wirelength/congestion picture is first-pass quality).
    bool budget_exhausted = false;
    /// usage[d][x][y] flattened; d = 0 horizontal edges, 1 vertical edges.
    std::vector<double> h_usage;
    std::vector<double> v_usage;

    /// Replayable routing plan, one record per two-pin connection: the grid
    /// endpoints plus the decision taken (L-shape orientation, or a maze
    /// detour path). route_incremental diffs a new netlist's connections
    /// against this plan by endpoint geometry — a net whose pins did not
    /// move reproduces the identical connections and keeps its routing (and
    /// its usage contribution) untouched.
    struct Connection {
        std::uint32_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;
        bool horiz_first = true;
        /// Detour path: maze_cells[path_offset, path_offset + path_length),
        /// source cell first. Length 0 = L-shape.
        std::uint32_t path_offset = 0;
        std::uint32_t path_length = 0;
    };
    std::vector<Connection> plan;
    /// Arena of every detour path, as grid cell ids x + y * n where
    /// n = max(grid, 2) is the side of the routed grid.
    std::vector<std::uint32_t> maze_cells;
    std::span<const std::uint32_t> detour(const Connection& c) const {
        return {maze_cells.data() + c.path_offset, c.path_length};
    }
    /// The capacity the plan was routed against (derived from demand when
    /// RouterOptions::capacity_per_edge is 0); reused verbatim by
    /// route_incremental so congestion costs stay comparable across deltas.
    double capacity = 0.0;

    /// Incremental-call accounting (route_global leaves these at defaults).
    std::size_t kept_connections = 0;
    std::size_t rerouted_connections = 0;
    /// Per-call search accounting: maze searches run and heap entries they
    /// popped (kept connections cost neither).
    std::size_t maze_searches = 0;
    std::size_t maze_expanded = 0;
};

/// One maze search as the router runs it: the cheapest path from (x0, y0)
/// to (x1, y1) over congestion-aware edge costs on the given usage map
/// (laid out as RouteResult::h_usage / v_usage for a grid of side `grid`).
/// Exposed so tests can hold the search to a reference.
struct MazeSearch {
    std::vector<std::uint32_t> path;  // cell ids x + y * grid, source first
    double cost = 0.0;                // the path's cost (dist at the target)
    std::size_t expanded = 0;         // heap entries popped
};
MazeSearch maze_search(std::size_t grid, double capacity, double congestion_penalty,
                       std::span<const double> h_usage, std::span<const double> v_usage,
                       std::uint32_t x0, std::uint32_t y0, std::uint32_t x1, std::uint32_t y1);

RouteResult route_global(const PlacementNetlist& nl, std::span<const Point> cell_positions,
                         const Rect& region, const RouterOptions& opts = {});

/// Patch a prior routing after an ECO: connections whose endpoints are
/// unchanged keep their prior routes (no work, no usage churn); routes of
/// vanished connections are subtracted from the congestion map; new
/// connections are routed against the patched map (cheaper L-shape, then a
/// maze detour if the L crosses an overflowed edge). Falls back to a full
/// route_global when the prior result has no plan or was routed on a
/// different grid. On budget exhaustion the remaining new connections keep
/// their L-shapes and the result is flagged. The result is a complete,
/// self-consistent RouteResult — usable as the prior of the next delta.
///
/// Both entry points throw std::invalid_argument when opts.grid exceeds
/// kMaxRouterGrid.
RouteResult route_incremental(const PlacementNetlist& nl, std::span<const Point> cell_positions,
                              const Rect& region, const RouteResult& prior,
                              const RouterOptions& opts = {});

}  // namespace lily
