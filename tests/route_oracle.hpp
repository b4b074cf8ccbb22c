// Reference grid router (tests only); see route_oracle.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "route/global_router.hpp"

namespace lily::oracle {

/// RouteResult as the original router kept it: each detour is its own
/// vector of (x, y) cells.
struct OracleRoute {
    double total_wirelength = 0.0;
    std::size_t mazed_connections = 0;
    double max_congestion = 0.0;
    double total_overflow = 0.0;
    std::size_t grid = 0;
    bool budget_exhausted = false;
    std::vector<double> h_usage;
    std::vector<double> v_usage;
    struct Connection {
        std::uint32_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;
        bool horiz_first = true;
        std::vector<std::pair<std::size_t, std::size_t>> maze_path;  // empty = L-shape
    };
    std::vector<Connection> plan;
    double capacity = 0.0;
    std::size_t kept_connections = 0;
    std::size_t rerouted_connections = 0;
};

/// Same contract as lily::route_global / route_incremental (route_incremental
/// here ignores opts.budget, as the original did).
OracleRoute oracle_route_global(const PlacementNetlist& nl,
                                std::span<const Point> cell_positions, const Rect& region,
                                const RouterOptions& opts = {});
OracleRoute oracle_route_incremental(const PlacementNetlist& nl,
                                     std::span<const Point> cell_positions, const Rect& region,
                                     const OracleRoute& prior, const RouterOptions& opts = {});

/// One unbounded maze search on a copy of the given usage map.
struct OracleMaze {
    std::vector<std::pair<std::size_t, std::size_t>> path;  // source first
    double cost = 0.0;                                      // dist at the target
};
OracleMaze oracle_maze_route(std::size_t grid, double capacity, double congestion_penalty,
                             std::span<const double> h_usage, std::span<const double> v_usage,
                             std::size_t x0, std::size_t y0, std::size_t x1, std::size_t y1);

}  // namespace lily::oracle
