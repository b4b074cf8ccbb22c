// Reference router for tests: the unbounded-Dijkstra maze search and the
// hash-map plan matching of the original grid router, kept verbatim (with
// its vector-of-cells detour paths) so route_test can check that the
// production router in src/route/global_router.cpp returns the same paths,
// usage maps and wirelengths bit for bit. Not linked into the library.
#include "route_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_map>

#include "route/wire_models.hpp"

namespace lily::oracle {

namespace {

struct GridMap {
    const Rect region;
    const std::size_t n;

    std::size_t to_col(double x) const {
        const double t = (x - region.ll.x) / std::max(region.width(), 1e-12);
        return std::min(n - 1, static_cast<std::size_t>(std::max(t, 0.0) *
                                                        static_cast<double>(n)));
    }
    std::size_t to_row(double y) const {
        const double t = (y - region.ll.y) / std::max(region.height(), 1e-12);
        return std::min(n - 1, static_cast<std::size_t>(std::max(t, 0.0) *
                                                        static_cast<double>(n)));
    }
    double cell_w() const { return region.width() / static_cast<double>(n); }
    double cell_h() const { return region.height() / static_cast<double>(n); }
};

struct TwoPin {
    std::size_t x0, y0, x1, y1;
};

/// Collect the two-pin connections of every net (edges of its rectilinear
/// MST, in Prim discovery order). Deterministic in the netlist order and the
/// pin coordinates — a net whose pins did not move reproduces the identical
/// connection sequence, which is what route_incremental's geometry diff
/// relies on.
std::vector<TwoPin> build_connections(const PlacementNetlist& nl,
                                      std::span<const Point> cell_positions,
                                      const GridMap& grid) {
    const auto pin_point = [&](const PlacementNetlist::Net& net, std::size_t k) {
        return k < net.cells.size() ? cell_positions[net.cells[k]]
                                    : nl.pad_positions[net.pads[k - net.cells.size()]];
    };
    std::vector<TwoPin> connections;
    for (const PlacementNetlist::Net& net : nl.nets) {
        const std::size_t k = net.pin_count();
        if (k < 2) continue;
        std::vector<Point> pins(k);
        for (std::size_t i = 0; i < k; ++i) pins[i] = pin_point(net, i);
        std::vector<double> best(k, std::numeric_limits<double>::max());
        std::vector<std::size_t> parent(k, 0);
        std::vector<bool> used(k, false);
        best[0] = 0.0;
        for (std::size_t step = 0; step < k; ++step) {
            std::size_t u = k;
            for (std::size_t i = 0; i < k; ++i) {
                if (!used[i] && (u == k || best[i] < best[u])) u = i;
            }
            used[u] = true;
            if (u != 0) {
                connections.push_back({grid.to_col(pins[parent[u]].x),
                                       grid.to_row(pins[parent[u]].y),
                                       grid.to_col(pins[u].x), grid.to_row(pins[u].y)});
            }
            for (std::size_t v2 = 0; v2 < k; ++v2) {
                const double d = manhattan(pins[u], pins[v2]);
                if (!used[v2] && d < best[v2]) {
                    best[v2] = d;
                    parent[v2] = u;
                }
            }
        }
    }
    return connections;
}

/// The shared routing core: congestion map plus the per-connection route
/// operations (L-shape choice/commit, maze detour) both entry points use.
struct Router {
    std::size_t n;
    double capacity;
    double congestion_penalty;
    std::vector<double>& h;  // horizontal edge (x,y)->(x+1,y) at h[x + y*(n-1)]
    std::vector<double>& v;  // vertical edge (x,y)->(x,y+1) at v[x + y*n]

    double& horiz(std::size_t x, std::size_t y) { return h[x + y * (n - 1)]; }
    double& vert(std::size_t x, std::size_t y) { return v[x + y * n]; }
    double edge_cost(double u) const {
        return u < capacity ? 1.0 : 1.0 + congestion_penalty * (u - capacity + 1.0);
    }

    void walk_horiz(std::size_t y, std::size_t xa, std::size_t xb, double delta, double* cost) {
        if (xa > xb) std::swap(xa, xb);
        for (std::size_t x = xa; x < xb; ++x) {
            if (cost != nullptr) *cost += edge_cost(horiz(x, y));
            horiz(x, y) += delta;
        }
    }
    void walk_vert(std::size_t x, std::size_t ya, std::size_t yb, double delta, double* cost) {
        if (ya > yb) std::swap(ya, yb);
        for (std::size_t y = ya; y < yb; ++y) {
            if (cost != nullptr) *cost += edge_cost(vert(x, y));
            vert(x, y) += delta;
        }
    }
    void commit(const TwoPin& c, bool hf, double delta) {
        if (hf) {
            walk_horiz(c.y0, c.x0, c.x1, delta, nullptr);
            walk_vert(c.x1, c.y0, c.y1, delta, nullptr);
        } else {
            walk_vert(c.x0, c.y0, c.y1, delta, nullptr);
            walk_horiz(c.y1, c.x0, c.x1, delta, nullptr);
        }
    }
    bool choose(const TwoPin& c) {
        double cost_a = 0.0;
        walk_horiz(c.y0, c.x0, c.x1, 0.0, &cost_a);
        walk_vert(c.x1, c.y0, c.y1, 0.0, &cost_a);
        double cost_b = 0.0;
        walk_vert(c.x0, c.y0, c.y1, 0.0, &cost_b);
        walk_horiz(c.y1, c.x0, c.x1, 0.0, &cost_b);
        return cost_a <= cost_b;
    }
    bool l_touches_overflow(const TwoPin& c, bool hf) {
        bool hot = false;
        const auto probe_h = [&](std::size_t y, std::size_t xa, std::size_t xb) {
            if (xa > xb) std::swap(xa, xb);
            for (std::size_t x = xa; x < xb; ++x) hot = hot || horiz(x, y) > capacity;
        };
        const auto probe_v = [&](std::size_t x, std::size_t ya, std::size_t yb) {
            if (ya > yb) std::swap(ya, yb);
            for (std::size_t y = ya; y < yb; ++y) hot = hot || vert(x, y) > capacity;
        };
        if (hf) {
            probe_h(c.y0, c.x0, c.x1);
            probe_v(c.x1, c.y0, c.y1);
        } else {
            probe_v(c.x0, c.y0, c.y1);
            probe_h(c.y1, c.x0, c.x1);
        }
        return hot;
    }
    void commit_path(const std::vector<std::pair<std::size_t, std::size_t>>& path,
                     double delta) {
        for (std::size_t s = 0; s + 1 < path.size(); ++s) {
            const auto [x0, y0] = path[s];
            const auto [x1, y1] = path[s + 1];
            if (y0 == y1) {
                horiz(std::min(x0, x1), y0) += delta;
            } else {
                vert(x0, std::min(y0, y1)) += delta;
            }
        }
    }
    /// Dijkstra over grid nodes with congestion-aware edge costs.
    ///
    /// The distance/predecessor arrays live in the Router and are "reset"
    /// by bumping a generation stamp — an entry is live only when its stamp
    /// matches the current search — so each of the thousands of detour
    /// searches skips reallocating and refilling two full-grid arrays. The
    /// open set is a reused vector driven by push_heap/pop_heap, the exact
    /// operations std::priority_queue is specified in terms of. Relaxation
    /// order, tie-breaking, and the returned path are bit-identical to the
    /// fresh-arrays version.
    std::vector<std::pair<std::size_t, std::size_t>> maze_route(const TwoPin& c) {
        const std::size_t nn = n * n;
        const std::uint32_t none = static_cast<std::uint32_t>(nn);
        if (dist_.size() != nn) {
            dist_.assign(nn, 0.0);
            prev_.assign(nn, none);
            stamp_.assign(nn, 0);
            gen_ = 0;
        }
        if (++gen_ == 0) {  // stamp wraparound: invalidate everything once
            std::fill(stamp_.begin(), stamp_.end(), 0);
            gen_ = 1;
        }
        const std::uint32_t gen = gen_;
        using QE = std::pair<double, std::uint32_t>;
        heap_.clear();
        const auto qpush = [&](double d, std::uint32_t u) {
            heap_.push_back({d, u});
            std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        };
        const auto id = [&](std::size_t x, std::size_t y) {
            return static_cast<std::uint32_t>(x + y * n);
        };
        const std::uint32_t src = id(c.x0, c.y0);
        const std::uint32_t dst = id(c.x1, c.y1);
        dist_[src] = 0.0;
        prev_[src] = none;
        stamp_[src] = gen;
        qpush(0.0, src);
        while (!heap_.empty()) {
            const QE top = heap_.front();
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
            heap_.pop_back();
            const auto [d, v] = top;
            if (d > dist_[v]) continue;  // v was queued, so its entry is live
            if (v == dst) break;
            const std::size_t x = v % n;
            const std::size_t y = v / n;
            const auto relax = [&](std::size_t nx, std::size_t ny, double w) {
                const std::uint32_t u = id(nx, ny);
                const double du = stamp_[u] == gen ? dist_[u]
                                                   : std::numeric_limits<double>::max();
                if (d + w < du) {
                    dist_[u] = d + w;
                    prev_[u] = v;
                    stamp_[u] = gen;
                    qpush(dist_[u], u);
                }
            };
            if (x + 1 < n) relax(x + 1, y, edge_cost(horiz(x, y)));
            if (x > 0) relax(x - 1, y, edge_cost(horiz(x - 1, y)));
            if (y + 1 < n) relax(x, y + 1, edge_cost(vert(x, y)));
            if (y > 0) relax(x, y - 1, edge_cost(vert(x, y - 1)));
        }
        std::vector<std::pair<std::size_t, std::size_t>> path;
        for (std::uint32_t v = dst; v != none;) {
            path.push_back({v % n, v / n});
            if (v == src) break;
            v = stamp_[v] == gen ? prev_[v] : none;
        }
        std::reverse(path.begin(), path.end());
        return path;
    }

    // maze_route workspace (see above); default-initialized members keep
    // the aggregate construction sites unchanged.
    std::vector<double> dist_;
    std::vector<std::uint32_t> prev_;
    std::vector<std::uint32_t> stamp_;
    std::vector<std::pair<double, std::uint32_t>> heap_;
    std::uint32_t gen_ = 0;
};

TwoPin to_twopin(const OracleRoute::Connection& c) {
    return {c.x0, c.y0, c.x1, c.y1};
}

/// Wirelength of the final plan plus the congestion summary of the final
/// usage map — shared epilogue of both entry points.
void finalize(OracleRoute& res, const GridMap& grid, double capacity) {
    res.capacity = capacity;
    res.total_wirelength = 0.0;
    res.mazed_connections = 0;
    for (const OracleRoute::Connection& c : res.plan) {
        if (!c.maze_path.empty()) {
            ++res.mazed_connections;
            for (std::size_t s = 0; s + 1 < c.maze_path.size(); ++s) {
                res.total_wirelength += c.maze_path[s].second == c.maze_path[s + 1].second
                                            ? grid.cell_w()
                                            : grid.cell_h();
            }
            continue;
        }
        const double dx =
            static_cast<double>(c.x0 > c.x1 ? c.x0 - c.x1 : c.x1 - c.x0);
        const double dy =
            static_cast<double>(c.y0 > c.y1 ? c.y0 - c.y1 : c.y1 - c.y0);
        res.total_wirelength += dx * grid.cell_w() + dy * grid.cell_h();
    }
    res.max_congestion = 0.0;
    res.total_overflow = 0.0;
    for (const double u : res.h_usage) {
        res.max_congestion = std::max(res.max_congestion, u / capacity);
        res.total_overflow += std::max(0.0, u - capacity);
    }
    for (const double u : res.v_usage) {
        res.max_congestion = std::max(res.max_congestion, u / capacity);
        res.total_overflow += std::max(0.0, u - capacity);
    }
}

std::uint64_t endpoint_key(std::size_t x0, std::size_t y0, std::size_t x1, std::size_t y1) {
    return (static_cast<std::uint64_t>(x0) << 48) | (static_cast<std::uint64_t>(y0) << 32) |
           (static_cast<std::uint64_t>(x1) << 16) | static_cast<std::uint64_t>(y1);
}

}  // namespace

OracleRoute oracle_route_global(const PlacementNetlist& nl,
                                std::span<const Point> cell_positions, const Rect& region,
                                const RouterOptions& opts) {
    OracleRoute res;
    res.grid = opts.grid;
    const std::size_t n = std::max<std::size_t>(opts.grid, 2);
    res.h_usage.assign((n - 1) * n, 0.0);
    res.v_usage.assign(n * (n - 1), 0.0);
    const GridMap grid{region, n};

    const std::vector<TwoPin> connections = build_connections(nl, cell_positions, grid);

    // Estimate capacity from total demand if not given: perfectly even
    // traffic would load every edge equally; allow 60% headroom.
    double capacity = opts.capacity_per_edge;
    if (capacity <= 0.0) {
        double demand = 0.0;
        for (const TwoPin& c : connections) {
            demand += static_cast<double>((c.x0 > c.x1 ? c.x0 - c.x1 : c.x1 - c.x0) +
                                          (c.y0 > c.y1 ? c.y0 - c.y1 : c.y1 - c.y0));
        }
        const double n_edges = static_cast<double>(res.h_usage.size() + res.v_usage.size());
        capacity = std::max(1.0, demand / n_edges * 1.6);
    }

    Router router{n, capacity, opts.congestion_penalty, res.h_usage, res.v_usage, {}, {}, {}, {}, 0};

    // Pass 2: route each connection with the cheaper L-shape; subsequent
    // rip-up passes re-decide against the full congestion picture.
    std::vector<char> horiz_first(connections.size(), 1);
    for (std::size_t i = 0; i < connections.size(); ++i) {
        horiz_first[i] = router.choose(connections[i]) ? 1 : 0;
        router.commit(connections[i], horiz_first[i] != 0, +1.0);
    }
    const auto over_budget = [&] {
        if (opts.budget != nullptr && opts.budget->exhausted()) {
            res.budget_exhausted = true;
            return true;
        }
        return false;
    };

    for (std::size_t pass = 0; pass < opts.reroute_passes && !over_budget(); ++pass) {
        bool changed = false;
        for (std::size_t i = 0; i < connections.size(); ++i) {
            router.commit(connections[i], horiz_first[i] != 0, -1.0);  // rip up
            const char best = router.choose(connections[i]) ? 1 : 0;
            if (best != horiz_first[i]) changed = true;
            horiz_first[i] = best;
            router.commit(connections[i], horiz_first[i] != 0, +1.0);
        }
        if (!changed) break;
    }

    // Maze fallback: connections still touching overflowed edges are ripped
    // up and re-routed with Dijkstra over the congestion costs, allowing
    // detours around hot spots.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> maze_path(
        connections.size());
    for (std::size_t pass = 0; pass < opts.maze_passes && !over_budget(); ++pass) {
        bool changed = false;
        for (std::size_t i = 0; i < connections.size(); ++i) {
            if (over_budget()) break;  // keep remaining connections on their L
            if (!maze_path[i].empty()) continue;  // already detoured
            if (!router.l_touches_overflow(connections[i], horiz_first[i] != 0)) continue;
            router.commit(connections[i], horiz_first[i] != 0, -1.0);
            auto path = router.maze_route(connections[i]);
            if (path.size() >= 2) {
                router.commit_path(path, +1.0);
                maze_path[i] = std::move(path);
                changed = true;
            } else {
                router.commit(connections[i], horiz_first[i] != 0, +1.0);  // degenerate: keep L
            }
        }
        if (!changed) break;
    }

    res.plan.resize(connections.size());
    for (std::size_t i = 0; i < connections.size(); ++i) {
        OracleRoute::Connection& c = res.plan[i];
        c.x0 = static_cast<std::uint32_t>(connections[i].x0);
        c.y0 = static_cast<std::uint32_t>(connections[i].y0);
        c.x1 = static_cast<std::uint32_t>(connections[i].x1);
        c.y1 = static_cast<std::uint32_t>(connections[i].y1);
        c.horiz_first = horiz_first[i] != 0;
        c.maze_path = std::move(maze_path[i]);
    }
    finalize(res, grid, capacity);
    return res;
}

OracleRoute oracle_route_incremental(const PlacementNetlist& nl,
                                     std::span<const Point> cell_positions, const Rect& region,
                                     const OracleRoute& prior, const RouterOptions& opts) {
    const std::size_t n = std::max<std::size_t>(opts.grid, 2);
    if (prior.plan.empty() || prior.grid != opts.grid || prior.capacity <= 0.0 ||
        prior.h_usage.size() != (n - 1) * n || prior.v_usage.size() != n * (n - 1)) {
        return oracle_route_global(nl, cell_positions, region, opts);
    }

    OracleRoute res;
    res.grid = prior.grid;
    res.h_usage = prior.h_usage;
    res.v_usage = prior.v_usage;
    const GridMap grid{region, n};
    const double capacity = prior.capacity;  // keep costs comparable across deltas
    Router router{n, capacity, opts.congestion_penalty, res.h_usage, res.v_usage, {}, {}, {}, {}, 0};

    const std::vector<TwoPin> connections = build_connections(nl, cell_positions, grid);

    // Match new connections against the prior plan by endpoint geometry.
    // A matched connection keeps its prior route and its (already counted)
    // usage; prior routes left unmatched are ripped up; unmatched new
    // connections are routed against the patched congestion map.
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> pool;
    pool.reserve(prior.plan.size());
    for (std::size_t i = 0; i < prior.plan.size(); ++i) {
        const OracleRoute::Connection& c = prior.plan[i];
        pool[endpoint_key(c.x0, c.y0, c.x1, c.y1)].push_back(static_cast<std::uint32_t>(i));
    }

    res.plan.resize(connections.size());
    std::vector<std::size_t> fresh;  // indices into res.plan still to route
    for (std::size_t i = 0; i < connections.size(); ++i) {
        const TwoPin& c = connections[i];
        const auto it = pool.find(endpoint_key(c.x0, c.y0, c.x1, c.y1));
        if (it != pool.end() && !it->second.empty()) {
            res.plan[i] = prior.plan[it->second.back()];
            it->second.pop_back();
            ++res.kept_connections;
        } else {
            res.plan[i].x0 = static_cast<std::uint32_t>(c.x0);
            res.plan[i].y0 = static_cast<std::uint32_t>(c.y0);
            res.plan[i].x1 = static_cast<std::uint32_t>(c.x1);
            res.plan[i].y1 = static_cast<std::uint32_t>(c.y1);
            fresh.push_back(i);
        }
    }
    for (const auto& [key, slots] : pool) {
        for (const std::uint32_t i : slots) {  // vanished: subtract its usage
            const OracleRoute::Connection& c = prior.plan[i];
            if (!c.maze_path.empty()) {
                router.commit_path(c.maze_path, -1.0);
            } else {
                router.commit(to_twopin(c), c.horiz_first, -1.0);
            }
        }
    }

    for (const std::size_t i : fresh) {
        OracleRoute::Connection& c = res.plan[i];
        c.horiz_first = router.choose(to_twopin(c));
        router.commit(to_twopin(c), c.horiz_first, +1.0);
    }
    // One maze pass over the fresh connections only: the kept routes were
    // already refined by the batch run they came from.
    for (const std::size_t i : fresh) {
        OracleRoute::Connection& c = res.plan[i];
        if (!router.l_touches_overflow(to_twopin(c), c.horiz_first)) continue;
        router.commit(to_twopin(c), c.horiz_first, -1.0);
        auto path = router.maze_route(to_twopin(c));
        if (path.size() >= 2) {
            router.commit_path(path, +1.0);
            c.maze_path = std::move(path);
        } else {
            router.commit(to_twopin(c), c.horiz_first, +1.0);
        }
    }
    res.rerouted_connections = fresh.size();

    finalize(res, grid, capacity);
    return res;
}

OracleMaze oracle_maze_route(std::size_t grid, double capacity, double congestion_penalty,
                             std::span<const double> h_usage, std::span<const double> v_usage,
                             std::size_t x0, std::size_t y0, std::size_t x1, std::size_t y1) {
    const std::size_t n = std::max<std::size_t>(grid, 2);
    std::vector<double> h(h_usage.begin(), h_usage.end());
    std::vector<double> v(v_usage.begin(), v_usage.end());
    Router router{n, capacity, congestion_penalty, h, v, {}, {}, {}, {}, 0};
    OracleMaze out;
    out.path = router.maze_route({x0, y0, x1, y1});
    out.cost = router.dist_[x1 + y1 * n];
    return out;
}

}  // namespace lily::oracle
