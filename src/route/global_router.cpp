#include "route/global_router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "route/wire_models.hpp"

namespace lily {

namespace {

using Connection = RouteResult::Connection;

/// The routed grid's side for `opts`, rejecting grids whose coordinates
/// would overflow endpoint_key's 16-bit fields or the 32-bit cell ids.
std::size_t grid_side(const RouterOptions& opts) {
    if (opts.grid > kMaxRouterGrid) {
        throw std::invalid_argument("RouterOptions::grid = " + std::to_string(opts.grid) +
                                    " exceeds the router's limit of " +
                                    std::to_string(kMaxRouterGrid) + " cells per axis");
    }
    return std::max<std::size_t>(opts.grid, 2);
}

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

/// Collect the two-pin connections of every net (edges of its rectilinear
/// MST, in Prim discovery order) into `plan` as L-shape records.
/// Deterministic in the netlist order and the pin coordinates — a net whose
/// pins did not move reproduces the identical connection sequence, which is
/// what route_incremental's geometry diff relies on. One set of Prim
/// buffers serves every net.
void build_connections(const PlacementNetlist& nl, std::span<const Point> cell_positions,
                       const GridMap& grid, std::vector<Connection>& plan) {
    const auto pin_point = [&](const PlacementNetlist::Net& net, std::size_t k) {
        return k < net.cells.size() ? cell_positions[net.cells[k]]
                                    : nl.pad_positions[net.pads[k - net.cells.size()]];
    };
    std::vector<Point> pins;
    std::vector<double> best;
    std::vector<std::size_t> parent;
    std::vector<char> used;
    plan.clear();
    for (const PlacementNetlist::Net& net : nl.nets) {
        const std::size_t k = net.pin_count();
        if (k < 2) continue;
        pins.resize(k);
        for (std::size_t i = 0; i < k; ++i) pins[i] = pin_point(net, i);
        best.assign(k, std::numeric_limits<double>::max());
        parent.assign(k, 0);
        used.assign(k, 0);
        best[0] = 0.0;
        for (std::size_t step = 0; step < k; ++step) {
            std::size_t u = k;
            for (std::size_t i = 0; i < k; ++i) {
                if (used[i] == 0 && (u == k || best[i] < best[u])) u = i;
            }
            used[u] = 1;
            if (u != 0) {
                Connection& c = plan.emplace_back();
                c.x0 = static_cast<std::uint32_t>(grid.to_col(pins[parent[u]].x));
                c.y0 = static_cast<std::uint32_t>(grid.to_row(pins[parent[u]].y));
                c.x1 = static_cast<std::uint32_t>(grid.to_col(pins[u].x));
                c.y1 = static_cast<std::uint32_t>(grid.to_row(pins[u].y));
            }
            for (std::size_t v2 = 0; v2 < k; ++v2) {
                const double d = manhattan(pins[u], pins[v2]);
                if (used[v2] == 0 && d < best[v2]) {
                    best[v2] = d;
                    parent[v2] = u;
                }
            }
        }
    }
}

/// The shared routing core: congestion map plus the per-connection route
/// operations (L-shape choice/commit, maze detour) both entry points use.
class Router {
public:
    Router(std::size_t n, double capacity, double congestion_penalty, std::vector<double>& h,
           std::vector<double>& v)
        : n_(n), capacity_(capacity), penalty_(congestion_penalty), h_(h), v_(v) {}

    std::size_t expanded() const { return expanded_; }

    double edge_cost(double u) const {
        return u < capacity_ ? 1.0 : 1.0 + penalty_ * (u - capacity_ + 1.0);
    }

    /// Cost of the L-shape `hf` under the current usage.
    double l_cost(const Connection& c, bool hf) {
        double cost = 0.0;
        for_l_edges(c, hf, [&](double& u) { cost += edge_cost(u); });
        return cost;
    }
    bool choose(const Connection& c) { return l_cost(c, true) <= l_cost(c, false); }
    void commit(const Connection& c, bool hf, double delta) {
        for_l_edges(c, hf, [&](double& u) { u += delta; });
    }
    bool l_touches_overflow(const Connection& c, bool hf) {
        bool hot = false;
        for_l_edges(c, hf, [&](double& u) { hot = hot || u > capacity_; });
        return hot;
    }
    void commit_path(std::span<const std::uint32_t> path, double delta) {
        for (std::size_t s = 0; s + 1 < path.size(); ++s) {
            const std::uint32_t a = std::min(path[s], path[s + 1]);
            const std::size_t x = a % n_;
            const std::size_t y = a / n_;
            if (path[s] / n_ == path[s + 1] / n_) {
                horiz(x, y) += delta;
            } else {
                vert(x, y) += delta;
            }
        }
    }

    /// Dijkstra over grid nodes with congestion-aware edge costs, bounded
    /// by the goal. Appends the cheapest path (cell ids, source first) to
    /// `out` and returns its length.
    ///
    /// The bound is exact. `ub` is the cost of the cheaper L-shape under the
    /// current usage, and a relaxation is skipped when d + w + h(u) exceeds
    /// ub (plus a relative 1e-9 margin), where h is the Manhattan distance
    /// from u to the target in cells:
    ///  - every edge costs >= 1 (for a non-negative penalty), so h is a
    ///    lower bound on the remaining cost;
    ///  - float + is monotone, so dist[dst] <= ub up to rounding, which the
    ///    margin covers;
    ///  - every node on a cheapest path, and every neighbour that ties for a
    ///    path node's prev, has d + h <= dist[dst], so it is kept;
    ///  - kept nodes pop in the same (d, v) order, and pruned nodes could
    ///    only have set values a later relaxation overwrites.
    /// So dist and prev along the path, and the returned path, are those of
    /// the unbounded search. A negative penalty (edges cheaper than 1)
    /// disables the bound.
    ///
    /// The distance/predecessor arrays live in the Router and are "reset"
    /// by bumping a generation stamp — an entry is live only when its stamp
    /// matches the current search — so each of the thousands of detour
    /// searches skips reallocating and refilling two full-grid arrays. The
    /// open set is a reused vector driven by push_heap/pop_heap, the exact
    /// operations std::priority_queue is specified in terms of.
    std::size_t maze_route(const Connection& c, std::vector<std::uint32_t>& out) {
        const std::size_t nn = n_ * n_;
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
        const double ub = std::min(l_cost(c, true), l_cost(c, false));
        const double limit = penalty_ >= 0.0 ? ub + 1e-9 * std::max(1.0, ub)
                                             : std::numeric_limits<double>::infinity();
        using QE = std::pair<double, std::uint32_t>;
        heap_.clear();
        const auto qpush = [&](double d, std::uint32_t u) {
            heap_.push_back({d, u});
            std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        };
        const auto id = [&](std::size_t x, std::size_t y) {
            return static_cast<std::uint32_t>(x + y * n_);
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
            ++expanded_;
            const auto [d, v] = top;
            if (d > dist_[v]) continue;  // v was queued, so its entry is live
            if (v == dst) break;
            const std::size_t x = v % n_;
            const std::size_t y = v / n_;
            const auto relax = [&](std::size_t nx, std::size_t ny, double w) {
                const double h = static_cast<double>((nx > c.x1 ? nx - c.x1 : c.x1 - nx) +
                                                     (ny > c.y1 ? ny - c.y1 : c.y1 - ny));
                if (d + w + h > limit) return;  // cannot lie on a cheapest path
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
            if (x + 1 < n_) relax(x + 1, y, edge_cost(horiz(x, y)));
            if (x > 0) relax(x - 1, y, edge_cost(horiz(x - 1, y)));
            if (y + 1 < n_) relax(x, y + 1, edge_cost(vert(x, y)));
            if (y > 0) relax(x, y - 1, edge_cost(vert(x, y - 1)));
        }
        const std::size_t start = out.size();
        for (std::uint32_t v = dst; v != none;) {
            out.push_back(v);
            if (v == src) break;
            v = stamp_[v] == gen ? prev_[v] : none;
        }
        std::reverse(out.begin() + static_cast<std::ptrdiff_t>(start), out.end());
        return out.size() - start;
    }

    /// dist at `v` after the last maze_route (its cost when v is the target).
    double dist(std::uint32_t v) const { return dist_[v]; }

private:
    double& horiz(std::size_t x, std::size_t y) { return h_[x + y * (n_ - 1)]; }
    double& vert(std::size_t x, std::size_t y) { return v_[x + y * n_]; }

    /// Visit the usage entries of L-shape `hf`'s edges: each leg in
    /// increasing coordinate order, the leg leaving the source first.
    template <typename F>
    void for_l_edges(const Connection& c, bool hf, F&& f) {
        const auto leg_h = [&](std::size_t y, std::size_t xa, std::size_t xb) {
            for (std::size_t x = std::min(xa, xb); x < std::max(xa, xb); ++x) f(horiz(x, y));
        };
        const auto leg_v = [&](std::size_t x, std::size_t ya, std::size_t yb) {
            for (std::size_t y = std::min(ya, yb); y < std::max(ya, yb); ++y) f(vert(x, y));
        };
        if (hf) {
            leg_h(c.y0, c.x0, c.x1);
            leg_v(c.x1, c.y0, c.y1);
        } else {
            leg_v(c.x0, c.y0, c.y1);
            leg_h(c.y1, c.x0, c.x1);
        }
    }

    std::size_t n_;
    double capacity_;
    double penalty_;
    std::vector<double>& h_;  // horizontal edge (x,y)->(x+1,y) at h[x + y*(n-1)]
    std::vector<double>& v_;  // vertical edge (x,y)->(x,y+1) at v[x + y*n]

    // maze_route workspace (see above).
    std::vector<double> dist_;
    std::vector<std::uint32_t> prev_;
    std::vector<std::uint32_t> stamp_;
    std::vector<std::pair<double, std::uint32_t>> heap_;
    std::uint32_t gen_ = 0;
    std::size_t expanded_ = 0;
};

/// Rip up connection `c` (on its L-shape) and maze-route it, recording the
/// detour in `res`'s arena; a degenerate search result keeps the L.
void maze_detour(Router& router, RouteResult& res, Connection& c) {
    router.commit(c, c.horiz_first, -1.0);
    const std::size_t start = res.maze_cells.size();
    const std::size_t len = router.maze_route(c, res.maze_cells);
    ++res.maze_searches;
    if (len >= 2) {
        c.path_offset = static_cast<std::uint32_t>(start);
        c.path_length = static_cast<std::uint32_t>(len);
        router.commit_path(res.detour(c), +1.0);
    } else {
        res.maze_cells.resize(start);
        router.commit(c, c.horiz_first, +1.0);  // degenerate: keep L
    }
}

/// Wirelength of the final plan plus the congestion summary of the final
/// usage map — shared epilogue of both entry points.
void finalize(RouteResult& res, const GridMap& grid, double capacity,
              const Router& router) {
    res.capacity = capacity;
    res.maze_expanded = router.expanded();
    res.total_wirelength = 0.0;
    res.mazed_connections = 0;
    for (const Connection& c : res.plan) {
        if (c.path_length != 0) {
            ++res.mazed_connections;
            const std::span<const std::uint32_t> path = res.detour(c);
            for (std::size_t s = 0; s + 1 < path.size(); ++s) {
                res.total_wirelength +=
                    path[s] / grid.n == path[s + 1] / grid.n ? grid.cell_w() : grid.cell_h();
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

std::uint64_t endpoint_key(const Connection& c) {
    return (static_cast<std::uint64_t>(c.x0) << 48) | (static_cast<std::uint64_t>(c.y0) << 32) |
           (static_cast<std::uint64_t>(c.x1) << 16) | static_cast<std::uint64_t>(c.y1);
}

}  // namespace

MazeSearch maze_search(std::size_t grid, double capacity, double congestion_penalty,
                       std::span<const double> h_usage, std::span<const double> v_usage,
                       std::uint32_t x0, std::uint32_t y0, std::uint32_t x1, std::uint32_t y1) {
    RouterOptions opts;
    opts.grid = grid;
    const std::size_t n = grid_side(opts);
    std::vector<double> h(h_usage.begin(), h_usage.end());
    std::vector<double> v(v_usage.begin(), v_usage.end());
    if (h.size() != (n - 1) * n || v.size() != n * (n - 1) || std::max(x0, x1) >= n ||
        std::max(y0, y1) >= n) {
        throw std::invalid_argument("maze_search: usage map or endpoints do not fit the grid");
    }
    Router router(n, capacity, congestion_penalty, h, v);
    Connection c;
    c.x0 = x0;
    c.y0 = y0;
    c.x1 = x1;
    c.y1 = y1;
    MazeSearch out;
    router.maze_route(c, out.path);
    out.cost = router.dist(x1 + y1 * static_cast<std::uint32_t>(n));
    out.expanded = router.expanded();
    return out;
}

RouteResult route_global(const PlacementNetlist& nl, std::span<const Point> cell_positions,
                         const Rect& region, const RouterOptions& opts) {
    const std::size_t n = grid_side(opts);
    RouteResult res;
    res.grid = opts.grid;
    res.h_usage.assign((n - 1) * n, 0.0);
    res.v_usage.assign(n * (n - 1), 0.0);
    const GridMap grid{region, n};

    build_connections(nl, cell_positions, grid, res.plan);
    std::vector<Connection>& plan = res.plan;

    // Estimate capacity from total demand if not given: perfectly even
    // traffic would load every edge equally; allow 60% headroom.
    double capacity = opts.capacity_per_edge;
    if (capacity <= 0.0) {
        double demand = 0.0;
        for (const Connection& c : plan) {
            demand += static_cast<double>((c.x0 > c.x1 ? c.x0 - c.x1 : c.x1 - c.x0) +
                                          (c.y0 > c.y1 ? c.y0 - c.y1 : c.y1 - c.y0));
        }
        const double n_edges = static_cast<double>(res.h_usage.size() + res.v_usage.size());
        capacity = std::max(1.0, demand / n_edges * 1.6);
    }

    Router router(n, capacity, opts.congestion_penalty, res.h_usage, res.v_usage);

    // Pass 2: route each connection with the cheaper L-shape; subsequent
    // rip-up passes re-decide against the full congestion picture.
    for (Connection& c : plan) {
        c.horiz_first = router.choose(c);
        router.commit(c, c.horiz_first, +1.0);
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
        for (Connection& c : plan) {
            router.commit(c, c.horiz_first, -1.0);  // rip up
            const bool best = router.choose(c);
            if (best != c.horiz_first) changed = true;
            c.horiz_first = best;
            router.commit(c, c.horiz_first, +1.0);
        }
        if (!changed) break;
    }

    // Maze fallback: connections still touching overflowed edges are ripped
    // up and re-routed with Dijkstra over the congestion costs, allowing
    // detours around hot spots.
    for (std::size_t pass = 0; pass < opts.maze_passes && !over_budget(); ++pass) {
        bool changed = false;
        for (Connection& c : plan) {
            if (over_budget()) break;  // keep remaining connections on their L
            if (c.path_length != 0) continue;  // already detoured
            if (!router.l_touches_overflow(c, c.horiz_first)) continue;
            maze_detour(router, res, c);
            if (c.path_length != 0) changed = true;
        }
        if (!changed) break;
    }

    finalize(res, grid, capacity, router);
    return res;
}

RouteResult route_incremental(const PlacementNetlist& nl, std::span<const Point> cell_positions,
                              const Rect& region, const RouteResult& prior,
                              const RouterOptions& opts) {
    const std::size_t n = grid_side(opts);
    if (prior.plan.empty() || prior.grid != opts.grid || prior.capacity <= 0.0 ||
        prior.h_usage.size() != (n - 1) * n || prior.v_usage.size() != n * (n - 1)) {
        return route_global(nl, cell_positions, region, opts);
    }

    RouteResult res;
    res.grid = prior.grid;
    res.h_usage = prior.h_usage;
    res.v_usage = prior.v_usage;
    const GridMap grid{region, n};
    const double capacity = prior.capacity;  // keep costs comparable across deltas
    Router router(n, capacity, opts.congestion_penalty, res.h_usage, res.v_usage);

    build_connections(nl, cell_positions, grid, res.plan);

    // Match new connections against the prior plan by endpoint geometry.
    // A matched connection keeps its prior route and its (already counted)
    // usage; prior routes left unmatched are ripped up; unmatched new
    // connections are routed against the patched congestion map. The prior
    // plan is sorted by (key, index); top[g] is one past the last unused
    // entry of the key group starting at g, so a key hands out its highest
    // unused prior index first.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> by_key(prior.plan.size());
    for (std::size_t i = 0; i < prior.plan.size(); ++i) {
        by_key[i] = {endpoint_key(prior.plan[i]), static_cast<std::uint32_t>(i)};
    }
    std::sort(by_key.begin(), by_key.end());
    std::vector<std::uint32_t> top(by_key.size());
    for (std::size_t g = 0; g < by_key.size();) {
        std::size_t e = g;
        while (e < by_key.size() && by_key[e].first == by_key[g].first) ++e;
        top[g] = static_cast<std::uint32_t>(e);
        g = e;
    }
    std::vector<char> kept(prior.plan.size(), 0);
    std::vector<std::uint32_t> fresh;  // indices into res.plan still to route
    res.maze_cells.reserve(prior.maze_cells.size());
    for (std::size_t i = 0; i < res.plan.size(); ++i) {
        Connection& c = res.plan[i];
        const std::uint64_t key = endpoint_key(c);
        const auto it = std::lower_bound(by_key.begin(), by_key.end(),
                                         std::pair<std::uint64_t, std::uint32_t>{key, 0});
        const std::size_t g = static_cast<std::size_t>(it - by_key.begin());
        if (it == by_key.end() || it->first != key || top[g] == g) {
            fresh.push_back(static_cast<std::uint32_t>(i));
            continue;
        }
        const std::uint32_t j = by_key[--top[g]].second;
        kept[j] = 1;
        c = prior.plan[j];
        if (c.path_length != 0) {
            const std::span<const std::uint32_t> path = prior.detour(c);
            c.path_offset = static_cast<std::uint32_t>(res.maze_cells.size());
            res.maze_cells.insert(res.maze_cells.end(), path.begin(), path.end());
        }
        ++res.kept_connections;
    }
    // Vanished routes give their usage back, in prior-plan order. Usage
    // entries are sums of +-1.0, exact integers in a double, so the order
    // cannot change a bit of the map.
    for (std::size_t j = 0; j < prior.plan.size(); ++j) {
        if (kept[j] != 0) continue;
        const Connection& c = prior.plan[j];
        if (c.path_length != 0) {
            router.commit_path(prior.detour(c), -1.0);
        } else {
            router.commit(c, c.horiz_first, -1.0);
        }
    }

    for (const std::uint32_t i : fresh) {
        Connection& c = res.plan[i];
        c.horiz_first = router.choose(c);
        router.commit(c, c.horiz_first, +1.0);
    }
    // One maze pass over the fresh connections only: the kept routes were
    // already refined by the batch run they came from. On budget
    // exhaustion the rest keep their L-shapes.
    for (const std::uint32_t i : fresh) {
        if (opts.budget != nullptr && opts.budget->exhausted()) {
            res.budget_exhausted = true;
            break;
        }
        Connection& c = res.plan[i];
        if (!router.l_touches_overflow(c, c.horiz_first)) continue;
        maze_detour(router, res, c);
    }
    res.rerouted_connections = fresh.size();

    finalize(res, grid, capacity, router);
    return res;
}

}  // namespace lily
