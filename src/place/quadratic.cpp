#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "place/placement.hpp"

namespace lily {

double PlacementNetlist::total_cell_area() const {
    double a = 0.0;
    for (const double c : cell_area) a += c;
    return a;
}

void PlacementNetlist::check() const {
    if (cell_area.size() != n_cells) throw std::logic_error("PlacementNetlist: area size");
    for (const Net& net : nets) {
        for (const std::size_t c : net.cells) {
            if (c >= n_cells) throw std::logic_error("PlacementNetlist: bad cell index");
        }
        for (const std::size_t p : net.pads) {
            if (p >= pad_positions.size()) throw std::logic_error("PlacementNetlist: bad pad");
        }
    }
}

namespace {

thread_local QpCounters t_qp;

void validate(const GlobalPlacementOptions& opts) {
    const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
    if (opts.max_cells_per_region < 1) {
        throw std::invalid_argument("placement: max_cells_per_region must be >= 1");
    }
    if (!positive(opts.anchor_weight)) {
        throw std::invalid_argument("placement: anchor_weight must be finite and > 0");
    }
    if (!positive(opts.cg_tolerance)) {
        throw std::invalid_argument("placement: cg_tolerance must be finite and > 0");
    }
    if (opts.cg_max_iters < 1) {
        throw std::invalid_argument("placement: cg_max_iters must be >= 1");
    }
}

struct Region {
    Rect rect;
    std::vector<std::size_t> cells;
};

}  // namespace

QpCounters qp_counters() { return t_qp; }

QpCounters qp_span_start() {
    t_qp.cg_residual = 0.0;
    return t_qp;
}

// The connectivity part of the quadratic system: clique springs with weight
// 2/k per pin pair, and pad springs folded into the diagonal (their
// positions go to the right-hand side, see set_pads). Region anchors are
// the only matrix terms that change between solves, and they touch only
// the diagonal and the right-hand side — so each solve refolds the anchor
// slot in place (set_anchor, bit-identical to a full re-assembly with that
// weight) instead of re-building and re-sorting every triplet.
QuadraticPlacer::QuadraticPlacer(const PlacementNetlist& nl) : nl_(nl) {
    nl.check();
    const std::size_t n = nl.n_cells;
    SparseMatrix::Builder builder(n);
    for (const PlacementNetlist::Net& net : nl.nets) {
        const std::size_t k = net.pin_count();
        if (k < 2) continue;
        const double w = 2.0 / static_cast<double>(k);
        for (std::size_t i = 0; i < net.cells.size(); ++i) {
            // Cell-cell springs.
            for (std::size_t j = i + 1; j < net.cells.size(); ++j) {
                builder.add_spring(net.cells[i], net.cells[j], w);
            }
            // Cell-pad springs (pad is fixed: diagonal + rhs).
            for (const std::size_t p : net.pads) {
                builder.add_anchor(net.cells[i], w);
                pad_terms_.push_back({static_cast<std::uint32_t>(net.cells[i]),
                                      static_cast<std::uint32_t>(p), w});
            }
        }
    }
    // Reserve a refreshable anchor slot on every diagonal; per-solve anchor
    // weights are folded in by set_anchor in the slot's exact sort position.
    for (std::size_t c = 0; c < n; ++c) builder.add_anchor_slot(c);
    a_ = std::move(builder).build();
    cg_.resize(n);
    ++t_qp.assemblies;
}

void QuadraticPlacer::set_pads(std::span<const Point> pads) {
    if (pads.size() != nl_.pad_positions.size()) {
        throw std::invalid_argument("QuadraticPlacer: pad count mismatch");
    }
    base_b_.assign(2 * nl_.n_cells, 0.0);
    for (const PadTerm& t : pad_terms_) {
        base_b_[2 * t.cell] += t.w * pads[t.pad].x;
        base_b_[2 * t.cell + 1] += t.w * pads[t.pad].y;
    }
}

/// One quadratic solve against the assembled system: region anchors go into
/// the diagonal and rhs, then both axes are solved. Returns false when the
/// stage budget fired before both axes converged.
bool QuadraticPlacer::solve(std::span<const Point> anchor_pos, std::span<const double> anchor_w,
                            const GlobalPlacementOptions& opts, std::vector<Point>& positions) {
    const std::size_t n = nl_.n_cells;
    if (n == 0) return true;
    double* const b = cg_.b.data();
    double* const x = cg_.x.data();
    for (std::size_t c = 0; c < n; ++c) {
        const double w = std::max(anchor_w[c], 1e-9);
        a_.set_anchor(c, w);
        b[2 * c] = base_b_[2 * c] + w * anchor_pos[c].x;
        b[2 * c + 1] = base_b_[2 * c + 1] + w * anchor_pos[c].y;
        x[2 * c] = positions[c].x;
        x[2 * c + 1] = positions[c].y;
    }
    // Both axes share one Laplacian: they are the two lanes of one solve,
    // and each lane's arithmetic is exactly a standalone scalar solve.
    const auto [rx, ry] =
        conjugate_gradient_pair(a_, cg_, opts.cg_tolerance, opts.cg_max_iters, opts.budget);
    t_qp.cg_iterations += rx.iterations + ry.iterations;
    t_qp.cg_residual = std::max({t_qp.cg_residual, rx.residual_norm, ry.residual_norm});
    for (std::size_t c = 0; c < n; ++c) positions[c] = {x[2 * c], x[2 * c + 1]};
    return !rx.budget_exhausted && !ry.budget_exhausted;
}

GlobalPlacement QuadraticPlacer::place_quadratic(std::span<const Point> pads, const Rect& region,
                                                 const GlobalPlacementOptions& opts) {
    validate(opts);
    set_pads(pads);
    GlobalPlacement out;
    out.region = region;
    out.positions.assign(nl_.n_cells, region.center());
    const std::vector<Point> anchor_pos(nl_.n_cells, region.center());
    const std::vector<double> anchor_w(nl_.n_cells, opts.anchor_weight * 1e-3);
    out.budget_exhausted = !solve(anchor_pos, anchor_w, opts, out.positions);
    return out;
}

GlobalPlacement QuadraticPlacer::place_global(std::span<const Point> pads, const Rect& region,
                                              const GlobalPlacementOptions& opts) {
    GlobalPlacement out = place_quadratic(pads, region, opts);
    const PlacementNetlist& nl = nl_;
    if (nl.n_cells == 0) return out;

    // Recursive bipartitioning with center-of-mass anchoring (GORDIAN
    // style): regions are split along their longer side, cells are divided
    // by their current coordinate so each half receives (close to) half the
    // cell area, then the whole system is re-solved with every cell pulled
    // toward its region center. Only the anchor diagonal changes between
    // rounds (see solve).
    std::vector<Region> regions(1);
    regions[0].rect = region;
    regions[0].cells.resize(nl.n_cells);
    for (std::size_t c = 0; c < nl.n_cells; ++c) regions[0].cells[c] = c;

    double anchor = opts.anchor_weight;
    std::vector<Point> anchor_pos(nl.n_cells, region.center());
    std::vector<double> anchor_w(nl.n_cells, 0.0);
    std::vector<std::pair<double, std::size_t>> keyed;  // region-split sort scratch

    while (true) {
        // Budget guard: stop refining and keep the coarser (still legal)
        // placement from the previous level.
        if (opts.budget != nullptr && opts.budget->exhausted()) {
            out.budget_exhausted = true;
            break;
        }
        // Split every oversized region, in region order.
        bool any_split = false;
        std::vector<Region> next;
        next.reserve(regions.size() * 2);
        for (Region& r : regions) {
            if (r.cells.size() <= opts.max_cells_per_region) {
                next.push_back(std::move(r));
                continue;
            }
            any_split = true;
            const bool split_x = r.rect.width() >= r.rect.height();
            // Sort (coordinate, cell) pairs on the coordinate alone: the
            // same comparison outcomes as comparing through the positions,
            // so std::sort applies the same permutation, without the
            // indirect loads.
            keyed.clear();
            for (const std::size_t c : r.cells) {
                keyed.push_back({split_x ? out.positions[c].x : out.positions[c].y, c});
            }
            std::sort(keyed.begin(), keyed.end(),
                      [](const auto& a, const auto& b) { return a.first < b.first; });
            for (std::size_t i = 0; i < keyed.size(); ++i) r.cells[i] = keyed[i].second;
            // Area-balanced cut point.
            double total = 0.0;
            for (const std::size_t c : r.cells) total += nl.cell_area[c];
            double acc = 0.0;
            std::size_t cut = 0;
            while (cut < r.cells.size() && acc + nl.cell_area[r.cells[cut]] / 2.0 < total / 2.0) {
                acc += nl.cell_area[r.cells[cut]];
                ++cut;
            }
            cut = std::clamp<std::size_t>(cut, 1, r.cells.size() - 1);
            const double frac = total > 0 ? acc / total : 0.5;

            Region lo, hi;
            if (split_x) {
                const double split_at = r.rect.ll.x + r.rect.width() * frac;
                lo.rect = {r.rect.ll, {split_at, r.rect.ur.y}};
                hi.rect = {{split_at, r.rect.ll.y}, r.rect.ur};
            } else {
                const double split_at = r.rect.ll.y + r.rect.height() * frac;
                lo.rect = {r.rect.ll, {r.rect.ur.x, split_at}};
                hi.rect = {{r.rect.ll.x, split_at}, r.rect.ur};
            }
            const auto mid = r.cells.begin() + static_cast<std::ptrdiff_t>(cut);
            lo.cells.assign(r.cells.begin(), mid);
            hi.cells.assign(mid, r.cells.end());
            next.push_back(std::move(lo));
            next.push_back(std::move(hi));
        }
        regions = std::move(next);
        if (!any_split) break;

        ++out.partition_levels;
        for (const Region& r : regions) {
            for (const std::size_t c : r.cells) {
                anchor_pos[c] = r.rect.center();
                anchor_w[c] = anchor;
            }
        }
        if (!solve(anchor_pos, anchor_w, opts, out.positions)) {
            out.budget_exhausted = true;
            break;
        }
        anchor *= 2.0;  // firm up level by level
    }

    // Clamp into the region (anchors keep everything inside in practice).
    for (Point& p : out.positions) {
        p.x = std::clamp(p.x, region.ll.x, region.ur.x);
        p.y = std::clamp(p.y, region.ll.y, region.ur.y);
    }
    return out;
}

GlobalPlacement place_quadratic(const PlacementNetlist& nl, const Rect& region,
                                const GlobalPlacementOptions& opts) {
    return QuadraticPlacer(nl).place_quadratic(nl.pad_positions, region, opts);
}

GlobalPlacement place_global(const PlacementNetlist& nl, const Rect& region,
                             const GlobalPlacementOptions& opts) {
    return QuadraticPlacer(nl).place_global(nl.pad_positions, region, opts);
}

IncrementalPlacement place_incremental(const PlacementNetlist& nl, const Rect& region,
                                       std::vector<Point>& positions,
                                       std::span<const std::size_t> dirty,
                                       const GlobalPlacementOptions& opts) {
    nl.check();
    if (positions.size() != nl.n_cells) {
        throw std::invalid_argument("place_incremental: positions/cells size mismatch");
    }
    IncrementalPlacement out;
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::vector<std::size_t> local(nl.n_cells, npos);
    std::vector<std::size_t> cells;  // dirty cells, deduplicated, input order
    for (const std::size_t c : dirty) {
        if (c >= nl.n_cells) {
            throw std::invalid_argument("place_incremental: bad dirty cell index");
        }
        if (local[c] != npos) continue;
        local[c] = cells.size();
        cells.push_back(c);
    }
    out.solved_cells = cells.size();
    if (cells.empty()) {
        out.converged = true;
        return out;
    }
    const std::size_t n = cells.size();

    // Dirty subsystem: clique springs between dirty pins, frozen pins folded
    // into the diagonal and the right-hand side (exactly how the
    // QuadraticPlacer treats pads).
    SparseMatrix::Builder builder(n);
    CgWorkspace ws;
    ws.resize(n);
    double* const b = ws.b.data();  // lane vector: (x, y) per dirty cell
    for (const PlacementNetlist::Net& net : nl.nets) {
        const std::size_t k = net.pin_count();
        if (k < 2) continue;
        bool touches = false;
        for (const std::size_t c : net.cells) {
            if (local[c] != npos) {
                touches = true;
                break;
            }
        }
        if (!touches) continue;
        const double w = 2.0 / static_cast<double>(k);
        for (std::size_t i = 0; i < net.cells.size(); ++i) {
            const std::size_t ci = net.cells[i];
            const std::size_t li = local[ci];
            for (std::size_t j = i + 1; j < net.cells.size(); ++j) {
                const std::size_t cj = net.cells[j];
                const std::size_t lj = local[cj];
                if (li != npos && lj != npos) {
                    builder.add_spring(li, lj, w);
                } else if (li != npos) {
                    builder.add_anchor(li, w);
                    b[2 * li] += w * positions[cj].x;
                    b[2 * li + 1] += w * positions[cj].y;
                } else if (lj != npos) {
                    builder.add_anchor(lj, w);
                    b[2 * lj] += w * positions[ci].x;
                    b[2 * lj + 1] += w * positions[ci].y;
                }
            }
            if (li == npos) continue;
            for (const std::size_t p : net.pads) {
                builder.add_anchor(li, w);
                b[2 * li] += w * nl.pad_positions[p].x;
                b[2 * li + 1] += w * nl.pad_positions[p].y;
            }
        }
    }
    // Weak center pull keeps cells with no frozen neighbor well-posed — the
    // same floor weight place_quadratic uses at level 0.
    const double w0 = std::max(opts.anchor_weight * 1e-3, 1e-9);
    const Point center = region.center();
    for (std::size_t i = 0; i < n; ++i) {
        builder.add_anchor(i, w0);
        b[2 * i] += w0 * center.x;
        b[2 * i + 1] += w0 * center.y;
    }
    const SparseMatrix a = std::move(builder).build();

    double* const x = ws.x.data();
    for (std::size_t i = 0; i < n; ++i) {
        x[2 * i] = positions[cells[i]].x;
        x[2 * i + 1] = positions[cells[i]].y;
    }
    const auto [rx, ry] =
        conjugate_gradient_pair(a, ws, opts.cg_tolerance, opts.cg_max_iters, opts.budget);
    out.cg_iterations = rx.iterations + ry.iterations;
    out.converged = rx.converged && ry.converged;
    out.budget_exhausted = rx.budget_exhausted || ry.budget_exhausted;
    for (std::size_t i = 0; i < n; ++i) {
        positions[cells[i]] = {std::clamp(x[2 * i], region.ll.x, region.ur.x),
                               std::clamp(x[2 * i + 1], region.ll.y, region.ur.y)};
    }
    return out;
}

double total_hpwl(const PlacementNetlist& nl, std::span<const Point> cell_positions) {
    double sum = 0.0;
    for (const PlacementNetlist::Net& net : nl.nets) {
        Rect bb;
        for (const std::size_t c : net.cells) bb.expand(cell_positions[c]);
        for (const std::size_t p : net.pads) bb.expand(nl.pad_positions[p]);
        sum += bb.half_perimeter();
    }
    return sum;
}

double quadratic_objective(const PlacementNetlist& nl, std::span<const Point> cell_positions) {
    double sum = 0.0;
    for (const PlacementNetlist::Net& net : nl.nets) {
        const std::size_t k = net.pin_count();
        if (k < 2) continue;
        const double w = 2.0 / static_cast<double>(k);
        std::vector<Point> pins;
        pins.reserve(k);
        for (const std::size_t c : net.cells) pins.push_back(cell_positions[c]);
        for (const std::size_t p : net.pads) pins.push_back(nl.pad_positions[p]);
        for (std::size_t i = 0; i < pins.size(); ++i) {
            for (std::size_t j = i + 1; j < pins.size(); ++j) {
                sum += w * euclidean_sq(pins[i], pins[j]);
            }
        }
    }
    return sum;
}

}  // namespace lily
