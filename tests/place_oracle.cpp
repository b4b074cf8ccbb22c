// Reference copy of the quadratic placer and the pad placement as they ran
// before one Laplacian was shared per netlist: place_quadratic assembles
// its own system, place_global assembles a second one after its level-0
// solve, and place_pads copies the netlist, solves against a uniform ring
// and finds each pad's nets with std::find over every net. Verbatim on the
// 1-thread path: the chunked assembly concatenated its chunks in net order,
// so it is written out as the serial net loop, and the region splits as
// the serial region loop. Tests hold the production placer to this copy
// bit for bit.
#include "place_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cg_oracle.hpp"

namespace lily::oracle {

namespace {

struct QpSystem {
    OracleMatrix a;
    std::vector<double> base_bx;
    std::vector<double> base_by;
    std::vector<double> bx, by, x, y;
    OracleCgWorkspace cg_x, cg_y;
};

QpSystem build_qp_system(const PlacementNetlist& nl) {
    const std::size_t n = nl.n_cells;
    QpSystem sys;
    sys.base_bx.assign(n, 0.0);
    sys.base_by.assign(n, 0.0);

    OracleMatrix::Builder builder(n);
    for (std::size_t ni = 0; ni < nl.nets.size(); ++ni) {
        const PlacementNetlist::Net& net = nl.nets[ni];
        const std::size_t k = net.pin_count();
        if (k < 2) continue;
        const double w = 2.0 / static_cast<double>(k);
        for (std::size_t i = 0; i < net.cells.size(); ++i) {
            for (std::size_t j = i + 1; j < net.cells.size(); ++j) {
                builder.add_spring(net.cells[i], net.cells[j], w);
            }
            for (const std::size_t p : net.pads) {
                builder.add_anchor(net.cells[i], w);
                sys.base_bx[net.cells[i]] += w * nl.pad_positions[p].x;
                sys.base_by[net.cells[i]] += w * nl.pad_positions[p].y;
            }
        }
    }
    for (std::size_t c = 0; c < n; ++c) builder.add_anchor_slot(c);

    sys.a = std::move(builder).build();
    sys.bx.resize(n);
    sys.by.resize(n);
    sys.x.resize(n);
    sys.y.resize(n);
    return sys;
}

bool solve_qp(QpSystem& sys, const PlacementNetlist& nl, std::span<const Point> anchor_pos,
              std::span<const double> anchor_w, const GlobalPlacementOptions& opts,
              std::vector<Point>& positions) {
    const std::size_t n = nl.n_cells;
    if (n == 0) return true;

    for (std::size_t c = 0; c < n; ++c) {
        const double w = std::max(anchor_w[c], 1e-9);
        sys.a.set_anchor(c, w);
        sys.bx[c] = sys.base_bx[c] + w * anchor_pos[c].x;
        sys.by[c] = sys.base_by[c] + w * anchor_pos[c].y;
        sys.x[c] = positions[c].x;
        sys.y[c] = positions[c].y;
    }
    const auto [rx, ry] =
        oracle_conjugate_gradient_pair(sys.a, sys.bx, sys.x, sys.cg_x, sys.by, sys.y, sys.cg_y,
                                       opts.cg_tolerance, opts.cg_max_iters, opts.budget);
    for (std::size_t c = 0; c < n; ++c) positions[c] = {sys.x[c], sys.y[c]};
    return !rx.budget_exhausted && !ry.budget_exhausted;
}

struct Region {
    Rect rect;
    std::vector<std::size_t> cells;
};

Point boundary_point(const Rect& r, double t) {
    const double w = r.width();
    const double h = r.height();
    if (t < w) return {r.ll.x + t, r.ll.y};
    t -= w;
    if (t < h) return {r.ur.x, r.ll.y + t};
    t -= h;
    if (t < w) return {r.ur.x - t, r.ur.y};
    t -= w;
    return {r.ll.x, r.ur.y - t};
}

double angle_from_center(const Rect& r, const Point& p) {
    const Point c = r.center();
    return std::atan2(p.y - c.y, p.x - c.x);
}

}  // namespace

GlobalPlacement oracle_place_quadratic(const PlacementNetlist& nl, const Rect& region,
                                       const GlobalPlacementOptions& opts) {
    nl.check();
    GlobalPlacement out;
    out.region = region;
    out.positions.assign(nl.n_cells, region.center());
    std::vector<Point> anchor_pos(nl.n_cells, region.center());
    std::vector<double> anchor_w(nl.n_cells, opts.anchor_weight * 1e-3);
    QpSystem sys = build_qp_system(nl);
    out.budget_exhausted = !solve_qp(sys, nl, anchor_pos, anchor_w, opts, out.positions);
    return out;
}

GlobalPlacement oracle_place_global(const PlacementNetlist& nl, const Rect& region,
                                    const GlobalPlacementOptions& opts) {
    GlobalPlacement out = oracle_place_quadratic(nl, region, opts);
    if (nl.n_cells == 0) return out;

    std::vector<Region> regions(1);
    regions[0].rect = region;
    regions[0].cells.resize(nl.n_cells);
    for (std::size_t c = 0; c < nl.n_cells; ++c) regions[0].cells[c] = c;

    double anchor = opts.anchor_weight;
    std::vector<Point> anchor_pos(nl.n_cells, region.center());
    std::vector<double> anchor_w(nl.n_cells, 0.0);
    QpSystem sys = build_qp_system(nl);

    while (true) {
        if (opts.budget != nullptr && opts.budget->exhausted()) {
            out.budget_exhausted = true;
            break;
        }
        struct SplitOut {
            bool split = false;
            Region lo, hi;
            Region keep;
        };
        std::vector<SplitOut> splits(regions.size());
        for (std::size_t ri = 0; ri < regions.size(); ++ri) {
            Region& r = regions[ri];
            SplitOut& s = splits[ri];
            if (r.cells.size() <= opts.max_cells_per_region) {
                s.keep = std::move(r);
                continue;
            }
            s.split = true;
            const bool split_x = r.rect.width() >= r.rect.height();
            std::sort(r.cells.begin(), r.cells.end(), [&](std::size_t a, std::size_t b) {
                return split_x ? out.positions[a].x < out.positions[b].x
                               : out.positions[a].y < out.positions[b].y;
            });
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

            if (split_x) {
                const double split_at = r.rect.ll.x + r.rect.width() * frac;
                s.lo.rect = {r.rect.ll, {split_at, r.rect.ur.y}};
                s.hi.rect = {{split_at, r.rect.ll.y}, r.rect.ur};
            } else {
                const double split_at = r.rect.ll.y + r.rect.height() * frac;
                s.lo.rect = {r.rect.ll, {r.rect.ur.x, split_at}};
                s.hi.rect = {{r.rect.ll.x, split_at}, r.rect.ur};
            }
            s.lo.cells.assign(r.cells.begin(), r.cells.begin() + static_cast<std::ptrdiff_t>(cut));
            s.hi.cells.assign(r.cells.begin() + static_cast<std::ptrdiff_t>(cut), r.cells.end());
        }

        bool any_split = false;
        std::vector<Region> next;
        next.reserve(regions.size() * 2);
        for (SplitOut& s : splits) {
            if (s.split) {
                any_split = true;
                next.push_back(std::move(s.lo));
                next.push_back(std::move(s.hi));
            } else {
                next.push_back(std::move(s.keep));
            }
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
        if (!solve_qp(sys, nl, anchor_pos, anchor_w, opts, out.positions)) {
            out.budget_exhausted = true;
            break;
        }
        anchor *= 2.0;
    }

    for (Point& p : out.positions) {
        p.x = std::clamp(p.x, region.ll.x, region.ur.x);
        p.y = std::clamp(p.y, region.ll.y, region.ur.y);
    }
    return out;
}

std::vector<Point> oracle_place_pads(const PlacementNetlist& nl, const Rect& region) {
    const std::size_t n_pads = nl.pad_positions.size();
    if (n_pads == 0) return {};

    PlacementNetlist seeded = nl;
    seeded.pad_positions = uniform_pad_ring(n_pads, region);
    const GlobalPlacement seed = oracle_place_quadratic(seeded, region);

    std::vector<double> angle(n_pads);
    for (std::size_t p = 0; p < n_pads; ++p) {
        Point sum{};
        double cnt = 0;
        for (const PlacementNetlist::Net& net : nl.nets) {
            if (std::find(net.pads.begin(), net.pads.end(), p) == net.pads.end()) continue;
            for (const std::size_t c : net.cells) {
                sum += seed.positions[c];
                cnt += 1.0;
            }
        }
        const Point target = cnt > 0 ? sum / cnt : seeded.pad_positions[p];
        angle[p] = angle_from_center(region, target);
    }

    std::vector<std::size_t> by_angle(n_pads);
    std::iota(by_angle.begin(), by_angle.end(), std::size_t{0});
    std::sort(by_angle.begin(), by_angle.end(),
              [&](std::size_t a, std::size_t b) { return angle[a] < angle[b]; });

    const double perimeter = 2.0 * (region.width() + region.height());
    std::vector<Point> slots(n_pads);
    std::vector<double> slot_angle(n_pads);
    for (std::size_t k = 0; k < n_pads; ++k) {
        slots[k] = boundary_point(region,
                                  perimeter * static_cast<double>(k) / static_cast<double>(n_pads));
        slot_angle[k] = angle_from_center(region, slots[k]);
    }
    std::vector<std::size_t> slot_by_angle(n_pads);
    std::iota(slot_by_angle.begin(), slot_by_angle.end(), std::size_t{0});
    std::sort(slot_by_angle.begin(), slot_by_angle.end(),
              [&](std::size_t a, std::size_t b) { return slot_angle[a] < slot_angle[b]; });

    std::vector<Point> out(n_pads);
    for (std::size_t k = 0; k < n_pads; ++k) out[by_angle[k]] = slots[slot_by_angle[k]];
    return out;
}

}  // namespace lily::oracle
