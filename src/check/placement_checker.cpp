#include "check/placement_checker.hpp"

#include <algorithm>
#include <cmath>

namespace lily {

namespace {

/// Relative tolerance (fraction of the region half-perimeter) used for
/// containment and row-alignment comparisons.
constexpr double kTolerance = 1e-9;
/// Pads farther than this fraction of the region half-perimeter from the
/// boundary are flagged.
constexpr double kPadBoundaryTolerance = 1e-6;

bool finite(const Point& p) { return std::isfinite(p.x) && std::isfinite(p.y); }

std::string fmt(const Point& p) {
    return "(" + std::to_string(p.x) + ", " + std::to_string(p.y) + ")";
}

}  // namespace

CheckReport PlacementChecker::check_netlist(const PlacementNetlist& nl) const {
    CheckReport rep;
    const CheckStage stage = CheckStage::Placement;
    if (nl.cell_area.size() != nl.n_cells) {
        rep.error(stage, kNoCheckNode,
                  "cell_area has " + std::to_string(nl.cell_area.size()) + " entries for " +
                      std::to_string(nl.n_cells) + " cells");
    }
    for (std::size_t c = 0; c < nl.cell_area.size(); ++c) {
        if (!(nl.cell_area[c] >= 0.0) || !std::isfinite(nl.cell_area[c])) {
            rep.error(stage, c, "cell area " + std::to_string(nl.cell_area[c]) +
                                    " is negative or non-finite");
        }
    }
    for (std::size_t i = 0; i < nl.nets.size(); ++i) {
        const PlacementNetlist::Net& net = nl.nets[i];
        for (const std::size_t c : net.cells) {
            if (c >= nl.n_cells) {
                rep.error(stage, i,
                          "net " + std::to_string(i) + " references cell " + std::to_string(c) +
                              " (only " + std::to_string(nl.n_cells) + " cells)");
            }
        }
        for (const std::size_t p : net.pads) {
            if (p >= nl.pad_positions.size()) {
                rep.error(stage, i,
                          "net " + std::to_string(i) + " references pad " + std::to_string(p) +
                              " (only " + std::to_string(nl.pad_positions.size()) + " pads)");
            }
        }
        if (net.pin_count() < 2) {
            rep.warning(stage, i, "net " + std::to_string(i) + " has fewer than 2 pins");
        }
    }
    return rep;
}

CheckReport PlacementChecker::check_positions(std::span<const Point> positions,
                                              std::size_t n_cells, const Rect& region,
                                              double slack) const {
    CheckReport rep;
    const CheckStage stage = CheckStage::Placement;
    if (positions.size() != n_cells) {
        rep.error(stage, kNoCheckNode,
                  "position count " + std::to_string(positions.size()) + " != cell count " +
                      std::to_string(n_cells));
        return rep;
    }
    if (region.empty() && n_cells > 0) {
        rep.error(stage, kNoCheckNode, "placement region is empty");
        return rep;
    }
    const double eps = kTolerance * std::max(region.half_perimeter(), 1.0) + slack;
    const Rect grown{{region.ll.x - eps, region.ll.y - eps},
                     {region.ur.x + eps, region.ur.y + eps}};
    for (std::size_t c = 0; c < positions.size(); ++c) {
        if (!finite(positions[c])) {
            rep.error(stage, c, "cell position " + fmt(positions[c]) + " is not finite");
            continue;
        }
        if (!grown.contains(positions[c])) {
            rep.error(stage, c,
                      "cell position " + fmt(positions[c]) + " outside region [" +
                          fmt(region.ll) + ", " + fmt(region.ur) + "]");
        }
    }
    return rep;
}

CheckReport PlacementChecker::check_global(const PlacementNetlist& nl,
                                           const GlobalPlacement& gp) const {
    CheckReport rep = check_netlist(nl);
    rep.merge(check_positions(gp.positions, nl.n_cells, gp.region));
    return rep;
}

CheckReport PlacementChecker::check_detailed(const PlacementNetlist& nl,
                                             const DetailedPlacement& dp) const {
    CheckReport rep = check_netlist(nl);
    // A packed row can overflow the region horizontally by at most one
    // cell; allow the widest cell as slack.
    double slack = 0.0;
    for (const double a : nl.cell_area) {
        slack = std::max(slack, a / std::max(dp.row_height, 1e-12));
    }
    rep.merge(check_positions(dp.positions, nl.n_cells, dp.region, slack));

    const CheckStage stage = CheckStage::Placement;
    if (dp.row_of.size() != nl.n_cells) {
        rep.error(stage, kNoCheckNode,
                  "row_of has " + std::to_string(dp.row_of.size()) + " entries for " +
                      std::to_string(nl.n_cells) + " cells");
        return rep;
    }
    if (nl.n_cells == 0) return rep;
    if (dp.n_rows == 0) {
        rep.error(stage, kNoCheckNode, "detailed placement has cells but zero rows");
        return rep;
    }
    const double pitch = dp.region.height() / static_cast<double>(dp.n_rows);
    const double eps = kTolerance * std::max(dp.region.half_perimeter(), 1.0) +
                       1e-9 * std::max(pitch, 1.0);
    for (std::size_t c = 0; c < nl.n_cells; ++c) {
        const int row = dp.row_of[c];
        if (row < 0 || static_cast<std::size_t>(row) >= dp.n_rows) {
            rep.error(stage, c,
                      "row index " + std::to_string(row) + " out of range (rows: " +
                          std::to_string(dp.n_rows) + ")");
            continue;
        }
        if (!finite(dp.positions[c])) continue;  // already reported
        const double row_y =
            dp.region.ll.y + (static_cast<double>(row) + 0.5) * pitch;
        if (std::abs(dp.positions[c].y - row_y) > eps) {
            rep.error(stage, c,
                      "cell y " + std::to_string(dp.positions[c].y) +
                          " not aligned to row " + std::to_string(row) + " centerline " +
                          std::to_string(row_y));
        }
    }
    return rep;
}

CheckReport PlacementChecker::check_pads(std::span<const Point> pads, const Rect& region) const {
    CheckReport rep;
    const CheckStage stage = CheckStage::Placement;
    if (region.empty()) {
        if (!pads.empty()) rep.error(stage, kNoCheckNode, "pad region is empty");
        return rep;
    }
    const double eps = kPadBoundaryTolerance * std::max(region.half_perimeter(), 1.0);
    for (std::size_t p = 0; p < pads.size(); ++p) {
        if (!finite(pads[p])) {
            rep.error(stage, p, "pad position " + fmt(pads[p]) + " is not finite");
            continue;
        }
        const double dx =
            std::min(std::abs(pads[p].x - region.ll.x), std::abs(pads[p].x - region.ur.x));
        const double dy =
            std::min(std::abs(pads[p].y - region.ll.y), std::abs(pads[p].y - region.ur.y));
        const bool inside = region.contains(pads[p]);
        const double to_boundary = inside ? std::min(dx, dy) : 0.0;
        if (!inside) {
            const Rect grown{{region.ll.x - eps, region.ll.y - eps},
                             {region.ur.x + eps, region.ur.y + eps}};
            if (!grown.contains(pads[p])) {
                rep.error(stage, p,
                          "pad " + fmt(pads[p]) + " outside region [" + fmt(region.ll) + ", " +
                              fmt(region.ur) + "]");
            }
        } else if (to_boundary > eps) {
            rep.error(stage, p,
                      "pad " + fmt(pads[p]) + " not on the region boundary (distance " +
                          std::to_string(to_boundary) + ")");
        }
    }
    return rep;
}

}  // namespace lily
