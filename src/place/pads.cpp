#include <algorithm>
#include <cmath>
#include <numeric>

#include "place/placement.hpp"

namespace lily {

namespace {

/// Point at arc-length parameter t (in [0, perimeter)) along the region
/// boundary, starting at the lower-left corner and walking counterclockwise.
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

std::vector<Point> uniform_pad_ring(std::size_t n_pads, const Rect& region) {
    std::vector<Point> out(n_pads);
    const double perimeter = 2.0 * (region.width() + region.height());
    for (std::size_t i = 0; i < n_pads; ++i) {
        out[i] = boundary_point(region, perimeter * static_cast<double>(i) /
                                            static_cast<double>(std::max<std::size_t>(n_pads, 1)));
    }
    return out;
}

std::vector<Point> place_pads(const PlacementNetlist& nl, const Rect& region) {
    if (nl.pad_positions.empty()) return {};
    return QuadraticPlacer(nl).place_pads(region);
}

std::vector<Point> QuadraticPlacer::place_pads(const Rect& region, StageBudget* budget) {
    const PlacementNetlist& nl = nl_;
    const std::size_t n_pads = nl.pad_positions.size();
    if (n_pads == 0) return {};

    // Seed: pads uniform around the ring in index order, cells placed by one
    // quadratic solve against that ring.
    const std::vector<Point> ring = uniform_pad_ring(n_pads, region);
    GlobalPlacementOptions seed_opts;
    seed_opts.budget = budget;
    const GlobalPlacement seed = place_quadratic(ring, region, seed_opts);

    // Desired angular position of each pad: the center of mass of the cells
    // (and the seed itself, as a tiebreaker) on its nets. One pass over the
    // nets adds each net's cells to each of its pads, so every pad sums in
    // net and then cell order; a pad listed twice in one net counts that
    // net once.
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<Point> sum(n_pads);
    std::vector<double> cnt(n_pads, 0.0);
    std::vector<std::size_t> last_net(n_pads, kNone);
    for (std::size_t ni = 0; ni < nl.nets.size(); ++ni) {
        const PlacementNetlist::Net& net = nl.nets[ni];
        for (const std::size_t p : net.pads) {
            if (last_net[p] == ni) continue;
            last_net[p] = ni;
            for (const std::size_t c : net.cells) {
                sum[p] += seed.positions[c];
                cnt[p] += 1.0;
            }
        }
    }
    std::vector<double> angle(n_pads);
    for (std::size_t p = 0; p < n_pads; ++p) {
        const Point target = cnt[p] > 0 ? sum[p] / cnt[p] : ring[p];
        angle[p] = angle_from_center(region, target);
    }

    // Assign evenly spaced boundary slots by angular order: slot k's angle
    // grows with k (counterclockwise walk), so sorting pads by desired angle
    // and matching rank-to-rank keeps relative order and avoids overlaps.
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

}  // namespace lily
