// Placement invariants: every index valid, every coordinate finite, every
// cell inside the chip region, legalized cells aligned to their rows, and
// pre-placed I/O pads actually sitting on the region boundary (the paper
// fixes the pad assignment before mapping; a pad drifting off the boundary
// silently skews every wire estimate drawn from it).
#pragma once

#include <span>

#include "check/check.hpp"
#include "place/placement.hpp"

namespace lily {

class PlacementChecker {
public:
    /// Index validity of the placement view itself (net pin indices, array
    /// sizes, non-negative areas).
    CheckReport check_netlist(const PlacementNetlist& nl) const;

    /// Cell positions: correct count, finite, inside `region` (within
    /// `slack` extra length units on each side — row legalization may
    /// overflow a full row by at most one cell).
    CheckReport check_positions(std::span<const Point> positions, std::size_t n_cells,
                                const Rect& region, double slack = 0.0) const;

    /// Global placement result against its netlist: containment is strict.
    CheckReport check_global(const PlacementNetlist& nl, const GlobalPlacement& gp) const;

    /// Detailed placement: row indices in range, y aligned to the row
    /// centerline, same-row cells at identical y.
    CheckReport check_detailed(const PlacementNetlist& nl, const DetailedPlacement& dp) const;

    /// Pads: finite and on (or within tolerance of) the region boundary.
    CheckReport check_pads(std::span<const Point> pads, const Rect& region) const;
};

}  // namespace lily
