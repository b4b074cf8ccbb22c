// Reference quadratic placer and pad placement (tests only); see
// place_oracle.cpp.
#pragma once

#include <vector>

#include "place/placement.hpp"

namespace lily::oracle {

/// Same contracts as lily::place_quadratic / place_global / place_pads.
GlobalPlacement oracle_place_quadratic(const PlacementNetlist& nl, const Rect& region,
                                       const GlobalPlacementOptions& opts = {});
GlobalPlacement oracle_place_global(const PlacementNetlist& nl, const Rect& region,
                                    const GlobalPlacementOptions& opts = {});
std::vector<Point> oracle_place_pads(const PlacementNetlist& nl, const Rect& region);

}  // namespace lily::oracle
