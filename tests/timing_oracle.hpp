// Reference STA and mapped placement view (tests only): the hash-map
// implementations of analyze_timing and make_placement_view(MappedNetlist)
// kept verbatim, so the dense-indexed versions in src/ can be held to them
// bit for bit.
#pragma once

#include <span>

#include "place/netlist_adapters.hpp"
#include "sta/timing.hpp"

namespace lily::oracle {

/// Same contract as lily::make_placement_view(const MappedNetlist&, ...).
MappedPlacementView oracle_placement_view(const MappedNetlist& m, const Library& lib);

/// Same contract as lily::analyze_timing.
TimingReport oracle_analyze_timing(const MappedNetlist& m, const Library& lib,
                                   const MappedPlacementView& view,
                                   std::span<const Point> positions,
                                   const TimingOptions& opts = {});

}  // namespace lily::oracle
