// Static timing analysis over a mapped, placed netlist using the paper's
// linear delay model (Section 4):
//
//   t_y,i = t_i + I_i + R_i * C_L        (per input i, rise/fall separate)
//   t_y   = max_i t_y,i
//   C_L   = sum of fanout pin caps + C_w,   C_w = c_h * X + c_v * Y
//
// where X and Y are the horizontal/vertical extents of the output net,
// estimated from gate positions with the same wire models the area mapper
// uses (Section 3.4). Wiring resistance is ignored (lumped capacitance), so
// the driver output and every sink input see the same arrival time.
#pragma once

#include <string>
#include <vector>

#include "map/mapped_netlist.hpp"
#include "place/netlist_adapters.hpp"
#include "route/wire_models.hpp"

namespace lily {

struct RiseFall {
    double rise = 0.0;
    double fall = 0.0;
    double worst() const { return rise > fall ? rise : fall; }
};

struct TimingOptions {
    double cap_per_unit_h = 0.03;  // c_h: pF per horizontal length unit
    double cap_per_unit_v = 0.03;  // c_v: pF per vertical length unit
    double po_pad_load = 0.10;     // capacitance of an output pad
    WireModel wire_model = WireModel::SteinerHpwl;
    /// All primary inputs arrive at this time (rise and fall).
    double input_arrival = 0.0;
};

/// Horizontal/vertical wire extents of one net under a wire model.
struct NetExtents {
    double x = 0.0;
    double y = 0.0;
};
NetExtents net_extents(std::span<const Point> pins, WireModel model);

struct TimingReport {
    /// Arrival time at each gate instance output (index parallel to
    /// MappedNetlist::gates).
    std::vector<RiseFall> arrival;
    /// Load capacitance seen by each instance output.
    std::vector<double> load;
    double critical_delay = 0.0;
    std::string critical_output;
    /// Instance indices from a primary input to the critical output driver.
    std::vector<std::size_t> critical_path;
};

/// Analyze the mapped netlist. `positions` are instance centers (parallel to
/// m.gates); pad positions come from `view` (which must have been built from
/// this same netlist).
TimingReport analyze_timing(const MappedNetlist& m, const Library& lib,
                            const MappedPlacementView& view,
                            std::span<const Point> positions,
                            const TimingOptions& opts = {});

/// Slack view: required times propagated backward from the primary outputs
/// against a target, slack = required - arrival per instance output.
struct SlackReport {
    double required_time = 0.0;       // the target used
    std::vector<double> slack;        // per instance (worst of rise/fall)
    double worst_slack = 0.0;
    std::size_t violations = 0;       // instances with negative slack
};

/// Compute slacks for a previously analyzed netlist. `required_time` <= 0
/// uses the critical delay itself (so the critical path gets slack 0 and
/// nothing is negative).
SlackReport analyze_slack(const MappedNetlist& m, const Library& lib,
                          const TimingReport& timing, double required_time = 0.0);

}  // namespace lily
