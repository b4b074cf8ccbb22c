#include "sta/timing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace lily {

NetExtents net_extents(std::span<const Point> pins, WireModel model) {
    NetExtents ext;
    if (pins.size() < 2) return ext;
    switch (model) {
        case WireModel::SteinerHpwl: {
            const Rect bb = bounding_box(pins);
            const double f = chung_hwang_factor(pins.size());
            ext.x = bb.width() * f;
            ext.y = bb.height() * f;
            break;
        }
        case WireModel::SpanningTree: {
            // Prim, accumulating |dx| and |dy| separately.
            const std::size_t n = pins.size();
            std::vector<double> best(n, std::numeric_limits<double>::max());
            std::vector<std::size_t> parent(n, 0);
            std::vector<bool> used(n, false);
            best[0] = 0.0;
            for (std::size_t step = 0; step < n; ++step) {
                std::size_t u = n;
                for (std::size_t i = 0; i < n; ++i) {
                    if (!used[i] && (u == n || best[i] < best[u])) u = i;
                }
                used[u] = true;
                if (u != 0) {
                    ext.x += std::abs(pins[u].x - pins[parent[u]].x);
                    ext.y += std::abs(pins[u].y - pins[parent[u]].y);
                }
                for (std::size_t v = 0; v < n; ++v) {
                    const double d = manhattan(pins[u], pins[v]);
                    if (!used[v] && d < best[v]) {
                        best[v] = d;
                        parent[v] = u;
                    }
                }
            }
            break;
        }
    }
    return ext;
}

TimingReport analyze_timing(const MappedNetlist& m, const Library& lib,
                            const MappedPlacementView& view,
                            std::span<const Point> positions, const TimingOptions& opts) {
    TimingReport rep;
    const std::size_t n = m.gates.size();
    rep.arrival.assign(n, {});
    rep.load.assign(n, 0.0);

    // Arrival time of a signal (instance output or primary input).
    std::unordered_map<SubjectId, RiseFall> signal_arrival;
    for (const SubjectId pi : m.subject_inputs) {
        signal_arrival[pi] = {opts.input_arrival, opts.input_arrival};
    }

    // Sinks per signal: (instance, pin).
    std::unordered_map<SubjectId, std::vector<std::pair<std::size_t, std::size_t>>> sinks;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < m.gates[i].inputs.size(); ++k) {
            sinks[m.gates[i].inputs[k]].push_back({i, k});
        }
    }
    std::unordered_map<SubjectId, std::vector<std::size_t>> po_pads;
    for (std::size_t o = 0; o < m.outputs.size(); ++o) {
        po_pads[m.outputs[o].driver].push_back(view.pad_of_output(o));
    }

    // Per-instance critical fanin (for path tracing).
    std::vector<std::size_t> crit_fanin(n, MappedNetlist::npos);

    for (std::size_t i = 0; i < n; ++i) {
        const GateInstance& inst = m.gates[i];
        const Gate& gate = lib.gate(inst.gate);
        const Point out_pos = positions[i];

        // Load: fanout pin caps + PO pads + wiring capacitance.
        double c_load = 0.0;
        std::vector<Point> net_pins{out_pos};
        if (const auto it = sinks.find(inst.driver); it != sinks.end()) {
            for (const auto& [sink_inst, sink_pin] : it->second) {
                c_load += lib.gate(m.gates[sink_inst].gate).pin(sink_pin).input_load;
                net_pins.push_back(positions[sink_inst]);
            }
        }
        if (const auto it = po_pads.find(inst.driver); it != po_pads.end()) {
            for (const std::size_t pad : it->second) {
                c_load += opts.po_pad_load;
                net_pins.push_back(view.netlist.pad_positions[pad]);
            }
        }
        const NetExtents ext = net_extents(net_pins, opts.wire_model);
        c_load += opts.cap_per_unit_h * ext.x + opts.cap_per_unit_v * ext.y;
        rep.load[i] = c_load;

        // Arrival: worst over input pins, rise/fall by pin phase.
        RiseFall out{-1e300, -1e300};
        for (std::size_t k = 0; k < inst.inputs.size(); ++k) {
            const auto ait = signal_arrival.find(inst.inputs[k]);
            const RiseFall in = ait != signal_arrival.end() ? ait->second : RiseFall{};
            const PinTiming& pin = gate.pin(k);
            double rise_from, fall_from;
            switch (pin.phase) {
                case PinPhase::Inv:
                    rise_from = in.fall;
                    fall_from = in.rise;
                    break;
                case PinPhase::NonInv:
                    rise_from = in.rise;
                    fall_from = in.fall;
                    break;
                case PinPhase::Unknown:
                default:
                    rise_from = in.worst();
                    fall_from = in.worst();
                    break;
            }
            const double t_rise = rise_from + pin.rise_block + pin.rise_fanout * c_load;
            const double t_fall = fall_from + pin.fall_block + pin.fall_fanout * c_load;
            if (std::max(t_rise, t_fall) > out.worst()) crit_fanin[i] = k;
            out.rise = std::max(out.rise, t_rise);
            out.fall = std::max(out.fall, t_fall);
        }
        rep.arrival[i] = out;
        signal_arrival[inst.driver] = out;
    }

    // Critical output and path.
    SubjectId crit_driver = kNullSubject;
    for (const MappedOutput& po : m.outputs) {
        const auto it = signal_arrival.find(po.driver);
        const double t = it != signal_arrival.end() ? it->second.worst() : 0.0;
        if (t > rep.critical_delay) {
            rep.critical_delay = t;
            rep.critical_output = po.name;
            crit_driver = po.driver;
        }
    }
    // Trace back through critical fanins.
    std::size_t inst = crit_driver != kNullSubject ? m.instance_driving(crit_driver)
                                                   : MappedNetlist::npos;
    while (inst != MappedNetlist::npos) {
        rep.critical_path.push_back(inst);
        const std::size_t k = crit_fanin[inst];
        if (k == MappedNetlist::npos) break;
        inst = m.instance_driving(m.gates[inst].inputs[k]);
    }
    std::reverse(rep.critical_path.begin(), rep.critical_path.end());
    return rep;
}

SlackReport analyze_slack(const MappedNetlist& m, const Library& lib,
                          const TimingReport& timing, double required_time) {
    SlackReport rep;
    rep.required_time = required_time > 0.0 ? required_time : timing.critical_delay;
    const std::size_t n = m.gates.size();
    constexpr double kUnset = std::numeric_limits<double>::max();
    // Phase-aware required times, exactly mirroring the forward propagation
    // rules so slack is tight (critical path gets 0 at the own-delay target).
    std::vector<double> req_rise(n, kUnset);
    std::vector<double> req_fall(n, kUnset);

    for (const MappedOutput& po : m.outputs) {
        const std::size_t inst = m.instance_driving(po.driver);
        if (inst != MappedNetlist::npos) {
            req_rise[inst] = std::min(req_rise[inst], rep.required_time);
            req_fall[inst] = std::min(req_fall[inst], rep.required_time);
        }
    }
    for (std::size_t i = n; i-- > 0;) {
        const GateInstance& inst = m.gates[i];
        const Gate& gate = lib.gate(inst.gate);
        if (req_rise[i] == kUnset && req_fall[i] == kUnset) continue;
        for (std::size_t k = 0; k < inst.inputs.size(); ++k) {
            const std::size_t drv = m.instance_driving(inst.inputs[k]);
            if (drv == MappedNetlist::npos) continue;
            const PinTiming& pin = gate.pin(k);
            const double rise_stage = pin.rise_block + pin.rise_fanout * timing.load[i];
            const double fall_stage = pin.fall_block + pin.fall_fanout * timing.load[i];
            const double from_rise =
                req_rise[i] == kUnset ? kUnset : req_rise[i] - rise_stage;
            const double from_fall =
                req_fall[i] == kUnset ? kUnset : req_fall[i] - fall_stage;
            switch (pin.phase) {
                case PinPhase::Inv:
                    // Output rise comes from input fall (and vice versa).
                    req_fall[drv] = std::min(req_fall[drv], from_rise);
                    req_rise[drv] = std::min(req_rise[drv], from_fall);
                    break;
                case PinPhase::NonInv:
                    req_rise[drv] = std::min(req_rise[drv], from_rise);
                    req_fall[drv] = std::min(req_fall[drv], from_fall);
                    break;
                case PinPhase::Unknown:
                default: {
                    // Forward used worst() of the input for both outputs, so
                    // both input phases must meet the tighter requirement.
                    const double tight = std::min(from_rise, from_fall);
                    req_rise[drv] = std::min(req_rise[drv], tight);
                    req_fall[drv] = std::min(req_fall[drv], tight);
                    break;
                }
            }
        }
    }

    rep.slack.resize(n);
    rep.worst_slack = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < n; ++i) {
        const double rr = req_rise[i] == kUnset ? rep.required_time : req_rise[i];
        const double rf = req_fall[i] == kUnset ? rep.required_time : req_fall[i];
        rep.slack[i] =
            std::min(rr - timing.arrival[i].rise, rf - timing.arrival[i].fall);
        rep.worst_slack = std::min(rep.worst_slack, rep.slack[i]);
        if (rep.slack[i] < -1e-9) ++rep.violations;
    }
    if (n == 0) rep.worst_slack = 0.0;
    return rep;
}

}  // namespace lily
