// The hash-map reference implementations; see timing_oracle.hpp. The
// bodies are the original src/ code with only the names changed.
#include "timing_oracle.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lily::oracle {

MappedPlacementView oracle_placement_view(const MappedNetlist& m, const Library& lib) {
    MappedPlacementView view;
    view.netlist.n_cells = m.gates.size();
    view.cell_of_instance.resize(m.gates.size());
    for (std::size_t i = 0; i < m.gates.size(); ++i) {
        view.cell_of_instance[i] = i;
        view.netlist.cell_area.push_back(lib.gate(m.gates[i].gate).area);
    }

    view.n_input_pads = m.subject_inputs.size();
    view.netlist.pad_positions.assign(m.subject_inputs.size() + m.outputs.size(), Point{});

    std::unordered_map<SubjectId, std::size_t> pi_pad;
    for (std::size_t i = 0; i < m.subject_inputs.size(); ++i) {
        pi_pad.emplace(m.subject_inputs[i], view.pad_of_input(i));
    }
    std::unordered_map<SubjectId, std::vector<std::size_t>> po_pads;
    for (std::size_t o = 0; o < m.outputs.size(); ++o) {
        po_pads[m.outputs[o].driver].push_back(view.pad_of_output(o));
    }
    // Sinks per driving signal.
    std::unordered_map<SubjectId, std::vector<std::size_t>> sinks;
    for (std::size_t i = 0; i < m.gates.size(); ++i) {
        for (const SubjectId in : m.gates[i].inputs) sinks[in].push_back(i);
    }

    // One net per driven signal (instance outputs and used inputs).
    auto emit_net = [&](SubjectId signal) {
        PlacementNetlist::Net net;
        const std::size_t driver_inst = m.instance_driving(signal);
        if (driver_inst != MappedNetlist::npos) {
            net.cells.push_back(driver_inst);
        } else {
            const auto it = pi_pad.find(signal);
            if (it == pi_pad.end()) return;  // undriven: adapter input invariant
            net.pads.push_back(it->second);
        }
        if (const auto it = sinks.find(signal); it != sinks.end()) {
            for (const std::size_t s : it->second) net.cells.push_back(s);
        }
        if (const auto it = po_pads.find(signal); it != po_pads.end()) {
            for (const std::size_t pad : it->second) net.pads.push_back(pad);
        }
        if (net.pin_count() >= 2) view.netlist.nets.push_back(std::move(net));
    };

    for (const GateInstance& inst : m.gates) emit_net(inst.driver);
    for (std::size_t i = 0; i < m.subject_inputs.size(); ++i) emit_net(m.subject_inputs[i]);
    view.netlist.check();
    return view;
}

TimingReport oracle_analyze_timing(const MappedNetlist& m, const Library& lib,
                                   const MappedPlacementView& view,
                                   std::span<const Point> positions,
                                   const TimingOptions& opts) {
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

}  // namespace lily::oracle
