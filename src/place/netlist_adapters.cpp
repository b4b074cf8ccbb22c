#include "place/netlist_adapters.hpp"

#include <cmath>
#include <unordered_map>

namespace lily {

SubjectPlacementView make_placement_view(const SubjectGraph& g) {
    const SubjectTopology& t = g.topology();
    SubjectPlacementView view;
    view.cell_of.assign(g.size(), kNoCell);

    for (SubjectId v = 0; v < g.size(); ++v) {
        if (t.kind[v] == SubjectKind::Input) continue;
        view.cell_of[v] = view.subject_of.size();
        view.subject_of.push_back(v);
        view.netlist.cell_area.push_back(t.kind[v] == SubjectKind::Inv ? kInvCellArea
                                                                       : kNandCellArea);
    }
    view.netlist.n_cells = view.subject_of.size();

    view.n_input_pads = g.inputs().size();
    view.netlist.pad_positions.assign(g.inputs().size() + g.outputs().size(), Point{});

    // Which pads each signal drives (a driver can feed several POs).
    std::unordered_map<SubjectId, std::vector<std::size_t>> po_pads;
    for (std::size_t o = 0; o < g.outputs().size(); ++o) {
        po_pads[g.outputs()[o].driver].push_back(view.pad_of_output(o));
    }
    std::unordered_map<SubjectId, std::size_t> pi_pad;
    for (std::size_t i = 0; i < g.inputs().size(); ++i) {
        pi_pad.emplace(g.inputs()[i], view.pad_of_input(i));
    }

    for (SubjectId v = 0; v < g.size(); ++v) {
        const auto fanouts = t.fanouts_of(v);
        const auto po_it = po_pads.find(v);
        if (fanouts.empty() && po_it == po_pads.end()) continue;
        PlacementNetlist::Net net;
        if (view.cell_of[v] != kNoCell) {
            net.cells.push_back(view.cell_of[v]);
        } else {
            net.pads.push_back(pi_pad.at(v));
        }
        for (const SubjectId f : fanouts) {
            if (view.cell_of[f] != kNoCell) net.cells.push_back(view.cell_of[f]);
        }
        if (po_it != po_pads.end()) {
            for (const std::size_t pad : po_it->second) net.pads.push_back(pad);
        }
        if (net.pin_count() >= 2) view.netlist.nets.push_back(std::move(net));
    }
    view.netlist.check();
    return view;
}

MappedPlacementView make_placement_view(const MappedNetlist& m, const Library& lib) {
    MappedPlacementView view;
    view.netlist.n_cells = m.gates.size();
    view.cell_of_instance.resize(m.gates.size());
    for (std::size_t i = 0; i < m.gates.size(); ++i) {
        view.cell_of_instance[i] = i;
        view.netlist.cell_area.push_back(lib.gate(m.gates[i].gate).area);
    }

    view.n_input_pads = m.subject_inputs.size();
    view.netlist.pad_positions.assign(m.subject_inputs.size() + m.outputs.size(), Point{});

    // One net per driven signal: instance outputs, then used inputs. The
    // driver pin comes first, then the sink cells (instance, then pin) and
    // the output pads (output order).
    const SignalFanout fan(m);
    view.netlist.nets.reserve(fan.index.size());
    auto emit_net = [&](std::size_t slot, bool driver_is_pad, std::size_t driver) {
        const auto sinks = fan.sinks.neighbors(slot);
        const auto outs = fan.outputs.neighbors(slot);
        if (sinks.empty() && outs.empty()) return;  // a lone driver pin is no net
        PlacementNetlist::Net net;
        net.cells.reserve(sinks.size() + (driver_is_pad ? 0 : 1));
        net.pads.reserve(outs.size() + (driver_is_pad ? 1 : 0));
        (driver_is_pad ? net.pads : net.cells).push_back(driver);
        for (const SignalFanout::Sink& s : sinks) net.cells.push_back(s.instance);
        for (const std::uint32_t o : outs) net.pads.push_back(view.pad_of_output(o));
        view.netlist.nets.push_back(std::move(net));
    };
    for (std::size_t i = 0; i < m.gates.size(); ++i) {
        emit_net(fan.index.instance_slot(i), false, i);
    }
    for (std::size_t k = 0; k < m.subject_inputs.size(); ++k) {
        emit_net(k, true, view.pad_of_input(k));
    }
    view.netlist.check();
    return view;
}

Rect make_region(double total_cell_area, double utilization) {
    const double side = std::sqrt(std::max(total_cell_area, 1.0) / utilization);
    return Rect({-side / 2.0, -side / 2.0}, {side / 2.0, side / 2.0});
}

}  // namespace lily
