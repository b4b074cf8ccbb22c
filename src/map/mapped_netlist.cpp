#include "map/mapped_netlist.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace lily {

double MappedNetlist::total_gate_area(const Library& lib) const {
    double a = 0.0;
    for (const GateInstance& g : gates) a += lib.gate(g.gate).area;
    return a;
}

void MappedNetlist::build_index() const {
    if (index_version_ == version_) return;
    driver_index_.clear();
    driver_index_.reserve(gates.size());
    for (std::size_t i = 0; i < gates.size(); ++i) driver_index_.emplace_back(gates[i].driver, i);
    std::sort(driver_index_.begin(), driver_index_.end());
    index_version_ = version_;
}

std::size_t MappedNetlist::instance_driving(SubjectId s) const {
    build_index();
    const auto it = std::lower_bound(driver_index_.begin(), driver_index_.end(),
                                     std::make_pair(s, std::size_t{0}));
    if (it != driver_index_.end() && it->first == s) return it->second;
    return npos;
}

Network MappedNetlist::to_network(const Library& lib, const std::string& name) const {
    Network net(name);
    std::unordered_map<SubjectId, NodeId> signal;
    for (std::size_t i = 0; i < subject_inputs.size(); ++i) {
        signal.emplace(subject_inputs[i], net.add_input(subject_input_names[i]));
    }
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const GateInstance& inst = gates[i];
        const Gate& gate = lib.gate(inst.gate);
        std::vector<NodeId> fanins;
        fanins.reserve(inst.inputs.size());
        for (SubjectId in : inst.inputs) {
            const auto it = signal.find(in);
            if (it == signal.end()) {
                throw std::logic_error("MappedNetlist::to_network: undriven input signal");
            }
            fanins.push_back(it->second);
        }
        // Gate function as SOP over its pins. Convert the truth table of the
        // gate to a (possibly non-minimal) SOP: one cube per on-minterm is
        // wasteful for wide gates, so reuse the genlib expression when it is
        // already SOP-shaped; otherwise fall back to minterm expansion.
        Sop sop;
        const unsigned n = gate.n_inputs();
        const std::uint64_t care = n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
        for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
            if (gate.function.get(m)) sop.cubes.push_back({care, m});
        }
        const NodeId node =
            net.add_node("g" + std::to_string(i) + "_" + gate.name, std::move(fanins),
                         std::move(sop));
        signal.emplace(inst.driver, node);
    }
    for (const MappedOutput& po : outputs) {
        const auto it = signal.find(po.driver);
        if (it == signal.end()) {
            throw std::logic_error("MappedNetlist::to_network: undriven primary output");
        }
        net.add_output(po.name, it->second);
    }
    return net;
}

void MappedNetlist::check(const Library& lib) const {
    // A signal is defined before instance i when its lowest slot (primary
    // inputs first, then instances in order) is below i's own slot.
    const SignalIndex index(*this);
    for (const SubjectId s : subject_inputs) {
        if (s == kNullSubject) throw std::logic_error("MappedNetlist: null input signal");
    }
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const GateInstance& inst = gates[i];
        if (inst.gate >= lib.size()) throw std::logic_error("MappedNetlist: bad gate id");
        if (inst.inputs.size() != lib.gate(inst.gate).n_inputs()) {
            throw std::logic_error("MappedNetlist: pin count mismatch");
        }
        const std::size_t own = index.instance_slot(i);
        for (SubjectId in : inst.inputs) {
            if (index.slot_of(in) >= own) {
                throw std::logic_error("MappedNetlist: input not yet driven (topology violated)");
            }
        }
        if (inst.driver == kNullSubject) {
            throw std::logic_error("MappedNetlist: instance drives the null signal");
        }
        if (index.slot_of(inst.driver) != own) {
            throw std::logic_error("MappedNetlist: signal driven twice");
        }
    }
    for (const MappedOutput& po : outputs) {
        if (index.slot_of(po.driver) == npos) {
            throw std::logic_error("MappedNetlist: dangling output");
        }
    }
}

SignalIndex::SignalIndex(const MappedNetlist& m) : n_inputs_(m.subject_inputs.size()) {
    std::vector<std::pair<SubjectId, std::uint32_t>> defs;
    defs.reserve(n_inputs_ + m.gates.size());
    for (std::size_t k = 0; k < n_inputs_; ++k) {
        defs.emplace_back(m.subject_inputs[k], static_cast<std::uint32_t>(k));
    }
    for (std::size_t i = 0; i < m.gates.size(); ++i) {
        defs.emplace_back(m.gates[i].driver, static_cast<std::uint32_t>(instance_slot(i)));
    }
    std::sort(defs.begin(), defs.end());
    ids_.reserve(defs.size());
    slots_.reserve(defs.size());
    for (const auto& [id, slot] : defs) {
        ids_.push_back(id);
        slots_.push_back(slot);
    }
    if (ids_.empty()) return;

    // The narrowest power-of-two bucket width that needs no more buckets
    // than there are definitions.
    lo_ = ids_.front();
    const std::uint64_t span = std::uint64_t{ids_.back()} - lo_;
    while ((span >> shift_) >= ids_.size()) ++shift_;
    const std::size_t n_buckets = static_cast<std::size_t>(span >> shift_) + 1;
    first_.assign(n_buckets + 1, 0);
    for (const SubjectId id : ids_) ++first_[((id - lo_) >> shift_) + 1];
    for (std::size_t b = 0; b < n_buckets; ++b) first_[b + 1] += first_[b];
}

std::size_t SignalIndex::slot_of(SubjectId s) const {
    if (ids_.empty() || s < lo_ || s > ids_.back()) return MappedNetlist::npos;
    const std::size_t b = (s - lo_) >> shift_;
    const auto begin = ids_.begin() + first_[b];
    const auto it = std::lower_bound(begin, ids_.begin() + first_[b + 1], s);
    if (it == ids_.end() || *it != s) return MappedNetlist::npos;
    return slots_[static_cast<std::size_t>(it - ids_.begin())];
}

SignalFanout::SignalFanout(const MappedNetlist& m) : index(m) {
    const std::size_t n = m.gates.size();
    std::vector<std::uint32_t> sink_count(index.size(), 0);
    fanin = Csr<std::uint32_t>::counted(
        n, [&](std::size_t i) { return m.gates[i].inputs.size(); },
        [&](auto&& emit) {
            for (std::size_t i = 0; i < n; ++i) {
                for (const SubjectId in : m.gates[i].inputs) {
                    const std::size_t slot = index.slot_of(in);
                    if (slot == MappedNetlist::npos) {
                        emit(i, kUndriven);
                        continue;
                    }
                    ++sink_count[slot];
                    emit(i, static_cast<std::uint32_t>(slot));
                }
            }
        });
    sinks = Csr<Sink>::counted(
        index.size(), [&](std::size_t slot) { return sink_count[slot]; },
        [&](auto&& emit) {
            for (std::size_t i = 0; i < n; ++i) {
                const auto slots = fanin.neighbors(i);
                for (std::size_t k = 0; k < slots.size(); ++k) {
                    if (slots[k] == kUndriven) continue;
                    emit(slots[k], Sink{static_cast<std::uint32_t>(i),
                                        static_cast<std::uint32_t>(k)});
                }
            }
        });
    std::vector<std::size_t> output_slot(m.outputs.size());
    std::vector<std::uint32_t> output_count(index.size(), 0);
    for (std::size_t o = 0; o < m.outputs.size(); ++o) {
        output_slot[o] = index.slot_of(m.outputs[o].driver);
        if (output_slot[o] != MappedNetlist::npos) ++output_count[output_slot[o]];
    }
    outputs = Csr<std::uint32_t>::counted(
        index.size(), [&](std::size_t slot) { return output_count[slot]; },
        [&](auto&& emit) {
            for (std::size_t o = 0; o < m.outputs.size(); ++o) {
                if (output_slot[o] != MappedNetlist::npos) {
                    emit(output_slot[o], static_cast<std::uint32_t>(o));
                }
            }
        });
}

}  // namespace lily
