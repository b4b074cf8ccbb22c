#include "check/mapped_checker.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

namespace lily {

CheckReport MappedChecker::check(const MappedNetlist& m) const {
    CheckReport rep;
    const CheckStage stage = CheckStage::Mapped;

    if (m.subject_input_names.size() != m.subject_inputs.size()) {
        rep.error(stage, kNoCheckNode,
                  "subject input names (" + std::to_string(m.subject_input_names.size()) +
                      ") and ids (" + std::to_string(m.subject_inputs.size()) +
                      ") out of sync");
    }

    std::unordered_set<SubjectId> inputs(m.subject_inputs.begin(), m.subject_inputs.end());
    std::unordered_map<SubjectId, std::size_t> driven;  // signal -> instance index
    std::unordered_set<SubjectId> used;                 // signals consumed somewhere
    for (std::size_t i = 0; i < m.gates.size(); ++i) {
        const GateInstance& inst = m.gates[i];
        if (inst.gate >= lib_->size()) {
            rep.error(stage, i, "instance gate id " + std::to_string(inst.gate) +
                                    " out of library range");
            continue;
        }
        const Gate& gate = lib_->gate(inst.gate);
        if (inst.inputs.size() != gate.n_inputs()) {
            rep.error(stage, i,
                      "instance of '" + gate.name + "' binds " +
                          std::to_string(inst.inputs.size()) + " pins, gate has " +
                          std::to_string(gate.n_inputs()));
        }
        for (const SubjectId in : inst.inputs) {
            used.insert(in);
            if (!inputs.contains(in) && !driven.contains(in)) {
                rep.error(stage, i,
                          "pin signal " + std::to_string(in) +
                              " is neither a subject input nor driven by an earlier "
                              "instance (topological order violated or undriven)");
            }
        }
        if (inputs.contains(inst.driver)) {
            rep.error(stage, i,
                      "instance drives subject input signal " + std::to_string(inst.driver));
        } else if (const auto [it, inserted] = driven.emplace(inst.driver, i); !inserted) {
            rep.error(stage, i,
                      "signal " + std::to_string(inst.driver) +
                          " driven twice (also by instance " + std::to_string(it->second) +
                          ")");
        }
    }
    for (const MappedOutput& po : m.outputs) {
        used.insert(po.driver);
        if (!inputs.contains(po.driver) && !driven.contains(po.driver)) {
            rep.error(stage, kNoCheckNode,
                      "output '" + po.name + "' driven by unresolvable signal " +
                          std::to_string(po.driver));
        }
    }
    for (const auto& [signal, index] : driven) {
        if (!used.contains(signal)) {
            rep.warning(stage, index, "instance output feeds no pin and no primary output");
        }
    }
    return rep;
}

CheckReport MappedChecker::check_timing(const MappedNetlist& m,
                                        const TimingReport& timing) const {
    CheckReport rep;
    const CheckStage stage = CheckStage::Mapped;
    if (timing.arrival.size() != m.gates.size() || timing.load.size() != m.gates.size()) {
        rep.error(stage, kNoCheckNode,
                  "timing report covers " + std::to_string(timing.arrival.size()) +
                      " arrivals / " + std::to_string(timing.load.size()) + " loads for " +
                      std::to_string(m.gates.size()) + " instances");
        return rep;
    }

    // Pin capacitance each instance output must drive at minimum (wiring
    // and pad capacitance only add on top).
    std::vector<double> pin_load(m.gates.size(), 0.0);
    for (const GateInstance& inst : m.gates) {
        if (inst.gate >= lib_->size()) continue;  // structural break; check() reports it
        const Gate& gate = lib_->gate(inst.gate);
        for (std::size_t p = 0; p < inst.inputs.size() && p < gate.pins.size(); ++p) {
            const std::size_t src = m.instance_driving(inst.inputs[p]);
            if (src != MappedNetlist::npos) pin_load[src] += gate.pin(p).input_load;
        }
    }

    const double eps = 1e-9;
    for (std::size_t i = 0; i < m.gates.size(); ++i) {
        const RiseFall& a = timing.arrival[i];
        if (!std::isfinite(a.rise) || !std::isfinite(a.fall)) {
            rep.error(stage, i, "arrival time is not finite");
            continue;
        }
        if (a.rise < -eps || a.fall < -eps) {
            rep.error(stage, i,
                      "negative arrival time (rise " + std::to_string(a.rise) + ", fall " +
                          std::to_string(a.fall) + ")");
        }
        if (!std::isfinite(timing.load[i]) || timing.load[i] < -eps) {
            rep.error(stage, i, "load " + std::to_string(timing.load[i]) +
                                    " is negative or non-finite");
        } else if (timing.load[i] + eps < pin_load[i]) {
            rep.error(stage, i,
                      "load " + std::to_string(timing.load[i]) +
                          " below the connected pin capacitance " +
                          std::to_string(pin_load[i]) + " (wire load must be non-negative)");
        }
        // Monotonicity: with non-negative block and load-slope delays, a
        // gate's output cannot arrive before any of its driving inputs'
        // earliest transition.
        const GateInstance& inst = m.gates[i];
        for (const SubjectId in : inst.inputs) {
            const std::size_t src = m.instance_driving(in);
            if (src == MappedNetlist::npos) continue;  // subject input: arrives at t=0
            const RiseFall& s = timing.arrival[src];
            const double earliest = std::min(s.rise, s.fall);
            if (a.worst() + eps < earliest) {
                rep.error(stage, i,
                          "arrival " + std::to_string(a.worst()) +
                              " earlier than driving instance " + std::to_string(src) +
                              " arrival " + std::to_string(earliest) +
                              " (arrival-time monotonicity violated)");
            }
        }
    }
    if (!std::isfinite(timing.critical_delay) || timing.critical_delay < -eps) {
        rep.error(stage, kNoCheckNode,
                  "critical delay " + std::to_string(timing.critical_delay) +
                      " is negative or non-finite");
    }
    return rep;
}

bool inject_wrong_cover(MappedNetlist& mapped, const Library& lib) {
    for (GateInstance& inst : mapped.gates) {
        const Gate& current = lib.gate(inst.gate);
        for (GateId g = 0; g < lib.size(); ++g) {
            const Gate& candidate = lib.gate(g);
            if (g != inst.gate && candidate.n_inputs() == current.n_inputs() &&
                !(candidate.function == current.function)) {
                inst.gate = g;
                return true;
            }
        }
    }
    return false;
}

}  // namespace lily
