// The baseline technology mapper: DAG covering by dynamic programming over
// the subject graph, as in DAGON (tree mode) and the MIS mapper (cone mode
// with logic duplication). Minimizes total gate area or worst arrival time
// with the classic interconnect-blind cost functions — this is the MIS2.1
// comparison point of the paper's evaluation. The layout-driven mapper
// (src/lily) shares the matcher and netlist types but adds placement-aware
// wire costs.
#pragma once

#include <stdexcept>
#include <utility>
#include <vector>

#include "map/mapped_netlist.hpp"
#include "match/matcher.hpp"
#include "subject/cones.hpp"

namespace lily {

enum class MapObjective : std::uint8_t { Area, Delay };

/// Trees: maximal fanout-free trees, no duplication (DAGON).
/// Cones: matches may bury multi-fanout nodes; buried nodes still needed
/// elsewhere are realized again (logic duplication, MIS).
enum class CoverMode : std::uint8_t { Trees, Cones };

struct BaseMapperOptions {
    MapObjective objective = MapObjective::Area;
    CoverMode mode = CoverMode::Trees;
    /// Delay mode: wiring capacitance modeled as a constant per fanout
    /// (the MIS model the paper contrasts with Lily's placement-based one).
    double wire_cap_per_fanout = 0.05;
    /// Delay mode: constant-load assumption for not-yet-mapped fanout pins.
    double default_pin_load = 0.1;
};

/// Per-node dynamic programming outcome (exposed for tests/diagnostics).
struct NodeSolution {
    double cost = 0.0;  // area mode: subtree area; delay mode: arrival time
    Match match;        // empty gate when the node is a subject input
    bool has_match = false;
};

struct MapResult {
    MappedNetlist netlist;
    std::vector<NodeSolution> solution;  // indexed by SubjectId
    double total_area = 0.0;
    double worst_arrival = 0.0;  // delay mode only (0 otherwise)
};

class BaseMapper {
public:
    explicit BaseMapper(const Library& lib) : lib_(&lib), matcher_(lib) {}

    /// Map the subject graph. Throws std::runtime_error if some gate node
    /// has no legal match (cannot happen when the library has NAND2+INV).
    MapResult map(const SubjectGraph& g, const BaseMapperOptions& opts = {}) const;

    const Library& library() const { return *lib_; }

private:
    const Library* lib_;
    Matcher matcher_;
};

/// True when the match only buries nodes internal to a maximal fanout-free
/// tree (single-fanout, not a primary-output driver). Covers restricted to
/// tree-legal matches never duplicate logic.
bool legal_in_tree_mode(const SubjectGraph& g, const Match& m);

/// Extract gate instances for the chosen per-node matches: walk from the
/// primary outputs, materializing the best match of every needed signal
/// (shared by BaseMapper and the Lily mapper). `Solution` is any per-node
/// DP record with `has_match` and `match` (NodeSolution, LilyNodeSolution);
/// the solutions are read in place.
template <typename Solution>
MappedNetlist extract_cover(const SubjectGraph& g, const Library& lib,
                            const std::vector<Solution>& solution) {
    MappedNetlist out;
    for (SubjectId in : g.inputs()) {
        out.subject_inputs.push_back(in);
        out.subject_input_names.push_back(g.name_of(in));
    }

    // Collect the set of needed signals: PO drivers plus, transitively, the
    // inputs of each needed signal's chosen match. A buried (covered)
    // multi-fanout node that is needed in its own right gets its own gate —
    // this is exactly the MIS logic duplication.
    std::vector<bool> needed(g.size(), false);
    std::vector<SubjectId> stack;
    std::size_t n_gates = 0;
    for (const SubjectOutput& po : g.outputs()) {
        if (!needed[po.driver]) {
            needed[po.driver] = true;
            stack.push_back(po.driver);
        }
    }
    while (!stack.empty()) {
        const SubjectId v = stack.back();
        stack.pop_back();
        if (g.node(v).kind == SubjectKind::Input) continue;
        const Solution& sol = solution[v];
        if (!sol.has_match) {
            throw std::logic_error("extract_cover: needed node has no solution");
        }
        ++n_gates;
        for (SubjectId leaf : sol.match.inputs) {
            if (!needed[leaf]) {
                needed[leaf] = true;
                stack.push_back(leaf);
            }
        }
    }

    // Emit instances in topological (id) order.
    out.gates.reserve(n_gates);
    for (SubjectId v = 0; v < g.size(); ++v) {
        if (!needed[v] || g.node(v).kind == SubjectKind::Input) continue;
        const Match& m = solution[v].match;
        GateInstance inst;
        inst.gate = m.gate;
        inst.driver = v;
        inst.inputs = m.inputs;
        inst.absorbed = m.covered;
        out.gates.push_back(std::move(inst));
    }
    for (const SubjectOutput& po : g.outputs()) out.outputs.push_back({po.name, po.driver});
    out.check(lib);
    return out;
}

}  // namespace lily
