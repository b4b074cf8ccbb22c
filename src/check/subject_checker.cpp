#include "check/subject_checker.hpp"

#include <algorithm>
#include <unordered_map>

namespace lily {

CheckReport SubjectChecker::check(const SubjectGraph& g) const {
    CheckReport rep;
    const std::size_t n = g.size();
    const CheckStage stage = CheckStage::Subject;

    // Names live in a side-table keyed by id (anonymous nodes print as
    // "s<id>", which cannot collide). Check the interned entries: no empty
    // names, no duplicates, no aliasing of a canonical anonymous name.
    {
        std::unordered_map<std::string, SubjectId> names;
        for (const auto& [id, nm] : g.named_nodes()) {
            if (id >= n) {
                rep.error(stage, kNoCheckNode,
                          "interned name '" + nm + "' for out-of-range node " +
                              std::to_string(id));
                continue;
            }
            if (nm.empty()) {
                rep.error(stage, id, "subject node has an empty interned name");
                continue;
            }
            if (const auto [it, inserted] = names.emplace(nm, id); !inserted) {
                rep.error(stage, id,
                          "name '" + nm + "' already used by subject node " +
                              std::to_string(it->second));
            }
            if (nm.size() > 1 && nm[0] == 's' &&
                nm.find_first_not_of("0123456789", 1) == std::string::npos &&
                nm != "s" + std::to_string(id)) {
                rep.warning(stage, id,
                            "interned name '" + nm + "' shadows another node's anonymous name");
            }
        }
    }

    std::vector<std::size_t> fanin_refs(n, 0);  // appearances as a fanin
    for (SubjectId i = 0; i < n; ++i) {
        const SubjectNode& node = g.node(i);

        // The subject graph may only contain the base functions. The kind
        // enum makes other ops unrepresentable, but a corrupted byte (or a
        // future extension that forgets this invariant) must be caught.
        switch (node.kind) {
            case SubjectKind::Input:
                if (node.fanin0 != kNullSubject || node.fanin1 != kNullSubject) {
                    rep.error(stage, i, "input node has fanins");
                }
                break;
            case SubjectKind::Inv:
            case SubjectKind::Nand2:
                break;
            default:
                rep.error(stage, i,
                          "node kind " + std::to_string(static_cast<unsigned>(node.kind)) +
                              " is not a base function (NAND2/INV/Input only)");
                continue;
        }

        for (unsigned k = 0; k < node.fanin_count(); ++k) {
            const SubjectId f = node.fanin(k);
            if (f >= n) {
                rep.error(stage, i, "fanin id " + std::to_string(f) + " out of range");
                continue;
            }
            if (f >= i) {
                rep.error(stage, i,
                          "fanin " + std::to_string(f) +
                              " not earlier in topological order (cycle)");
                continue;
            }
            fanin_refs[f]++;
            const auto& fo = g.node(f).fanouts;
            if (std::find(fo.begin(), fo.end(), i) == fo.end()) {
                rep.error(stage, i,
                          "missing fanout edge from fanin " + std::to_string(f));
            }
        }
    }

    // Fanout symmetry in the other direction: every fanout entry must be
    // backed by a real fanin reference, with matching multiplicity
    // (NAND(a,a) records two parallel edges).
    for (SubjectId i = 0; i < n; ++i) {
        const SubjectNode& node = g.node(i);
        std::size_t fanout_edges = 0;
        for (const SubjectId fo : node.fanouts) {
            if (fo >= n) {
                rep.error(stage, i, "fanout id " + std::to_string(fo) + " out of range");
                continue;
            }
            const SubjectNode& sink = g.node(fo);
            unsigned uses = 0;
            for (unsigned k = 0; k < sink.fanin_count(); ++k) uses += sink.fanin(k) == i;
            if (uses == 0) {
                rep.error(stage, i,
                          "fanout edge to node " + std::to_string(fo) +
                              " which does not list the node as a fanin");
            }
            ++fanout_edges;
        }
        if (fanout_edges != fanin_refs[i]) {
            rep.error(stage, i,
                      "fanin/fanout multiplicity mismatch: referenced " +
                          std::to_string(fanin_refs[i]) + " time(s) as fanin, " +
                          std::to_string(fanout_edges) + " fanout edge(s)");
        }
        if (node.kind != SubjectKind::Input && fanout_edges == 0 && !g.drives_output(i)) {
            rep.warning(stage, i, "dangling gate node: no fanouts and drives no output");
        }
    }

    std::unordered_map<std::string, std::size_t> po_names;
    for (std::size_t k = 0; k < g.outputs().size(); ++k) {
        const SubjectOutput& po = g.outputs()[k];
        if (const auto [it, inserted] = po_names.emplace(po.name, k); !inserted) {
            rep.warning(stage, kNoCheckNode, "duplicate output name '" + po.name + "'");
        }
        if (po.driver >= n) {
            rep.error(stage, kNoCheckNode,
                      "output '" + po.name + "' has dangling driver id " +
                          std::to_string(po.driver));
        } else if (!g.drives_output(po.driver)) {
            rep.error(stage, po.driver,
                      "drives output '" + po.name + "' but po_driver flag unset");
        }
    }
    return rep;
}

}  // namespace lily
