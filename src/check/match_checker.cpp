#include "check/match_checker.hpp"

#include <algorithm>

namespace lily {

namespace {

std::string describe(const Library& lib, const Match& m) {
    std::string s = "match(";
    s += m.gate < lib.size() ? lib.gate(m.gate).name : "gate#" + std::to_string(m.gate);
    if (!m.covered.empty()) s += " @ " + std::to_string(m.covered.back());
    s += ")";
    return s;
}

}  // namespace

CheckReport MatchChecker::check(const SubjectGraph& g, const Match& m) const {
    CheckReport rep;
    const CheckStage stage = CheckStage::Match;
    if (m.gate >= lib_->size()) {
        rep.error(stage, kNoCheckNode, "gate id " + std::to_string(m.gate) + " out of range");
        return rep;
    }
    const Gate& gate = lib_->gate(m.gate);
    const std::string what = describe(*lib_, m);
    if (m.pattern_index >= gate.patterns.size()) {
        rep.error(stage, kNoCheckNode,
                  what + ": pattern index " + std::to_string(m.pattern_index) +
                      " out of range (gate has " + std::to_string(gate.patterns.size()) +
                      " patterns)");
    }
    if (m.inputs.size() != gate.n_inputs()) {
        rep.error(stage, kNoCheckNode,
                  what + ": binds " + std::to_string(m.inputs.size()) + " inputs but gate '" +
                      gate.name + "' has " + std::to_string(gate.n_inputs()) + " pins");
        return rep;
    }
    for (const SubjectId in : m.inputs) {
        if (in >= g.size()) {
            rep.error(stage, in, what + ": bound input id out of range");
            return rep;
        }
    }
    if (m.covered.empty()) {
        rep.error(stage, kNoCheckNode, what + ": empty cover");
        return rep;
    }
    for (const SubjectId c : m.covered) {
        if (c >= g.size()) {
            rep.error(stage, c, what + ": covered id out of range");
            return rep;
        }
        if (g.node(c).kind == SubjectKind::Input) {
            rep.error(stage, c, what + ": cover absorbs a primary input");
        }
    }
    // Ids are topologically ordered in the subject graph, so a well-formed
    // cover (deduplicated, topological, root last) is strictly increasing.
    for (std::size_t i = 1; i < m.covered.size(); ++i) {
        if (m.covered[i] <= m.covered[i - 1]) {
            rep.error(stage, m.covered[i],
                      what + ": covered list not in strict topological order");
            break;
        }
    }
    const SubjectId root = m.covered.back();
    for (const SubjectId in : m.inputs) {
        if (std::find(m.covered.begin(), m.covered.end(), in) != m.covered.end()) {
            rep.error(stage, in,
                      what + ": node is both a bound input and covered" +
                          (in == root ? " (combinational loop through the gate)" : ""));
        }
    }
    // Closure: the logic the gate absorbs must be fully described by the
    // cover — every covered node's fanin is either covered too or one of
    // the gate's bound input signals.
    for (const SubjectId c : m.covered) {
        const SubjectNode& node = g.node(c);
        for (unsigned k = 0; k < node.fanin_count(); ++k) {
            const SubjectId f = node.fanin(k);
            const bool in_cover =
                std::find(m.covered.begin(), m.covered.end(), f) != m.covered.end();
            const bool is_input =
                std::find(m.inputs.begin(), m.inputs.end(), f) != m.inputs.end();
            if (!in_cover && !is_input) {
                rep.error(stage, c,
                          what + ": cover not closed — fanin " + std::to_string(f) +
                              " of covered node " + std::to_string(c) +
                              " is neither covered nor a bound input");
            }
        }
    }
    return rep;
}

CheckReport MatchChecker::check_function(const SubjectGraph& g, const Match& m) const {
    CheckReport rep = check(g, m);
    if (rep.has_errors()) return rep;

    // check() established closure, so the walk from the root stays inside
    // the cover and the cone reads exactly the covered nodes.
    const Gate& gate = lib_->gate(m.gate);
    const std::string what = describe(*lib_, m);
    if (cone_.evaluate(g, m.root(), m.inputs) != ConeFunction::Outcome::Exact) {
        rep.warning(CheckStage::Match, m.root(),
                    what + ": gate too wide for exact verification (" +
                        std::to_string(cone_.n_vars()) + " distinct inputs), skipped");
        return rep;
    }
    const auto gate_fn = [&](std::uint64_t pins) { return gate.function.get(pins); };
    if (!cone_.equals(gate_fn)) {
        rep.error(CheckStage::Match, m.root(),
                  what + ": cover is not functionally equivalent to the cone it replaces "
                        "(cone " +
                      cone_.table().to_hex() + " vs gate " + cone_.realized(gate_fn).to_hex() +
                      ")");
    }
    return rep;
}

}  // namespace lily
