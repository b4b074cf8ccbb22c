#include "verify/certificate.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "subject/cone_function.hpp"
#include "verify/sat.hpp"

namespace lily {

namespace {

/// Walk bounds. A decomposition makes at most three subject nodes per
/// literal and per cube; a library pattern at most a few per pin. A cone
/// past its bound cannot be the claimed cover, so the walk stops early and
/// the certificate stays linear even when it declines.
std::size_t source_walk_bound(std::size_t literals, std::size_t cubes) {
    return 4 * (literals + cubes) + 8;
}
std::size_t gate_walk_bound(std::size_t pins) { return 16 * (pins + 1); }

std::string sname(SubjectId s) { return "s" + std::to_string(s); }

/// Pair two name lists one to one: out[k] = (index in a, index in b).
/// Returns the mismatch, or an empty string.
std::string pair_by_name(std::vector<std::pair<std::string_view, std::size_t>> a,
                         std::vector<std::pair<std::string_view, std::size_t>> b,
                         const char* what,
                         std::vector<std::pair<std::size_t, std::size_t>>& out) {
    if (a.size() != b.size()) {
        return std::string(what) + " count differs: source has " + std::to_string(a.size()) +
               ", mapped has " + std::to_string(b.size());
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    out.clear();
    out.reserve(a.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        if (a[k].first != b[k].first) {
            return std::string(what) + " name sets differ at '" +
                   std::string(std::min(a[k].first, b[k].first)) + "'";
        }
        if (k > 0 && a[k].first == a[k - 1].first) {
            return "duplicate " + std::string(what) + " name '" + std::string(a[k].first) + "'";
        }
        out.emplace_back(a[k].second, b[k].second);
    }
    return {};
}

class Certifier {
public:
    Certifier(const Network& source, const DecomposeResult& sub, const Library& lib,
              const MappedNetlist& mapped, std::uint64_t conflict_budget)
        : net_(source),
          sub_(sub),
          g_(sub.graph),
          lib_(lib),
          mapped_(mapped),
          budget_(conflict_budget),
          bound_(g_.size(), Bound::No),
          proven_(source.node_count(), 0) {}

    CertificateResult run() {
        if (sub_.signal_of.size() != net_.node_count()) {
            fail("the decomposition covers " + std::to_string(sub_.signal_of.size()) +
                 " source nodes, the source has " + std::to_string(net_.node_count()));
        } else {
            out_.proven = inputs() && sources() && gates() && outputs();
        }
        return std::move(out_);
    }

private:
    enum class Bound : std::uint8_t { No, Pi, Driver };

    bool fail(std::string why) {
        out_.decline = std::move(why);
        return false;
    }

    bool inputs() {
        std::vector<std::pair<std::string_view, std::size_t>> a, b;
        for (std::size_t i = 0; i < net_.inputs().size(); ++i) {
            a.emplace_back(net_.node(net_.inputs()[i]).name, i);
        }
        if (mapped_.subject_input_names.size() != mapped_.subject_inputs.size()) {
            return fail("mapped PI names and bindings differ in count");
        }
        for (std::size_t j = 0; j < mapped_.subject_inputs.size(); ++j) {
            b.emplace_back(mapped_.subject_input_names[j], j);
        }
        std::vector<std::pair<std::size_t, std::size_t>> pairs;
        if (std::string bad = pair_by_name(std::move(a), std::move(b), "PI", pairs);
            !bad.empty()) {
            return fail(std::move(bad));
        }
        for (const auto& [i, j] : pairs) {
            const NodeId p = net_.inputs()[i];
            const Node& pi = net_.node(p);
            const SubjectId s = sub_.signal_of[p];
            if (pi.dead || s >= g_.size() || g_.node(s).kind != SubjectKind::Input) {
                return fail("PI '" + pi.name + "' does not decompose to a subject Input");
            }
            if (mapped_.subject_inputs[j] != s) {
                return fail("PI '" + pi.name + "' decomposes to " + sname(s) +
                            " but the mapped netlist binds " +
                            sname(mapped_.subject_inputs[j]) + " under its name");
            }
            if (bound_[s] != Bound::No) {
                return fail("subject Input " + sname(s) + " is bound to two PIs");
            }
            bound_[s] = Bound::Pi;
            proven_[p] = 1;
            ++out_.stats.interface_obligations;
        }
        return true;
    }

    bool sources() {
        for (NodeId v = 0; v < net_.node_count(); ++v) {
            const Node& n = net_.node(v);
            if (n.dead || n.kind == NodeKind::PrimaryInput) continue;
            if (n.function.is_constant()) return fail("node '" + n.name + "' is constant");
            pins_.clear();
            for (const NodeId f : n.fanins) {
                if (f >= proven_.size() || proven_[f] == 0) {
                    return fail("node '" + n.name + "': a fanin is not proven before it");
                }
                pins_.push_back(sub_.signal_of[f]);
            }
            const std::size_t arity = n.fanins.size();
            std::size_t literals = 0;
            for (const Cube& c : n.function.cubes) {
                if (arity < 64 && (c.care >> arity) != 0) {
                    return fail("node '" + n.name + "': SOP reads past its fanins");
                }
                literals += static_cast<std::size_t>(std::popcount(c.care));
            }
            const SubjectId root = sub_.signal_of[v];
            const std::size_t bound = source_walk_bound(literals, n.function.cubes.size());
            ConeFunction::Outcome cone = cone_.evaluate(g_, root, pins_, bound);
            if (cone == ConeFunction::Outcome::Open) {
                cone = cone_.evaluate(g_, root, pins_, bound, /*complement_inv_leaves=*/true);
            }
            switch (cone) {
                case ConeFunction::Outcome::Open:
                    return fail("node '" + n.name + "': the cone of " + sname(root) +
                                " does not close at its fanins' signals");
                case ConeFunction::Outcome::Exact:
                    if (!cone_.equals([&](std::uint64_t a) { return n.function.eval(a); })) {
                        return fail("node '" + n.name + "': the cone of " + sname(root) +
                                    " differs from the node's SOP");
                    }
                    break;
                case ConeFunction::Outcome::Wide:
                    if (!wide_source(n, root)) return false;
                    break;
            }
            proven_[v] = 1;
            ++out_.stats.source_obligations;
        }
        return true;
    }

    /// Local miter for a node with more than ConeFunction::kMaxVars distinct
    /// leaves: cone(root) XOR SOP over free leaf variables must be UNSAT.
    bool wide_source(const Node& n, SubjectId root) {
        sat_.reset();
        std::vector<int> leaf_lit, node_lit;
        for (unsigned k = 0; k < cone_.n_vars(); ++k) leaf_lit.push_back(sat_.new_var());
        const std::span<const SubjectId> nodes = cone_.nodes();
        const auto lit_of = [&](SubjectId s) -> int {
            for (unsigned k = 0; k < cone_.n_vars(); ++k) {
                if (cone_.leaves()[k] == s) return leaf_lit[k];
            }
            for (const ConeFunction::Complement& c : cone_.complements()) {
                if (c.node == s) return -leaf_lit[c.var];
            }
            const auto it = std::lower_bound(nodes.begin(), nodes.end(), s);
            return node_lit[static_cast<std::size_t>(it - nodes.begin())];
        };
        for (const SubjectId s : nodes) {
            const SubjectNode& node = g_.node(s);
            const int a = lit_of(node.fanin0);
            if (node.kind == SubjectKind::Inv) {
                node_lit.push_back(-a);
                continue;
            }
            const int b = lit_of(node.fanin1);
            const int c = sat_.new_var();
            sat_.add_clause({c, a});
            sat_.add_clause({c, b});
            sat_.add_clause({-c, -a, -b});
            node_lit.push_back(c);
        }
        const int cone_out = lit_of(root);

        // The SOP over the same leaves: one AND variable per cube, one OR.
        const int any = sat_.new_var();
        std::vector<int> any_of{-any};
        for (const Cube& cube : n.function.cubes) {
            const int t = sat_.new_var();
            std::vector<int> back{t};
            for (std::uint64_t care = cube.care; care != 0; care &= care - 1) {
                const unsigned i = static_cast<unsigned>(std::countr_zero(care));
                const int leaf = leaf_lit[cone_.var_of_pin()[i]];
                const int lit = ((cube.polarity >> i) & 1) ? leaf : -leaf;
                sat_.add_clause({-t, lit});
                back.push_back(-lit);
            }
            sat_.add_clause(back);
            sat_.add_clause({any, -t});
            any_of.push_back(t);
        }
        sat_.add_clause(any_of);
        const int sop_out = n.function.complement ? -any : any;
        sat_.add_clause({cone_out, sop_out});
        sat_.add_clause({-cone_out, -sop_out});

        const SatResult r = sat_.solve(budget_);
        ++out_.stats.sat_calls;
        out_.stats.conflicts += sat_.stats().conflicts;
        switch (r) {
            case SatResult::Unsat:
                return true;
            case SatResult::Sat:
                return fail("node '" + n.name + "': the cone of " + sname(root) +
                            " differs from the node's SOP under free leaves");
            case SatResult::Unknown:
                break;
        }
        return fail("node '" + n.name + "': local miter exhausted its conflict budget");
    }

    bool gates() {
        for (std::size_t i = 0; i < mapped_.gates.size(); ++i) {
            const GateInstance& inst = mapped_.gates[i];
            const auto fail_at = [&](const std::string& why) {
                std::string at = "instance " + std::to_string(i);
                if (inst.gate < lib_.size()) at += " (" + lib_.gate(inst.gate).name + ")";
                return fail(at + ": " + why);
            };
            if (inst.gate >= lib_.size()) return fail_at("gate id out of range");
            const Gate& gate = lib_.gate(inst.gate);
            if (inst.inputs.size() != gate.n_inputs()) return fail_at("pin count mismatch");
            if (inst.driver >= g_.size()) {
                return fail_at("driver " + sname(inst.driver) + " lies past the subject graph");
            }
            for (const SubjectId in : inst.inputs) {
                if (in >= g_.size() || bound_[in] == Bound::No) {
                    return fail_at("pin reads " + sname(in) +
                                   ", neither a bound PI nor an earlier instance's driver");
                }
            }
            if (bound_[inst.driver] != Bound::No) {
                return fail_at(sname(inst.driver) + " is driven twice");
            }
            switch (cone_.evaluate(g_, inst.driver, inst.inputs,
                                   gate_walk_bound(inst.inputs.size()))) {
                case ConeFunction::Outcome::Open:
                    return fail_at("the cone of " + sname(inst.driver) +
                                   " does not close at its pins");
                case ConeFunction::Outcome::Wide:
                    return fail_at("too many distinct pins");
                case ConeFunction::Outcome::Exact:
                    break;
            }
            if (!cone_.equals([&](std::uint64_t pins) { return gate.function.get(pins); })) {
                return fail_at("the gate function differs from the cone of " +
                               sname(inst.driver));
            }
            bound_[inst.driver] = Bound::Driver;
            ++out_.stats.gate_obligations;
        }
        return true;
    }

    bool outputs() {
        std::vector<std::pair<std::string_view, std::size_t>> a, b;
        for (std::size_t i = 0; i < net_.outputs().size(); ++i) {
            a.emplace_back(net_.outputs()[i].name, i);
        }
        for (std::size_t j = 0; j < mapped_.outputs.size(); ++j) {
            b.emplace_back(mapped_.outputs[j].name, j);
        }
        std::vector<std::pair<std::size_t, std::size_t>> pairs;
        if (std::string bad = pair_by_name(std::move(a), std::move(b), "PO", pairs);
            !bad.empty()) {
            return fail(std::move(bad));
        }
        for (const auto& [i, j] : pairs) {
            const PrimaryOutput& po = net_.outputs()[i];
            if (po.driver >= proven_.size() || proven_[po.driver] == 0) {
                return fail("PO '" + po.name + "': its source driver is not proven");
            }
            const SubjectId want = sub_.signal_of[po.driver];
            const SubjectId got = mapped_.outputs[j].driver;
            if (got != want) {
                return fail("PO '" + po.name + "' is driven by " + sname(got) +
                            ", but its source driver decomposes to " + sname(want));
            }
            if (bound_[got] == Bound::No) {
                return fail("PO '" + po.name + "' reads the unbound signal " + sname(got));
            }
            ++out_.stats.interface_obligations;
        }
        return true;
    }

    const Network& net_;
    const DecomposeResult& sub_;
    const SubjectGraph& g_;
    const Library& lib_;
    const MappedNetlist& mapped_;
    std::uint64_t budget_;
    std::vector<Bound> bound_;           // per subject node: what drives it
    std::vector<std::uint8_t> proven_;   // per source node: obligation discharged
    CertificateResult out_;
    ConeFunction cone_;
    SatSolver sat_;
    std::vector<SubjectId> pins_;
};

}  // namespace

CertificateResult check_certificate(const Network& source, const DecomposeResult& sub,
                                    const Library& lib, const MappedNetlist& mapped,
                                    std::uint64_t conflict_budget) {
    return Certifier(source, sub, lib, mapped, conflict_budget).run();
}

}  // namespace lily
