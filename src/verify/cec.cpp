#include "verify/cec.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <sstream>

#include "netlist/interface.hpp"
#include "netlist/simulate.hpp"
#include "util/rng.hpp"
#include "verify/aig.hpp"
#include "verify/sat.hpp"

namespace lily {

namespace {

std::optional<VerifyLevel> match_verify_level(std::string_view text) {
    std::string lower(text);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (lower == "off") return VerifyLevel::Off;
    if (lower == "sim") return VerifyLevel::Sim;
    if (lower == "prove") return VerifyLevel::Prove;
    return std::nullopt;
}

}  // namespace

VerifyLevel verify_level_from_env() {
    static const VerifyLevel cached = [] {
        const char* text = std::getenv("LILY_VERIFY");
        if (text == nullptr) return VerifyLevel::Off;
        const std::optional<VerifyLevel> level = match_verify_level(text);
        if (!level.has_value()) {
            std::fprintf(stderr, "lily: LILY_VERIFY='%s' is not one of off|sim|prove; "
                                 "verify stays off\n", text);
        }
        return level.value_or(VerifyLevel::Off);
    }();
    return cached;
}

const char* to_string(VerifyLevel level) {
    switch (level) {
        case VerifyLevel::Off: return "off";
        case VerifyLevel::Sim: return "sim";
        case VerifyLevel::Prove: return "prove";
    }
    return "?";
}

const char* to_string(CecVerdict verdict) {
    switch (verdict) {
        case CecVerdict::Proven: return "proven";
        case CecVerdict::Refuted: return "refuted";
        case CecVerdict::Inconclusive: return "inconclusive";
    }
    return "?";
}

std::string Counterexample::to_string() const {
    std::ostringstream os;
    os << "counterexample:";
    for (std::size_t i = 0; i < pi_names.size(); ++i) {
        os << ' ' << pi_names[i] << '=' << (pi_values[i] ? '1' : '0');
    }
    os << " | differs:";
    for (std::size_t i = 0; i < mismatches.size(); ++i) {
        const Mismatch& m = mismatches[i];
        os << (i == 0 ? " " : ", ") << m.po_name << " (a=" << (m.value_a ? '1' : '0')
           << ", b=" << (m.value_b ? '1' : '0') << ')';
    }
    return os.str();
}

namespace {

/// Follow the sweeping replacement map to a node's current representative
/// literal. `repl[n]` is the literal node n was merged into (itself when
/// unmerged); chains are short but followed to a fixpoint.
AigLit deref(const std::vector<AigLit>& repl, AigLit l) {
    std::uint32_t n = aig_node(l);
    bool sign = aig_sign(l);
    while (aig_node(repl[n]) != n) {
        sign ^= aig_sign(repl[n]);
        n = aig_node(repl[n]);
    }
    return aig_lit(n, sign);
}

/// Tseitin encoder for AIG cones, reading fanins through the replacement
/// map so proven merges shrink every later query's CNF. One builder serves
/// every query of a check: reset() forgets the previous query's encoding by
/// clearing only the nodes it touched, and the DFS stack keeps its capacity.
class CnfBuilder {
public:
    CnfBuilder(const Aig& aig, const std::vector<AigLit>& repl, SatSolver& solver)
        : aig_(aig), repl_(repl), solver_(solver), node2var_(aig.node_count(), 0) {}

    /// Forget every encoded node; pair with SatSolver::reset().
    void reset() {
        for (const std::uint32_t n : touched_) node2var_[n] = 0;
        touched_.clear();
    }

    /// DIMACS literal carrying `l` (which must already be deref'd). Encodes
    /// the cone on first use.
    int encode(AigLit l) {
        encode_node(aig_node(l));
        return dimacs(l);
    }

    /// SAT variable of an AIG input node, or 0 when the input is outside
    /// every encoded cone (its value is then unconstrained; callers take
    /// false).
    int input_var(std::uint32_t node) const { return node2var_[node]; }

private:
    int dimacs(AigLit l) const {
        const int v = node2var_[aig_node(l)];
        return aig_sign(l) ? -v : v;
    }

    int bind(std::uint32_t n) {
        const int v = solver_.new_var();
        node2var_[n] = v;
        touched_.push_back(n);
        return v;
    }

    void encode_node(std::uint32_t root) {
        if (node2var_[root] != 0) return;
        std::vector<std::uint32_t>& stack = stack_;
        stack.assign(1, root);
        while (!stack.empty()) {
            const std::uint32_t n = stack.back();
            if (node2var_[n] != 0) {
                stack.pop_back();
                continue;
            }
            if (aig_.is_const(n)) {
                solver_.add_clause({-bind(n)});  // constant false
                stack.pop_back();
                continue;
            }
            if (aig_.is_input(n)) {
                bind(n);
                stack.pop_back();
                continue;
            }
            const AigLit f0 = deref(repl_, aig_.fanin0(n));
            const AigLit f1 = deref(repl_, aig_.fanin1(n));
            bool ready = true;
            if (node2var_[aig_node(f0)] == 0) {
                stack.push_back(aig_node(f0));
                ready = false;
            }
            if (node2var_[aig_node(f1)] == 0) {
                stack.push_back(aig_node(f1));
                ready = false;
            }
            if (!ready) continue;
            const int c = bind(n);
            const int a = dimacs(f0);
            const int b = dimacs(f1);
            solver_.add_clause({-c, a});
            solver_.add_clause({-c, b});
            solver_.add_clause({c, -a, -b});
            stack.pop_back();
        }
    }

    const Aig& aig_;
    const std::vector<AigLit>& repl_;
    SatSolver& solver_;
    std::vector<int> node2var_;
    std::vector<std::uint32_t> touched_;  // nodes with node2var_ != 0
    std::vector<std::uint32_t> stack_;    // encode_node's DFS
};

/// One budgeted (in)equivalence query: is `la != lb` satisfiable? Both
/// literals must already be deref'd. Unsat means proven equal. The shared
/// solver and builder are reset first, so the query searches exactly as a
/// fresh solver would. On Sat, `model_inputs` (when non-null) receives one
/// separating value per AIG input.
SatResult prove_pair(const Aig& aig, SatSolver& solver, CnfBuilder& cnf, AigLit la, AigLit lb,
                     std::uint64_t conflict_budget, CecStats& stats,
                     std::vector<bool>* model_inputs) {
    if (la == lb) return SatResult::Unsat;  // structurally identical: no SAT needed
    solver.reset();
    cnf.reset();
    const int da = cnf.encode(la);
    const int db = cnf.encode(lb);
    solver.add_clause({da, db});
    solver.add_clause({-da, -db});
    const SatResult res = solver.solve(conflict_budget);
    ++stats.sat_calls;
    stats.conflicts += solver.stats().conflicts;
    switch (res) {
        case SatResult::Unsat: ++stats.sat_unsat; break;
        case SatResult::Sat: ++stats.sat_sat; break;
        case SatResult::Unknown: ++stats.sat_unknown; break;
    }
    if (res == SatResult::Sat && model_inputs != nullptr) {
        model_inputs->assign(aig.input_count(), false);
        for (std::size_t i = 0; i < aig.input_count(); ++i) {
            const int v = cnf.input_var(aig.inputs()[i]);
            (*model_inputs)[i] = v != 0 && solver.model_value(v);
        }
    }
    return res;
}

/// Partition AIG nodes into candidate equivalence classes by random
/// simulation signature, canonicalized under complementation, and prove the
/// candidates fringe-first. Proven merges land in `repl`.
void sat_sweep(const Aig& aig, std::vector<AigLit>& repl, SatSolver& solver, CnfBuilder& cnf,
               const CecOptions& opts, CecStats& stats) {
    const std::size_t blocks = std::max<std::size_t>(1, opts.sim_blocks);
    const std::size_t n_nodes = aig.node_count();
    std::vector<std::uint64_t> sig(n_nodes * blocks);
    std::vector<std::uint64_t> value(n_nodes);
    Rng rng(opts.seed ^ 0x5eedULL);
    std::vector<std::uint64_t> input_words(aig.input_count());
    for (std::size_t b = 0; b < blocks; ++b) {
        for (std::uint64_t& w : input_words) w = rng.next_u64();
        aig.simulate(input_words, value);
        for (std::size_t n = 0; n < n_nodes; ++n) sig[n * blocks + b] = value[n];
    }

    // Canonical phase: complement the signature when pattern 0 evaluates to
    // 1, so a node and its complement land in the same class.
    std::vector<bool> phase(n_nodes);
    std::vector<std::uint64_t> hash(n_nodes);
    for (std::size_t n = 0; n < n_nodes; ++n) {
        const bool ph = (sig[n * blocks] & 1) != 0;
        phase[n] = ph;
        std::uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (std::size_t b = 0; b < blocks; ++b) {
            std::uint64_t w = sig[n * blocks + b] ^ (ph ? ~0ULL : 0ULL);
            w *= 0xff51afd7ed558ccdULL;
            h = (h ^ w) * 0xc4ceb9fe1a85ec53ULL;
            h ^= h >> 29;
        }
        hash[n] = h;
    }

    // Group by signature hash: a class's leader is its lowest id. A hash
    // collision only wastes one SAT call — merges happen on UNSAT proofs,
    // never on the grouping itself.
    std::vector<std::uint32_t> order(n_nodes);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
        return hash[x] != hash[y] ? hash[x] < hash[y] : x < y;
    });
    std::vector<std::uint32_t> leader(n_nodes);
    for (std::size_t i = 0; i < n_nodes; ++i) {
        const bool first = i == 0 || hash[order[i]] != hash[order[i - 1]];
        leader[order[i]] = first ? order[i] : leader[order[i - 1]];
    }
    // Candidates are the AND members (inputs and the constant only ever
    // lead), classes in leader (= topological) order, members in id order.
    std::vector<std::uint32_t> members;
    for (std::uint32_t n = 0; n < n_nodes; ++n) {
        if (leader[n] != n && aig.is_and(n)) members.push_back(n);
    }
    std::sort(members.begin(), members.end(), [&](std::uint32_t x, std::uint32_t y) {
        return leader[x] != leader[y] ? leader[x] < leader[y] : x < y;
    });
    const auto flip = [&](std::uint32_t m) {
        return phase[m] != phase[leader[m]] ? ~0ULL : 0ULL;
    };

    // Counterexample refinement: each satisfying model of a sweep query is
    // one more input pattern, packed 64 to a word block and resimulated into
    // `value`. A candidate that differs from its leader under a collected
    // pattern cannot be merged, so it is skipped without a SAT call. A full
    // block is folded into `separated` and the block starts over.
    std::vector<std::uint64_t> cex_words(aig.input_count(), 0);
    unsigned cex_bits = 0;
    std::vector<std::uint8_t> separated(n_nodes, 0);
    std::vector<bool> model;

    for (const std::uint32_t m : members) {
        const std::uint32_t lead = leader[m];
        const AigLit lm = deref(repl, aig_lit(m, false));
        const AigLit lt = deref(repl, aig_lit(lead, phase[m] != phase[lead]));
        if (lm == lt) continue;  // already merged transitively
        if (aig_node(lm) != m) continue;  // m follows another class now
        ++stats.candidate_pairs;
        const std::uint64_t live = (1ULL << cex_bits) - 1;
        if (separated[m] != 0 || ((value[m] ^ value[lead] ^ flip(m)) & live) != 0) {
            ++stats.cex_pruned;
            continue;
        }
        const SatResult res = prove_pair(aig, solver, cnf, lm, lt,
                                         opts.sweep_conflict_budget, stats, &model);
        if (res == SatResult::Unsat) {
            repl[m] = aig_sign(lm) ? aig_not(lt) : lt;
            ++stats.merged_nodes;
        } else if (res == SatResult::Sat) {
            for (std::size_t i = 0; i < cex_words.size(); ++i) {
                if (model[i]) cex_words[i] |= 1ULL << cex_bits;
            }
            aig.simulate(cex_words, value);
            if (++cex_bits == 64) {
                for (const std::uint32_t n : members) {
                    if ((value[n] ^ value[leader[n]] ^ flip(n)) != 0) separated[n] = 1;
                }
                std::fill(cex_words.begin(), cex_words.end(), 0);
                cex_bits = 0;
            }
        }
    }
}

}  // namespace

StatusOr<CecResult> check_equivalence(const Network& a, const Network& b,
                                      const CecOptions& opts) {
    LILY_ASSIGN_OR_RETURN(const InterfaceAlignment align, align_interfaces(a, b));

    // One shared AIG: both networks read their PIs from the same literals
    // (matched by name), so structural hashing merges across the two sides.
    Aig aig;
    std::vector<AigLit> pi_lits_a(a.inputs().size());
    for (std::size_t i = 0; i < pi_lits_a.size(); ++i) {
        pi_lits_a[i] = aig_lit(aig.add_input(), false);
    }
    std::vector<AigLit> pi_lits_b(b.inputs().size());
    for (std::size_t i = 0; i < pi_lits_b.size(); ++i) {
        pi_lits_b[i] = pi_lits_a[align.pi_of_b[i]];
    }
    const std::vector<AigLit> lit_a = lower_network(a, aig, pi_lits_a);
    const std::vector<AigLit> lit_b = lower_network(b, aig, pi_lits_b);

    CecResult result;
    result.stats.aig_and_nodes = aig.and_count();

    std::vector<AigLit> repl(aig.node_count());
    for (std::uint32_t n = 0; n < repl.size(); ++n) repl[n] = aig_lit(n, false);

    // PO miter pairs (b's PO j against a's name-matched PO).
    struct PoPair {
        AigLit la = kAigFalse;
        AigLit lb = kAigFalse;
        std::size_t b_index = 0;
    };
    std::vector<PoPair> pairs(b.outputs().size());
    bool all_structural = true;
    for (std::size_t j = 0; j < b.outputs().size(); ++j) {
        pairs[j].la = lit_a[a.outputs()[align.po_of_b[j]].driver];
        pairs[j].lb = lit_b[b.outputs()[j].driver];
        pairs[j].b_index = j;
        all_structural = all_structural && pairs[j].la == pairs[j].lb;
    }
    if (all_structural) {
        result.verdict = CecVerdict::Proven;
        return result;
    }

    // One solver and one encoder serve every query of this check.
    SatSolver solver;
    CnfBuilder cnf(aig, repl, solver);
    if (opts.sweep) sat_sweep(aig, repl, solver, cnf, opts, result.stats);

    std::string inconclusive_note;
    std::vector<bool> model_inputs;
    for (const PoPair& pair : pairs) {
        const AigLit la = deref(repl, pair.la);
        const AigLit lb = deref(repl, pair.lb);
        const SatResult res = prove_pair(aig, solver, cnf, la, lb, opts.output_conflict_budget,
                                         result.stats, &model_inputs);
        if (res == SatResult::Unsat) continue;
        if (res == SatResult::Unknown) {
            if (!inconclusive_note.empty()) inconclusive_note += ", ";
            inconclusive_note += "output '" + b.outputs()[pair.b_index].name +
                                 "' exhausted its conflict budget";
            continue;
        }

        // Sat: replay the model through the reference simulator. The
        // reported diff comes from simulate_block, never from the prover.
        std::vector<std::uint64_t> ins_a(a.inputs().size());
        for (std::size_t i = 0; i < ins_a.size(); ++i) {
            ins_a[i] = model_inputs[i] ? ~0ULL : 0ULL;
        }
        std::vector<std::uint64_t> ins_b(b.inputs().size());
        for (std::size_t i = 0; i < ins_b.size(); ++i) {
            ins_b[i] = ins_a[align.pi_of_b[i]];
        }
        const std::vector<std::uint64_t> va = simulate_block(a, ins_a);
        const std::vector<std::uint64_t> vb = simulate_block(b, ins_b);

        Counterexample cex;
        cex.pi_names.reserve(a.inputs().size());
        cex.pi_values.reserve(a.inputs().size());
        for (std::size_t i = 0; i < a.inputs().size(); ++i) {
            cex.pi_names.push_back(a.node(a.inputs()[i]).name);
            cex.pi_values.push_back(model_inputs[i]);
        }
        for (std::size_t j = 0; j < b.outputs().size(); ++j) {
            const bool bit_a = (va[a.outputs()[align.po_of_b[j]].driver] & 1) != 0;
            const bool bit_b = (vb[b.outputs()[j].driver] & 1) != 0;
            if (bit_a != bit_b) {
                cex.mismatches.push_back(
                    {a.outputs()[align.po_of_b[j]].name, bit_a, bit_b});
            }
        }
        if (cex.mismatches.empty()) {
            return Status(StatusCode::Internal,
                          "check_equivalence: SAT model for output '" +
                              b.outputs()[pair.b_index].name +
                              "' failed to replay under simulate_block");
        }
        result.verdict = CecVerdict::Refuted;
        result.cex = std::move(cex);
        return result;
    }

    if (inconclusive_note.empty()) {
        result.verdict = CecVerdict::Proven;
    } else {
        result.verdict = CecVerdict::Inconclusive;
        result.note = std::move(inconclusive_note);
    }
    return result;
}

}  // namespace lily
