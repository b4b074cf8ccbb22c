// Combinational equivalence checking (CEC) by SAT sweeping: the
// whole-circuit prover. The flow's verify stage proves a mapping by its own
// certificate first (verify/certificate.hpp, linear in circuit size) and
// runs this engine only when the certificate declines; the cec_scaling
// bench, perfbench and the tests call it directly.
//
// Both networks are lowered into one shared AIG miter (structural hashing
// already merges identical logic). Random simulation then partitions the
// remaining AIG nodes into candidate equivalence classes; the sweeper walks
// the classes fringe-first (AIG ids are topological) and discharges each
// candidate with a small budgeted CDCL query, merging proven nodes so later
// queries see ever-smaller cones. The primary-output miters are proven
// last, on the swept graph.
//
// Every query is logically fresh, but one SatSolver and one CNF encoder
// serve the whole check: both are reset between queries and keep their
// storage, so a sweep allocates nothing per query. Each satisfying sweep
// model is kept as an input pattern and resimulated; a later candidate that
// some kept pattern already separates from its leader is skipped without a
// SAT call (CecStats::cex_pruned). Merges still happen only on UNSAT, so
// pruning removes satisfiable queries and never changes a merge.
//
// Three outcomes, never a wrong one:
//   Proven       — every PO pair is UNSAT-equal: a complete proof.
//   Refuted      — a concrete input assignment separates some PO pair; the
//                  counterexample is replayed through simulate_block so the
//                  reported PI/PO values come from the reference simulator,
//                  not from the prover's own model.
//   Inconclusive — some PO query exhausted its conflict budget. Callers
//                  (the flow's verify stage, after a declined certificate)
//                  fall back to the random-simulation verdict and record the
//                  degradation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/network.hpp"
#include "util/status.hpp"

namespace lily {

/// How much equivalence verification the flow runs after mapping.
///  * Off   — none (production default).
///  * Sim   — random-simulation comparison only (fast, probabilistic).
///  * Prove — a complete proof: the mapping certificate (check_certificate)
///            when it discharges every obligation; otherwise SAT-sweeping
///            CEC, with fallback to Sim when that is inconclusive.
enum class VerifyLevel : std::uint8_t { Off, Sim, Prove };

/// VerifyLevel from the LILY_VERIFY environment variable (unset -> Off;
/// unparsable -> Off with one stderr line). Read once and cached.
VerifyLevel verify_level_from_env();

const char* to_string(VerifyLevel level);

enum class CecVerdict : std::uint8_t { Proven, Refuted, Inconclusive };

const char* to_string(CecVerdict verdict);

/// A separating input assignment, replayed through simulate_block. PI names
/// and values follow network `a`'s input order; each mismatch records the
/// PO name with the two simulated values.
struct Counterexample {
    std::vector<std::string> pi_names;
    std::vector<bool> pi_values;
    struct Mismatch {
        std::string po_name;
        bool value_a = false;
        bool value_b = false;
    };
    std::vector<Mismatch> mismatches;

    /// Human-readable one-per-line diff ("PI a=0 ...", "PO f: a=1 b=0").
    std::string to_string() const;
};

struct CecOptions {
    /// Random 64-pattern blocks used to form candidate equivalence classes
    /// (and, in the flow, the Sim fallback).
    std::size_t sim_blocks = 8;
    std::uint64_t seed = 0x11e5a9c7u;
    /// Conflict budget per sweeping query. Exhaustion just skips the merge.
    std::uint64_t sweep_conflict_budget = 2000;
    /// Conflict budget per PO miter proof; 0 is unlimited. Exhaustion makes
    /// the verdict Inconclusive.
    std::uint64_t output_conflict_budget = 200000;
    /// Disable the sweeping phase (PO miters are then proven monolithically;
    /// used by the scaling bench to measure what sweeping buys).
    bool sweep = true;
};

struct CecStats {
    std::size_t aig_and_nodes = 0;   // AND nodes in the shared miter
    std::size_t candidate_pairs = 0; // sweep pairs considered (queried or pruned)
    std::size_t cex_pruned = 0;      // pairs a kept counterexample separated
    std::size_t merged_nodes = 0;    // nodes replaced by an equivalent
    std::size_t sat_calls = 0;
    std::size_t sat_unsat = 0;
    std::size_t sat_sat = 0;
    std::size_t sat_unknown = 0;
    std::uint64_t conflicts = 0;     // summed over all queries
};

struct CecResult {
    CecVerdict verdict = CecVerdict::Inconclusive;
    std::optional<Counterexample> cex;  // present iff Refuted
    CecStats stats;
    /// For Inconclusive: which output(s) ran out of budget.
    std::string note;
};

/// Prove or refute equivalence of two networks whose PI/PO interfaces match
/// by name (align_interfaces). An interface mismatch is an error Status, not
/// a Refuted verdict. A Refuted result always carries a counterexample whose
/// mismatches were confirmed by simulate_block; if the prover's model fails
/// to replay, the engine reports an Internal error instead of trusting it.
StatusOr<CecResult> check_equivalence(const Network& a, const Network& b,
                                      const CecOptions& opts = {});

}  // namespace lily
