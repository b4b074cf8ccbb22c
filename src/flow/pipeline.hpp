// The incremental (ECO) pipeline: versioned stage artifacts plus dirty-cone
// re-derivation across the whole flow.
//
// A PipelineState owns every artifact the batch flow produces — the source
// network, the NAND2/INV subject graph, the Lily mapping (with its DP
// state), the placed/routed/timed backend result — each stamped with the
// network version it was built from. run_eco_flow_checked applies a
// NetDelta and re-derives only what the edit dirtied:
//
//   network  -> atomic edit (Network::apply_delta)
//   subject  -> decompose_incremental: structural hashing folds unchanged
//               cones back onto existing nodes (append-only ids)
//   mapping  -> LilyMapper::remap_checked: cone-scoped DP over the dirty
//               cones, prior solutions/placements taken over verbatim
//   backend  -> place_incremental anchored on the clean boundary, row
//               re-legalization, route_incremental, and the batch STA pass
//               (a few ms; legalization moves nearly every pin anyway)
//
// `delta = everything` (NetDelta::full_rebuild) degenerates to the batch
// flow via the same code path the non-incremental entry points use, so the
// result is bit-identical to run_lily_flow_checked by construction. Any
// incremental stage that cannot proceed (seed mismatch, region overflow,
// changed pad interface) falls back to the same full reflow — the ECO entry
// point never produces a worse answer than re-running the batch flow, only
// sometimes a slower one.
//
// Before consuming any artifact, the PipelineChecker cross-validates the
// version stamps so a stale artifact (e.g. a mapping built against an older
// subject-graph epoch) is rejected with InvariantViolation instead of
// silently mixing generations.
#pragma once

#include "check/pipeline_checker.hpp"
#include "flow/flow.hpp"
#include "netlist/delta.hpp"
#include "util/version.hpp"

namespace lily {

/// Every stage artifact of one circuit's flow, ready for incremental
/// re-derivation. Built by build_pipeline; advanced by run_eco_flow_checked.
/// The `*_built_from` stamps record the network version each artifact
/// reflects — kNeverBuilt means the stage has not run.
struct PipelineState {
    Network net;  // the evolving circuit (owned copy; deltas apply here)
    const Library* lib = nullptr;
    FlowOptions opts;

    DecomposeResult subject;
    Version subject_built_from = kNeverBuilt;

    /// The mapping artifact: the LilyResult's DP solutions, life states and
    /// positions that remap_checked resumes from. Its netlist is empty; the
    /// mapped netlist lives in flow.netlist alone.
    LilyResult lily;
    std::size_t subject_size_at_map = 0;  // graph size the mapping covers
    Version mapping_built_from = kNeverBuilt;
    /// The batch run fell back to the wire-blind baseline mapper; there is
    /// no DP seed, so every subsequent delta takes the full-reflow path.
    bool used_baseline_fallback = false;

    FlowResult flow;            // netlist, positions, pads, region, metrics
    DetailedPlacement detailed;  // row structure the ECO legalizer extends
    RouteResult routed;          // replayable plan route_incremental patches
    Version backend_built_from = kNeverBuilt;

    bool built() const {
        return lib != nullptr && subject_built_from != kNeverBuilt &&
               mapping_built_from != kNeverBuilt && backend_built_from != kNeverBuilt;
    }
};

/// Per-stage reuse accounting for one ECO application — the numbers the
/// eco_scaling bench and FlowDiagnostics notes are built from.
struct EcoStats {
    Version version = kNeverBuilt;   // network version after the delta
    std::size_t touched_nodes = 0;   // directly edited source nodes

    std::size_t subject_dirty_sources = 0;  // source cones re-derived
    std::size_t subject_nodes_before = 0;
    std::size_t subject_nodes_after = 0;

    std::size_t remapped_nodes = 0;  // subject nodes re-solved by the DP
    std::size_t reused_nodes = 0;    // DP solutions carried over verbatim

    std::size_t placed_cells = 0;  // cells re-solved by the local QP
    std::size_t total_cells = 0;

    /// The delta took the batch path (requested, or a fallback rung fired).
    bool full_reflow = false;
    FlowDiagnostics diagnostics;

    double map_reuse_ratio() const {
        const std::size_t n = remapped_nodes + reused_nodes;
        return n == 0 ? 0.0 : static_cast<double>(reused_nodes) / static_cast<double>(n);
    }
    double place_reuse_ratio() const {
        return total_cells == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(placed_cells) / static_cast<double>(total_cells);
    }
    /// Always 0: ECO re-timing is the batch STA; kept for perfbench's reader.
    double timing_reuse_ratio() const { return 0.0; }
};

/// Run the batch Lily flow once and capture every stage artifact into a
/// PipelineState ready for deltas. The state owns a copy of `net`;
/// subsequent edits go through run_eco_flow_checked, not the original.
StatusOr<PipelineState> build_pipeline(const Network& net, const Library& lib,
                                       const FlowOptions& opts = {});

/// Apply one delta and bring every stage artifact up to date, re-deriving
/// only the dirty regions (see the file comment for the per-stage
/// strategy). The version-stamp chain is validated first — always, not just
/// at CheckLevel Light: the entry point's contract depends on it and the
/// scan is O(stages). The LILY_FAULT=eco:stale-epoch probe corrupts a stamp
/// here to prove the rejection path stays live.
StatusOr<EcoStats> run_eco_flow_checked(PipelineState& state, const NetDelta& delta);

}  // namespace lily
