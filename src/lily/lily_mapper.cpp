#include "lily/lily_mapper.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "util/fault.hpp"
#include "util/trace.hpp"

namespace lily {

namespace {

/// One candidate's evaluation: its DP key, the gate-area tie-break and the
/// solution it would write into sol[v].
struct CandEval {
    double key = 0.0;
    double gate_area = 0.0;  // tie-break
    LilyNodeSolution cand;
};

/// Every buffer a single candidate evaluation needs, so the warmed DP scan
/// allocates nothing per candidate.
struct EvalScratch {
    WireScratch wire;
    MedianScratch median;
    std::vector<Point> pts;
    std::vector<Rect> rects;
    std::vector<SubjectId> ins;  // distinct match inputs
};

/// Mutable mapping state shared by the per-cone passes.
struct Ctx {
    const SubjectGraph& g;
    const SubjectTopology& topo;  // frozen flat adjacency of g
    const Library& lib;
    const LilyOptions& opts;
    const Matcher& matcher;

    std::vector<Point> pad_pos;               // PIs then POs
    std::vector<Point> place_pos;             // placePosition per subject node
    std::vector<LifeState> state;
    std::vector<LilyNodeSolution> sol;
    std::vector<std::vector<std::size_t>> po_pads_of;  // subject id -> pad ids
    std::vector<bool> committed;              // needed-walk bookkeeping

    // Epoch-stamped scratch for the true-fanout walk: avoids an O(n)
    // allocation per query (the walk runs once per match input).
    mutable std::vector<std::uint32_t> visit_mark;
    mutable std::uint32_t visit_epoch = 0;

    // --- Incrementally invalidated caches, keyed to the life cycle.
    //
    // True-fanout membership only changes when a node becomes a dove or a
    // dove is promoted to hawk — both happen exclusively in the cone-commit
    // walk — so cached fanout lists stay valid for the whole DP pass over a
    // cone (topo_epoch bumps once per commit). The positions feeding the
    // fanin rectangles additionally change when hawks adopt mapPositions at
    // commit and when periodic re-placement rewrites placePositions, so the
    // rectangle cache has its own epoch (rect_epoch) bumped at both points.
    mutable std::vector<std::vector<SubjectId>> tf_cache{};
    mutable std::vector<std::uint32_t> tf_stamp{};
    mutable std::uint32_t topo_epoch = 1;
    mutable std::vector<Rect> full_rect{};  // fanin rect with no covered-filter
    mutable std::vector<std::uint32_t> rect_stamp{};
    mutable std::uint32_t rect_epoch = 1;
    // Matcher buffers reused across every matches_at call of the DP.
    mutable MatchScratch match_scratch{};
    // Pooled DP buffers: the match list is filled in place (recycled slots
    // keep their inner vectors' capacity), and candidates are scored into two
    // CandEval slots (the one being scored and the best so far) that swap
    // on every improvement. After the first few nodes warm the pools,
    // solve_node allocates only for the chosen solution it writes into sol[v].
    mutable std::vector<Match> match_pool{};
    mutable CandEval trial{};
    mutable CandEval best{};
    mutable EvalScratch scratch{};

    /// placePosition/mapPosition lookup per the paper's rules: hawks answer
    /// with their mapPosition, primary inputs with their pad, everything
    /// else with its placePosition.
    Point pos(SubjectId v) const {
        if (topo.kind[v] == SubjectKind::Input) return place_pos[v];
        if (state[v] == LifeState::Hawk) return sol[v].position;
        return place_pos[v];
    }
};

/// add-true-fanout-recursively (Section 3.3): walk each fanout branch of a
/// stem; doves are transparent (their logic lives inside a hawk above), any
/// hawk/nestling/egg reached is a true fanout. Logic duplication can yield
/// several true fanouts per branch.
void add_true_fanouts(const Ctx& ctx, SubjectId branch, std::vector<SubjectId>& out) {
    if (ctx.visit_mark[branch] == ctx.visit_epoch) return;
    ctx.visit_mark[branch] = ctx.visit_epoch;
    if (ctx.state[branch] == LifeState::Dove) {
        for (const SubjectId f : ctx.topo.fanouts_of(branch)) {
            add_true_fanouts(ctx, f, out);
        }
    } else {
        out.push_back(branch);
    }
}

/// Cached true-fanout list of `stem`, recomputed lazily after each cone
/// commit (see Ctx::topo_epoch).
const std::vector<SubjectId>& true_fanouts(const Ctx& ctx, SubjectId stem) {
    if (ctx.tf_cache.size() != ctx.g.size()) {
        ctx.tf_cache.assign(ctx.g.size(), {});
        ctx.tf_stamp.assign(ctx.g.size(), 0);
    }
    if (ctx.tf_stamp[stem] == ctx.topo_epoch) return ctx.tf_cache[stem];
    std::vector<SubjectId>& out = ctx.tf_cache[stem];
    out.clear();
    if (ctx.visit_mark.size() != ctx.g.size()) {
        ctx.visit_mark.assign(ctx.g.size(), 0);
        ctx.visit_epoch = 0;
    }
    ++ctx.visit_epoch;
    for (const SubjectId f : ctx.topo.fanouts_of(stem)) add_true_fanouts(ctx, f, out);
    ctx.tf_stamp[stem] = ctx.topo_epoch;
    return out;
}

bool is_covered_by(const Match& m, SubjectId v) {
    return std::binary_search(m.covered.begin(), m.covered.end(), v);
}

/// Fanin rectangle of `vi` with no covered-filter applied — the common case
/// (most matches cover none of an input's other fanouts), cached per node
/// and invalidated whenever positions can move (Ctx::rect_epoch).
const Rect& full_fanin_rect(const Ctx& ctx, SubjectId vi) {
    if (ctx.rect_stamp.size() != ctx.g.size()) {
        ctx.full_rect.assign(ctx.g.size(), {});
        ctx.rect_stamp.assign(ctx.g.size(), 0);
    }
    if (ctx.rect_stamp[vi] == ctx.rect_epoch) return ctx.full_rect[vi];
    Rect r;
    r.expand(ctx.pos(vi));
    for (const SubjectId tf : true_fanouts(ctx, vi)) r.expand(ctx.pos(tf));
    for (const std::size_t pad : ctx.po_pads_of[vi]) r.expand(ctx.pad_pos[pad]);
    ctx.full_rect[vi] = r;
    ctx.rect_stamp[vi] = ctx.rect_epoch;
    return ctx.full_rect[vi];
}

/// Fanin rectangle of input `vi` of match `m` (Section 3.3): the true
/// fanouts of vi not covered by m, plus vi itself. Hawks (and vi when it is
/// one) contribute mapPositions, everything else placePositions; pads of
/// primary outputs vi drives are included.
Rect fanin_rect(const Ctx& ctx, SubjectId vi, const Match& m) {
    const std::vector<SubjectId>& tfs = true_fanouts(ctx, vi);
    bool any_covered = false;
    for (const SubjectId tf : tfs) {
        if (is_covered_by(m, tf)) {
            any_covered = true;
            break;
        }
    }
    if (!any_covered) return full_fanin_rect(ctx, vi);
    Rect r;
    r.expand(ctx.pos(vi));
    for (const SubjectId tf : tfs) {
        if (is_covered_by(m, tf)) continue;
        r.expand(ctx.pos(tf));
    }
    for (const std::size_t pad : ctx.po_pads_of[vi]) r.expand(ctx.pad_pos[pad]);
    return r;
}

/// Fanout rectangle of the match root (Section 3.2): fanouts of v outside
/// the match (eggs, by DFS order) at their placePositions, plus PO pads.
Rect fanout_rect(const Ctx& ctx, SubjectId v, const Match& m) {
    Rect r;
    for (const SubjectId f : ctx.topo.fanouts_of(v)) {
        if (is_covered_by(m, f)) continue;
        r.expand(ctx.place_pos[f]);
    }
    for (const std::size_t pad : ctx.po_pads_of[v]) r.expand(ctx.pad_pos[pad]);
    return r;
}

/// Distinct match inputs, sorted, into the caller's scratch buffer.
void distinct_inputs(const Match& m, std::vector<SubjectId>& ins) {
    ins.assign(m.inputs.begin(), m.inputs.end());
    std::sort(ins.begin(), ins.end());
    ins.erase(std::unique(ins.begin(), ins.end()), ins.end());
}

/// Candidate gate position (Section 3.2).
Point candidate_position(const Ctx& ctx, SubjectId v, const Match& m, EvalScratch& es) {
    if (ctx.opts.update == PositionUpdate::CMofMerged) {
        es.pts.clear();
        for (const SubjectId w : m.covered) es.pts.push_back(ctx.place_pos[w]);
        return center_of_mass(es.pts);
    }
    // CM-of-Fans: minimize Manhattan distance to fanin + fanout rectangles.
    es.rects.clear();
    distinct_inputs(m, es.ins);
    for (const SubjectId vi : es.ins) {
        // Mapped inputs answer with mapPositions (depth-first order has
        // already decided them); the rectangle also folds in vi's other
        // true fanouts.
        es.rects.push_back(fanin_rect(ctx, vi, m));
    }
    const Rect fo = fanout_rect(ctx, v, m);
    if (!fo.empty()) es.rects.push_back(fo);
    if (es.rects.empty()) {
        es.pts.clear();
        for (const SubjectId w : m.covered) es.pts.push_back(ctx.place_pos[w]);
        return center_of_mass(es.pts);
    }
    return manhattan_median_of_rects(es.rects, es.median);
}

/// Wire cost of connecting gate(m) at `p` to its fanins (Section 3.4): for
/// each input net, the enclosing-rectangle half perimeter (Steiner-ratio
/// corrected) or spanning-tree length over {fanin-rect nodes, p}, divided by
/// the true fanout count to avoid duplicate accounting.
double local_wire_cost(const Ctx& ctx, const Match& m, const Point& p, EvalScratch& es) {
    double sum = 0.0;
    distinct_inputs(m, es.ins);
    for (const SubjectId vi : es.ins) {
        es.pts.clear();
        es.pts.push_back(ctx.pos(vi));
        std::size_t tf_count = 0;
        for (const SubjectId tf : true_fanouts(ctx, vi)) {
            ++tf_count;
            if (is_covered_by(m, tf)) continue;
            es.pts.push_back(ctx.pos(tf));
        }
        for (const std::size_t pad : ctx.po_pads_of[vi]) {
            es.pts.push_back(ctx.pad_pos[pad]);
            ++tf_count;
        }
        es.pts.push_back(p);
        tf_count = std::max<std::size_t>(tf_count, 1);
        sum += net_wirelength(es.pts, ctx.opts.wire_model, es.wire) /
               static_cast<double>(tf_count);
    }
    return sum;
}

// ------------------------------------------------------------- delay mode

/// Load at a driver (Section 4.2/4.3): pin capacitances of the signal's
/// consumers plus wiring capacitance from the evolving placement. `m` and
/// `p` describe the candidate match as an additional (certain) consumer of
/// `vi`; pass nullptr when computing the candidate's own output load.
double load_at(const Ctx& ctx, SubjectId vi, const Match* m, const Point* p,
               std::size_t pin_of_vi_in_m, std::vector<Point>& pts) {
    double c = 0.0;
    pts.clear();
    pts.push_back(ctx.pos(vi));
    for (const SubjectId tf : true_fanouts(ctx, vi)) {
        if (m != nullptr && is_covered_by(*m, tf)) continue;  // folded into m
        if (ctx.state[tf] == LifeState::Hawk) {
            const Gate& gate = ctx.lib.gate(ctx.sol[tf].match.gate);
            // Find which pin vi drives; fall back to the typical load.
            double pin_load = gate.typical_input_load();
            for (std::size_t k = 0; k < ctx.sol[tf].match.inputs.size(); ++k) {
                if (ctx.sol[tf].match.inputs[k] == vi) {
                    pin_load = gate.pin(k).input_load;
                    break;
                }
            }
            c += pin_load;
            pts.push_back(ctx.sol[tf].position);
        } else {
            c += ctx.opts.default_pin_load;  // constant-load assumption
            pts.push_back(ctx.place_pos[tf]);
        }
    }
    if (m != nullptr && p != nullptr) {
        c += ctx.lib.gate(m->gate).pin(pin_of_vi_in_m).input_load;
        pts.push_back(*p);
    }
    for (const std::size_t pad : ctx.po_pads_of[vi]) {
        c += ctx.opts.po_pad_load;
        pts.push_back(ctx.pad_pos[pad]);
    }
    // C_w = c_h * X + c_v * Y over the net's estimated extents.
    const Rect bb = bounding_box(pts);
    const double f = chung_hwang_factor(pts.size());
    c += ctx.opts.cap_per_unit_h * bb.width() * f + ctx.opts.cap_per_unit_v * bb.height() * f;
    return c;
}

/// Output arrival of the (already decided) gate at `vi` under a given load:
/// max over block arrival times plus R_i * C_L (the split of Section 4.3).
RiseFallPair arrival_under_load(const Ctx& ctx, SubjectId vi, double c_load) {
    if (ctx.topo.kind[vi] == SubjectKind::Input) return {0.0, 0.0};
    const LilyNodeSolution& s = ctx.sol[vi];
    const Gate& gate = ctx.lib.gate(s.match.gate);
    RiseFallPair out{-1e300, -1e300};
    for (std::size_t i = 0; i < s.block.size(); ++i) {
        out.rise = std::max(out.rise, s.block[i].rise + gate.pin(i).rise_fanout * c_load);
        out.fall = std::max(out.fall, s.block[i].fall + gate.pin(i).fall_fanout * c_load);
    }
    return out;
}

// ------------------------------------------------- candidate evaluation

/// Score one candidate into the recycled slot `out` (see CandEval). Every
/// field the winner check or the committed solution can read is written here; the
/// stale `out.cand.match` from a previous node is cleared (capacity kept) so
/// copying the winning slot into sol[v] stays cheap.
void evaluate_candidate(const Ctx& ctx, SubjectId v, const Match& m, bool degraded,
                        bool delay_mode, EvalScratch& es, CandEval& out) {
    const Gate& gate = ctx.lib.gate(m.gate);
    const Point p = degraded ? ctx.place_pos[v] : candidate_position(ctx, v, m, es);

    LilyNodeSolution& cand = out.cand;
    cand.match.gate = kNullGate;
    cand.match.pattern_index = 0;
    cand.match.inputs.clear();
    cand.match.covered.clear();
    cand.has_match = false;
    cand.position = p;
    double key;
    if (!delay_mode || degraded) {
        cand.block.clear();
        cand.arrival_rise = 0.0;
        cand.arrival_fall = 0.0;
        cand.area_cost = gate.area;
        cand.local_wire = degraded ? 0.0 : local_wire_cost(ctx, m, p, es);
        cand.wire_cost = cand.local_wire;
        for (const SubjectId vi : m.inputs) {
            cand.area_cost += ctx.sol[vi].area_cost;
            cand.wire_cost += ctx.sol[vi].wire_cost;
        }
        cand.cost = cand.area_cost + ctx.opts.wire_weight * cand.wire_cost;
        key = cand.cost;
    } else {
        // Section 4.4, steps 1-4.
        cand.area_cost = 0.0;
        cand.wire_cost = 0.0;
        cand.block.resize(m.inputs.size());
        for (std::size_t k = 0; k < m.inputs.size(); ++k) {
            const SubjectId vi = m.inputs[k];
            // 1: accurate arrival at vi with m as a known fanout.
            const double c_vi = load_at(ctx, vi, &m, &p, k, es.pts);
            const RiseFallPair t_vi = arrival_under_load(ctx, vi, c_vi);
            // 2: block arrival at gate(m) for pin k.
            const PinTiming& pin = gate.pin(k);
            double rise_from, fall_from;
            switch (pin.phase) {
                case PinPhase::Inv:
                    rise_from = t_vi.fall;
                    fall_from = t_vi.rise;
                    break;
                case PinPhase::NonInv:
                    rise_from = t_vi.rise;
                    fall_from = t_vi.fall;
                    break;
                default:
                    rise_from = t_vi.worst();
                    fall_from = t_vi.worst();
            }
            cand.block[k] = {rise_from + pin.rise_block, fall_from + pin.fall_block};
        }
        // 3: output load from the inchoate fanouts of v. (The load model
        // uses the inchoate view, Section 4.3 — no match/point arguments.)
        const double c_out = load_at(ctx, v, nullptr, nullptr, 0, es.pts);
        // 4: output arrival.
        cand.arrival_rise = -1e300;
        cand.arrival_fall = -1e300;
        for (std::size_t k = 0; k < m.inputs.size(); ++k) {
            const PinTiming& pin = gate.pin(k);
            cand.arrival_rise =
                std::max(cand.arrival_rise, cand.block[k].rise + pin.rise_fanout * c_out);
            cand.arrival_fall =
                std::max(cand.arrival_fall, cand.block[k].fall + pin.fall_fanout * c_out);
        }
        cand.local_wire = local_wire_cost(ctx, m, p, es);
        key = cand.worst_arrival();
        cand.cost = key;
    }
    out.key = key;
    out.gate_area = gate.area;
}

/// DP at one gate node: enumerate matches, score each candidate, and keep
/// the winner in match order (lower key, then smaller gate area among equal
/// keys). Shared by the full mapping and the cone-scoped ECO remap.
/// Unsupported when nothing matches.
Status solve_node(Ctx& ctx, SubjectId v, bool degraded, bool delay_mode,
                  bool& matcher_fault_pending) {
    std::size_t n_matches = ctx.matcher.matches_at(ctx.g, v, ctx.match_scratch,
                                                   ctx.match_pool, /*base_only=*/degraded);
    if (matcher_fault_pending) {
        n_matches = 0;
        matcher_fault_pending = false;
    }
    std::size_t best_i = n_matches;
    double best_key = std::numeric_limits<double>::max();
    double best_area = 0.0;
    for (std::size_t i = 0; i < n_matches; ++i) {
        const Match& m = ctx.match_pool[i];
        if (ctx.opts.cover == CoverMode::Trees && !legal_in_tree_mode(ctx.g, m)) continue;
        evaluate_candidate(ctx, v, m, degraded, delay_mode, ctx.scratch, ctx.trial);
        const CandEval& e = ctx.trial;
        if (e.key < best_key ||
            (e.key == best_key && best_i < n_matches && e.gate_area < best_area)) {
            best_key = e.key;
            best_area = e.gate_area;
            best_i = i;
            std::swap(ctx.trial, ctx.best);
        }
    }
    if (best_i == n_matches) {
        return Status(StatusCode::Unsupported,
                      "LilyMapper: no match at node " + ctx.g.name_of(v));
    }
    LilyNodeSolution& s = ctx.sol[v];
    s = ctx.best.cand;  // match cleared in the slot: cheap copy
    s.match = ctx.match_pool[best_i];
    s.has_match = true;
    return Status::ok();
}

/// Commit a cone (needed-walk from its root): the chosen matches' roots
/// become hawks, absorbed nodes become doves. Drops both cache generations
/// afterwards (dove/hawk membership and hawk mapPositions both changed).
void commit_cone(Ctx& ctx, SubjectId root) {
    std::vector<SubjectId> stack;
    if (ctx.g.node(root).kind != SubjectKind::Input && !ctx.committed[root]) {
        stack.push_back(root);
        ctx.committed[root] = true;
    }
    while (!stack.empty()) {
        const SubjectId v = stack.back();
        stack.pop_back();
        ctx.state[v] = LifeState::Hawk;  // hawks win over earlier dove state
        const Match& m = ctx.sol[v].match;
        for (const SubjectId w : m.covered) {
            if (w != v && ctx.state[w] != LifeState::Hawk) ctx.state[w] = LifeState::Dove;
        }
        for (const SubjectId leaf : m.inputs) {
            if (ctx.g.node(leaf).kind == SubjectKind::Input || ctx.committed[leaf]) continue;
            ctx.committed[leaf] = true;
            stack.push_back(leaf);
        }
    }
    ++ctx.topo_epoch;
    ++ctx.rect_epoch;
}

/// Pads of the primary outputs each subject node drives, in the
/// SubjectPlacementView numbering (PIs, then POs).
void seed_po_pads(Ctx& ctx) {
    const SubjectGraph& g = ctx.g;
    for (std::size_t o = 0; o < g.outputs().size(); ++o) {
        ctx.po_pads_of[g.outputs()[o].driver].push_back(g.inputs().size() + o);
    }
}

/// Stage 3 of both mapping entry points: extract the cover and the
/// constructive placement from the finished DP state into `result`.
void extract_result(Ctx& ctx, bool delay_mode, LilyResult& result) {
    const SubjectGraph& g = ctx.g;
    result.netlist = extract_cover(g, ctx.lib, ctx.sol);
    result.instance_positions.reserve(result.netlist.gates.size());
    for (const GateInstance& inst : result.netlist.gates) {
        result.instance_positions.push_back(ctx.sol[inst.driver].position);
        result.estimated_wirelength += ctx.sol[inst.driver].local_wire;
    }
    result.total_area = result.netlist.total_gate_area(ctx.lib);
    if (delay_mode) {
        for (const SubjectOutput& po : g.outputs()) {
            if (g.node(po.driver).kind == SubjectKind::Input) continue;
            result.worst_arrival = std::max(result.worst_arrival,
                                            ctx.sol[po.driver].worst_arrival());
        }
    }
    result.pad_positions = std::move(ctx.pad_pos);
    result.subject_positions = std::move(ctx.place_pos);
    result.final_state = std::move(ctx.state);
    result.solution = std::move(ctx.sol);
}

}  // namespace

StatusOr<LilyResult> LilyMapper::map_checked(
    const SubjectGraph& g, const LilyOptions& opts,
    std::optional<std::vector<Point>> pad_positions) const {
    LilyResult result;

    // ---- Stage 0: pads + balanced global placement of the inchoate network,
    // both against one assembled Laplacian. Each step is a trace phase.
    std::optional<TracePhase> phase(std::in_place, "placement-view");
    SubjectPlacementView view = make_placement_view(g);
    const Rect region = make_region(view.netlist.total_cell_area());
    GlobalPlacementOptions place_opts = opts.placement;
    if (place_opts.budget == nullptr) place_opts.budget = opts.budget;
    phase.emplace("assemble");
    QuadraticPlacer placer(view.netlist);
    phase.emplace("pads");
    std::vector<Point> pads = pad_positions.has_value()
                                  ? std::move(*pad_positions)
                                  : placer.place_pads(region, place_opts.budget);
    if (pads.size() != view.netlist.pad_positions.size()) {
        return Status(StatusCode::InvariantViolation, "LilyMapper: wrong pad position count");
    }
    view.netlist.pad_positions = pads;
    phase.emplace("inchoate-place");
    GlobalPlacement inchoate = placer.place_global(pads, region, place_opts);
    if (inchoate.budget_exhausted) result.budget_exhausted = true;
    bool diverged = fault_enabled("placement", "diverge");
    for (const Point& p : inchoate.positions) {
        if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
            diverged = true;
            break;
        }
    }
    if (diverged) {
        return Status(StatusCode::ConvergenceFailure,
                      "LilyMapper: inchoate placement diverged (non-finite coordinates)");
    }

    // The DP state starts from the inchoate placePositions.
    Ctx ctx{g,
            g.topology(),  // freeze the flat adjacency before the DP starts
            *lib_,
            opts,
            matcher_,
            std::move(pads),
            std::vector<Point>(g.size()),
            std::vector<LifeState>(g.size(), LifeState::Egg),
            std::vector<LilyNodeSolution>(g.size()),
            std::vector<std::vector<std::size_t>>(g.size()),
            std::vector<bool>(g.size(), false),
            {},
            0};

    for (SubjectId v = 0; v < g.size(); ++v) {
        if (view.cell_of[v] != kNoCell) ctx.place_pos[v] = inchoate.positions[view.cell_of[v]];
    }
    for (std::size_t i = 0; i < g.inputs().size(); ++i) {
        ctx.place_pos[g.inputs()[i]] = ctx.pad_pos[view.pad_of_input(i)];
    }
    seed_po_pads(ctx);

    // ---- Stage 1: cone ordering (Section 3.5). Bucket k holds the nodes
    // cone order[k] is the first (in processing order) to contain, so the
    // bucket walk below solves each node in the first cone that reaches it.
    phase.emplace("cone-order");
    ConePartition cones = partition_cones(g);
    if (opts.order_cones) {
        result.cone_order = order_cones(g, cones);
        cones.assign_buckets(g, result.cone_order);
    } else {
        result.cone_order.resize(cones.size());
        for (std::size_t i = 0; i < cones.size(); ++i) result.cone_order[i] = i;
    }

    // ---- Stage 2: per-cone dynamic programming with layout costs.
    phase.emplace("dp");
    const bool delay_mode = opts.objective == MapObjective::Delay;
    std::size_t cones_since_replace = 0;
    // Sticky once the stage budget fires: the rest of the nodes take the
    // cheap path (base gates only, no wire-cost search) so the mapper still
    // produces a legal cover instead of aborting.
    bool degraded = false;
    // Injected matcher failure: the first gate node sees an empty match list.
    bool matcher_fault_pending = fault_enabled("matcher", "no-match");

    for (std::size_t k = 0; k < cones.size(); ++k) {
        for (const SubjectId v : cones.buckets.neighbors(k)) {
            if (g.node(v).kind == SubjectKind::Input) continue;
            ctx.state[v] = LifeState::Nestling;

            if (!degraded && opts.budget != nullptr && !opts.budget->tick()) {
                degraded = true;
                result.budget_exhausted = true;
            }
            if (degraded) ++result.degraded_nodes;

            const Status solved = solve_node(ctx, v, degraded, delay_mode,
                                             matcher_fault_pending);
            if (!solved.is_ok()) return solved;
        }

        commit_cone(ctx, cones.roots[result.cone_order[k]]);

        // ---- Optional periodic re-placement of the partially mapped
        // network (Section 3.2): hawks are pulled toward their mapPositions,
        // then eggs and hawks pick up fresh placePositions.
        if (opts.replace_every_n_cones > 0 &&
            ++cones_since_replace >= opts.replace_every_n_cones) {
            cones_since_replace = 0;
            const TracePhase replace("replace");
            PlacementNetlist anchored = view.netlist;
            for (SubjectId v = 0; v < g.size(); ++v) {
                if (ctx.state[v] != LifeState::Hawk || view.cell_of[v] == kNoCell) continue;
                // Strong pull: three parallel 2-pin nets to a virtual pad.
                const std::size_t pad = anchored.pad_positions.size();
                anchored.pad_positions.push_back(ctx.sol[v].position);
                for (int dup = 0; dup < 3; ++dup) {
                    PlacementNetlist::Net net;
                    net.cells = {view.cell_of[v]};
                    net.pads = {pad};
                    anchored.nets.push_back(net);
                }
            }
            const GlobalPlacement fresh = place_global(anchored, region, opts.placement);
            for (SubjectId v = 0; v < g.size(); ++v) {
                if (view.cell_of[v] == kNoCell) continue;
                if (ctx.state[v] == LifeState::Egg || ctx.state[v] == LifeState::Hawk) {
                    ctx.place_pos[v] = fresh.positions[view.cell_of[v]];
                }
            }
            // placePositions moved: the cached rectangles are stale (the
            // fanout lists themselves are not — membership is unchanged).
            ++ctx.rect_epoch;
            ++result.replacements;
        }
    }

    // ---- Stage 3: extract the cover and the constructive placement.
    phase.emplace("extract");
    extract_result(ctx, delay_mode, result);
    result.inchoate_placement = std::move(inchoate);
    return result;
}

StatusOr<LilyResult> LilyMapper::remap_checked(const SubjectGraph& g, LilyResult prior,
                                               std::size_t prior_subject_size,
                                               const LilyOptions& opts) const {
    std::optional<TracePhase> phase(std::in_place, "setup");
    const std::size_t old_n = prior_subject_size;
    if (old_n > g.size() || prior.solution.size() != old_n ||
        prior.final_state.size() != old_n || prior.subject_positions.size() != old_n) {
        return Status(StatusCode::InvariantViolation,
                      "LilyMapper: remap seed does not match the subject graph");
    }
    // No global placer runs: the prior pad placement is reused verbatim
    // (ECO deltas never change the PI/PO interface) and every old node keeps
    // its prior placePosition, so unchanged cones see bit-identical wire
    // costs.
    if (prior.pad_positions.size() != g.inputs().size() + g.outputs().size()) {
        return Status(StatusCode::InvariantViolation,
                      "LilyMapper: pad interface changed across remap");
    }

    LilyResult result;

    // ---- Stage 0: resume from the prior DP state, extended to the new
    // nodes. Old hawks are final: the commit walk must not re-enter them.
    Ctx ctx{g,
            g.topology(),  // freeze the flat adjacency before the DP starts
            *lib_,
            opts,
            matcher_,
            std::move(prior.pad_positions),
            std::move(prior.subject_positions),
            std::move(prior.final_state),
            std::move(prior.solution),
            std::vector<std::vector<std::size_t>>(g.size()),
            std::vector<bool>(g.size(), false),
            {},
            0};
    ctx.place_pos.resize(g.size());
    ctx.state.resize(g.size(), LifeState::Egg);
    ctx.sol.resize(g.size());
    for (SubjectId v = 0; v < old_n; ++v) ctx.committed[v] = ctx.state[v] == LifeState::Hawk;
    std::vector<Point> pts;
    for (SubjectId v = static_cast<SubjectId>(old_n); v < g.size(); ++v) {
        // New nodes are gates (the interface is fixed), appended after their
        // fanins: seed each at the centroid of its fanins' positions, the
        // best placement guess available without a global re-solve.
        const SubjectNode& n = g.node(v);
        pts.clear();
        for (unsigned i = 0; i < n.fanin_count(); ++i) pts.push_back(ctx.place_pos[n.fanin(i)]);
        if (!pts.empty()) ctx.place_pos[v] = center_of_mass(pts);
    }
    seed_po_pads(ctx);

    // ---- Stage 1+2: cone-scoped DP, dirty cones only, in output order. A
    // cone is dirty when its bucket holds a gate node without a DP solution
    // — exactly the new nodes plus old nodes that never sat inside a mapped
    // cone (a retargeted PO can expose those); any such node in an earlier
    // cone was solved there. Clean cones keep their prior cover untouched;
    // the commit walk from each dirty root re-derives hawk/dove states, and
    // the final needed-walk in extract_cover drops orphaned old logic.
    phase.emplace("cone-order");
    const ConePartition cones = partition_cones(g);
    phase.emplace("dp");
    const bool delay_mode = opts.objective == MapObjective::Delay;
    bool degraded = false;
    bool matcher_fault_pending = fault_enabled("matcher", "no-match");

    const auto unsolved = [&](SubjectId v) {
        return g.node(v).kind != SubjectKind::Input && !ctx.sol[v].has_match;
    };
    for (std::size_t ci = 0; ci < cones.size(); ++ci) {
        const std::span<const SubjectId> bucket = cones.buckets.neighbors(ci);
        if (std::none_of(bucket.begin(), bucket.end(), unsolved)) continue;
        result.cone_order.push_back(ci);
        for (const SubjectId v : bucket) {
            if (!unsolved(v)) continue;  // input, or prior DP solution carries over
            ctx.state[v] = LifeState::Nestling;

            if (!degraded && opts.budget != nullptr && !opts.budget->tick()) {
                degraded = true;
                result.budget_exhausted = true;
            }
            if (degraded) ++result.degraded_nodes;

            const Status solved = solve_node(ctx, v, degraded, delay_mode,
                                             matcher_fault_pending);
            if (!solved.is_ok()) return solved;
            ++result.remapped_nodes;
        }
        commit_cone(ctx, cones.roots[ci]);
    }

    // ---- Stage 3: extraction, identical to the full mapping. Reuse ratio:
    // solved gate nodes that did not go through the DP this round.
    std::size_t with_solution = 0;
    for (SubjectId v = 0; v < g.size(); ++v) {
        if (g.node(v).kind != SubjectKind::Input && ctx.sol[v].has_match) ++with_solution;
    }
    result.reused_nodes = with_solution - result.remapped_nodes;
    phase.emplace("extract");
    extract_result(ctx, delay_mode, result);
    result.inchoate_placement = std::move(prior.inchoate_placement);  // region + old coordinates
    return result;
}

}  // namespace lily
