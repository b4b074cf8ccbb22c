// Placement substrate (the paper's GORDIAN substitute, refs [14][21]):
// quadratic global placement with fixed I/O pads, recursive center-of-mass
// partitioning for balance, connectivity-driven pad placement (ref [20]
// substitute) and row-based legalization (detailed placement).
//
// The placer is netlist-agnostic: it sees movable cells, fixed pads, and
// nets over both. Adapters for subject graphs and mapped netlists live in
// netlist_adapters.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/budget.hpp"
#include "util/geometry.hpp"
#include "util/sparse.hpp"

namespace lily {

/// The placement view of a circuit.
struct PlacementNetlist {
    std::size_t n_cells = 0;            // movable objects, indexed 0..n_cells-1
    std::vector<double> cell_area;      // size n_cells
    std::vector<Point> pad_positions;   // fixed objects (I/O pads)

    struct Net {
        std::vector<std::size_t> cells;
        std::vector<std::size_t> pads;
        std::size_t pin_count() const { return cells.size() + pads.size(); }
    };
    std::vector<Net> nets;

    double total_cell_area() const;
    void check() const;  // throws std::logic_error on bad indices
};

/// Every placer entry point validates its options: max_cells_per_region
/// and cg_max_iters >= 1, anchor_weight and cg_tolerance finite and > 0
/// (std::invalid_argument otherwise).
struct GlobalPlacementOptions {
    /// Stop partitioning when a region holds at most this many cells. The
    /// paper stops early on purpose: a *global* placement (several modules
    /// per region) preserves the connectivity structure better than forcing
    /// rows too soon (Section 3.1).
    std::size_t max_cells_per_region = 4;
    /// Anchor spring to the region center; doubled every partition level.
    double anchor_weight = 0.02;
    double cg_tolerance = 1e-9;
    std::size_t cg_max_iters = 2000;
    /// Optional stage budget (non-owning; must outlive the call). On
    /// exhaustion the partitioner stops refining and the CG solver returns
    /// its partial iterate — the result is coarser but still a legal
    /// placement. Null = unlimited (bit-identical to the unbudgeted path).
    StageBudget* budget = nullptr;
};

struct GlobalPlacement {
    std::vector<Point> positions;  // one per cell
    Rect region;
    std::size_t partition_levels = 0;
    /// True when the stage budget fired mid-placement and refinement was
    /// cut short (positions are a best-effort partial result).
    bool budget_exhausted = false;
};

/// Quadratic ("Euclidean distance squared", Section 3.1) global placement:
/// clique net model, conjugate-gradient solves per axis, recursive
/// bipartitioning with center-of-mass anchoring for balance. Every cell
/// ends inside `region`; pads should sit on or near its boundary.
GlobalPlacement place_global(const PlacementNetlist& nl, const Rect& region,
                             const GlobalPlacementOptions& opts = {});

/// One unconstrained quadratic solve (level 0 of place_global) — the "point
/// placement" used for pad assignment and for tests.
GlobalPlacement place_quadratic(const PlacementNetlist& nl, const Rect& region,
                                const GlobalPlacementOptions& opts = {});

/// Connectivity-driven pad placement (bottom-up, ref [20] substitute):
/// choose positions on the boundary of `region` for all pads, ordering them
/// by the angular position of their connected cells' center of mass.
/// `nl.pad_positions` is ignored on input; returns one boundary point per pad.
std::vector<Point> place_pads(const PlacementNetlist& nl, const Rect& region);

/// The quadratic placer of one netlist. Its clique Laplacian depends only
/// on the connectivity — pad positions enter only the right-hand side — so
/// it is assembled once, at construction, and serves the pad-placement seed
/// solve, the level-0 solve and every partitioning round; each call only
/// recomputes the pad right-hand side. The free functions above build a
/// throwaway placer; a flow that places pads and then cells on one netlist
/// keeps one. The netlist must outlive the placer, and its connectivity
/// must not change while the placer lives.
class QuadraticPlacer {
public:
    explicit QuadraticPlacer(const PlacementNetlist& nl);

    /// place_pads(nl, region); the optional budget bounds the seed solve
    /// (its tolerance and iteration cap stay the defaults), which then
    /// leaves a partial seed and the budget exhausted for the caller's
    /// later solves to see.
    std::vector<Point> place_pads(const Rect& region, StageBudget* budget = nullptr);
    /// place_quadratic / place_global with `pads` (one per netlist pad)
    /// standing in for nl.pad_positions.
    GlobalPlacement place_quadratic(std::span<const Point> pads, const Rect& region,
                                    const GlobalPlacementOptions& opts = {});
    GlobalPlacement place_global(std::span<const Point> pads, const Rect& region,
                                 const GlobalPlacementOptions& opts = {});

    /// The assembled Laplacian (anchor slots hold the last solve's weights).
    const SparseMatrix& laplacian() const { return a_; }

private:
    /// Pad springs in (net, cell, pad) assembly order: the right-hand side
    /// adds w * pad position to the cell's row in exactly this order.
    struct PadTerm {
        std::uint32_t cell;
        std::uint32_t pad;
        double w;
    };

    void set_pads(std::span<const Point> pads);
    bool solve(std::span<const Point> anchor_pos, std::span<const double> anchor_w,
               const GlobalPlacementOptions& opts, std::vector<Point>& positions);

    const PlacementNetlist& nl_;
    SparseMatrix a_;  // springs + pad anchors, one anchor slot per row
    std::vector<PadTerm> pad_terms_;
    std::vector<double> base_b_;  // pad rhs before region anchors, (x, y) per cell
    CgWorkspace cg_;              // both axes' b and x as lanes, reused by every solve
};

/// This thread's running totals of full-netlist placement work: Laplacian
/// assemblies (one per QuadraticPlacer) and the CG iterations of the solves
/// against them, both axes summed, plus the largest final CG residual norm
/// (either axis) since the last qp_span_start(). Flow trace spans report
/// the totals' delta over the work they cover and that maximum; placement
/// is single-threaded, so a flow's work all lands on its own thread.
struct QpCounters {
    std::size_t assemblies = 0;
    std::size_t cg_iterations = 0;
    double cg_residual = 0.0;
};
QpCounters qp_counters();
/// qp_counters() for the start of a span: also restarts the residual maximum.
QpCounters qp_span_start();

/// Uniformly spaced boundary slots (pads in given order); the trivial pad
/// placement used as an ablation baseline.
std::vector<Point> uniform_pad_ring(std::size_t n_pads, const Rect& region);

struct DetailedPlacement {
    std::vector<Point> positions;   // cell centers after legalization
    std::vector<int> row_of;        // row index per cell
    double row_height = 1.0;
    std::size_t n_rows = 0;
    Rect region;
};

/// Row-based legalization: snap the balanced global placement into standard
/// cell rows (sorted into rows by y, packed within each row by x order,
/// respecting per-row capacity).
DetailedPlacement legalize_rows(const PlacementNetlist& nl, const GlobalPlacement& global,
                                double row_height = 1.0, double utilization = 0.85);

/// Wirelength-driven intra-row refinement: adjacent same-row cells are
/// swapped (and the row re-packed locally) whenever the half-perimeter
/// wirelength of their incident nets decreases. Classic detailed-placement
/// polish; returns the number of swaps applied.
std::size_t improve_rows(const PlacementNetlist& nl, DetailedPlacement& dp,
                         std::size_t max_passes = 4);

/// Result of an ECO-local placement re-solve.
struct IncrementalPlacement {
    std::size_t solved_cells = 0;   // distinct dirty cells moved through the QP
    std::size_t cg_iterations = 0;  // both axes combined
    bool converged = false;
    bool budget_exhausted = false;
};

/// ECO-local quadratic re-solve: only the cells in `dirty` move; every other
/// cell (and every pad) is frozen at its entry in `positions` and folded
/// into the dirty subsystem as a fixed anchor with the same clique weight
/// (2/k) the full placer uses, so the local optimum agrees with the global
/// model on the boundary. Nets touching no dirty cell drop out entirely. On
/// entry `positions` holds prior coordinates for clean cells and a seed
/// guess for dirty ones; on exit the dirty entries are replaced with the
/// re-solved, region-clamped coordinates — clean entries are never written.
IncrementalPlacement place_incremental(const PlacementNetlist& nl, const Rect& region,
                                       std::vector<Point>& positions,
                                       std::span<const std::size_t> dirty,
                                       const GlobalPlacementOptions& opts = {});

/// Bookkeeping from an ECO-local legalization pass.
struct IncrementalLegalization {
    std::size_t repacked_rows = 0;
    std::size_t moved_cells = 0;  // cells whose position actually changed
};

/// ECO-local legalization: keep every clean cell in its prior row at its
/// prior position and fold only the `dirty` cells into the row structure.
/// On entry `dp` carries the prior row geometry (region, row_height,
/// n_rows), prior legalized positions and rows for clean cells, and the
/// continuous re-solved positions for dirty cells (their row_of entries are
/// ignored). Each dirty cell is assigned to the row nearest its solved y
/// that still has horizontal space; then ONLY the rows that received a cell
/// are re-packed (x-order preserved, centered like legalize_rows) and
/// snapped to their centerline. Rows untouched by the edit keep their
/// positions bit-identical — the property the incremental timing splice
/// depends on. Rows that merely lost cells keep a gap instead of
/// re-packing, for the same reason.
IncrementalLegalization legalize_rows_incremental(const PlacementNetlist& nl,
                                                  std::span<const std::size_t> dirty,
                                                  DetailedPlacement& dp);

/// Total half-perimeter wirelength of all nets under the given positions.
double total_hpwl(const PlacementNetlist& nl, std::span<const Point> cell_positions);

/// Sum of squared Euclidean lengths over the clique net model — the
/// objective place_global minimizes (for monotonicity tests).
double quadratic_objective(const PlacementNetlist& nl, std::span<const Point> cell_positions);

}  // namespace lily
