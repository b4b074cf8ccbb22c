// Placement gallery: renders ASCII views of the three placement stages the
// paper's pipeline produces for a benchmark — the balanced global placement
// of the inchoate network, Lily's constructive (mapPosition) placement of
// the mapped gates, and the final row-legalized detailed placement.
//
//   ./placement_gallery [benchmark-name]   (default: b9)
#include <cstdio>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "route/global_router.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "lily/lily_mapper.hpp"
#include "subject/decompose.hpp"

using namespace lily;

namespace {

void render(const char* title, std::span<const Point> pts, const Rect& region) {
    constexpr int W = 64;
    constexpr int H = 24;
    std::vector<std::string> grid(H, std::string(W, '.'));
    int clipped = 0;
    for (const Point& p : pts) {
        const double fx = (p.x - region.ll.x) / std::max(region.width(), 1e-9);
        const double fy = (p.y - region.ll.y) / std::max(region.height(), 1e-9);
        if (fx < 0.0 || fx > 1.0 || fy < 0.0 || fy > 1.0) {
            ++clipped;
            continue;
        }
        const int cx = std::min(W - 1, static_cast<int>(fx * W));
        const int cy = std::min(H - 1, static_cast<int>(fy * H));
        char& cell = grid[static_cast<std::size_t>(H - 1 - cy)][static_cast<std::size_t>(cx)];
        if (cell == '.') {
            cell = '1';
        } else if (cell >= '1' && cell < '9') {
            ++cell;
        } else {
            cell = '#';
        }
    }
    std::printf("\n%s (%zu cells%s)\n", title, pts.size(),
                clipped > 0 ? (", " + std::to_string(clipped) + " outside view").c_str() : "");
    std::printf("+%s+\n", std::string(W, '-').c_str());
    for (const std::string& row : grid) std::printf("|%s|\n", row.c_str());
    std::printf("+%s+\n", std::string(W, '-').c_str());
}

}  // namespace

int main(int argc, char** argv) {
    const std::string which = argc > 1 ? argv[1] : "b9";
    const auto suite = paper_suite(1.0);
    const auto it = std::find_if(suite.begin(), suite.end(),
                                 [&](const Benchmark& b) { return b.name == which; });
    if (it == suite.end()) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", which.c_str());
        return 1;
    }
    const Library lib = load_msu_big();
    const DecomposeResult sub = decompose(it->network);
    const LilyResult lily = LilyMapper(lib).map_checked(sub.graph).take_or_raise();

    render("1. balanced global placement of the inchoate network",
           lily.inchoate_placement.positions, lily.inchoate_placement.region);
    render("2. Lily constructive placement (mapPositions of chosen gates)",
           lily.instance_positions, lily.inchoate_placement.region);

    const FlowResult flow = run_lily_flow_checked(it->network, lib).take_or_raise();
    render("3. detailed (row-legalized) placement of the mapped circuit",
           flow.final_positions, flow.region);

    // 4. Routing congestion heat map (horizontal + vertical edge usage).
    MappedPlacementView view = make_placement_view(flow.netlist, lib);
    view.netlist.pad_positions = flow.pad_positions;
    const RouteResult routed =
        route_global(view.netlist, flow.final_positions, flow.region, {});
    {
        const std::size_t n = routed.grid;
        double peak = 1e-9;
        for (const double u : routed.h_usage) peak = std::max(peak, u);
        for (const double u : routed.v_usage) peak = std::max(peak, u);
        std::printf("\n4. routing congestion (peak edge usage %.0f, '.' idle to '9' peak)\n",
                    peak);
        std::printf("+%s+\n", std::string(n, '-').c_str());
        for (std::size_t y = n; y-- > 0;) {
            std::string row;
            for (std::size_t x = 0; x < n; ++x) {
                double u = 0.0;
                if (x + 1 < n) u = std::max(u, routed.h_usage[x + y * (n - 1)]);
                if (y + 1 < n) u = std::max(u, routed.v_usage[x + y * n]);
                const int level = static_cast<int>(u / peak * 9.0 + 0.5);
                row.push_back(level == 0 ? '.' : static_cast<char>('0' + level));
            }
            std::printf("|%s|\n", row.c_str());
        }
        std::printf("+%s+\n", std::string(n, '-').c_str());
    }

    std::printf("\n%zu subject gates -> %zu mapped gates; routed wire %.1f units, "
                "%zu detoured connections\n",
                sub.graph.gate_count(), flow.metrics.gate_count, flow.metrics.wirelength,
                routed.mazed_connections);
    return 0;
}
