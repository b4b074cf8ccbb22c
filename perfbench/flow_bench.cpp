// Flow benchmark program: one seeded workload per invocation.
//
//   perfbench_flow --workload NAME --seed N --seconds S --trace 0|1
//                  --src REPO_ROOT --out WORK_DIR
//
// Set-up (library load, input generation, file writing, ECO pipeline build)
// runs several times and is reported as its median; one untimed warm-up item
// follows. Then passes over the workload's items repeat until S seconds have
// been measured. Each item runs through the library's public entry point
// with only that call timed; its outputs are checked afterwards, outside the
// timed region: the entry point must return OK with no Degraded/Recovered
// stage, the mapped netlist must match its source under random simulation,
// suite_prove must reach a Proven verdict, and the QoR of every pass must
// equal the first pass's bit for bit. Failures are counted, never retried.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates an untraced
// pass with a traced one, in which the benchmark calls each layer's public
// functions itself, one span per call, and derives the per-layer metrics
// from those spans; the traced chain must reproduce the untraced pass's
// FlowMetrics exactly. Spans are written as JSON lines under WORK_DIR.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics ({name: {value, unit}}).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "flow/pipeline.hpp"
#include "flow/stage.hpp"
#include "inputs.hpp"
#include "library/standard_cells.hpp"
#include "netlist/blif.hpp"
#include "netlist/delta.hpp"
#include "netlist/simulate.hpp"
#include "place/netlist_adapters.hpp"
#include "util/alloc_stats.hpp"
#include "util/parallel.hpp"

using namespace lily;
using perfbench::FailLedger;
using perfbench::mix_seed;
using perfbench::SpanLog;

namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process user+sys CPU time in ms (all threads).
double cpu_ms_now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto ms = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
    };
    return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Random-simulation blocks for the benchmark's own correctness check, and
/// a seed distinct from the flow's verify stage so the two draw different
/// vectors.
constexpr std::size_t kCheckBlocks = 16;
constexpr std::uint64_t kCheckSeed = 0xC0FFEE;

/// Set-up repeats until it has run kSetupMinReps times and for at least
/// kSetupMinSeconds (at most kSetupMaxReps times); setup_s is the median.
/// Small set-ups take milliseconds, so a fixed handful of repeats would
/// leave their median at the mercy of one slow file write.
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 200;
constexpr double kSetupMinSeconds = 1.0;

/// Reference time: each timed item of a single-threaded workload, and each
/// set-up, is converted to the time it would take on a machine that runs
/// the calibration work in kReferenceCalibrationMs: measured x
/// kReferenceCalibrationMs / (the calibration's time right after it). On a
/// shared machine whose speed drifts by tens of percent from one minute to
/// the next, that ratio holds still while the raw times do not. After every
/// item the calibration runs until it has taken kCalibrationShare of the
/// item's time, at least once, and the median of those runs is used.
/// Multi-threaded passes are reported as measured: no calibration tried, on
/// one thread or on as many as the pass uses, tracked them (see README.md).
constexpr double kReferenceCalibrationMs = 10.0;
constexpr double kCalibrationShare = 0.25;

/// Calibration samples of one run.
class Calibrator {
public:
    /// Calibrate after `work_ms` of measured work; returns the factor from
    /// measured to reference time for that work.
    double after(double work_ms) {
        std::vector<double> now;
        double spent = 0.0;
        do {
            now.push_back(cal_.run_ms());
            spent += now.back();
        } while (spent < kCalibrationShare * work_ms);
        samples_ms_.insert(samples_ms_.end(), now.begin(), now.end());
        return kReferenceCalibrationMs / perfbench::median(now);
    }
    double median_ms() const { return perfbench::median(samples_ms_); }
    std::size_t samples() const { return samples_ms_.size(); }

private:
    perfbench::Calibration cal_;
    std::vector<double> samples_ms_;
};

/// Flow options with every environment-derived knob pinned, so a stray
/// LILY_* variable cannot change what is measured.
FlowOptions pinned_options(MapObjective objective, VerifyLevel verify, std::size_t threads) {
    FlowOptions o;
    o.objective = objective;
    o.verify = verify;
    o.threads = threads;
    o.check = CheckLevel::Off;
    o.budget = FlowBudget{};
    o.budget.total_ms = 0.0;
    o.trace = nullptr;
    return o;
}

/// What one item produced: the timed region's wall/CPU time, the FlowMetrics
/// of every flow it ran (the Lily result last) and the check verdict.
struct ItemRun {
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    double scale = 1.0;  // measured -> reference time (1: not calibrated)
    std::vector<FlowMetrics> flows;
    bool ok = true;
    std::string why;

    void fail(const std::string& reason) {
        if (ok) why = reason;
        ok = false;
    }
};

/// Time `body` (wall and process CPU) into `run`.
template <typename F>
void timed(ItemRun& run, F&& body) {
    const double c0 = cpu_ms_now();
    const Clock::time_point t0 = Clock::now();
    body();
    run.wall_ms += seconds_since(t0) * 1e3;
    run.cpu_ms += cpu_ms_now() - c0;
}

bool same_metrics(const FlowMetrics& a, const FlowMetrics& b) {
    return a.gate_count == b.gate_count && a.cell_area == b.cell_area &&
           a.chip_area == b.chip_area && a.wirelength == b.wirelength &&
           a.critical_delay == b.critical_delay && a.max_congestion == b.max_congestion;
}

/// Output checks shared by every flow result: OK status, no stage below
/// plain Ok, and random-simulation equivalence with the source network.
void check_flow(ItemRun& run, const StatusOr<FlowResult>& res, const Network& source,
                const Library& lib, const char* what) {
    if (!res.is_ok()) {
        run.fail(std::string(what) + ": " + res.status().to_string());
        return;
    }
    const FlowResult& r = res.value();
    if (r.diagnostics.degraded()) {
        run.fail(std::string(what) + ": degraded run: " + r.diagnostics.to_string());
    }
    if (!equivalent_random(source, r.netlist.to_network(lib), kCheckBlocks, kCheckSeed)) {
        run.fail(std::string(what) + ": mapped netlist miscompares with its source");
    }
    run.flows.push_back(r.metrics);
}

// ---- Traced run -----------------------------------------------------------

/// Spans plus per-pass layer sums for the traced run.
struct Tracer {
    SpanLog log;
    std::int64_t item = -1;
    double last_ms = 0.0;
    std::map<std::string, double> sum;  // layer quantities, summed over a pass

    /// Run `f` under a span named `name`; its duration lands in last_ms.
    template <typename F>
    auto call(const char* name, F&& f) {
        const std::size_t id = log.begin(name, item);
        auto result = std::forward<F>(f)();
        last_ms = log.end(id);
        return result;
    }
    void add(const std::string& key, double v) { sum[key] += v; }
};

/// The back end's stage split: placement, routing and timing wall time
/// from the FlowDiagnostics run_backend_checked returns. Routing and STA
/// run on the calling thread only, so the placer's CPU time is the call's
/// CPU time minus their wall time.
void account_backend(Tracer& t, const FlowResult& r, double call_cpu_ms) {
    const auto stage_ms = [&](const char* name) {
        const StageDiagnostics* s = r.diagnostics.find(name);
        return s == nullptr ? 0.0 : s->elapsed_ms;
    };
    const double place = stage_ms("placement");
    const double route = stage_ms("routing");
    const double timing = stage_ms("timing");
    t.add("place.place_ms", place);
    t.add("place.place_cpu_ms", std::max(0.0, call_cpu_ms - route - timing));
    t.add("route.route_ms", route);
    t.add("sta.timing_ms", timing);
    t.add("route.congestion_sum", r.metrics.max_congestion);
    t.add("route.flows", 1.0);
}

/// Pipeline 1 (baseline) as a chain of layer calls: decompose ->
/// BaseMapper::map -> run_backend_checked.
StatusOr<FlowResult> baseline_chain(const Network& net, const Library& lib,
                                    const FlowOptions& opts, Tracer& t) {
    ThreadPool::global().resize(opts.threads);
    const DecomposeResult sub =
        t.call("subject.decompose", [&] { return decompose(net, opts.decompose); });
    t.add("subject.decompose_ms", t.last_ms);
    t.add("subject.nodes", static_cast<double>(sub.graph.size()));
    BaseMapperOptions base = opts.base;
    base.objective = opts.objective;
    base.mode = effective_cover(opts);
    const MapResult mapped =
        t.call("map.base_map", [&] { return BaseMapper(lib).map(sub.graph, base); });
    t.add("map.base_map_ms", t.last_ms);
    const double c0 = cpu_ms_now();
    StatusOr<FlowResult> out =
        t.call("flow.backend", [&] { return run_backend_checked(mapped.netlist, lib, opts); });
    if (out.is_ok()) account_backend(t, out.value(), cpu_ms_now() - c0);
    return out;
}

/// Pipeline 2 (Lily) as a chain of layer calls: decompose -> (standalone
/// matcher scan and inchoate placement) -> LilyMapper::map_checked at the
/// flow's thread count and again at 1 thread -> run_backend_checked with the
/// mapper's pads and instance positions -> the flow's verify call.
StatusOr<FlowResult> lily_chain(const Network& net, const Library& lib, const FlowOptions& opts,
                                Tracer& t) {
    ThreadPool::global().resize(opts.threads);
    const DecomposeResult sub =
        t.call("subject.decompose", [&] { return decompose(net, opts.decompose); });
    const SubjectGraph& g = sub.graph;
    t.add("subject.decompose_ms", t.last_ms);
    t.add("subject.nodes", static_cast<double>(g.size()));

    // Standalone calls: the matcher over every gate node, and the inchoate
    // placement the mapper runs first. Their inputs are built under a span
    // of their own so no layer is charged for them.
    std::optional<Matcher> matcher;
    SubjectPlacementView view;
    Rect region;
    t.call("standalone.prepare", [&] {
        matcher.emplace(lib);
        view = make_placement_view(g);
        region = make_region(view.netlist.total_cell_area());
        view.netlist.pad_positions = place_pads(view.netlist, region);
        return 0;
    });
    MatchScratch scratch;
    std::vector<Match> found;
    std::size_t matches = 0;
    std::size_t gate_nodes = 0;
    t.call("match.scan", [&] {
        for (SubjectId v = 0; v < g.size(); ++v) {
            if (g.node(v).kind == SubjectKind::Input) continue;
            matches += matcher->matches_at(g, v, scratch, found);
            ++gate_nodes;
        }
        return 0;
    });
    t.add("match.scan_ms", t.last_ms);
    t.add("match.matches", static_cast<double>(matches));
    t.add("match.gate_nodes", static_cast<double>(gate_nodes));
    t.call("lily.inchoate_place",
           [&] { return place_global(view.netlist, region, opts.lily.placement); });
    t.add("lily.inchoate_place_ms", t.last_ms);

    // The mapping stage, as the flow runs it: a fresh mapper per call.
    LilyOptions lo = opts.lily;
    lo.objective = opts.objective;
    lo.cover = effective_cover(opts);
    const auto map = [&] { return LilyMapper(lib).map_checked(g, lo); };
    const double c0 = cpu_ms_now();
    const std::uint64_t a0 = alloc_stats_snapshot().count;
    StatusOr<LilyResult> mapped = t.call("lily.map", map);
    t.add("lily.map_ms", t.last_ms);
    t.add("lily.map_cpu_ms", cpu_ms_now() - c0);
    t.add("lily.map_allocs", static_cast<double>(alloc_stats_snapshot().count - a0));
    if (!mapped.is_ok()) return mapped.status();
    const LilyResult& res = mapped.value();

    ThreadPool::global().resize(1);
    const StatusOr<LilyResult> mapped_1t = t.call("lily.map_1t", map);
    t.add("lily.map_ms_1t", t.last_ms);
    ThreadPool::global().resize(opts.threads);
    if (!mapped_1t.is_ok() || mapped_1t.value().netlist.gate_count() != res.netlist.gate_count() ||
        mapped_1t.value().total_area != res.total_area ||
        mapped_1t.value().estimated_wirelength != res.estimated_wirelength) {
        return Status(StatusCode::Internal, "1-thread mapping differs from the N-thread mapping");
    }

    const PadsInRegion pads{res.pad_positions, res.inchoate_placement.region};
    const double c1 = cpu_ms_now();
    StatusOr<FlowResult> out = t.call("flow.backend", [&] {
        return run_backend_checked(res.netlist, lib, opts, pads, res.instance_positions);
    });
    if (!out.is_ok()) return out;
    account_backend(t, out.value(), cpu_ms_now() - c1);
    t.add("lily.estimated_wirelength", res.estimated_wirelength);
    t.add("lily.routed_wirelength", out.value().metrics.wirelength);

    if (opts.verify == VerifyLevel::Prove) {
        const StatusOr<CecResult> cec = t.call("verify.check_equivalence", [&] {
            return check_equivalence(net, res.netlist.to_network(lib), opts.cec);
        });
        t.add("verify.prove_ms", t.last_ms);
        if (!cec.is_ok()) return cec.status();
        const CecStats& s = cec.value().stats;
        t.add("verify.sat_calls", static_cast<double>(s.sat_calls));
        t.add("verify.conflicts", static_cast<double>(s.conflicts));
        t.add("verify.merged_nodes", static_cast<double>(s.merged_nodes));
        t.add("verify.aig_and_nodes", static_cast<double>(s.aig_and_nodes));
        if (cec.value().verdict != CecVerdict::Proven) {
            return Status(StatusCode::InvariantViolation,
                          std::string("verify verdict ") + to_string(cec.value().verdict));
        }
    } else if (opts.verify == VerifyLevel::Sim) {
        const StatusOr<bool> eq = t.call("netlist.equivalent_random", [&] {
            return equivalent_random_checked(net, res.netlist.to_network(lib),
                                             opts.cec.sim_blocks, opts.cec.seed);
        });
        t.add("netlist.sim_ms", t.last_ms);
        if (!eq.is_ok()) return eq.status();
        if (!eq.value()) return Status(StatusCode::InvariantViolation, "simulation miscompare");
    }
    return out;
}

/// Record a traced flow's metrics on `run`, failing it on an error.
void take_chain(ItemRun& run, const StatusOr<FlowResult>& res, const char* what) {
    if (!res.is_ok()) {
        run.fail(std::string(what) + ": " + res.status().to_string());
        return;
    }
    run.flows.push_back(res.value().metrics);
}

// ---- Workloads ------------------------------------------------------------

class Workload {
public:
    virtual ~Workload() = default;
    /// Threads the workload's flows use.
    virtual std::size_t threads() const { return 1; }
    /// Build every input from the seed; may run several times.
    virtual void setup() = 0;
    virtual std::size_t items() const = 0;
    virtual std::string item_name(std::size_t i) const = 0;
    /// Run item i through the entry point (timed) and check its outputs.
    virtual ItemRun run(std::size_t i) = 0;
    /// Run item i as a chain of traced layer calls.
    virtual ItemRun trace(std::size_t i, Tracer& t) = 0;
};

/// large_area: one ~6400-gate control-logic circuit through the Lily area
/// flow (Trees) at min(nproc, 4) threads, verify off.
class LargeArea : public Workload {
public:
    explicit LargeArea(std::uint64_t seed) : seed_(seed) {
        const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
        threads_ = std::min(4u, hw);
    }
    std::size_t threads() const override { return threads_; }
    void setup() override {
        lib_ = load_msu_big();
        net_ = perfbench::large_area_circuit(seed_);
    }
    std::size_t items() const override { return 1; }
    std::string item_name(std::size_t) const override { return "large_area"; }
    ItemRun run(std::size_t) override {
        ItemRun r;
        const FlowOptions opts = options();
        std::optional<StatusOr<FlowResult>> res;
        timed(r, [&] { res.emplace(run_lily_flow_checked(net_, lib_, opts)); });
        check_flow(r, *res, net_, lib_, "lily");
        return r;
    }
    ItemRun trace(std::size_t, Tracer& t) override {
        ItemRun r;
        take_chain(r, lily_chain(net_, lib_, options(), t), "lily");
        return r;
    }

private:
    FlowOptions options() const {
        return pinned_options(MapObjective::Area, VerifyLevel::Off, threads_);
    }
    std::uint64_t seed_;
    std::size_t threads_ = 1;
    Library lib_;
    Network net_;
};

/// suite_prove: every Table 1 circuit through the baseline flow, then the
/// Lily area flow with a SAT-sweeping proof, at 1 thread.
class SuiteProve : public Workload {
public:
    explicit SuiteProve(std::uint64_t seed) : seed_(seed) {}
    void setup() override {
        lib_ = load_msu_big();
        suite_ = perfbench::seeded_suite(1.0, seed_);
    }
    std::size_t items() const override { return suite_.size(); }
    std::string item_name(std::size_t i) const override { return suite_[i].name; }
    ItemRun run(std::size_t i) override {
        ItemRun r;
        const Network& net = suite_[i].network;
        std::optional<StatusOr<FlowResult>> base, lily;
        timed(r, [&] {
            base.emplace(run_baseline_flow_checked(net, lib_, baseline_options()));
            lily.emplace(run_lily_flow_checked(net, lib_, lily_options()));
        });
        check_flow(r, *base, net, lib_, "baseline");
        check_flow(r, *lily, net, lib_, "lily");
        if (lily->is_ok()) {
            const StageDiagnostics* v = lily->value().diagnostics.find("verify");
            if (v == nullptr || v->state != StageState::Ok || v->note.rfind("proven", 0) != 0) {
                r.fail("lily: verify verdict is not Proven");
            }
        }
        return r;
    }
    ItemRun trace(std::size_t i, Tracer& t) override {
        ItemRun r;
        const Network& net = suite_[i].network;
        take_chain(r, baseline_chain(net, lib_, baseline_options(), t), "baseline");
        take_chain(r, lily_chain(net, lib_, lily_options(), t), "lily");
        return r;
    }

private:
    static FlowOptions baseline_options() {
        return pinned_options(MapObjective::Area, VerifyLevel::Off, 1);
    }
    static FlowOptions lily_options() {
        return pinned_options(MapObjective::Area, VerifyLevel::Prove, 1);
    }
    std::uint64_t seed_;
    Library lib_;
    std::vector<Benchmark> suite_;
};

/// eco_stream: seeded streams of local ECO edits (~0.5% of the nodes each)
/// on one ~1200-gate circuit through run_eco_flow_checked, at 1 thread.
/// Each stream applies its edits in sequence from the freshly built state;
/// the cost of one edit swings with the cones it dirties, so a pass runs
/// several streams to average over many edits.
class EcoStream : public Workload {
public:
    static constexpr std::size_t kStreams = 8;
    static constexpr std::size_t kEditsPerStream = 6;

    explicit EcoStream(std::uint64_t seed) : seed_(seed) {}
    void setup() override {
        lib_ = load_msu_big();
        const Network net = perfbench::eco_stream_circuit(seed_);
        StatusOr<PipelineState> built =
            build_pipeline(net, lib_, pinned_options(MapObjective::Area, VerifyLevel::Off, 1));
        if (!built.is_ok()) {
            throw std::runtime_error("build_pipeline: " + built.status().to_string());
        }
        base_ = std::move(built).value();
        base_.lib = &lib_;
        // Each edit is drawn against the network as its stream's earlier
        // edits left it.
        const std::size_t per_edit = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(0.005 * double(base_.net.node_count()))));
        deltas_.clear();
        for (std::size_t s = 0; s < kStreams; ++s) {
            Network cur = base_.net;
            for (std::size_t e = 0; e < kEditsPerStream; ++e) {
                NetDelta d = local_delta(cur, per_edit, mix_seed(0xD17A, seed_) + deltas_.size());
                if (!cur.apply_delta(d).is_ok()) {
                    throw std::runtime_error("seeded delta does not apply");
                }
                deltas_.push_back(std::move(d));
            }
        }
    }
    std::size_t items() const override { return deltas_.size(); }
    std::string item_name(std::size_t i) const override {
        return "stream" + std::to_string(i / kEditsPerStream) + ".edit" +
               std::to_string(i % kEditsPerStream);
    }
    ItemRun run(std::size_t i) override {
        ItemRun r;
        if (i % kEditsPerStream == 0) state_ = base_;
        std::optional<StatusOr<EcoStats>> eco;
        timed(r, [&] { eco.emplace(run_eco_flow_checked(state_, deltas_[i])); });
        check_eco(r, *eco);
        return r;
    }
    ItemRun trace(std::size_t i, Tracer& t) override {
        ItemRun r;
        if (i % kEditsPerStream == 0) state_ = base_;
        const StatusOr<EcoStats> eco =
            t.call("flow.eco", [&] { return run_eco_flow_checked(state_, deltas_[i]); });
        if (!eco.is_ok()) {
            r.fail("eco: " + eco.status().to_string());
            return r;
        }
        const EcoStats& s = eco.value();
        const auto stage_ms = [&](const char* name) {
            const StageDiagnostics* d = s.diagnostics.find(name);
            return d == nullptr ? 0.0 : d->elapsed_ms;
        };
        t.add("flow.eco_subject_ms", stage_ms("eco-subject"));
        t.add("flow.eco_mapping_ms", stage_ms("eco-mapping"));
        t.add("flow.eco_placement_ms", stage_ms("eco-placement"));
        t.add("flow.eco_routing_ms", stage_ms("eco-routing"));
        t.add("flow.eco_timing_ms", stage_ms("eco-timing"));
        t.add("flow.eco_map_reuse_sum", s.map_reuse_ratio());
        t.add("flow.eco_place_reuse_sum", s.place_reuse_ratio());
        t.add("flow.eco_timing_reuse_sum", s.timing_reuse_ratio());
        t.add("flow.eco_edits", 1.0);
        t.add("flow.eco_full_reflows", s.full_reflow ? 1.0 : 0.0);
        r.flows.push_back(state_.flow.metrics);
        return r;
    }

private:
    void check_eco(ItemRun& r, const StatusOr<EcoStats>& eco) {
        if (!eco.is_ok()) {
            r.fail("eco: " + eco.status().to_string());
            return;
        }
        if (eco.value().diagnostics.degraded()) {
            r.fail("eco: degraded run: " + eco.value().diagnostics.to_string());
        }
        if (!equivalent_random(state_.net, state_.flow.netlist.to_network(lib_), kCheckBlocks,
                               kCheckSeed)) {
            r.fail("eco: mapped netlist miscompares with the edited source");
        }
        r.flows.push_back(state_.flow.metrics);
    }

    std::uint64_t seed_;
    Library lib_;
    PipelineState base_;
    PipelineState state_;
    std::vector<NetDelta> deltas_;
};

/// small_files: small BLIF files (the repository's example circuits plus
/// the suite at scale 0.25) mapped from disk by run_flow_from_files in delay
/// mode with simulation verify, at 1 thread.
class SmallFiles : public Workload {
public:
    SmallFiles(std::uint64_t seed, fs::path src, fs::path work)
        : seed_(seed), src_(std::move(src)), dir_(std::move(work) / "small_files") {}
    void setup() override {
        fs::create_directories(dir_);
        genlib_ = (dir_ / "msu_big.genlib").string();
        {
            std::ofstream f(genlib_, std::ios::binary);
            f << msu_big_genlib();
            if (!f) throw std::runtime_error("cannot write " + genlib_);
        }
        lib_ = read_genlib_file(genlib_);
        names_.clear();
        files_.clear();
        sources_.clear();
        const fs::path examples = src_ / "examples" / "circuits";
        std::vector<fs::path> blifs;
        for (const auto& e : fs::directory_iterator(examples)) {
            if (e.path().extension() == ".blif") blifs.push_back(e.path());
        }
        if (blifs.empty()) throw std::runtime_error("no BLIF files under " + examples.string());
        std::sort(blifs.begin(), blifs.end());
        for (const fs::path& p : blifs) {
            const fs::path copy = dir_ / p.filename();
            fs::copy_file(p, copy, fs::copy_options::overwrite_existing);
            add_file(p.stem().string(), copy);
        }
        for (const Benchmark& b : perfbench::seeded_suite(0.25, seed_)) {
            const fs::path p = dir_ / (b.name + ".blif");
            write_blif_file(b.network, p.string());
            add_file(b.name, p);
        }
    }
    std::size_t items() const override { return files_.size(); }
    std::string item_name(std::size_t i) const override { return names_[i]; }
    ItemRun run(std::size_t i) override {
        ItemRun r;
        std::optional<StatusOr<FlowResult>> res;
        timed(r, [&] {
            res.emplace(run_flow_from_files(files_[i], genlib_, options(), FlowKind::Lily));
        });
        check_flow(r, *res, sources_[i], lib_, "lily");
        if (res->is_ok()) {
            const StageDiagnostics* v = res->value().diagnostics.find("verify");
            if (v == nullptr || v->state != StageState::Ok) {
                r.fail("lily: simulation verify did not run clean");
            }
        }
        return r;
    }
    ItemRun trace(std::size_t i, Tracer& t) override {
        ItemRun r;
        const std::uint64_t a0 = alloc_stats_snapshot().count;
        const StatusOr<Library> lib = t.call("library.read_genlib", [&] {
            StatusOr<Library> l = read_genlib_file_checked(genlib_);
            if (l.is_ok()) l.value().validate();
            return l;
        });
        t.add("library.parse_ms", t.last_ms);
        t.add("library.parse_allocs", static_cast<double>(alloc_stats_snapshot().count - a0));
        const StatusOr<Network> net =
            t.call("netlist.read_blif", [&] { return read_blif_file_checked(files_[i]); });
        t.add("netlist.parse_ms", t.last_ms);
        if (!lib.is_ok() || !net.is_ok()) {
            r.fail("parse failed");
            return r;
        }
        take_chain(r, lily_chain(net.value(), lib.value(), options(), t), "lily");
        return r;
    }

private:
    static FlowOptions options() {
        return pinned_options(MapObjective::Delay, VerifyLevel::Sim, 1);
    }
    void add_file(std::string name, const fs::path& p) {
        names_.push_back(std::move(name));
        files_.push_back(p.string());
        sources_.push_back(read_blif_file(p.string()));
    }

    std::uint64_t seed_;
    fs::path src_;
    fs::path dir_;
    std::string genlib_;
    Library lib_;
    std::vector<std::string> names_;
    std::vector<std::string> files_;
    std::vector<Network> sources_;
};

// ---- Metrics --------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Geomean of each QoR figure over the Lily results (the last flow of each
/// item) of one pass, converted to user units.
std::vector<double> pass_qor(const std::vector<ItemRun>& runs) {
    std::vector<double> cell, chip, wire, delay;
    for (const ItemRun& r : runs) {
        if (r.flows.empty()) continue;
        const FlowMetrics& m = r.flows.back();
        cell.push_back(m.cell_area_mm2());
        chip.push_back(m.chip_area_mm2());
        wire.push_back(m.wirelength_mm());
        delay.push_back(m.critical_delay);
    }
    return {perfbench::geomean(cell), perfbench::geomean(chip), perfbench::geomean(wire),
            perfbench::geomean(delay)};
}

double ratio_or_zero(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of one traced pass from its layer sums.
std::map<std::string, double> layer_metrics(const std::map<std::string, double>& s) {
    const auto get = [&](const char* k) {
        const auto it = s.find(k);
        return it == s.end() ? 0.0 : it->second;
    };
    std::map<std::string, double> m;
    for (const char* k :
         {"library.parse_ms", "library.parse_allocs", "netlist.parse_ms", "netlist.sim_ms",
          "subject.decompose_ms", "subject.nodes", "match.scan_ms", "lily.inchoate_place_ms",
          "lily.map_ms", "lily.map_cpu_ms", "lily.map_allocs", "lily.map_ms_1t",
          "map.base_map_ms", "place.place_ms", "place.place_cpu_ms", "route.route_ms",
          "sta.timing_ms", "verify.prove_ms", "verify.sat_calls", "verify.conflicts",
          "flow.eco_subject_ms", "flow.eco_mapping_ms", "flow.eco_placement_ms",
          "flow.eco_routing_ms", "flow.eco_timing_ms", "flow.eco_full_reflows"}) {
        m[k] = get(k);
    }
    m["match.matches_per_node"] = ratio_or_zero(get("match.matches"), get("match.gate_nodes"));
    m["lily.wire_estimate_ratio"] =
        ratio_or_zero(get("lily.estimated_wirelength"), get("lily.routed_wirelength"));
    m["route.max_congestion"] = ratio_or_zero(get("route.congestion_sum"), get("route.flows"));
    m["verify.merge_ratio"] =
        ratio_or_zero(get("verify.merged_nodes"), get("verify.aig_and_nodes"));
    m["flow.eco_map_reuse"] = ratio_or_zero(get("flow.eco_map_reuse_sum"), get("flow.eco_edits"));
    m["flow.eco_place_reuse"] =
        ratio_or_zero(get("flow.eco_place_reuse_sum"), get("flow.eco_edits"));
    m["flow.eco_timing_reuse"] =
        ratio_or_zero(get("flow.eco_timing_reuse_sum"), get("flow.eco_edits"));
    m["util.pool_speedup"] = ratio_or_zero(get("lily.map_ms_1t"), get("lily.map_ms"));
    return m;
}

std::string unit_of_layer(const std::string& name) {
    const auto ends_with = [&](const char* suf) {
        const std::string s(suf);
        return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends_with("_ms") || ends_with("_ms_1t")) return "ms";
    if (ends_with("allocs") || ends_with("nodes") || ends_with("calls") ||
        ends_with("conflicts") || ends_with("reflows")) {
        return "count";
    }
    return "ratio";
}

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    fs::path src = ".";
    fs::path out = ".";
};

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            a.trace = v != "0";
        } else if (k == "--src") {
            a.src = v;
        } else if (k == "--out") {
            a.out = v;
        } else {
            throw std::invalid_argument("unknown argument " + k);
        }
    }
    if (argc % 2 == 0) throw std::invalid_argument("arguments come in --key value pairs");
    return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
    if (a.workload == "large_area") return std::make_unique<LargeArea>(a.seed);
    if (a.workload == "suite_prove") return std::make_unique<SuiteProve>(a.seed);
    if (a.workload == "eco_stream") return std::make_unique<EcoStream>(a.seed);
    if (a.workload == "small_files") return std::make_unique<SmallFiles>(a.seed, a.src, a.out);
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/// One pass over every item, untraced. Records each item on the ledger and,
/// given a calibrator, calibrates after each item.
std::vector<ItemRun> untraced_pass(Workload& w, FailLedger& ledger, Calibrator* cal) {
    std::vector<ItemRun> runs;
    for (std::size_t i = 0; i < w.items(); ++i) {
        ItemRun r;
        try {
            r = w.run(i);
        } catch (const std::exception& e) {
            r.fail(std::string("exception: ") + e.what());
        }
        ledger.record(r.ok, w.item_name(i), r.why);
        if (cal != nullptr) r.scale = cal->after(r.wall_ms);
        runs.push_back(std::move(r));
    }
    return runs;
}

double total_wall_ms(const std::vector<ItemRun>& runs) {
    double s = 0.0;
    for (const ItemRun& r : runs) s += r.wall_ms;
    return s;
}

int run_benchmark(const Args& a) {
    // Pin the library's environment knobs: the benchmark states them itself.
    for (const char* var : {"LILY_TRACE", "LILY_FAULT", "LILY_THREADS", "LILY_BUDGET_MS",
                            "LILY_VERIFY", "LILY_CHECK_LEVEL"}) {
        unsetenv(var);
    }
    std::unique_ptr<Workload> w = make_workload(a);
    fs::create_directories(a.out);

    // The traced run reports measured times; only the end-to-end run
    // converts to reference time. Set-up runs on one thread and has its own
    // calibration, taken while it runs; the passes have theirs when they run
    // on one thread.
    std::optional<Calibrator> setup_cal, cal;
    if (!a.trace) {
        setup_cal.emplace();
        if (w->threads() == 1) cal.emplace();
    }

    std::vector<double> setup_s, setup_ref_s;
    const Clock::time_point setup_start = Clock::now();
    while (static_cast<int>(setup_s.size()) < kSetupMinReps ||
           (seconds_since(setup_start) < kSetupMinSeconds &&
            static_cast<int>(setup_s.size()) < kSetupMaxReps)) {
        const Clock::time_point t0 = Clock::now();
        w->setup();
        setup_s.push_back(seconds_since(t0));
        if (setup_cal) {
            setup_ref_s.push_back(setup_s.back() * setup_cal->after(setup_s.back() * 1e3));
        }
    }

    FailLedger ledger;
    // Warm-up: the first item, untimed but checked like any other.
    {
        ItemRun r;
        try {
            r = w->run(0);
        } catch (const std::exception& e) {
            r.fail(std::string("exception: ") + e.what());
        }
        ledger.record(r.ok, "warm-up " + w->item_name(0), r.why);
    }

    // Per pass and per item, in reference time; pass_measured_s as measured.
    std::vector<double> pass_wall_s, pass_cpu_s, item_ms, pass_measured_s;
    std::optional<std::vector<double>> qor;
    std::vector<std::map<std::string, double>> layer_passes;
    std::vector<double> overhead_ms, glue_ms;
    SpanLog dump;
    const auto check_qor = [&](const std::vector<ItemRun>& runs, const char* what) {
        const std::vector<double> q = pass_qor(runs);
        if (!qor.has_value()) {
            qor = q;
        } else if (q != *qor) {
            ledger.record(false, what, "QoR differs from the first pass");
        }
    };

    const Clock::time_point start = Clock::now();
    int pass = 0;
    do {
        std::vector<ItemRun> runs = untraced_pass(*w, ledger, cal ? &*cal : nullptr);
        double wall = 0.0, cpu = 0.0;
        for (const ItemRun& r : runs) {
            item_ms.push_back(r.wall_ms * r.scale);
            wall += r.wall_ms * r.scale;
            cpu += r.cpu_ms * r.scale;
        }
        pass_wall_s.push_back(wall / 1e3);
        pass_cpu_s.push_back(cpu / 1e3);
        pass_measured_s.push_back(total_wall_ms(runs) / 1e3);
        check_qor(runs, "pass");
        if (pass == 0) {
            for (std::size_t i = 0; i < runs.size(); ++i) {
                std::printf("# item %s %.3f ms\n", w->item_name(i).c_str(), runs[i].wall_ms);
            }
        }

        if (a.trace) {
            Tracer t;
            const std::size_t root = t.log.begin("pass", -1);
            for (std::size_t i = 0; i < w->items(); ++i) {
                t.item = static_cast<std::int64_t>(i);
                const std::size_t id = t.log.begin("item", t.item);
                ItemRun r;
                try {
                    r = w->trace(i, t);
                } catch (const std::exception& e) {
                    r.fail(std::string("exception: ") + e.what());
                }
                t.log.end(id);
                // The chain must reproduce the untraced item exactly.
                if (r.ok && r.flows.size() != runs[i].flows.size()) r.fail("flow count differs");
                for (std::size_t f = 0; r.ok && f < r.flows.size(); ++f) {
                    if (!same_metrics(r.flows[f], runs[i].flows[f])) {
                        r.fail("traced chain does not reproduce the untraced FlowMetrics");
                    }
                }
                ledger.record(r.ok, "traced " + w->item_name(i), r.why);
            }
            const double traced_ms = t.log.end(root);
            // The standalone calls (their inputs, the matcher scan, the
            // inchoate placement, the 1-thread re-map) are extra work, not
            // tracing cost.
            const std::map<std::string, double> self = t.log.self_ms_by_name();
            const auto self_of = [&](const char* n) {
                const auto it = self.find(n);
                return it == self.end() ? 0.0 : it->second;
            };
            const double extra = self_of("standalone.prepare") + self_of("match.scan") +
                                 self_of("lily.inchoate_place") + self_of("lily.map_1t");
            overhead_ms.push_back(traced_ms - extra - total_wall_ms(runs));
            glue_ms.push_back(self_of("pass") + self_of("item"));
            layer_passes.push_back(layer_metrics(t.sum));
            if (!t.log.all_closed()) ledger.record(false, "trace", "unclosed span");
            if (pass == 0) dump = t.log;
        }
        ++pass;
    } while (seconds_since(start) < a.seconds);

    // Human-readable lines first; the JSON result is the last line.
    std::vector<Metric> metrics, printed;
    if (!a.trace) {
        metrics.push_back({"setup_s", perfbench::median(setup_ref_s), "s"});
        metrics.push_back({"wall_s", perfbench::median(pass_wall_s), "s"});
        metrics.push_back({"cpu_s", perfbench::median(pass_cpu_s), "s"});
        metrics.push_back({"item_ms_p50", perfbench::median(item_ms), "ms"});
        metrics.push_back({"peak_rss_mb", static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0),
                           "MiB"});
        const std::vector<double> q = qor.value_or(std::vector<double>(4, 0.0));
        metrics.push_back({"cell_area", q[0], "mm2"});
        metrics.push_back({"chip_area", q[1], "mm2"});
        metrics.push_back({"wirelength", q[2], "mm"});
        metrics.push_back({"critical_delay", q[3], "ns"});
        std::printf("# %s seed=%llu passes=%d items=%zu pass_wall_s (measured):",
                    a.workload.c_str(), static_cast<unsigned long long>(a.seed), pass,
                    item_ms.size());
        for (const double p : pass_measured_s) std::printf(" %.4f", p);
        std::printf("\n# measured: setup_s %.6f (calibration %.4f ms, median of %zu) wall_s %.6f",
                    perfbench::median(setup_s), setup_cal->median_ms(), setup_cal->samples(),
                    perfbench::median(pass_measured_s));
        if (cal) {
            std::printf(" (calibration %.4f ms, median of %zu)\n", cal->median_ms(),
                        cal->samples());
        } else {
            std::printf(" (%zu threads: reported as measured)\n", w->threads());
        }
        if (const std::optional<double> p = perfbench::tail_percentile(item_ms.size())) {
            std::printf("item_ms_p%g %.4f ms (n=%zu)\n", *p,
                        perfbench::percentile(item_ms, *p), item_ms.size());
        } else {
            std::printf("item_ms_tail n/a (n=%zu items, fewer than 10 beyond p90)\n",
                        item_ms.size());
        }
    } else {
        std::map<std::string, std::vector<double>> by_name;
        for (const auto& lp : layer_passes) {
            for (const auto& [k, v] : lp) by_name[k].push_back(v);
        }
        // Printed, not reported: the full-reflow count is 0 whenever the
        // incremental path works, and the tracing overhead is a difference
        // of two noisy times that changes sign; neither has a median a
        // later change could be compared against.
        for (const auto& [k, v] : by_name) {
            (k == "flow.eco_full_reflows" ? printed : metrics)
                .push_back({k, perfbench::median(v), unit_of_layer(k)});
        }
        printed.push_back({"trace.overhead_ms", perfbench::median(overhead_ms), "ms"});
        metrics.push_back({"trace.glue_ms", perfbench::median(glue_ms), "ms"});
        const fs::path spans =
            a.out / ("spans-" + a.workload + "-seed" + std::to_string(a.seed) + ".jsonl");
        std::ofstream f(spans);
        f << dump.to_jsonl();
        std::printf("# %s seed=%llu traced passes=%d spans=%s\n", a.workload.c_str(),
                    static_cast<unsigned long long>(a.seed), pass, spans.string().c_str());
        // The dump's self times partition its root span: layer spans plus
        // the pass/item glue add up to the traced pass.
        double layer_self = 0.0, glue_self = 0.0, root_ms = 0.0;
        const std::vector<double> self = dump.self_ms();
        for (std::size_t i = 0; i < self.size(); ++i) {
            const std::string& n = dump.spans()[i].name;
            (n == "pass" || n == "item" ? glue_self : layer_self) += self[i];
            if (dump.spans()[i].parent == perfbench::Span::npos) {
                root_ms += dump.spans()[i].duration_ms();
            }
        }
        std::printf("# spans: layer self %.3f ms + glue %.3f ms = traced pass %.3f ms\n",
                    layer_self, glue_self, root_ms);
    }
    std::printf("fail_ratio %.6f ratio (%zu failed of %zu attempted)\n", ledger.fail_ratio(),
                ledger.failed(), ledger.attempted());
    for (const Metric& m : printed) {
        std::printf("%s %.6g %s (printed only)\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const std::string& why : ledger.reasons()) std::printf("# FAILED %s\n", why.c_str());

    bool finite = true;
    for (const Metric& m : metrics) {
        std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        finite = finite && std::isfinite(m.value);
    }
    std::ostringstream js;
    js << "{\"correct\": " << (ledger.failed() == 0 && finite ? "true" : "false")
       << ", \"attempted\": " << ledger.attempted() << ", \"failed\": " << ledger.failed()
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
           << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run_benchmark(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_flow: %s\n", e.what());
        return 1;
    }
}
