#include "flow/stage.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "check/subject_checker.hpp"
#include "util/fault.hpp"

namespace lily {

namespace {

// Rung name constants double as documentation of the ladder: a rung not
// listed on a stage's descriptor can never fire there (rung_enabled checks
// membership first).
constexpr const char* kMappingRungs[] = {"baseline-fallback"};
constexpr const char* kRoutingRungs[] = {"hpwl-metrics"};
constexpr const char* kVerifyRungs[] = {"sim-fallback"};
constexpr const char* kAdaptiveRungs[] = {"wire-weight-retry"};
constexpr const char* kEcoRungs[] = {"full-reflow"};

constexpr std::array<StageDescriptor, kStageCount> kStageTable{{
    {StageId::ParseGenlib, "parse-genlib", CheckStage::Network, BudgetKey::None, "parser",
     nullptr, 0},
    {StageId::ParseBlif, "parse-blif", CheckStage::Network, BudgetKey::None, "parser",
     nullptr, 0},
    {StageId::Decompose, "decompose", CheckStage::Subject, BudgetKey::None, "", nullptr, 0},
    {StageId::Mapping, "mapping", CheckStage::Match, BudgetKey::Mapping, "matcher",
     kMappingRungs, 1},
    {StageId::Placement, "placement", CheckStage::Placement, BudgetKey::Placement,
     "placement", nullptr, 0},
    {StageId::Routing, "routing", CheckStage::Placement, BudgetKey::Routing, "router",
     kRoutingRungs, 1},
    {StageId::Timing, "timing", CheckStage::Mapped, BudgetKey::None, "", nullptr, 0},
    {StageId::Checks, "checks", CheckStage::Mapped, BudgetKey::None, "", nullptr, 0},
    {StageId::Verify, "verify", CheckStage::Verify, BudgetKey::None, "verify",
     kVerifyRungs, 1},
    {StageId::Adaptive, "adaptive", CheckStage::Pipeline, BudgetKey::None, "",
     kAdaptiveRungs, 1},
    {StageId::Eco, "eco", CheckStage::Pipeline, BudgetKey::None, "eco", kEcoRungs, 1},
    {StageId::EcoSubject, "eco-subject", CheckStage::Subject, BudgetKey::None, "eco",
     kEcoRungs, 1},
    {StageId::EcoMapping, "eco-mapping", CheckStage::Match, BudgetKey::Mapping, "eco",
     kEcoRungs, 1},
    {StageId::EcoPlacement, "eco-placement", CheckStage::Placement, BudgetKey::Placement,
     "eco", kEcoRungs, 1},
    {StageId::EcoRouting, "eco-routing", CheckStage::Placement, BudgetKey::Routing, "eco",
     kEcoRungs, 1},
    {StageId::EcoTiming, "eco-timing", CheckStage::Mapped, BudgetKey::None, "eco",
     kEcoRungs, 1},
}};

}  // namespace

const std::array<StageDescriptor, kStageCount>& stage_table() { return kStageTable; }

const StageDescriptor& stage_descriptor(StageId id) {
    return kStageTable[static_cast<std::size_t>(id)];
}

const char* stage_name(StageId id) { return stage_descriptor(id).name; }

std::optional<StageId> stage_id_from_name(std::string_view name) {
    for (const StageDescriptor& d : kStageTable) {
        if (name == d.name) return d.id;
    }
    return std::nullopt;
}

double ms_since(StageBudget::Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(StageBudget::Clock::now() - t0).count();
}

CoverMode effective_cover(const FlowOptions& opts) {
    if (opts.cover.has_value()) return *opts.cover;
    return opts.objective == MapObjective::Delay ? CoverMode::Cones : CoverMode::Trees;
}

Point rescale_point(const Point& p, const Rect& from, const Rect& to) {
    const Point cf = from.center();
    const Point ct = to.center();
    const double sx = to.width() / std::max(from.width(), 1e-12);
    const double sy = to.height() / std::max(from.height(), 1e-12);
    return {ct.x + (p.x - cf.x) * sx, ct.y + (p.y - cf.y) * sy};
}

// ---- FlowContext -------------------------------------------------------

FlowContext::FlowContext(const char* flow_label, const FlowOptions& opts,
                         FlowDiagnostics& diag)
    : label_(flow_label), opts_(opts), diag_(diag), total_(opts.budget.total_ms) {
    limited_ = total_.limited();
    if (opts.trace != nullptr) {
        sink_ = opts.trace;
    } else {
        const std::string path = trace_path_from_env();
        if (!path.empty()) {
            owned_sink_ = std::make_unique<TraceSink>();
            owned_path_ = path;
            sink_ = owned_sink_.get();
        }
    }
    if (sink_ != nullptr) flow_id_ = sink_->begin_flow(label_);
}

FlowContext::~FlowContext() {
    if (sink_ != nullptr) sink_->end_flow(flow_id_);
    if (owned_sink_ != nullptr) {
        const Status dumped = owned_sink_->append_to_file(owned_path_);
        // Tracing must never fail the flow; a bad LILY_TRACE path is only
        // worth a warning on stderr.
        if (!dumped.is_ok()) {
            std::fprintf(stderr, "lily: trace dump failed: %s\n",
                         dumped.to_string().c_str());
        }
    }
}

StageBudget FlowContext::stage_budget(StageId id) {
    double ms = 0.0;
    switch (stage_descriptor(id).budget_key) {
        case BudgetKey::Mapping: ms = opts_.budget.mapping_ms; break;
        case BudgetKey::Placement: ms = opts_.budget.placement_ms; break;
        case BudgetKey::Routing: ms = opts_.budget.routing_ms; break;
        case BudgetKey::None: break;
    }
    StageBudget* parent = total();
    return parent != nullptr ? StageBudget::stage(ms, *parent) : StageBudget(ms);
}

bool FlowContext::checks_enabled() const { return opts_.check != CheckLevel::Off; }

bool FlowContext::fault(StageId id, std::string_view kind) const {
    const StageDescriptor& d = stage_descriptor(id);
    if (d.fault_stage[0] == '\0') return false;
    return fault_enabled(d.fault_stage, kind);
}

bool FlowContext::rung_enabled(StageId id, std::string_view rung) const {
    const StageDescriptor& d = stage_descriptor(id);
    bool declared = false;
    for (std::size_t i = 0; i < d.n_rungs; ++i) {
        if (rung == d.rungs[i]) {
            declared = true;
            break;
        }
    }
    if (!declared) return false;
    if (rung == "baseline-fallback") return opts_.recovery.allow_baseline_fallback;
    if (rung == "hpwl-metrics") return opts_.recovery.allow_hpwl_metrics;
    if (rung == "wire-weight-retry") return opts_.recovery.max_retries > 0;
    // sim-fallback and full-reflow are unconditional: correctness rungs the
    // policy never disables.
    return true;
}

std::string FlowContext::context(std::string_view what) const {
    std::string out(label_);
    out += ": ";
    out += what;
    return out;
}

// ---- StageScope --------------------------------------------------------

StageScope::StageScope(FlowContext& ctx, StageId id)
    : ctx_(ctx), id_(id), t0_(StageBudget::Clock::now()) {
    diag();  // find-or-add now so the stage appears in first-touch order
    if (ctx_.trace() != nullptr) {
        span_ = ctx_.trace()->begin_span(stage_name(id_));
        traced_ = true;
        alloc0_ = alloc_stats_snapshot();
    }
}

StageScope::~StageScope() {
    const double dt = ms_since(t0_);
    StageDiagnostics& d = diag();
    d.elapsed_ms += dt;  // accumulate: a re-entered stage keeps prior time
    if (traced_) {
        // The identical increment goes to the span, so per-stage sums over
        // the trace equal the FlowDiagnostics elapsed exactly.
        ctx_.trace()->end_span(span_, dt, to_string(d.state), d.retries, d.note);
        // Memory footprint of this execution: heap-allocation delta across
        // the scope plus the process peak-RSS high-water mark at exit. One
        // counter triple per span, so a trace consumer can pair them.
        const AllocStats a1 = alloc_stats_snapshot();
        const std::string stage = stage_name(id_);
        TraceSink& sink = *ctx_.trace();
        sink.counter("alloc_count." + stage, static_cast<double>(a1.count - alloc0_.count));
        sink.counter("alloc_bytes." + stage, static_cast<double>(a1.bytes - alloc0_.bytes));
        sink.counter("rss_peak_kb." + stage, static_cast<double>(peak_rss_bytes() / 1024));
    }
}

StageBudget& StageScope::budget() {
    if (!budget_derived_) {
        budget_ = ctx_.stage_budget(id_);
        budget_derived_ = true;
    }
    return budget_;
}

void StageScope::counter(std::string_view name, double value) {
    if (!traced_) return;
    std::string full = stage_name(id_);
    full += '.';
    full += name;
    ctx_.trace()->counter(full, value);
}

void StageScope::set_state(StageState state, std::string note) {
    StageDiagnostics& d = diag();
    d.state = state;
    if (!note.empty()) d.note = std::move(note);
}

void StageScope::ok(std::string note) { set_state(StageState::Ok, std::move(note)); }

void StageScope::ok_if_unset() {
    StageDiagnostics& d = diag();
    if (d.state == StageState::NotRun) d.state = StageState::Ok;
}

void StageScope::degraded(std::string note) {
    set_state(StageState::Degraded, std::move(note));
}

void StageScope::recovered(std::string note) {
    set_state(StageState::Recovered, std::move(note));
}

void StageScope::failed(std::string note) { set_state(StageState::Failed, std::move(note)); }

void route_counters(StageScope& s, const RouteResult& routed) {
    s.counter("connections", static_cast<double>(routed.plan.size()));
    s.counter("mazed", static_cast<double>(routed.maze_searches));
    s.counter("maze_expanded", static_cast<double>(routed.maze_expanded));
    s.counter("overflow", routed.total_overflow);
    s.counter("kept", static_cast<double>(routed.kept_connections));
}

Status check_subject(const FlowContext& ctx, const SubjectGraph& g, std::string_view what) {
    if (!ctx.checks_enabled()) return Status::ok();
    return guarded_check([&] { SubjectChecker().check(g).throw_if_errors(ctx.context(what)); });
}

}  // namespace lily
