#include "flow/stage.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>

#include "check/subject_checker.hpp"

namespace lily {

namespace {

// Indexed by StageId. These strings are read back by check_trace.py,
// FlowDiagnostics consumers, served stage_times and the server's
// stage_timings: renaming one is a format change.
constexpr const char* kStageNames[] = {
    "parse-genlib", "parse-blif",  "decompose",   "mapping",       "placement",
    "routing",      "timing",      "checks",      "verify",        "adaptive",
    "eco",          "eco-subject", "eco-mapping", "eco-placement", "eco-routing",
    "eco-timing",
};
static_assert(std::size(kStageNames) == kStageCount, "one name per StageId");

}  // namespace

const char* stage_name(StageId id) { return kStageNames[static_cast<std::size_t>(id)]; }

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
    : label_(flow_label), opts_(opts), diag_(diag), total_(opts.budget.total_ms),
      outer_sink_(t_active_sink) {
    limited_ = total_.limited();
    // An explicit sink wins; a flow called from inside another traces into
    // the caller's sink, so only the outermost context owns the LILY_TRACE
    // dump.
    if (opts.trace != nullptr) {
        sink_ = opts.trace;
    } else if (outer_sink_ != nullptr) {
        sink_ = outer_sink_;
    } else {
        const std::string path = trace_path_from_env();
        if (!path.empty()) {
            owned_sink_ = std::make_unique<TraceSink>();
            owned_path_ = path;
            sink_ = owned_sink_.get();
        }
    }
    if (sink_ != nullptr) flow_id_ = sink_->begin_flow(label_);
    t_active_sink = sink_;
}

FlowContext::~FlowContext() {
    t_active_sink = outer_sink_;
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

bool FlowContext::checks_enabled() const { return opts_.check != CheckLevel::Off; }

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
    if (ctx_.trace() != nullptr) span_ = ctx_.trace()->begin_span(stage_name(id_), t0_);
}

StageScope::~StageScope() {
    const double dt = ms_since(t0_);
    StageDiagnostics& d = diag();
    d.elapsed_ms += dt;  // accumulate: a re-entered stage keeps prior time
    // The identical increment goes to the span, so per-stage sums over the
    // trace equal the FlowDiagnostics elapsed exactly.
    if (ctx_.trace() != nullptr) {
        ctx_.trace()->end_span(span_, dt, to_string(d.state), d.retries, d.note);
    }
}

void StageScope::counter(std::string_view name, double value) {
    if (ctx_.trace() != nullptr) ctx_.trace()->counter(span_, name, value);
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
