#include "flow/job.hpp"

#include <chrono>
#include <exception>
#include <optional>
#include <utility>

#include "flow/report.hpp"
#include "flow/stage.hpp"
#include "library/library.hpp"
#include "netlist/blif.hpp"
#include "util/crash.hpp"

namespace lily {

const char* to_string(JobTier tier) {
    return tier == JobTier::Full ? "full" : "degraded";
}

const char* to_string(JobState state) {
    switch (state) {
        case JobState::Queued: return "queued";
        case JobState::Running: return "running";
        case JobState::Ok: return "ok";
        case JobState::Degraded: return "degraded";
        case JobState::Error: return "error";
    }
    return "?";
}

const char* to_string(CacheProbe probe) {
    switch (probe) {
        case CacheProbe::Skipped: return "skipped";
        case CacheProbe::Miss: return "miss";
        case CacheProbe::Hit: return "hit";
    }
    return "?";
}

// ---- ArtifactCache --------------------------------------------------------

namespace {

/// FNV-1a 64 over the raw text. Collisions are tolerated (the stored text
/// is compared on every probe), so a fast non-cryptographic hash is fine.
std::uint64_t fnv1a64(std::string_view s) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

}  // namespace

ArtifactCache& ArtifactCache::instance() {
    static ArtifactCache cache;
    return cache;
}

void ArtifactCache::touch(Entry& entry) { entry.stamp = ++clock_; }

void ArtifactCache::evict_over_caps() {
    while (entries_.size() > max_entries_ || text_bytes_ > max_text_bytes_) {
        auto victim = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second.stamp < victim->second.stamp) victim = it;
        }
        if (victim == entries_.end()) return;
        text_bytes_ -= victim->second.text.size();
        entries_.erase(victim);
    }
}

template <typename T, typename Parse>
StatusOr<std::shared_ptr<const T>> ArtifactCache::lookup_or_parse(
    std::shared_ptr<const T> Entry::*slot, std::string_view text, CacheProbe* probe,
    Parse parse) {
    const std::uint64_t key = fnv1a64(text);
    const auto find = [&]() -> std::shared_ptr<const T> {
        auto range = entries_.equal_range(key);
        for (auto it = range.first; it != range.second; ++it) {
            if (it->second.*slot != nullptr && it->second.text == text) {
                touch(it->second);
                return it->second.*slot;
            }
        }
        return nullptr;
    };
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (std::shared_ptr<const T> hit = find()) {
            ++hits_;
            if (probe != nullptr) *probe = CacheProbe::Hit;
            return hit;
        }
        ++misses_;
        if (probe != nullptr) *probe = CacheProbe::Miss;
    }
    // Parse outside the lock: two threads missing on the same text parse
    // twice rather than serialize; the re-check below keeps one copy.
    StatusOr<T> parsed = parse(text);
    if (!parsed.is_ok()) return parsed.status();  // failures are never cached
    auto shared = std::make_shared<const T>(std::move(parsed.value()));

    std::lock_guard<std::mutex> lock(mu_);
    if (std::shared_ptr<const T> raced = find()) return raced;  // a concurrent miss won
    Entry entry;
    entry.text.assign(text.data(), text.size());
    entry.*slot = shared;
    touch(entry);
    text_bytes_ += entry.text.size();
    entries_.emplace(key, std::move(entry));
    evict_over_caps();
    return StatusOr<std::shared_ptr<const T>>(std::move(shared));
}

StatusOr<std::shared_ptr<const Network>> ArtifactCache::network_for(
    std::string_view blif_text, CacheProbe* probe) {
    return lookup_or_parse(&Entry::network, blif_text, probe,
                           [](std::string_view text) { return read_blif_checked(text); });
}

StatusOr<std::shared_ptr<const Library>> ArtifactCache::library_for(
    std::string_view genlib_text, CacheProbe* probe) {
    // The cached Library carries the canonical name "genlib" regardless of
    // which job parsed it first: the name feeds only the Verilog writer's
    // banner, never the mapped BLIF or the report, so sharing one parse
    // across differently-named jobs keeps served bytes identical.
    return lookup_or_parse(&Entry::library, genlib_text, probe, [](std::string_view text) {
        return read_genlib_checked(text, "genlib");
    });
}

ArtifactCache::Stats ArtifactCache::stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.entries = entries_.size();
    s.text_bytes = text_bytes_;
    return s;
}

void ArtifactCache::clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    text_bytes_ = 0;
    hits_ = 0;
    misses_ = 0;
}

void ArtifactCache::set_capacity(std::size_t max_entries, std::size_t max_text_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    max_entries_ = max_entries;
    max_text_bytes_ = max_text_bytes;
    evict_over_caps();
}

namespace {

JobOutcome error_outcome(const JobSpec& spec, Status status, double elapsed_ms,
                         CacheProbe blif_probe = CacheProbe::Skipped,
                         CacheProbe genlib_probe = CacheProbe::Skipped) {
    JobOutcome out;
    out.state = JobState::Error;
    out.status_code = status.code();
    out.status_message = status.message();
    out.tier = spec.tier;
    out.elapsed_ms = elapsed_ms;
    out.blif_cache = blif_probe;
    out.genlib_cache = genlib_probe;
    out.report_json = flow_report_json(status, nullptr, nullptr);
    return out;
}

FlowOptions options_for(const JobSpec& spec) {
    FlowOptions opts;
    opts.objective = spec.options.objective;
    opts.check = spec.options.check;
    opts.verify = spec.options.verify;
    opts.budget.total_ms = spec.options.budget_ms;
    opts.threads = spec.options.threads == 0 ? 1 : spec.options.threads;
    if (spec.tier == JobTier::Degraded) {
        // The retry tier applies the recovery ladder's final rung up front:
        // the wire weight rung that PR 2's adaptive schedule ends on, with
        // the baseline fallback armed. A job whose full-effort run crashed
        // the worker gets the cheapest viable path, not a second identical
        // crash.
        const RecoveryPolicy& policy = opts.recovery;
        const double scale =
            policy.wire_weight_scale.empty() ? 0.0 : policy.wire_weight_scale.back();
        opts.lily.wire_weight *= scale;
        opts.recovery.allow_baseline_fallback = true;
        opts.recovery.allow_hpwl_metrics = true;
    }
    return opts;
}

/// Flatten executed stages into the outcome's timing list (NotRun entries
/// are placeholders from scopes whose flow errored out elsewhere — skip).
void append_stage_times(const FlowDiagnostics& diag, std::vector<StageTime>& out) {
    for (const StageDiagnostics& s : diag.stages) {
        if (s.state == StageState::NotRun) continue;
        out.push_back(StageTime{s.name, s.elapsed_ms});
    }
}

}  // namespace

JobOutcome run_flow_job(const JobSpec& spec) {
    const auto t0 = StageBudget::Clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double, std::milli>(StageBudget::Clock::now() - t0)
            .count();
    };

    // The job's own context covers the parse stages; the nested checked
    // flow runs under its own. Both contribute to stage_times so the
    // server's latency breakdown sees cache-hit parses as ~0 ms stages
    // rather than not at all.
    const FlowOptions opts = options_for(spec);
    FlowDiagnostics job_diag;
    FlowContext ctx(flow_label::kJob, opts, job_diag);
    StageExecutor exec(ctx);

    crash_set_stage("parse");
    CacheProbe blif_probe = CacheProbe::Skipped;
    CacheProbe genlib_probe = CacheProbe::Skipped;
    ArtifactCache& cache = ArtifactCache::instance();
    std::optional<StatusOr<std::shared_ptr<const Network>>> net;
    exec.run(StageId::ParseBlif, [&](StageScope& s) {
        net.emplace(cache.network_for(spec.blif, &blif_probe));
        if (net->is_ok()) {
            s.ok();
        } else {
            s.failed(net->status().message());
        }
    });
    if (!net->is_ok()) {
        JobOutcome out =
            error_outcome(spec, Status(net->status()).with_context("job " + spec.name),
                          elapsed(), blif_probe, genlib_probe);
        append_stage_times(job_diag, out.stage_times);
        return out;
    }
    std::optional<StatusOr<std::shared_ptr<const Library>>> lib;
    exec.run(StageId::ParseGenlib, [&](StageScope& s) {
        lib.emplace(cache.library_for(spec.genlib, &genlib_probe));
        if (lib->is_ok()) {
            s.ok();
        } else {
            s.failed(lib->status().message());
        }
    });
    if (!lib->is_ok()) {
        JobOutcome out =
            error_outcome(spec, Status(lib->status()).with_context("job " + spec.name),
                          elapsed(), blif_probe, genlib_probe);
        append_stage_times(job_diag, out.stage_times);
        return out;
    }
    const Network& network = *net->value();
    const Library& library = *lib->value();

    crash_set_stage("flow");
    StatusOr<FlowResult> flow = [&]() -> StatusOr<FlowResult> {
        try {
            return run_flow_checked(spec.options.kind, network, library, opts);
        } catch (const std::exception& e) {
            // The checked entry points reserve exceptions for invariant
            // violations (CheckLevel); a serving job folds those into the
            // Status taxonomy rather than unwinding out of the worker.
            return Status(StatusCode::InvariantViolation, e.what());
        }
    }();
    crash_set_stage("result");
    if (!flow.is_ok()) {
        JobOutcome out =
            error_outcome(spec, Status(flow.status()).with_context("job " + spec.name),
                          elapsed(), blif_probe, genlib_probe);
        append_stage_times(job_diag, out.stage_times);
        return out;
    }

    const FlowResult& result = flow.value();
    JobOutcome out;
    out.tier = spec.tier;
    out.blif_cache = blif_probe;
    out.genlib_cache = genlib_probe;
    out.metrics = result.metrics;
    out.state = (spec.tier == JobTier::Degraded || result.diagnostics.degraded())
                    ? JobState::Degraded
                    : JobState::Ok;
    out.status_code = StatusCode::Ok;
    out.elapsed_ms = elapsed();
    out.report_json =
        flow_report_json(Status::ok(), &result.diagnostics, &result.metrics);
    out.mapped_blif = write_blif(result.netlist.to_network(library, spec.name));
    append_stage_times(job_diag, out.stage_times);
    append_stage_times(result.diagnostics, out.stage_times);
    return out;
}

}  // namespace lily
