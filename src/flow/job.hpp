// The serving layer's unit of work: a self-contained mapping job (BLIF
// text + genlib text + a serializable subset of FlowOptions) and its
// terminal outcome. run_flow_job is the job-entry shim over the checked
// flow entry points — it is what a warm pooled worker executes per
// dispatched job, and what the bench harness runs in-process to prove
// served results are bit-identical to direct invocation.
//
// Repeated jobs in one process parse through the ArtifactCache below: the
// second job over the same genlib/BLIF text skips the parse entirely and
// goes straight into the flow. The cache only ever hands out parsed forms
// of byte-identical text (hash key + stored-text equality check), so a hit
// cannot change any downstream result — bit-identity to a cold parse is
// structural, not probabilistic.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "flow/flow.hpp"

namespace lily {

/// Effort tier. A job crashed or killed at Full is retried once at
/// Degraded, which applies the RecoveryPolicy's final rung up front
/// (wire-blind mapping weight, baseline fallback armed) so the retry takes
/// the cheapest viable path through the flow.
enum class JobTier : std::uint8_t { Full = 0, Degraded = 1 };

const char* to_string(JobTier tier);

/// The wire/spool-serializable subset of FlowOptions. Everything not listed
/// here keeps its FlowOptions default inside the worker.
struct JobFlowOptions {
    FlowKind kind = FlowKind::Lily;
    MapObjective objective = MapObjective::Area;
    CheckLevel check = CheckLevel::Off;
    VerifyLevel verify = VerifyLevel::Off;
    double budget_ms = 0.0;  // whole-flow wall budget; 0 = unlimited
    std::uint32_t threads = 1;  // worker-side LILY_THREADS; deterministic per PR 3
};

struct JobSpec {
    std::string name;     // client-chosen label, for logs and spool audit
    std::string blif;     // circuit text (not a path: workers are sandboxed)
    std::string genlib;   // library text
    JobFlowOptions options;
    /// Fault spec installed in the worker before the flow runs (chaos
    /// harness / tests). Empty = no injection.
    std::string fault_spec;
    JobTier tier = JobTier::Full;
};

/// Job lifecycle. Queued/Running live in the server and its spool journal;
/// Ok/Degraded/Error are the terminal verdicts clients receive.
enum class JobState : std::uint8_t {
    Queued = 0,
    Running = 1,
    Ok = 2,
    Degraded = 3,
    Error = 4,
};

const char* to_string(JobState state);

inline bool job_state_terminal(JobState s) {
    return s == JobState::Ok || s == JobState::Degraded || s == JobState::Error;
}

/// What the ArtifactCache did for one parsed input of one job. Skipped
/// means the lookup never ran because an earlier parse error ended the job
/// — it must not count as a miss in serving stats.
enum class CacheProbe : std::uint8_t { Skipped = 0, Miss = 1, Hit = 2 };

const char* to_string(CacheProbe probe);

/// One executed stage's wall time, as stamped by the StageExecutor. The
/// job's own parse stages come first (from the job context), then the
/// selected flow's stages in execution order. The server aggregates these
/// into per-stage latency percentiles (Stats "stage_timings").
struct StageTime {
    std::string name;
    double elapsed_ms = 0.0;
};

/// Terminal result of one job execution. `report_json` is the shared
/// machine-readable report (flow/report.hpp) the CLI's --json mode also
/// emits; `mapped_blif` is the mapped netlist serialized through
/// write_blif(to_network()), the artifact the bit-identity gate compares.
struct JobOutcome {
    JobState state = JobState::Error;
    StatusCode status_code = StatusCode::Internal;
    std::string status_message;
    std::uint32_t retries = 0;      // filled by the server, not the worker
    JobTier tier = JobTier::Full;   // tier the terminal attempt ran at
    std::string crash_info;         // supervisor/crash-reporter note, if any
    double elapsed_ms = 0.0;
    /// Artifact-cache diagnostics for this attempt: the supervisor folds
    /// these into its exact hit/miss counters (Health/Stats).
    CacheProbe blif_cache = CacheProbe::Skipped;
    CacheProbe genlib_cache = CacheProbe::Skipped;
    /// 1-based job index on the worker that ran the attempt (0 = not run
    /// by a pooled worker). Lets tests prove recycle-after-N really caps
    /// worker lifetimes.
    std::uint32_t worker_job_seq = 0;
    /// Per-stage wall times for every stage this attempt executed (parse
    /// stages included, NotRun stages omitted). Timing telemetry only:
    /// deliberately kept out of report_json, whose bytes are pinned by the
    /// bit-identity gate.
    std::vector<StageTime> stage_times;
    FlowMetrics metrics;
    std::string report_json;
    std::string mapped_blif;
};

/// Process-local cache of parsed artifacts, shared by every run_flow_job
/// call in this process. Warm pooled workers are the hot customer: a
/// steady-state job over a seen design/library pair skips both parses.
///
/// Keying: FNV-1a 64 of the full text, with the stored text kept alongside
/// and compared on every hit. A hash collision therefore degrades to a
/// miss instead of silently serving the wrong parse — required for the
/// serving layer's bit-identity guarantee. Entries are immutable
/// (shared_ptr<const T>); invalidation is LRU eviction under the
/// entry/byte caps plus whole-process recycling (the pool retires workers
/// after N jobs). Parse *failures* are never cached: errors stay loud and
/// re-diagnosed. Thread-safe; lookups outside the lock share no state.
class ArtifactCache {
public:
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::size_t entries = 0;     // live parsed artifacts (both kinds)
        std::size_t text_bytes = 0;  // retained source text, for the byte cap
    };

    /// The process-wide instance.
    static ArtifactCache& instance();

    ArtifactCache() = default;
    ArtifactCache(const ArtifactCache&) = delete;
    ArtifactCache& operator=(const ArtifactCache&) = delete;

    /// Parse-or-reuse. The returned object is shared and immutable; it
    /// stays valid after eviction for as long as the caller holds it.
    StatusOr<std::shared_ptr<const Network>> network_for(std::string_view blif_text,
                                                         CacheProbe* probe = nullptr);
    StatusOr<std::shared_ptr<const Library>> library_for(std::string_view genlib_text,
                                                         CacheProbe* probe = nullptr);

    Stats stats() const;
    void clear();  // drop entries and zero counters (tests)
    /// Bound memory: max parsed entries and max retained text bytes
    /// (each kind counted together). Defaults: 64 entries, 64 MB.
    void set_capacity(std::size_t max_entries, std::size_t max_text_bytes);

private:
    struct Entry {
        std::string text;  // exact source bytes: collision guard + byte cap
        std::shared_ptr<const Network> network;  // one of these two is set
        std::shared_ptr<const Library> library;
        std::uint64_t stamp = 0;  // LRU clock; larger = more recent
    };

    /// Hit, or parse `text` and insert the result under `slot`.
    template <typename T, typename Parse>
    StatusOr<std::shared_ptr<const T>> lookup_or_parse(std::shared_ptr<const T> Entry::*slot,
                                                       std::string_view text,
                                                       CacheProbe* probe, Parse parse);
    void touch(Entry& entry);
    void evict_over_caps();

    mutable std::mutex mu_;
    std::unordered_multimap<std::uint64_t, Entry> entries_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::size_t text_bytes_ = 0;
    std::size_t max_entries_ = 64;
    std::size_t max_text_bytes_ = 64u << 20;
};

/// Execute a job in the current process: parse the embedded circuit and
/// library through the ArtifactCache (second job over the same text skips
/// the parse), apply the options (a Degraded tier applies the recovery
/// ladder's final rung), run the selected checked flow, and fold the result
/// into a terminal JobOutcome. Never throws: parse failures and flow errors
/// come back as state=Error with the Status taxonomy preserved.
JobOutcome run_flow_job(const JobSpec& spec);

}  // namespace lily
