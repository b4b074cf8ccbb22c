// Serving-layer tests: wire protocol and spool round-trips, the sandboxed
// worker crash matrix, and end-to-end daemon tests (spawned as a real child
// process) at 1 and 8 worker slots — submit/wait, bit-identity against the
// in-process flow, crash->degraded-retry, sticky crash->terminal error,
// load shedding, and mid-job SIGKILL + restart recovery from the spool.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "check/serve_checker.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/job.hpp"
#include "netlist/blif.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/spool.hpp"
#include "serve/worker.hpp"
#include "util/crash.hpp"
#include "util/crc.hpp"
#include "util/subprocess.hpp"

namespace lily {
namespace {

std::string read_file_or_die(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string tiny_genlib() {
    static const std::string text =
        read_file_or_die(std::string(LILY_SOURCE_DIR) + "/lib/msu_tiny.genlib");
    return text;
}

JobSpec small_job(const std::string& fault = "") {
    JobSpec spec;
    spec.name = "alu4";
    spec.blif = write_blif(make_alu(4));
    spec.genlib = tiny_genlib();
    spec.options.kind = FlowKind::Lily;
    spec.fault_spec = fault;
    return spec;
}

// ---- CRC and wire primitives ----------------------------------------------

TEST(ServeWire, Crc32KnownVector) {
    // The canonical CRC-32 check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
}

TEST(ServeWire, WriterReaderRoundTrip) {
    WireWriter w;
    w.u8(0xAB);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.f64(-1234.5);
    w.str("hello \x01 world");
    const std::string bytes = w.take();

    WireReader r(bytes);
    std::uint8_t u8v = 0;
    std::uint16_t u16v = 0;
    std::uint32_t u32v = 0;
    std::uint64_t u64v = 0;
    double f64v = 0.0;
    std::string s;
    EXPECT_TRUE(r.u8(u8v));
    EXPECT_TRUE(r.u16(u16v));
    EXPECT_TRUE(r.u32(u32v));
    EXPECT_TRUE(r.u64(u64v));
    EXPECT_TRUE(r.f64(f64v));
    EXPECT_TRUE(r.str(s));
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(u8v, 0xAB);
    EXPECT_EQ(u16v, 0xBEEF);
    EXPECT_EQ(u32v, 0xDEADBEEFu);
    EXPECT_EQ(u64v, 0x0123456789ABCDEFull);
    EXPECT_EQ(f64v, -1234.5);
    EXPECT_EQ(s, "hello \x01 world");
}

TEST(ServeWire, ReaderRejectsTruncation) {
    WireWriter w;
    w.str("payload");
    std::string bytes = w.take();
    bytes.resize(bytes.size() - 2);
    WireReader r(bytes);
    std::string s;
    EXPECT_FALSE(r.str(s));
    EXPECT_FALSE(r.ok());
}

TEST(ServeFrame, RoundTripIncremental) {
    const std::string frame_bytes = encode_frame(MsgKind::Stats, "the payload");
    // Feed the frame one byte at a time: no premature extraction, no bad.
    std::string buffer;
    Frame out;
    bool bad = false;
    for (std::size_t i = 0; i + 1 < frame_bytes.size(); ++i) {
        buffer.push_back(frame_bytes[i]);
        EXPECT_FALSE(try_extract_frame(buffer, out, &bad));
        EXPECT_FALSE(bad);
    }
    buffer.push_back(frame_bytes.back());
    ASSERT_TRUE(try_extract_frame(buffer, out, &bad));
    EXPECT_FALSE(bad);
    EXPECT_EQ(out.kind, MsgKind::Stats);
    EXPECT_EQ(out.payload, "the payload");
    EXPECT_TRUE(buffer.empty());
}

TEST(ServeFrame, CorruptCrcPoisons) {
    std::string bytes = encode_frame(MsgKind::Stats, "the payload");
    bytes[kHeaderBytes + 2] ^= 0x40;  // flip one payload bit
    Frame out;
    bool bad = false;
    EXPECT_FALSE(try_extract_frame(bytes, out, &bad));
    EXPECT_TRUE(bad);
}

TEST(ServeFrame, BadMagicPoisons) {
    std::string bytes = encode_frame(MsgKind::Health, "");
    bytes[0] = 'X';
    Frame out;
    bool bad = false;
    EXPECT_FALSE(try_extract_frame(bytes, out, &bad));
    EXPECT_TRUE(bad);
}

// ---- Message round-trips --------------------------------------------------

TEST(ServeMessages, JobSpecRoundTrip) {
    JobSpec spec = small_job("serve:segv");
    spec.options.objective = MapObjective::Delay;
    spec.options.check = CheckLevel::Light;
    spec.options.budget_ms = 1234.0;
    spec.options.threads = 3;
    spec.tier = JobTier::Degraded;

    for (const FlowKind kind : {FlowKind::Baseline, FlowKind::Lily, FlowKind::Adaptive}) {
        spec.options.kind = kind;
        const std::string bytes = encode_job_spec(spec);
        WireReader r(bytes);
        JobSpec out;
        ASSERT_TRUE(decode_job_spec(r, out));
        EXPECT_EQ(out.name, spec.name);
        EXPECT_EQ(out.blif, spec.blif);
        EXPECT_EQ(out.genlib, spec.genlib);
        EXPECT_EQ(out.options.kind, kind);
        EXPECT_EQ(out.options.objective, MapObjective::Delay);
        EXPECT_EQ(out.options.check, CheckLevel::Light);
        EXPECT_EQ(out.options.budget_ms, 1234.0);
        EXPECT_EQ(out.options.threads, 3u);
        EXPECT_EQ(out.fault_spec, "serve:segv");
        EXPECT_EQ(out.tier, JobTier::Degraded);
    }
}

TEST(ServeMessages, JobOutcomeRoundTrip) {
    JobOutcome outcome;
    outcome.state = JobState::Degraded;
    outcome.status_code = StatusCode::BudgetExhausted;
    outcome.status_message = "ceiling";
    outcome.retries = 2;
    outcome.tier = JobTier::Degraded;
    outcome.crash_info = "CRASH sig=11";
    outcome.elapsed_ms = 55.25;
    outcome.blif_cache = CacheProbe::Hit;
    outcome.genlib_cache = CacheProbe::Miss;
    outcome.worker_job_seq = 17;
    outcome.stage_times.push_back(StageTime{"parse-blif", 0.125});
    outcome.stage_times.push_back(StageTime{"mapping", 12.5});
    outcome.metrics.gate_count = 42;
    outcome.report_json = "{\"x\":1}";
    outcome.mapped_blif = ".model m\n.end\n";

    const std::string bytes = encode_job_outcome(outcome);
    WireReader r(bytes);
    JobOutcome out;
    ASSERT_TRUE(decode_job_outcome(r, out));
    EXPECT_EQ(out.state, JobState::Degraded);
    EXPECT_EQ(out.status_code, StatusCode::BudgetExhausted);
    EXPECT_EQ(out.status_message, "ceiling");
    EXPECT_EQ(out.retries, 2u);
    EXPECT_EQ(out.crash_info, "CRASH sig=11");
    EXPECT_EQ(out.elapsed_ms, 55.25);
    EXPECT_EQ(out.blif_cache, CacheProbe::Hit);
    EXPECT_EQ(out.genlib_cache, CacheProbe::Miss);
    EXPECT_EQ(out.worker_job_seq, 17u);
    ASSERT_EQ(out.stage_times.size(), 2u);
    EXPECT_EQ(out.stage_times[0].name, "parse-blif");
    EXPECT_EQ(out.stage_times[0].elapsed_ms, 0.125);
    EXPECT_EQ(out.stage_times[1].name, "mapping");
    EXPECT_EQ(out.stage_times[1].elapsed_ms, 12.5);
    EXPECT_EQ(out.metrics.gate_count, 42u);
    EXPECT_EQ(out.report_json, "{\"x\":1}");
    EXPECT_EQ(out.mapped_blif, ".model m\n.end\n");
}

TEST(ServeMessages, OutcomeWithBadCacheProbeRejected) {
    JobOutcome outcome;
    std::string bytes = encode_job_outcome(outcome);
    // The probe bytes sit right after state/status/strings; corrupt via a
    // re-encode with an out-of-range enum instead of byte surgery.
    outcome.blif_cache = static_cast<CacheProbe>(7);
    bytes = encode_job_outcome(outcome);
    WireReader r(bytes);
    JobOutcome out;
    EXPECT_FALSE(decode_job_outcome(r, out));
}

TEST(ServeMessages, MalformedSpecRejected) {
    WireWriter w;
    w.u32(99);  // bad protocol version
    const std::string bytes = w.take();
    WireReader r(bytes);
    JobSpec out;
    EXPECT_FALSE(decode_job_spec(r, out));

    // A flow-kind byte past Adaptive (2). The kind byte is the one where a
    // Baseline and a Lily encoding of the same spec differ.
    JobSpec spec = small_job();
    spec.options.kind = FlowKind::Baseline;
    const std::string baseline = encode_job_spec(spec);
    spec.options.kind = FlowKind::Lily;
    std::string bad_kind = encode_job_spec(spec);
    ASSERT_EQ(baseline.size(), bad_kind.size());
    const std::size_t at = static_cast<std::size_t>(
        std::mismatch(baseline.begin(), baseline.end(), bad_kind.begin()).first -
        baseline.begin());
    ASSERT_LT(at, bad_kind.size());
    bad_kind[at] = 3;
    WireReader bad_reader(bad_kind);
    EXPECT_FALSE(decode_job_spec(bad_reader, out));
}

// ---- Spool ----------------------------------------------------------------

class SpoolTest : public ::testing::Test {
protected:
    void SetUp() override {
        char tmpl[] = "/tmp/lily-spool-XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
    }
    void TearDown() override {
        const std::string cmd = "rm -rf '" + dir_ + "'";
        ASSERT_EQ(std::system(cmd.c_str()), 0);
    }
    std::string dir_;
};

TEST_F(SpoolTest, WriteReadScanRemove) {
    Spool spool(dir_);
    ASSERT_TRUE(spool.ensure_dir().is_ok());

    SpoolEntry entry;
    entry.id = 7;
    entry.state = JobState::Ok;
    entry.retries = 1;
    entry.tier = JobTier::Degraded;
    entry.spec = small_job();
    JobOutcome outcome;
    outcome.state = JobState::Ok;
    outcome.status_code = StatusCode::Ok;
    outcome.mapped_blif = ".model x\n.end\n";
    entry.outcome = outcome;
    ASSERT_TRUE(spool.write(entry).is_ok());

    const StatusOr<SpoolEntry> read_back = spool.read(7);
    ASSERT_TRUE(read_back.is_ok());
    EXPECT_EQ(read_back.value().id, 7u);
    EXPECT_EQ(read_back.value().state, JobState::Ok);
    EXPECT_EQ(read_back.value().retries, 1u);
    EXPECT_EQ(read_back.value().tier, JobTier::Degraded);
    EXPECT_EQ(read_back.value().spec.blif, entry.spec.blif);
    ASSERT_TRUE(read_back.value().outcome.has_value());
    EXPECT_EQ(read_back.value().outcome->mapped_blif, ".model x\n.end\n");

    SpoolEntry second;
    second.id = 3;
    second.state = JobState::Queued;
    second.spec = small_job();
    ASSERT_TRUE(spool.write(second).is_ok());

    const StatusOr<std::vector<SpoolEntry>> scanned = spool.scan();
    ASSERT_TRUE(scanned.is_ok());
    ASSERT_EQ(scanned.value().size(), 2u);
    EXPECT_EQ(scanned.value()[0].id, 3u);  // sorted by id
    EXPECT_EQ(scanned.value()[1].id, 7u);

    ASSERT_TRUE(spool.remove(3).is_ok());
    ASSERT_TRUE(spool.remove(3).is_ok());  // idempotent
    const StatusOr<std::vector<SpoolEntry>> after = spool.scan();
    ASSERT_TRUE(after.is_ok());
    EXPECT_EQ(after.value().size(), 1u);
}

TEST_F(SpoolTest, CorruptRecordSkippedByScanFlaggedByAudit) {
    Spool spool(dir_);
    ASSERT_TRUE(spool.ensure_dir().is_ok());
    SpoolEntry entry;
    entry.id = 1;
    entry.spec = small_job();
    ASSERT_TRUE(spool.write(entry).is_ok());

    // Torn/garbage record alongside it.
    {
        std::ofstream bad(dir_ + "/job-2.spool", std::ios::binary);
        bad << "this is not a spool record";
    }
    const StatusOr<std::vector<SpoolEntry>> scanned = spool.scan();
    ASSERT_TRUE(scanned.is_ok());
    EXPECT_EQ(scanned.value().size(), 1u);  // server still comes up

    const CheckReport report = ServeChecker{}.check_spool(dir_);
    EXPECT_TRUE(report.has_errors());  // ...but the audit flags the damage
}

TEST_F(SpoolTest, AuditFlagsTmpLeftoverAndIdMismatch) {
    Spool spool(dir_);
    ASSERT_TRUE(spool.ensure_dir().is_ok());
    SpoolEntry entry;
    entry.id = 5;
    entry.spec = small_job();
    ASSERT_TRUE(spool.write(entry).is_ok());

    {
        std::ofstream tmp(dir_ + "/job-9.spool.tmp", std::ios::binary);
        tmp << "interrupted";
    }
    CheckReport report = ServeChecker{}.check_spool(dir_);
    EXPECT_FALSE(report.has_errors());
    EXPECT_GE(report.warning_count(), 1u);  // .tmp leftover

    // Rename the valid record so filename and embedded id disagree.
    ASSERT_EQ(std::rename((dir_ + "/job-5.spool").c_str(),
                          (dir_ + "/job-6.spool").c_str()),
              0);
    report = ServeChecker{}.check_spool(dir_);
    EXPECT_TRUE(report.has_errors());
}

TEST_F(SpoolTest, AuditFlagsTerminalWithoutOutcome) {
    Spool spool(dir_);
    ASSERT_TRUE(spool.ensure_dir().is_ok());
    SpoolEntry entry;
    entry.id = 4;
    entry.state = JobState::Error;  // terminal, but no outcome attached
    entry.spec = small_job();
    ASSERT_TRUE(spool.write(entry).is_ok());
    EXPECT_TRUE(ServeChecker{}.check_spool(dir_).has_errors());
}

TEST(SpoolCodec, CrcFlipRejected) {
    SpoolEntry entry;
    entry.id = 11;
    entry.spec = small_job();
    std::string bytes = encode_spool_entry(entry);
    bytes[bytes.size() / 2] ^= 0x10;
    EXPECT_FALSE(decode_spool_entry(bytes).is_ok());
}

// ---- The flow-job shim ----------------------------------------------------

TEST(FlowJob, RunsCleanJob) {
    const JobOutcome outcome = run_flow_job(small_job());
    EXPECT_EQ(outcome.state, JobState::Ok);
    EXPECT_EQ(outcome.status_code, StatusCode::Ok);
    EXPECT_GT(outcome.metrics.gate_count, 0u);
    EXPECT_NE(outcome.mapped_blif.find(".model"), std::string::npos);
    EXPECT_NE(outcome.report_json.find("\"stages\""), std::string::npos);
}

TEST(FlowJob, ParseErrorIsTerminalError) {
    JobSpec spec = small_job();
    spec.blif = ".model broken\n.inputs a\n.outputs z\n.names a a z\n1 1\n.end\n";
    const JobOutcome outcome = run_flow_job(spec);
    EXPECT_EQ(outcome.state, JobState::Error);
    EXPECT_NE(outcome.status_code, StatusCode::Ok);
}

TEST(FlowJob, DegradedTierReportsDegraded) {
    JobSpec spec = small_job();
    spec.tier = JobTier::Degraded;
    const JobOutcome outcome = run_flow_job(spec);
    EXPECT_EQ(outcome.state, JobState::Degraded);
    EXPECT_EQ(outcome.status_code, StatusCode::Ok);
    EXPECT_FALSE(outcome.mapped_blif.empty());
}

// ---- The parsed-artifact cache --------------------------------------------

/// Tests share the process-global cache; each starts from a cleared state
/// and restores the default caps so ordering cannot leak between them.
class ArtifactCacheTest : public ::testing::Test {
protected:
    void SetUp() override {
        ArtifactCache::instance().clear();
        ArtifactCache::instance().set_capacity(64, 64u << 20);
    }
    void TearDown() override {
        ArtifactCache::instance().clear();
        ArtifactCache::instance().set_capacity(64, 64u << 20);
    }
};

TEST_F(ArtifactCacheTest, MissThenHitSharesOneParse) {
    ArtifactCache& cache = ArtifactCache::instance();
    const std::string blif = write_blif(make_alu(4));

    CacheProbe probe = CacheProbe::Skipped;
    const auto first = cache.network_for(blif, &probe);
    ASSERT_TRUE(first.is_ok());
    EXPECT_EQ(probe, CacheProbe::Miss);

    const auto second = cache.network_for(blif, &probe);
    ASSERT_TRUE(second.is_ok());
    EXPECT_EQ(probe, CacheProbe::Hit);
    // Same parse, not an equal re-parse: the shared_ptr is identical.
    EXPECT_EQ(first.value().get(), second.value().get());

    const ArtifactCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.text_bytes, blif.size());
}

TEST_F(ArtifactCacheTest, LibraryAndNetworkKeyedIndependently) {
    ArtifactCache& cache = ArtifactCache::instance();
    CacheProbe probe = CacheProbe::Skipped;
    ASSERT_TRUE(cache.library_for(tiny_genlib(), &probe).is_ok());
    EXPECT_EQ(probe, CacheProbe::Miss);
    ASSERT_TRUE(cache.library_for(tiny_genlib(), &probe).is_ok());
    EXPECT_EQ(probe, CacheProbe::Hit);
    ASSERT_TRUE(cache.network_for(write_blif(make_alu(2)), &probe).is_ok());
    EXPECT_EQ(probe, CacheProbe::Miss);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST_F(ArtifactCacheTest, ParseFailureIsNeverCached) {
    ArtifactCache& cache = ArtifactCache::instance();
    const std::string broken = ".model broken\n.inputs a\n.outputs z\n.names a a z\n1 1\n.end\n";
    CacheProbe probe = CacheProbe::Skipped;
    EXPECT_FALSE(cache.network_for(broken, &probe).is_ok());
    EXPECT_FALSE(cache.network_for(broken, &probe).is_ok());
    // Both probes were misses: the failure must not be served from cache.
    EXPECT_EQ(probe, CacheProbe::Miss);
    const ArtifactCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.entries, 0u);
}

TEST_F(ArtifactCacheTest, EvictionHonorsEntryCapLru) {
    ArtifactCache& cache = ArtifactCache::instance();
    cache.set_capacity(2, 64u << 20);
    const std::string a = write_blif(make_alu(2));
    const std::string b = write_blif(make_alu(3));
    const std::string c = write_blif(make_alu(4));
    ASSERT_TRUE(cache.network_for(a).is_ok());
    ASSERT_TRUE(cache.network_for(b).is_ok());
    ASSERT_TRUE(cache.network_for(a).is_ok());  // refresh a: b is now LRU
    ASSERT_TRUE(cache.network_for(c).is_ok());  // evicts b
    EXPECT_EQ(cache.stats().entries, 2u);

    CacheProbe probe = CacheProbe::Skipped;
    ASSERT_TRUE(cache.network_for(a, &probe).is_ok());
    EXPECT_EQ(probe, CacheProbe::Hit);
    ASSERT_TRUE(cache.network_for(b, &probe).is_ok());
    EXPECT_EQ(probe, CacheProbe::Miss);  // b was the eviction victim
}

TEST_F(ArtifactCacheTest, RepeatedFlowJobsParseOnce) {
    // The satellite contract: repeated run_flow_job calls in one process
    // hit the cache for both artifacts from the second call on.
    const JobSpec spec = small_job();
    const JobOutcome first = run_flow_job(spec);
    EXPECT_EQ(first.blif_cache, CacheProbe::Miss);
    EXPECT_EQ(first.genlib_cache, CacheProbe::Miss);
    const JobOutcome second = run_flow_job(spec);
    EXPECT_EQ(second.blif_cache, CacheProbe::Hit);
    EXPECT_EQ(second.genlib_cache, CacheProbe::Hit);
    // Bit-identity across cold and warm parses.
    EXPECT_EQ(first.mapped_blif, second.mapped_blif);
    EXPECT_EQ(first.report_json.substr(first.report_json.find("\"metrics\":")),
              second.report_json.substr(second.report_json.find("\"metrics\":")));
}

// ---- Sandboxed worker crash matrix (direct fork, no daemon) ---------------

WorkerLimits fast_limits() {
    WorkerLimits limits;
    limits.wall_ms = 20000.0;
    limits.rss_bytes = 1u << 30;
    limits.heartbeat_timeout_ms = 3000.0;
    return limits;
}

TEST(WorkerSandbox, CleanJobCompletes) {
    const WorkerResult result = run_job_sandboxed(small_job(), fast_limits());
    ASSERT_EQ(result.end, WorkerEnd::Completed);
    EXPECT_EQ(result.outcome.state, JobState::Ok);
    EXPECT_FALSE(result.outcome.mapped_blif.empty());
    EXPECT_GT(result.heartbeats, 0u);
}

TEST(WorkerSandbox, SegvIsClassifiedCrash) {
    const WorkerResult result = run_job_sandboxed(small_job("serve:segv"), fast_limits());
    EXPECT_EQ(result.end, WorkerEnd::Crashed);
    // The async-signal-safe crash reporter's line made it across the pipe.
    EXPECT_NE(result.crash_info.find("sig=11"), std::string::npos) << result.crash_info;
    EXPECT_NE(result.crash_info.find("serve:segv"), std::string::npos);
}

TEST(WorkerSandbox, AbortIsClassifiedCrash) {
    const WorkerResult result = run_job_sandboxed(small_job("serve:abort"), fast_limits());
    EXPECT_EQ(result.end, WorkerEnd::Crashed);
    EXPECT_NE(result.crash_info.find("sig=6"), std::string::npos) << result.crash_info;
}

TEST(WorkerSandbox, OomHitsRssCeiling) {
    WorkerLimits limits = fast_limits();
    limits.rss_bytes = 64u << 20;
    const WorkerResult result = run_job_sandboxed(small_job("serve:oom"), limits);
    EXPECT_EQ(result.end, WorkerEnd::RssKilled);
    EXPECT_GT(result.peak_rss_bytes, limits.rss_bytes);
}

TEST(WorkerSandbox, HangHitsWallCeiling) {
    WorkerLimits limits = fast_limits();
    limits.wall_ms = 600.0;
    const WorkerResult result = run_job_sandboxed(small_job("serve:hang"), limits);
    EXPECT_EQ(result.end, WorkerEnd::WallKilled);
    EXPECT_GT(result.heartbeats, 0u);  // it was beating, just never finishing
}

TEST(WorkerSandbox, WedgeHitsHeartbeatCeiling) {
    WorkerLimits limits = fast_limits();
    limits.heartbeat_timeout_ms = 400.0;
    const WorkerResult result = run_job_sandboxed(small_job("serve:wedge"), limits);
    EXPECT_EQ(result.end, WorkerEnd::HeartbeatKilled);
}

TEST(WorkerSandbox, PlainFaultSkippedAtDegradedTier) {
    JobSpec spec = small_job("serve:segv");
    spec.tier = JobTier::Degraded;  // plain faults fire only at Full
    const WorkerResult result = run_job_sandboxed(spec, fast_limits());
    ASSERT_EQ(result.end, WorkerEnd::Completed);
    EXPECT_EQ(result.outcome.state, JobState::Degraded);
}

TEST(WorkerSandbox, StickyFaultFiresAtEveryTier) {
    JobSpec spec = small_job("serve:segv-sticky");
    spec.tier = JobTier::Degraded;
    const WorkerResult result = run_job_sandboxed(spec, fast_limits());
    EXPECT_EQ(result.end, WorkerEnd::Crashed);
}

/// Poll until the worker surfaces a completed job; dies loudly on timeout.
WorkerResult await_job(WorkerProcess& worker) {
    for (int i = 0; i < 4000; ++i) {
        worker.poll();
        if (worker.has_job_result()) return worker.take_job_result();
        if (worker.done()) {
            ADD_FAILURE() << "worker died: " << worker.result().crash_info;
            return worker.result();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "timed out waiting for job result";
    return WorkerResult{};
}

TEST(WorkerSandbox, WarmWorkerServesManyJobsFromItsCache) {
    WorkerProcess worker;
    ASSERT_TRUE(worker.start(fast_limits()).is_ok());
    const JobSpec spec = small_job();

    ASSERT_TRUE(worker.dispatch(spec).is_ok());
    const WorkerResult first = await_job(worker);
    ASSERT_EQ(first.end, WorkerEnd::Completed);
    EXPECT_EQ(first.outcome.worker_job_seq, 1u);
    // A fresh fork has an empty cache: both artifacts parsed.
    EXPECT_EQ(first.outcome.blif_cache, CacheProbe::Miss);
    EXPECT_EQ(first.outcome.genlib_cache, CacheProbe::Miss);
    EXPECT_GT(first.heartbeats, 0u);

    // Same worker, same bytes: the process-local cache serves both parses.
    ASSERT_TRUE(worker.idle());
    ASSERT_TRUE(worker.dispatch(spec).is_ok());
    const WorkerResult second = await_job(worker);
    ASSERT_EQ(second.end, WorkerEnd::Completed);
    EXPECT_EQ(second.outcome.worker_job_seq, 2u);
    EXPECT_EQ(second.outcome.blif_cache, CacheProbe::Hit);
    EXPECT_EQ(second.outcome.genlib_cache, CacheProbe::Hit);
    EXPECT_EQ(worker.jobs_completed(), 2u);
    // Warm or cold, the served bytes are identical.
    EXPECT_EQ(first.outcome.mapped_blif, second.outcome.mapped_blif);

    // Retirement: closing the dispatch pipe drains the worker to a clean
    // exit, classified Retired (not Crashed), and it stops being idle.
    worker.retire();
    EXPECT_FALSE(worker.idle());
    for (int i = 0; i < 4000 && !worker.done(); ++i) {
        worker.poll();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(worker.done());
    EXPECT_EQ(worker.result().end, WorkerEnd::Retired);
}

TEST(WorkerSandbox, CrashedWarmWorkerReportsMidStreamJob) {
    // A crash on job N of a warm worker must be classified against that
    // job, not swallowed by earlier successes.
    WorkerProcess worker;
    ASSERT_TRUE(worker.start(fast_limits()).is_ok());
    ASSERT_TRUE(worker.dispatch(small_job()).is_ok());
    const WorkerResult ok = await_job(worker);
    ASSERT_EQ(ok.end, WorkerEnd::Completed);

    ASSERT_TRUE(worker.dispatch(small_job("serve:segv")).is_ok());
    for (int i = 0; i < 4000 && !worker.done(); ++i) {
        worker.poll();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(worker.done());
    EXPECT_EQ(worker.result().end, WorkerEnd::Crashed);
    EXPECT_NE(worker.result().crash_info.find("sig=11"), std::string::npos)
        << worker.result().crash_info;
}

// ---- End-to-end daemon tests ----------------------------------------------

/// Spawns the real lily_serve binary against a fresh spool + socket. The
/// test talks to it through ServeClient exactly like production clients.
class ServeDaemonBase : public ::testing::Test {
protected:
    void SetUp() override {
        char tmpl[] = "/tmp/lily-serve-XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        socket_ = dir_ + "/serve.sock";
        spool_ = dir_ + "/spool";
    }

    void TearDown() override {
        if (server_pid_ > 0) stop_process(server_pid_, 500.0);
        const std::string cmd = "rm -rf '" + dir_ + "'";
        ASSERT_EQ(std::system(cmd.c_str()), 0);
    }

    void start_server_n(int workers, const std::vector<std::string>& extra = {}) {
        std::vector<std::string> argv = {LILY_SERVE_BIN,
                                         "--socket=" + socket_,
                                         "--spool=" + spool_,
                                         "--workers=" + std::to_string(workers),
                                         "--backoff-ms=10"};
        argv.insert(argv.end(), extra.begin(), extra.end());
        StatusOr<pid_t> spawned = spawn_process(argv, dir_ + "/server.log");
        ASSERT_TRUE(spawned.is_ok()) << spawned.status().to_string();
        server_pid_ = spawned.value();
        wait_until_up();
    }

    void wait_until_up() {
        ServeClient probe(socket_);
        for (int i = 0; i < 200; ++i) {
            if (probe.health().is_ok()) return;
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
        FAIL() << "server did not come up; log:\n" << read_file_or_die(dir_ + "/server.log");
    }

    void stop_server() {
        if (server_pid_ <= 0) return;
        const ExitStatus ended = stop_process(server_pid_, 2000.0);
        server_pid_ = -1;
        EXPECT_EQ(ended.kind, ExitKind::Exited) << ended.to_string();
    }

    /// Open fds of the server process (via /proc): the leak detector.
    int server_fd_count() const {
        const std::string path = "/proc/" + std::to_string(server_pid_) + "/fd";
        DIR* dir = ::opendir(path.c_str());
        if (dir == nullptr) return -1;
        int count = 0;
        while (dirent* entry = ::readdir(dir)) {
            if (std::strcmp(entry->d_name, ".") != 0 && std::strcmp(entry->d_name, "..") != 0) {
                ++count;
            }
        }
        ::closedir(dir);
        return count;
    }

    std::string dir_, socket_, spool_;
    pid_t server_pid_ = -1;
};

class ServeDaemonTest : public ServeDaemonBase, public ::testing::WithParamInterface<int> {
protected:
    void start_server(const std::vector<std::string>& extra = {}) {
        start_server_n(GetParam(), extra);
    }
};

TEST_P(ServeDaemonTest, MapMatchesInProcessBitForBit) {
    start_server();
    ServeClient client(socket_);
    const JobSpec spec = small_job();
    const StatusOr<JobOutcome> served = client.map(spec);
    ASSERT_TRUE(served.is_ok()) << served.status().to_string();
    EXPECT_EQ(served.value().state, JobState::Ok);

    const JobOutcome direct = run_flow_job(spec);
    EXPECT_EQ(served.value().mapped_blif, direct.mapped_blif);
    EXPECT_EQ(served.value().metrics.gate_count, direct.metrics.gate_count);
    EXPECT_EQ(served.value().metrics.cell_area, direct.metrics.cell_area);
    EXPECT_EQ(served.value().metrics.chip_area, direct.metrics.chip_area);
    EXPECT_EQ(served.value().metrics.wirelength, direct.metrics.wirelength);
    EXPECT_EQ(served.value().metrics.critical_delay, direct.metrics.critical_delay);
    // The full report embeds per-stage wall-clock timings, which legitimately
    // differ run to run; the metrics block must match exactly.
    const auto metrics_block = [](const std::string& report) {
        const std::size_t at = report.find("\"metrics\":");
        return at == std::string::npos ? std::string() : report.substr(at);
    };
    EXPECT_EQ(metrics_block(served.value().report_json),
              metrics_block(direct.report_json));
    EXPECT_FALSE(metrics_block(direct.report_json).empty());
}

TEST_P(ServeDaemonTest, CrashRetriesDegraded) {
    start_server();
    ServeClient client(socket_);
    const StatusOr<JobOutcome> outcome = client.map(small_job("serve:segv"));
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    EXPECT_EQ(outcome.value().state, JobState::Degraded);
    EXPECT_EQ(outcome.value().retries, 1u);
    EXPECT_EQ(outcome.value().tier, JobTier::Degraded);
    EXPECT_FALSE(outcome.value().mapped_blif.empty());
}

TEST_P(ServeDaemonTest, StickyCrashIsTerminalError) {
    start_server();
    ServeClient client(socket_);
    const StatusOr<JobOutcome> outcome = client.map(small_job("serve:abort-sticky"));
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    EXPECT_EQ(outcome.value().state, JobState::Error);
    EXPECT_EQ(outcome.value().retries, 1u);
    EXPECT_FALSE(outcome.value().crash_info.empty());

    // The server survived both crashes: it still answers health.
    const StatusOr<HealthReply> health = client.health();
    ASSERT_TRUE(health.is_ok());
    EXPECT_TRUE(health.value().ok);
}

TEST_P(ServeDaemonTest, RssCeilingKillsOomJob) {
    start_server({"--rss-mb=64"});
    ServeClient client(socket_);
    const StatusOr<JobOutcome> outcome = client.map(small_job("serve:oom-sticky"));
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    EXPECT_EQ(outcome.value().state, JobState::Error);
    EXPECT_EQ(outcome.value().status_code, StatusCode::BudgetExhausted);
}

TEST_P(ServeDaemonTest, WallCeilingKillsHangJob) {
    start_server({"--wall-ms=700"});
    ServeClient client(socket_);
    const StatusOr<JobOutcome> outcome = client.map(small_job("serve:hang-sticky"));
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    EXPECT_EQ(outcome.value().state, JobState::Error);
    EXPECT_EQ(outcome.value().status_code, StatusCode::BudgetExhausted);
}

TEST_P(ServeDaemonTest, QueueOverfillShedsNotHangs) {
    start_server({"--queue-cap=2", "--wall-ms=15000"});
    ServeClient client(socket_);

    // Occupy every worker with hang jobs, then fill the queue, then overfill.
    const JobSpec hog = small_job("serve:hang-sticky");
    const int workers = GetParam();
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < workers; ++i) {
        const StatusOr<SubmitReply> reply = client.submit(hog);
        ASSERT_TRUE(reply.is_ok());
        ASSERT_TRUE(reply.value().accepted);
        ids.push_back(reply.value().job_id);
    }
    // Wait until all workers are actually busy so the queue stays full.
    for (int i = 0; i < 200; ++i) {
        const StatusOr<HealthReply> health = client.health();
        ASSERT_TRUE(health.is_ok());
        if (health.value().workers_busy == static_cast<std::uint32_t>(workers)) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    for (int i = 0; i < 2; ++i) {
        const StatusOr<SubmitReply> reply = client.submit(hog);
        ASSERT_TRUE(reply.is_ok());
        ASSERT_TRUE(reply.value().accepted) << "queue slot " << i;
    }
    const StatusOr<SubmitReply> shed = client.submit(hog);
    ASSERT_TRUE(shed.is_ok());
    EXPECT_FALSE(shed.value().accepted);
    EXPECT_GT(shed.value().retry_after_ms, 0u);

    const StatusOr<std::string> stats = client.stats();
    ASSERT_TRUE(stats.is_ok());
    EXPECT_NE(stats.value().find("\"shed\":1"), std::string::npos) << stats.value();
}

TEST_P(ServeDaemonTest, SigtermMidJobRecoversFromSpool) {
    start_server({"--wall-ms=2000"});
    std::vector<std::uint64_t> ids;
    {
        ServeClient client(socket_);
        // Plain serve:hang: wall-killed at Full tier, completes at the
        // degraded retry — so recovery has real work to finish.
        const JobSpec spec = small_job("serve:hang");
        for (int i = 0; i < 3; ++i) {
            const StatusOr<SubmitReply> reply = client.submit(spec);
            ASSERT_TRUE(reply.is_ok());
            ASSERT_TRUE(reply.value().accepted);
            ids.push_back(reply.value().job_id);
        }
        // Let at least one job reach a worker, then kill the server dead
        // (SIGKILL: no graceful path, the spool is all that survives).
        for (int i = 0; i < 200; ++i) {
            const StatusOr<HealthReply> health = client.health();
            ASSERT_TRUE(health.is_ok());
            if (health.value().workers_busy > 0) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
    ::kill(server_pid_, SIGKILL);
    wait_exit(server_pid_);
    server_pid_ = -1;

    start_server({"--wall-ms=2000"});
    ServeClient client(socket_);
    for (const std::uint64_t id : ids) {
        ResultReply last;
        for (int i = 0; i < 60; ++i) {
            const StatusOr<ResultReply> reply = client.wait(id, 1000);
            ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
            last = reply.value();
            if (last.terminal) break;
        }
        ASSERT_TRUE(last.found) << "job " << id << " lost across restart";
        ASSERT_TRUE(last.terminal) << "job " << id << " never finished";
        // Every accepted job ends in a verdict; none may be Error (the
        // degraded rung absorbs the plain hang fault).
        EXPECT_NE(last.outcome.state, JobState::Error)
            << "job " << id << ": " << last.outcome.status_message;
    }
    // recovered_from_spool is the stats document's final key: ":0}" would
    // mean the restarted server recovered nothing.
    const StatusOr<std::string> stats = client.stats();
    ASSERT_TRUE(stats.is_ok());
    EXPECT_EQ(stats.value().find("\"recovered_from_spool\":0}"), std::string::npos)
        << stats.value();

    // The journal survived the whole ordeal in a consistent state.
    EXPECT_FALSE(ServeChecker{}.check_spool(spool_).has_errors());
}

TEST_P(ServeDaemonTest, HealthReportsShape) {
    start_server();
    ServeClient client(socket_);
    const StatusOr<HealthReply> health = client.health();
    ASSERT_TRUE(health.is_ok());
    EXPECT_TRUE(health.value().ok);
    EXPECT_EQ(health.value().workers_total, static_cast<std::uint32_t>(GetParam()));
    EXPECT_EQ(health.value().workers_busy, 0u);
    EXPECT_EQ(health.value().queue_depth, 0u);
    EXPECT_GT(health.value().queue_capacity, 0u);
}

TEST_P(ServeDaemonTest, DrainShutdownFinishesQueuedJobs) {
    start_server();
    ServeClient client(socket_);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
        const StatusOr<SubmitReply> reply = client.submit(small_job());
        ASSERT_TRUE(reply.is_ok());
        ASSERT_TRUE(reply.value().accepted);
        ids.push_back(reply.value().job_id);
    }
    ASSERT_TRUE(client.shutdown(/*drain=*/true).is_ok());
    const ExitStatus ended = wait_exit(server_pid_);
    server_pid_ = -1;
    EXPECT_EQ(ended.kind, ExitKind::Exited);
    EXPECT_EQ(ended.code, 0);

    // All three jobs reached a terminal state in the spool before exit.
    Spool spool(spool_);
    for (const std::uint64_t id : ids) {
        const StatusOr<SpoolEntry> entry = spool.read(id);
        ASSERT_TRUE(entry.is_ok()) << "job " << id << " missing from spool";
        EXPECT_TRUE(job_state_terminal(entry.value().state));
    }
    EXPECT_FALSE(ServeChecker{}.check_spool(spool_).has_errors());
}

// ---- Warm-pool daemon behavior (exact counters need exactly one worker) ---

TEST_F(ServeDaemonBase, CacheCountersExactAndRecycleAfterN) {
    start_server_n(1, {"--recycle-after=2", "--verbose"});
    ServeClient client(socket_);
    const JobSpec spec = small_job();

    // Five identical sequential jobs on one slot recycled every 2 jobs:
    // workers serve (miss,miss)(hit,hit) | (miss,miss)(hit,hit) | (miss,miss)
    // and every worker job number stays <= the recycle threshold.
    const CacheProbe expect_blif[5] = {CacheProbe::Miss, CacheProbe::Hit, CacheProbe::Miss,
                                       CacheProbe::Hit, CacheProbe::Miss};
    std::string first_mapped;
    for (int i = 0; i < 5; ++i) {
        const StatusOr<JobOutcome> outcome = client.map(spec);
        ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
        ASSERT_EQ(outcome.value().state, JobState::Ok) << "job " << i;
        EXPECT_EQ(outcome.value().blif_cache, expect_blif[i]) << "job " << i;
        EXPECT_EQ(outcome.value().genlib_cache, expect_blif[i]) << "job " << i;
        EXPECT_EQ(outcome.value().worker_job_seq, static_cast<std::uint32_t>(i % 2 + 1));
        if (i == 0) {
            first_mapped = outcome.value().mapped_blif;
        } else {
            EXPECT_EQ(outcome.value().mapped_blif, first_mapped) << "job " << i;
        }
    }

    const StatusOr<HealthReply> health = client.health();
    ASSERT_TRUE(health.is_ok());
    EXPECT_EQ(health.value().cache_hits, 4u);
    EXPECT_EQ(health.value().cache_misses, 6u);
    EXPECT_EQ(health.value().workers_recycled, 2u);
    // Planned retirements are not crashes: nothing was "respawned".
    EXPECT_EQ(health.value().workers_respawned, 0u)
        << read_file_or_die(dir_ + "/server.log");
}

TEST_F(ServeDaemonBase, ColdPoolParsesEveryJob) {
    // A cold pool is a warm one that retires each worker after one job.
    start_server_n(1, {"--recycle-after=1"});
    ServeClient client(socket_);
    const JobSpec spec = small_job();
    std::string first_mapped;
    for (int i = 0; i < 2; ++i) {
        const StatusOr<JobOutcome> outcome = client.map(spec);
        ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
        ASSERT_EQ(outcome.value().state, JobState::Ok);
        // Every job lands on a fresh fork: always a double miss, job seq 1.
        EXPECT_EQ(outcome.value().blif_cache, CacheProbe::Miss);
        EXPECT_EQ(outcome.value().genlib_cache, CacheProbe::Miss);
        EXPECT_EQ(outcome.value().worker_job_seq, 1u);
        if (i == 0) {
            first_mapped = outcome.value().mapped_blif;
        } else {
            EXPECT_EQ(outcome.value().mapped_blif, first_mapped);
        }
    }
    const StatusOr<HealthReply> health = client.health();
    ASSERT_TRUE(health.is_ok());
    EXPECT_EQ(health.value().cache_hits, 0u);
    EXPECT_EQ(health.value().cache_misses, 4u);
    EXPECT_EQ(health.value().workers_recycled, 2u);
}

TEST_F(ServeDaemonBase, CrashRespawnCyclesLeakNoFdsOrSpoolRecords) {
    start_server_n(1);
    ServeClient client(socket_);

    // Settle: one clean job warms the pool, then measure the fd baseline
    // (one client connection held open throughout).
    ASSERT_TRUE(client.map(small_job()).is_ok());
    const int baseline = server_fd_count();
    ASSERT_GT(baseline, 0);

    // Each sticky crash burns the full tier and the degraded retry: two
    // worker deaths + respawns per job, exercising pipe setup/teardown.
    for (int i = 0; i < 3; ++i) {
        const StatusOr<JobOutcome> outcome = client.map(small_job("serve:segv-sticky"));
        ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
        EXPECT_EQ(outcome.value().state, JobState::Error);
    }
    // A clean job still works on the respawned worker.
    const StatusOr<JobOutcome> after = client.map(small_job());
    ASSERT_TRUE(after.is_ok());
    EXPECT_EQ(after.value().state, JobState::Ok);

    // Give ensure_workers a tick to finish any in-flight respawn, then the
    // fd table must be back at the baseline: pipes don't leak.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(server_fd_count(), baseline);

    const StatusOr<HealthReply> health = client.health();
    ASSERT_TRUE(health.is_ok());
    EXPECT_GE(health.value().workers_respawned, 6u);

    // Every crash-retry transition was journaled without damage.
    EXPECT_FALSE(ServeChecker{}.check_spool(spool_).has_errors());
}

INSTANTIATE_TEST_SUITE_P(WorkerSlots, ServeDaemonTest, ::testing::Values(1, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return "workers" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace lily
