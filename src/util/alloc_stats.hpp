// Process-wide heap-allocation counters, read by the trace sink to stamp
// per-span allocation deltas into the trace.
//
// alloc_stats.cpp replaces the global operator new/delete family with thin
// wrappers that bump two relaxed atomics before deferring to malloc/free.
// The counters are monotone, so a span's footprint is a snapshot
// difference: TraceSink snapshots at begin_span and stamps (end - begin) as
// the span's `alloc_count` / `alloc_bytes` trace counters. That delta
// is exactly what the perf_opt acceptance gate watches — a warmed hot stage
// (mapping DP, CG placement) must show O(1) allocations per flow, proving
// the scratch pools and CSR views actually removed the churn.
//
// Counting uses relaxed ordering: per-stage deltas only need to be
// monotone and complete, not ordered against other memory traffic, and the
// stages that read them are single-threaded at the snapshot points.
// Sanitizer builds keep working — ASan interposes at the malloc layer
// below these wrappers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lily {

struct AllocStats {
    std::uint64_t count = 0;  // operator new calls since process start
    std::uint64_t bytes = 0;  // bytes requested since process start
};

/// Monotone snapshot of the process's heap-allocation counters. All zeros
/// when the replaced operators were not linked in (never the case for the
/// flow binaries, which link lily_util).
AllocStats alloc_stats_snapshot();

/// Peak resident-set size (VmHWM high-water mark) in bytes; monotone over
/// the process lifetime (0 when /proc is unavailable).
std::size_t peak_rss_bytes();

}  // namespace lily
