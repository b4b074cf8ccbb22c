// Per-stage resource budgets for the fault-tolerant flow engine.
//
// A StageBudget combines a wall-clock deadline with an iteration cap. The
// iterative kernels (conjugate gradient, recursive partitioning, the Lily
// cone DP, rip-up-and-reroute) poll their budget and, on exhaustion, stop
// refining and hand back their best-effort state instead of running
// unbounded — the flow records the degradation in FlowDiagnostics. A
// default-constructed budget is unlimited, and a null budget pointer means
// "no budget", so unbudgeted callers pay nothing and behave bit-identically
// to the pre-budget code.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>

namespace lily {

class StageBudget {
public:
    // Deadlines MUST come from a monotonic clock: a wall-clock step (NTP
    // slew, suspend/resume) must neither spuriously expire a job budget nor
    // extend it. Every flow-stage timer derives from this alias, and the
    // static_assert keeps a future edit from silently switching to
    // system_clock.
    using Clock = std::chrono::steady_clock;
    static_assert(Clock::is_steady, "StageBudget deadlines require a monotonic clock");

    /// Unlimited budget (never exhausts).
    StageBudget() = default;

    /// `ms <= 0` or `iters == 0` leaves that dimension unlimited.
    explicit StageBudget(double ms, std::size_t iters = 0);

    // Copyable despite the atomic tick counter (budgets are passed by value
    // through option structs); a copy starts from the source's current
    // consumption. Copying a budget that other threads are actively ticking
    // is not meaningful and not supported.
    StageBudget(const StageBudget& other)
        : start_(other.start_),
          deadline_(other.deadline_),
          has_deadline_(other.has_deadline_),
          max_ticks_(other.max_ticks_),
          used_(other.used_.load(std::memory_order_relaxed)) {}
    StageBudget& operator=(const StageBudget& other) {
        start_ = other.start_;
        deadline_ = other.deadline_;
        has_deadline_ = other.has_deadline_;
        max_ticks_ = other.max_ticks_;
        used_.store(other.used_.load(std::memory_order_relaxed), std::memory_order_relaxed);
        return *this;
    }

    static StageBudget deadline_ms(double ms) { return StageBudget(ms); }
    static StageBudget iterations(std::size_t n) { return StageBudget(0.0, n); }

    bool limited() const { return has_deadline_ || max_ticks_ != 0; }

    /// Thread-safe: polled concurrently by worker threads inside the CG
    /// solver and the partitioner (relaxed atomic reads; the deadline check
    /// only touches immutable state and the clock).
    bool exhausted() const;

    /// Consume `n` iterations; returns true while the budget still has
    /// headroom (i.e. the caller may run another iteration). Thread-safe:
    /// concurrent ticks never lose counts (relaxed fetch-add) — each caller
    /// sees the budget as exhausted once the combined consumption crosses
    /// the cap.
    bool tick(std::size_t n = 1);

    double elapsed_ms() const;
    /// Remaining wall-clock in ms; a large positive number when unlimited.
    double remaining_ms() const;
    std::size_t ticks_used() const { return used_.load(std::memory_order_relaxed); }

    /// "deadline 250.0ms (elapsed 31.2ms), 12/100 iterations" — for notes.
    std::string describe() const;

private:
    Clock::time_point start_ = Clock::now();
    Clock::time_point deadline_{};
    bool has_deadline_ = false;
    std::size_t max_ticks_ = 0;  // 0 = unlimited
    std::atomic<std::size_t> used_{0};
};

/// Whole-flow wall-clock budget from the LILY_BUDGET_MS environment
/// variable (unset, empty or unparsable -> 0, meaning unlimited). Read on
/// every call so tests and tools can adjust it.
double budget_ms_from_env();

}  // namespace lily
