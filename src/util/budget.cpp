#include "util/budget.hpp"

#include <cstdlib>

#include "util/text.hpp"

namespace lily {

namespace {

double ms_between(StageBudget::Clock::time_point from, StageBudget::Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

StageBudget::StageBudget(double ms, std::size_t iters) : max_ticks_(iters) {
    if (ms > 0.0) {
        has_deadline_ = true;
        deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(ms));
    }
}

bool StageBudget::exhausted() const {
    if (has_deadline_ && Clock::now() >= deadline_) return true;
    return max_ticks_ != 0 && used_.load(std::memory_order_relaxed) >= max_ticks_;
}

bool StageBudget::tick(std::size_t n) {
    used_.fetch_add(n, std::memory_order_relaxed);
    return !exhausted();
}

double StageBudget::elapsed_ms() const { return ms_between(start_, Clock::now()); }

double StageBudget::remaining_ms() const {
    if (!has_deadline_) return 1e18;
    return ms_between(Clock::now(), deadline_);
}

std::string StageBudget::describe() const {
    if (!limited()) return "unlimited";
    std::string s;
    if (has_deadline_) {
        s += "deadline " + format_fixed(ms_between(start_, deadline_), 1) + "ms (elapsed " +
             format_fixed(elapsed_ms(), 1) + "ms)";
    }
    if (max_ticks_ != 0) {
        if (!s.empty()) s += ", ";
        s += std::to_string(ticks_used()) + "/" + std::to_string(max_ticks_) + " iterations";
    }
    return s;
}

double budget_ms_from_env() {
    const char* env = std::getenv("LILY_BUDGET_MS");
    if (env == nullptr || *env == '\0') return 0.0;
    char* end = nullptr;
    const double ms = std::strtod(env, &end);
    if (end == env || ms <= 0.0) return 0.0;
    return ms;
}

}  // namespace lily
