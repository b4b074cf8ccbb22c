// Helpers of the flow benchmark that carry its measurement rules: order
// statistics, the tail-percentile rule, geometric means, the failure ledger
// and the in-memory span log of the traced run. Header-only so the benchmark
// (flow_bench.cpp) and its self-test (selftest.cpp) share one definition.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (p in [0, 100]) of `values`; NaN when
/// empty. Matches numpy's default (statistics.quantiles with
/// method="inclusive").
inline double percentile(std::vector<double> values, double p) {
    if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const double rank = (p / 100.0) * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

/// The tail percentile a run of `n` samples may report: the highest of 90,
/// 99 and 99.9 that leaves at least ten samples beyond it (n * (1 - p/100)
/// >= 10). nullopt when even p90 has fewer than ten samples past it.
inline std::optional<double> tail_percentile(std::size_t n) {
    std::optional<double> best;
    for (const double p : {90.0, 99.0, 99.9}) {
        const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
        if (beyond + 1e-9 >= 10.0) best = p;
    }
    return best;
}

/// Geometric mean of strictly positive values; NaN when empty or when any
/// value is not positive (a QoR figure of zero means a broken result).
inline double geomean(const std::vector<double>& values) {
    if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
    double log_sum = 0.0;
    for (const double v : values) {
        if (!(v > 0.0)) return std::numeric_limits<double>::quiet_NaN();
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Attempted/failed accounting. Every item the benchmark runs is recorded
/// exactly once; a failure keeps its reason so the run can print it.
class FailLedger {
public:
    void record(bool ok, const std::string& item, const std::string& reason = "") {
        ++attempted_;
        if (!ok) {
            ++failed_;
            reasons_.push_back(item + ": " + reason);
        }
    }
    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }
    double fail_ratio() const {
        return attempted_ == 0 ? 0.0
                               : static_cast<double>(failed_) / static_cast<double>(attempted_);
    }
    const std::vector<std::string>& reasons() const { return reasons_; }

private:
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<std::string> reasons_;
};

/// One traced call: name, [start, end) in ns from the log's epoch, the
/// enclosing span (npos for a root) and the item it belongs to.
struct Span {
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t parent = npos;
    std::int64_t item = -1;
    double duration_ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span recorder for one thread. begin/end pairs must nest; the
/// innermost open span is the parent of the next one begun.
class SpanLog {
public:
    using Clock = std::chrono::steady_clock;

    SpanLog() : epoch_(Clock::now()) {}

    std::size_t begin(std::string name, std::int64_t item) {
        Span s;
        s.name = std::move(name);
        s.item = item;
        s.parent = open_.empty() ? Span::npos : open_.back();
        s.start_ns = now_ns();
        spans_.push_back(std::move(s));
        open_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    /// Close span `id`; returns its duration in ms.
    double end(std::size_t id) {
        spans_[id].end_ns = now_ns();
        if (!open_.empty() && open_.back() == id) open_.pop_back();
        return spans_[id].duration_ms();
    }

    /// Record an already-measured span (tests build span trees with it).
    std::size_t add(Span s) {
        spans_.push_back(std::move(s));
        return spans_.size() - 1;
    }

    const std::vector<Span>& spans() const { return spans_; }
    bool all_closed() const { return open_.empty(); }

    /// Self time of every span: its duration minus its direct children's
    /// durations (children of one parent never overlap on one thread).
    std::vector<double> self_ms() const {
        std::vector<double> self(spans_.size(), 0.0);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            self[i] += spans_[i].duration_ms();
            if (spans_[i].parent != Span::npos) self[spans_[i].parent] -= spans_[i].duration_ms();
        }
        return self;
    }

    /// Self time summed per span name.
    std::map<std::string, double> self_ms_by_name() const {
        std::map<std::string, double> out;
        const std::vector<double> self = self_ms();
        for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
        return out;
    }

    /// One JSON object per span: name, start/end (ms from the epoch),
    /// parent index (-1 for roots), item id and self time.
    std::string to_jsonl() const {
        const std::vector<double> self = self_ms();
        std::string out;
        char buf[512];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::snprintf(buf, sizeof(buf),
                          "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
                          "\"parent\":%lld,\"item\":%lld,\"self_ms\":%.6f}\n",
                          i, s.name.c_str(), static_cast<double>(s.start_ns) / 1e6,
                          static_cast<double>(s.end_ns) / 1e6,
                          s.parent == Span::npos ? -1LL : static_cast<long long>(s.parent),
                          static_cast<long long>(s.item), self[i]);
            out += buf;
        }
        return out;
    }

private:
    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/// A fixed piece of reference work that calls nothing of the library: a
/// sort of 32k pseudo-random keys, 40k hash-map updates and lookups, and 20k
/// small heap vectors, the branchy, allocation-heavy kind of work a flow
/// does. Its duration tracks how fast this machine runs such work on one
/// thread right now; the benchmark times it between items to express its
/// timings in reference time.
class Calibration {
public:
    /// Run the reference work once; returns its wall time in ms.
    double run_ms() {
        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t x = 0x9E3779B97F4A7C15ULL;
        const auto next = [&x] { return x ^= x << 13, x ^= x >> 7, x ^= x << 17; };
        for (std::uint64_t& k : keys_) k = next();
        std::sort(keys_.begin(), keys_.end());
        std::unordered_map<std::uint64_t, std::uint32_t> map;
        for (int i = 0; i < kMapOps; ++i) map[next() % 100'000] += static_cast<std::uint32_t>(i);
        std::uint64_t sum = keys_[kKeys / 2];
        for (int i = 0; i < kMapOps; ++i) {
            const auto it = map.find(static_cast<std::uint64_t>(i));
            if (it != map.end()) sum += it->second;
        }
        std::vector<std::vector<int>> vectors;
        for (int i = 0; i < kVectors; ++i) vectors.emplace_back(1 + i % 13, i);
        for (const std::vector<int>& v : vectors) sum += v.size();
        // Keep the result observable so none of the work is optimized away.
        sink_ = sum;
        return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    }

private:
    static constexpr std::size_t kKeys = 1u << 15;
    static constexpr int kMapOps = 40'000;
    static constexpr int kVectors = 20'000;
    std::vector<std::uint64_t> keys_ = std::vector<std::uint64_t>(kKeys);
    volatile std::uint64_t sink_ = 0;
};

/// splitmix64 finalizer: derives independent generator seeds from the
/// workload seed. mix_seed(base, 0) == base, so seed 0 reproduces the
/// repository's committed circuits.
inline std::uint64_t mix_seed(std::uint64_t base, std::uint64_t seed) {
    if (seed == 0) return base;
    std::uint64_t z = base ^ (seed * 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace perfbench
