// Measurement helpers of the repo benchmark: order statistics with their
// sample counts, open-loop latency measured from the due time, and an
// in-memory span recorder. Header-only and independent of the library, so
// helpers_test.cpp covers them without building src/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace geobench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
}

/// Median of `values`; the mean of the two middle values for an even count,
/// 0 for an empty sample.
[[nodiscard]] inline double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                     values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1) return upper;
    const double lower =
        *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
    return 0.5 * (lower + upper);
}

/// One nearest-rank percentile together with the sample it came from:
/// `beyond` is how many samples lie strictly above the reported rank, the
/// number that says whether the sample supports that percentile at all.
struct Percentile {
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;
};

/// Nearest-rank percentile, q in (0, 1]: the smallest sample with at least
/// q·n samples at or below it.
[[nodiscard]] inline Percentile percentile(std::vector<double> values, double q) {
    Percentile p;
    p.samples = values.size();
    if (values.empty()) return p;
    const double clamped = std::clamp(q, 0.0, 1.0);
    auto rank = static_cast<std::size_t>(std::ceil(clamped * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     values.end());
    p.value = values[rank - 1];
    p.beyond = values.size() - rank;
    return p;
}

/// A percentile is reported only when at least this many samples lie beyond
/// it; below that it is the sample's maximum in disguise.
inline constexpr std::size_t kMinTailSamples = 10;

[[nodiscard]] inline bool supported(const Percentile& p) {
    return p.beyond >= kMinTailSamples;
}

/// Open-loop schedule: operation i of a stream is due at start + i·period,
/// whatever happened to the operations before it.
class FixedRateSchedule {
public:
    FixedRateSchedule(Clock::time_point start, double ratePerSecond)
        : start_(start),
          period_(std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(1.0 / ratePerSecond))) {}

    [[nodiscard]] Clock::time_point due(std::uint64_t i) const {
        return start_ + period_ * static_cast<std::int64_t>(i);
    }

private:
    Clock::time_point start_;
    Clock::duration period_;
};

/// Latency of an open-loop operation: from when it was due to be sent, not
/// from when it was sent, so a stall also charges every operation queued
/// behind it. An operation finished before its due time (impossible for a
/// generator that never sends early) reads 0.
[[nodiscard]] inline double latencyFromDue(Clock::time_point due, Clock::time_point done) {
    return done > due ? seconds(done - due) : 0.0;
}

/// In-memory span recorder. A span is (name, start, end, parent); parent is
/// the index of the enclosing span, or -1. A disabled recorder costs one
/// branch per call. Thread-safe: the serving workload records from the
/// service's own worker threads through its hooks.
class Tracer {
public:
    struct Span {
        std::string name;
        double start = 0.0;  ///< seconds since the tracer's origin
        double end = 0.0;
        std::int64_t parent = -1;
    };

    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

    /// Record a finished span; returns its index (-1 when disabled).
    std::int64_t record(std::string name, Clock::time_point start, Clock::time_point end,
                        std::int64_t parent = -1) {
        if (!enabled_) return -1;
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(Span{std::move(name), seconds(start - origin_),
                              seconds(end - origin_), parent});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    /// Open a span now; close() fills in its end. Lets children name the
    /// parent before it finishes.
    std::int64_t open(std::string name, std::int64_t parent = -1) {
        const auto now = Clock::now();
        return record(std::move(name), now, now, parent);
    }

    void close(std::int64_t index) {
        if (index < 0) return;
        const double now = seconds(Clock::now() - origin_);
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(index)].end = now;
    }

    [[nodiscard]] std::size_t size() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

    /// Write the spans as a JSON array of {name, start, end, parent}.
    void writeJson(std::ostream& out) const {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto precision = out.precision(15);  // ns resolution
        out << "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto& s = spans_[i];
            out << (i ? ",\n" : "\n") << R"({"name":")" << s.name << R"(","start":)"
                << s.start << R"(,"end":)" << s.end << R"(,"parent":)" << s.parent << "}";
        }
        out << "\n]\n";
        out.precision(precision);
    }

private:
    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;  ///< guards spans_
    std::vector<Span> spans_;
};

}  // namespace geobench
