// Tests of the benchmark's own measurement helpers (helpers.hpp).
//   python3 perfbench/run.py --test
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "helpers.hpp"

namespace {

using geobench::Clock;
using namespace std::chrono_literals;

TEST(Median, OddEvenAndEmpty) {
    EXPECT_DOUBLE_EQ(geobench::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(geobench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(geobench::median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(geobench::median({}), 0.0);
}

TEST(Median, IgnoresInputOrderAndOutliers) {
    EXPECT_DOUBLE_EQ(geobench::median({1.0, 1.0, 1e9, 1.0, -1e9}), 1.0);
}

TEST(Percentile, NearestRankWithSampleCount) {
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(i));
    const auto p99 = geobench::percentile(v, 0.99);
    EXPECT_DOUBLE_EQ(p99.value, 990.0);
    EXPECT_EQ(p99.samples, 1000u);
    EXPECT_EQ(p99.beyond, 10u);
    EXPECT_TRUE(geobench::supported(p99));

    const auto p50 = geobench::percentile(v, 0.5);
    EXPECT_DOUBLE_EQ(p50.value, 500.0);
    EXPECT_EQ(p50.beyond, 500u);
}

TEST(Percentile, SmallSampleDoesNotSupportTail) {
    std::vector<double> v(100);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(v.size() - i);
    const auto p99 = geobench::percentile(v, 0.99);
    EXPECT_DOUBLE_EQ(p99.value, 99.0);
    EXPECT_EQ(p99.beyond, 1u);
    EXPECT_FALSE(geobench::supported(p99));
}

TEST(Percentile, EdgesClampToSample) {
    const std::vector<double> v = {5.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(geobench::percentile(v, 1.0).value, 5.0);
    EXPECT_EQ(geobench::percentile(v, 1.0).beyond, 0u);
    EXPECT_DOUBLE_EQ(geobench::percentile(v, 0.0).value, 1.0);
    EXPECT_EQ(geobench::percentile({}, 0.5).samples, 0u);
}

TEST(Schedule, DueTimesFollowTheRateNotTheReplies) {
    const auto start = Clock::now();
    const geobench::FixedRateSchedule s(start, 1000.0);
    EXPECT_EQ(s.due(0), start);
    EXPECT_NEAR(geobench::seconds(s.due(250) - start), 0.25, 1e-9);
}

TEST(LatencyFromDue, ChargesTheWaitBehindAStall) {
    // Three requests due 1 ms apart; the first stalls for 5 ms and the
    // others are sent only after it. Timed from their send times all three
    // would read ~0; timed from their due times they carry the stall.
    const auto start = Clock::now();
    const geobench::FixedRateSchedule s(start, 1000.0);
    const auto stallEnd = start + 5ms;
    EXPECT_NEAR(geobench::latencyFromDue(s.due(0), stallEnd), 0.005, 1e-9);
    EXPECT_NEAR(geobench::latencyFromDue(s.due(1), stallEnd + 10us), 0.00401, 1e-9);
    EXPECT_NEAR(geobench::latencyFromDue(s.due(2), stallEnd + 20us), 0.00302, 1e-9);
}

TEST(LatencyFromDue, NeverNegative) {
    const auto now = Clock::now();
    EXPECT_EQ(geobench::latencyFromDue(now + 1ms, now), 0.0);
}

TEST(Tracer, DisabledRecordsNothing) {
    geobench::Tracer tracer(false);
    EXPECT_EQ(tracer.open("x"), -1);
    EXPECT_EQ(tracer.record("y", Clock::now(), Clock::now()), -1);
    EXPECT_EQ(tracer.size(), 0u);
}

TEST(Tracer, SpansKeepParentAndTimes) {
    geobench::Tracer tracer(true);
    const auto t0 = Clock::now();
    const auto parent = tracer.record("parent", t0, t0 + 10ms);
    EXPECT_EQ(tracer.record("child", t0 + 1ms, t0 + 3ms, parent), 1);
    std::ostringstream out;
    tracer.writeJson(out);
    const std::string json = out.str();
    EXPECT_NE(json.find(R"("name":"child")"), std::string::npos);
    EXPECT_NE(json.find(R"("parent":0)"), std::string::npos);
    EXPECT_NE(json.find(R"("parent":-1)"), std::string::npos);
}

TEST(Tracer, OpenSpanEndsAtClose) {
    geobench::Tracer tracer(true);
    const auto index = tracer.open("sleep");
    std::this_thread::sleep_for(2ms);
    tracer.close(index);
    std::ostringstream out;
    tracer.writeJson(out);
    const std::string json = out.str();
    const auto start = std::stod(json.substr(json.find(R"("start":)") + 8));
    const auto end = std::stod(json.substr(json.find(R"("end":)") + 6));
    EXPECT_GE(end - start, 0.002);
}

}  // namespace
