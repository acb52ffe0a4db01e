// The shared weighted-Voronoi argmin kernel (core/argmin_kernel): every ISA
// variant the CPU supports must reproduce the scalar variant bitwise —
// best/second values and indices, scanned-distance and break counts, and
// routes — and whole partitions must not depend on the variant, the thread
// count or the memory budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/argmin_kernel.hpp"
#include "core/geographer.hpp"
#include "gen/delaunay2d.hpp"
#include "geometry/box.hpp"
#include "serve/snapshot.hpp"
#include "support/rng.hpp"

namespace {

using namespace geo;
namespace argmin = geo::core::argmin;
using argmin::Isa;

/// Kernel inputs kept alive in SoA form.
template <int D>
struct Instance {
    std::array<std::vector<double>, static_cast<std::size_t>(D)> x, cx;
    std::vector<double> inv, key;

    [[nodiscard]] argmin::Lanes<D> lanes() const {
        argmin::Lanes<D> l;
        for (std::size_t d = 0; d < static_cast<std::size_t>(D); ++d) l.x[d] = x[d].data();
        l.count = x[0].size();
        return l;
    }
    [[nodiscard]] argmin::Candidates<D> candidates(bool withKeys) const {
        argmin::Candidates<D> c;
        for (std::size_t d = 0; d < static_cast<std::size_t>(D); ++d) c.cx[d] = cx[d].data();
        c.invInfluence2 = inv.data();
        c.key = withKeys ? key.data() : nullptr;
        c.count = inv.size();
        return c;
    }
};

enum class Shape { Random, Ties, Duplicates };

/// `lanes` queries and `k` candidates. Random: uniform lanes, influence
/// log-uniform over 1e-6..1e6. Ties: unit influence, every lane on the
/// bisector of candidates 0 and 1. Duplicates: every candidate repeated.
/// Candidates are sorted by their bbox key (a lower bound on e2 for every
/// lane in the lanes' box), as the sweep scans them.
template <int D>
Instance<D> makeInstance(std::size_t lanes, std::size_t k, Shape shape, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    constexpr auto kD = static_cast<std::size_t>(D);
    Instance<D> in;
    std::vector<Point<D>> centers(k);
    std::vector<double> influence(k, 1.0);
    for (std::size_t c = 0; c < k; ++c) {
        for (int d = 0; d < D; ++d) centers[c][d] = rng.uniform(-1.0, 2.0);
        if (shape == Shape::Random) influence[c] = std::pow(10.0, rng.uniform(-6.0, 6.0));
    }
    if (shape == Shape::Duplicates)
        for (std::size_t c = 1; c < k; c += 2) centers[c] = centers[c - 1];
    if (shape == Shape::Ties && k >= 2) {
        centers[0] = Point<D>{};
        centers[1] = Point<D>{};
        centers[1][0] = 1.0;
    }
    std::vector<Point<D>> pts(lanes);
    for (auto& p : pts) {
        for (int d = 0; d < D; ++d) p[d] = rng.uniform();
        if (shape == Shape::Ties) p[0] = 0.5;  // equidistant from centers 0 and 1
    }

    const auto box = Box<D>::around(std::span<const Point<D>>(pts));
    std::vector<double> key(k);
    for (std::size_t c = 0; c < k; ++c)
        key[c] = box.minSquaredDistance(centers[c]) * (1.0 / (influence[c] * influence[c]));
    std::vector<std::size_t> order(k);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });

    for (std::size_t d = 0; d < kD; ++d) {
        for (const auto& p : pts) in.x[d].push_back(p[static_cast<int>(d)]);
        for (const std::size_t c : order) in.cx[d].push_back(centers[c][static_cast<int>(d)]);
    }
    for (const std::size_t c : order) {
        in.inv.push_back(1.0 / (influence[c] * influence[c]));
        in.key.push_back(key[c]);
    }
    return in;
}

struct Result {
    std::vector<std::int32_t> best, second, route;
    std::vector<double> best2, second2;
    argmin::ScanStats stats;
};

template <int D>
Result run(const Instance<D>& in, bool withKeys, Isa isa) {
    const std::size_t m = in.x[0].size();
    Result r;
    r.best.assign(m, -9);
    r.second.assign(m, -9);
    r.route.assign(m, -9);
    r.best2.assign(m, -1.0);
    r.second2.assign(m, -1.0);
    r.stats = argmin::nearest<D>(in.lanes(), in.candidates(withKeys),
                                 {r.best.data(), r.second.data(), r.best2.data(),
                                  r.second2.data()},
                                 isa);
    const auto bestOnly =
        argmin::nearest<D>(in.lanes(), in.candidates(false), {r.route.data()}, isa);
    EXPECT_EQ(bestOnly.distances, m * in.inv.size());
    return r;
}

bool bitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expectSame(const Result& got, const Result& want, const std::string& label) {
    EXPECT_EQ(got.best, want.best) << label;
    EXPECT_EQ(got.second, want.second) << label;
    EXPECT_EQ(got.route, want.route) << label;
    EXPECT_TRUE(bitwiseEqual(got.best2, want.best2)) << label;
    EXPECT_TRUE(bitwiseEqual(got.second2, want.second2)) << label;
    EXPECT_EQ(got.stats.distances, want.stats.distances) << label;
    EXPECT_EQ(got.stats.breaks, want.stats.breaks) << label;
}

/// Plain per-lane scan in candidate order, strict comparisons: the
/// kernel's definition, written the obvious way.
template <int D>
void expectMatchesBruteForce(const Instance<D>& in, const Result& r, const std::string& label) {
    const std::size_t m = in.x[0].size();
    for (std::size_t j = 0; j < m; ++j) {
        double b2 = std::numeric_limits<double>::infinity(), s2 = b2;
        std::int32_t b = -1, s = -1;
        for (std::size_t c = 0; c < in.inv.size(); ++c) {
            double d2 = 0.0;
            for (std::size_t d = 0; d < static_cast<std::size_t>(D); ++d) {
                const double diff = in.x[d][j] - in.cx[d][c];
                d2 += diff * diff;
            }
            const double e2 = d2 * in.inv[c];
            if (e2 < b2) {
                s2 = b2;
                s = b;
                b2 = e2;
                b = static_cast<std::int32_t>(c);
            } else if (e2 < s2) {
                s2 = e2;
                s = static_cast<std::int32_t>(c);
            }
        }
        ASSERT_EQ(r.best[j], b) << label << " lane " << j;
        ASSERT_EQ(r.second[j], s) << label << " lane " << j;
        ASSERT_EQ(r.route[j], b) << label << " lane " << j;
        ASSERT_EQ(r.best2[j], b2) << label << " lane " << j;
        ASSERT_EQ(r.second2[j], s2) << label << " lane " << j;
    }
}

template <int D>
void crossIsaSweep() {
    for (const std::size_t lanes : {1, 15, 16, 17, 1023, 1024}) {
        for (const std::size_t k : {1, 2, 7, 64}) {
            for (const Shape shape : {Shape::Random, Shape::Ties, Shape::Duplicates}) {
                const auto in = makeInstance<D>(lanes, k, shape, 1000 + lanes * 7 + k);
                const std::string base = "D=" + std::to_string(D) + " lanes=" +
                                         std::to_string(lanes) + " k=" + std::to_string(k) +
                                         " shape=" + std::to_string(static_cast<int>(shape));
                const Result scanAll = run(in, false, Isa::Scalar);
                expectMatchesBruteForce(in, scanAll, base);
                // The tile-level break is exact: keys only cut work.
                const Result pruned = run(in, true, Isa::Scalar);
                EXPECT_EQ(pruned.best, scanAll.best) << base;
                EXPECT_EQ(pruned.second, scanAll.second) << base;
                EXPECT_TRUE(bitwiseEqual(pruned.best2, scanAll.best2)) << base;
                EXPECT_TRUE(bitwiseEqual(pruned.second2, scanAll.second2)) << base;
                EXPECT_LE(pruned.stats.distances, scanAll.stats.distances) << base;
                EXPECT_EQ(scanAll.stats.distances, lanes * k) << base;
                EXPECT_EQ(scanAll.stats.breaks, 0u) << base;
                for (const Isa isa : argmin::kIsas) {
                    if (!argmin::isaSupported(isa)) continue;
                    const std::string label = base + " isa=" + argmin::isaName(isa);
                    expectSame(run(in, false, isa), scanAll, label + " scan-all");
                    expectSame(run(in, true, isa), pruned, label + " pruned");
                }
            }
        }
    }
}

TEST(Argmin, DispatchPicksASupportedVariant) {
    EXPECT_TRUE(argmin::isaSupported(Isa::Scalar));
    EXPECT_TRUE(argmin::isaSupported(argmin::activeIsa()));
    std::cout << "[ info ] argmin kernel dispatches to " << argmin::isaName(argmin::activeIsa())
              << "; supported:";
    for (const Isa isa : argmin::kIsas)
        if (argmin::isaSupported(isa)) std::cout << ' ' << argmin::isaName(isa);
    std::cout << '\n';
    for (const Isa isa : argmin::kIsas) {
        if (!argmin::isaSupported(isa)) continue;
        const Isa before = argmin::activeIsa();
        {
            const argmin::ScopedIsa pin(isa);
            EXPECT_EQ(argmin::activeIsa(), isa);
        }
        EXPECT_EQ(argmin::activeIsa(), before);
    }
}

TEST(Argmin, EveryVariantMatchesScalarBitwise2d) { crossIsaSweep<2>(); }
TEST(Argmin, EveryVariantMatchesScalarBitwise3d) { crossIsaSweep<3>(); }

class ArgminIsa : public ::testing::TestWithParam<Isa> {};
INSTANTIATE_TEST_SUITE_P(Variants, ArgminIsa, ::testing::ValuesIn(argmin::kIsas),
                         [](const auto& info) { return std::string(argmin::isaName(info.param)); });

TEST_P(ArgminIsa, TiesAndDuplicatesGoToTheLowestId) {
    if (!argmin::isaSupported(GetParam())) GTEST_SKIP() << "not supported on this CPU";
    // Candidates 0 and 1 coincide, 2 sits on the far side; lanes on the
    // 0|2 bisector tie all three ways in value between 0 and 2.
    const std::vector<double> cx{0.25, 0.25, 0.75}, cy{0.5, 0.5, 0.5}, inv{1.0, 1.0, 1.0};
    std::vector<double> x, y;
    Xoshiro256 rng(257);
    for (int i = 0; i < 1000; ++i) {
        x.push_back(i % 5 == 0 ? 0.5 : rng.uniform());
        y.push_back(rng.uniform());
    }
    argmin::Lanes<2> lanes;
    lanes.x = {x.data(), y.data()};
    lanes.count = x.size();
    argmin::Candidates<2> cand;
    cand.cx = {cx.data(), cy.data()};
    cand.invInfluence2 = inv.data();
    cand.count = 3;
    std::vector<std::int32_t> best(x.size(), -1), second(x.size(), -1);
    argmin::nearest<2>(lanes, cand, {best.data(), second.data()}, GetParam());
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (x[i] <= 0.5) {
            ASSERT_EQ(best[i], 0) << i;
            ASSERT_EQ(second[i], 1) << i;
        } else {
            ASSERT_EQ(best[i], 2) << i;
            ASSERT_EQ(second[i], 0) << i;
        }
    }
}

TEST_P(ArgminIsa, RoutesMatchThePartitionUnderEveryVariant) {
    if (!argmin::isaSupported(GetParam())) GTEST_SKIP() << "not supported on this CPU";
    const argmin::ScopedIsa pin(GetParam());
    const auto mesh = geo::gen::delaunay2d(4000, 331);
    core::Settings settings;
    const auto res = core::partitionGeographer<2>(mesh.points, {}, 12, 2, settings);
    serve::SnapshotOptions scan;
    scan.kdTreeFromK = 0;
    const auto snap = serve::PartitionSnapshot<2>::fromResult(res, 1, 0, scan);
    std::vector<std::int32_t> routes(mesh.points.size(), -1);
    snap.blockOf(mesh.points, routes);
    EXPECT_EQ(routes, res.partition);
}

/// Everything a partition run reports that must not depend on the variant,
/// the thread count or the memory budget.
struct RunDigest {
    std::vector<std::int32_t> partition;
    std::vector<double> influence, centers;
    std::uint64_t distanceCalcs = 0, bboxBreaks = 0, epochApps = 0, bytes = 0;
    int outer = 0;

    bool operator==(const RunDigest& o) const {
        return partition == o.partition && bitwiseEqual(influence, o.influence) &&
               bitwiseEqual(centers, o.centers) && distanceCalcs == o.distanceCalcs &&
               bboxBreaks == o.bboxBreaks && epochApps == o.epochApps && bytes == o.bytes &&
               outer == o.outer;
    }
};

RunDigest digest(const core::GeographerResult& r) {
    return {r.partition,
            r.influence,
            r.centerCoords,
            r.counters.distanceCalcs,
            r.counters.bboxBreaks,
            r.counters.epochBoundApplications,
            r.runStats.totalBytes,
            r.counters.outerIterations};
}

TEST(Argmin, PartitionsAreIdenticalAcrossVariantsThreadsAndBudgets) {
    const auto mesh = geo::gen::delaunay2d(12000, 337);
    Xoshiro256 rng(339);
    std::vector<Point3> pts3(6000);
    for (auto& p : pts3)
        for (int d = 0; d < 3; ++d) p[d] = rng.uniform();

    std::optional<RunDigest> want2, want3;
    for (const Isa isa : argmin::kIsas) {
        if (!argmin::isaSupported(isa)) continue;
        const argmin::ScopedIsa pin(isa);
        for (const int threads : {1, 2, 4}) {
            for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{64} << 10}) {
                core::Settings settings;
                settings.threads = threads;
                settings.memoryBudgetBytes = budget;
                const std::string label = std::string(argmin::isaName(isa)) + " threads=" +
                                          std::to_string(threads) +
                                          " budget=" + std::to_string(budget);
                const auto got2 =
                    digest(core::partitionGeographer<2>(mesh.points, {}, 16, 4, settings));
                const auto got3 = digest(core::partitionGeographer<3>(pts3, {}, 8, 2, settings));
                if (!want2) {
                    want2 = got2;
                    want3 = got3;
                    EXPECT_GT(got2.bboxBreaks, 0u);  // the tile break is exercised
                }
                EXPECT_TRUE(got2 == *want2) << label;
                EXPECT_TRUE(got3 == *want3) << label;
            }
        }
    }
}

}  // namespace
