#include "core/assign_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/argmin_kernel.hpp"
#include "par/parallel_for.hpp"
#include "support/assert.hpp"

namespace geo::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Points per cache block. Fixed (never derived from the thread count) so
/// the per-block size partials — and with them every floating-point sum the
/// sweep and the center update produce — are identical at any
/// Settings::threads. Must equal the PointStore tile so wave boundaries
/// always fall on block boundaries (the chunked-path bitwise guarantee).
constexpr std::size_t kAssignBlock = 1024;
static_assert(kAssignBlock == PointStore<2>::kTilePoints &&
              kAssignBlock == PointStore<3>::kTilePoints);

}  // namespace

template <int D>
AssignEngine<D>::AssignEngine(std::span<const Point<D>> points,
                              std::span<const double> weights,
                              std::vector<std::size_t> order, const Settings& settings,
                              std::int32_t k)
    : settings_(settings),
      k_(k),
      store_(points, weights, std::move(order), settings.resolvedMemoryBudget()) {
    GEO_REQUIRE(k_ >= 1, "need at least one center");
    const std::size_t n = store_.order().size();
    GEO_REQUIRE(n == points.size(), "order must have one slot per point");
    assignment_.assign(n, -1);
    ub_.assign(n, kInf);
    lb_.assign(n, 0.0);
    scratch_.resize(static_cast<std::size_t>(settings_.resolvedThreads()));
}

template <int D>
void AssignEngine<D>::setActive(std::size_t activeCount) {
    store_.setActive(activeCount, settings_.resolvedThreads());
    recordStoreCounters();
}

template <int D>
std::vector<std::int32_t> AssignEngine<D>::assignment() const {
    const auto order = store_.order();
    std::vector<std::int32_t> byPoint(order.size(), -1);
    for (std::size_t slot = 0; slot < order.size(); ++slot)
        byPoint[order[slot]] = assignment_[slot];
    return byPoint;
}

/// Surface the store's accounting through KMeansCounters. The store totals
/// are cumulative over its lifetime, so they are assigned (peaks via max),
/// not added — merge() across engines then maxes peaks and sums spills.
template <int D>
void AssignEngine<D>::recordStoreCounters() {
    const auto& acc = store_.accounting();
    counters_.peakTileBytes = std::max(counters_.peakTileBytes, acc.peakResidentBytes);
    counters_.residentBytes = acc.residentBytes;
    counters_.spilledTiles = acc.spilledTiles;
}

template <int D>
void AssignEngine<D>::beginRound(std::span<const Point<D>> centers,
                                 std::span<const double> influence,
                                 const Box<D>& activeBox) {
    GEO_REQUIRE(static_cast<std::int32_t>(centers.size()) == k_ &&
                    static_cast<std::int32_t>(influence.size()) == k_,
                "need one center and one influence value per cluster");
    centers_ = centers;
    influence_ = influence;
    const auto k = static_cast<std::size_t>(k_);
    const auto inv2 = [&](std::size_t c) { return 1.0 / (influence_[c] * influence_[c]); };
    sortedCenters_.resize(k);
    std::iota(sortedCenters_.begin(), sortedCenters_.end(), 0);
    // The stale-key guard: keys are valid only when computed *this round*
    // against *this round's* box. A round with an invalid box (e.g. no
    // active points) must fall back to the unpruned scan — consulting keys
    // left over from an earlier round against the freshly reset identity
    // order would break the "remaining centers cannot win" argument and can
    // assign a point to the wrong cluster.
    keysValid_ = settings_.boundingBoxPruning && activeBox.valid();
    if (keysValid_) {
        centerKey_.resize(k);
        for (std::size_t c = 0; c < k; ++c)
            centerKey_[c] = settings_.referenceAssignment
                                ? activeBox.minDistance(centers_[c]) / influence_[c]
                                : activeBox.minSquaredDistance(centers_[c]) * inv2(c);
        std::sort(sortedCenters_.begin(), sortedCenters_.end(),
                  [&](std::int32_t a, std::int32_t b) {
                      return centerKey_[static_cast<std::size_t>(a)] <
                             centerKey_[static_cast<std::size_t>(b)];
                  });
    }
    if (!settings_.referenceAssignment && !settings_.useKdTree) {
        for (auto& x : candX_) x.resize(k);
        candInv_.resize(k);
        candKey_.resize(keysValid_ ? k : 0);
        for (std::size_t i = 0; i < k; ++i) {
            const auto c = static_cast<std::size_t>(sortedCenters_[i]);
            for (int d = 0; d < D; ++d) candX_[static_cast<std::size_t>(d)][i] = centers_[c][d];
            candInv_[i] = inv2(c);
            if (keysValid_) candKey_[i] = centerKey_[c];
        }
    }
    if (settings_.useKdTree) tree_.rebuild(centers_, influence_);
}

template <int D>
void AssignEngine<D>::sweep(std::span<double> localSizes) {
    GEO_REQUIRE(static_cast<std::int32_t>(localSizes.size()) == k_,
                "localSizes must have one entry per cluster");
    std::fill(localSizes.begin(), localSizes.end(), 0.0);
    const std::size_t active = store_.activeCount();
    if (active == 0) {
        epochs_.clear();
        return;
    }
    GEO_CHECK(!centers_.empty(), "beginRound must precede sweep");

    const auto stride = static_cast<std::size_t>(k_);
    const std::size_t waveBlocks =
        (std::min(store_.wavePoints(), active) + kAssignBlock - 1) / kAssignBlock;
    blockSizes_.resize(waveBlocks * stride);
    const int threads = settings_.resolvedThreads();
    if (scratch_.size() < static_cast<std::size_t>(threads))
        scratch_.resize(static_cast<std::size_t>(threads));

    // Waves in ascending order, each wave's blocks in parallel; folding the
    // per-block partials wave-by-wave in ascending block order is the same
    // left fold the resident single-wave path performs, so localSizes is
    // bitwise identical at every budget and thread count.
    for (std::size_t w = 0; w < store_.waveCount(); ++w) {
        const auto wave = store_.wave(w, threads);
        const std::size_t blocks = (wave.count + kAssignBlock - 1) / kAssignBlock;
        par::parallelFor(threads, blocks,
                         [&](std::size_t b0, std::size_t b1, int worker) {
                             auto& scratch = scratch_[static_cast<std::size_t>(worker)];
                             for (std::size_t b = b0; b < b1; ++b)
                                 processBlock(wave, b, scratch, &blockSizes_[b * stride]);
                         });
        for (std::size_t b = 0; b < blocks; ++b)
            for (std::size_t c = 0; c < stride; ++c)
                localSizes[c] += blockSizes_[b * stride + c];
    }
    // Every active slot is current now: assigned slots replayed the log,
    // the rest were materialized against this round.
    epochs_.clear();
    // Counter merges are integer sums — order-independent.
    for (auto& scratch : scratch_) {
        counters_.merge(scratch.counters);
        scratch.counters = KMeansCounters{};
    }
    recordStoreCounters();
}

template <int D>
void AssignEngine<D>::updateCenters(std::span<double> sums) {
    const auto stride = static_cast<std::size_t>(k_) * (D + 1);
    GEO_REQUIRE(sums.size() == stride, "sums must be k*(D+1) wide");
    std::fill(sums.begin(), sums.end(), 0.0);
    const std::size_t active = store_.activeCount();
    if (active == 0) return;

    const std::size_t waveBlocks =
        (std::min(store_.wavePoints(), active) + kAssignBlock - 1) / kAssignBlock;
    blockSums_.resize(waveBlocks * stride);
    const int threads = settings_.resolvedThreads();
    // Same wave-then-block left fold as sweep(): bitwise identical at every
    // budget and thread count.
    for (std::size_t w = 0; w < store_.waveCount(); ++w) {
        const auto wave = store_.wave(w, threads);
        const std::size_t blocks = (wave.count + kAssignBlock - 1) / kAssignBlock;
        par::parallelFor(
            threads, blocks, [&](std::size_t b0, std::size_t b1, int) {
                for (std::size_t b = b0; b < b1; ++b) {
                    double* partial = &blockSums_[b * stride];
                    std::fill(partial, partial + stride, 0.0);
                    const std::size_t j0 = b * kAssignBlock;
                    const std::size_t j1 = std::min(wave.count, j0 + kAssignBlock);
                    const std::int32_t* assign = &assignment_[wave.begin];
                    for (std::size_t j = j0; j < j1; ++j) {
                        const auto c = static_cast<std::size_t>(assign[j]);
                        const double weight = wave.weight[j];
                        double* row = partial + c * (D + 1);
                        for (int d = 0; d < D; ++d)
                            row[d] += weight * wave.x[static_cast<std::size_t>(d)][j];
                        row[D] += weight;
                    }
                }
            });
        for (std::size_t b = 0; b < blocks; ++b)
            for (std::size_t c = 0; c < stride; ++c)
                sums[c] += blockSums_[b * stride + c];
    }
    recordStoreCounters();
}

template <int D>
void AssignEngine<D>::processBlock(const typename PointStore<D>::WaveView& wave,
                                   std::size_t block, Scratch& scratch,
                                   double* blockSizes) {
    const std::size_t j0 = block * kAssignBlock;
    const std::size_t j1 = std::min(wave.count, j0 + kAssignBlock);
    if (scratch.slot.size() < kAssignBlock) {
        scratch.slot.resize(kAssignBlock);
        for (auto& g : scratch.gx) g.resize(kAssignBlock);
        scratch.best.resize(kAssignBlock);
        scratch.second.resize(kAssignBlock);
    }

    // The per-slot state runs in lockstep with the wave's tile arrays:
    // entry j of the wave is slot wave.begin + j.
    std::size_t lanes = 0;
    std::uint64_t skips = 0;
    for (std::size_t j = j0; j < j1; ++j) {
        const std::size_t slot = wave.begin + j;
        if (settings_.hamerlyBounds && assignment_[slot] >= 0) {
            applyEpochs(slot, scratch.counters);
            if (ub_[slot] < lb_[slot]) {
                ++skips;  // membership provably unchanged
                continue;
            }
        }
        scratch.slot[lanes] = slot;
        for (int d = 0; d < D; ++d)
            scratch.gx[static_cast<std::size_t>(d)][lanes] =
                wave.x[static_cast<std::size_t>(d)][j];
        ++lanes;
    }
    scratch.counters.pointEvaluations += j1 - j0;
    scratch.counters.boundSkips += skips;

    if (settings_.referenceAssignment) {
        for (std::size_t j = 0; j < lanes; ++j)
            assignPointReference(scratch.slot[j], lanePoint(scratch, j), scratch.counters);
    } else if (settings_.useKdTree) {
        for (std::size_t j = 0; j < lanes; ++j) {
            const std::size_t slot = scratch.slot[j];
            const Point<D> pt = lanePoint(scratch, j);
            const auto q = tree_.queryNearestIds(pt);
            assignment_[slot] = q.best;
            const auto bc = static_cast<std::size_t>(q.best);
            ub_[slot] = distance(pt, centers_[bc]) / influence_[bc];
            if (q.second >= 0) {
                const auto sc = static_cast<std::size_t>(q.second);
                lb_[slot] = distance(pt, centers_[sc]) / influence_[sc];
            } else {
                lb_[slot] = kInf;
            }
        }
    } else if (lanes > 0) {
        batchKernel(scratch, lanes);
    }

    // Per-block weighted sizes, accumulated in slot order within the block.
    for (std::int32_t c = 0; c < k_; ++c) blockSizes[c] = 0.0;
    const std::int32_t* assign = &assignment_[wave.begin];
    for (std::size_t j = j0; j < j1; ++j) blockSizes[assign[j]] += wave.weight[j];
}

/// Lane j's coordinates as a point — the same doubles the store mirrored,
/// so distance() on it is bitwise the distance on the caller's point.
template <int D>
Point<D> AssignEngine<D>::lanePoint(const Scratch& scratch, std::size_t j) const noexcept {
    Point<D> pt;
    for (int d = 0; d < D; ++d) pt[d] = scratch.gx[static_cast<std::size_t>(d)][j];
    return pt;
}

/// One gathered block through the shared argmin kernel (centers in key
/// order, tile-level bbox break), then materialize every lane: recompute
/// the Hamerly bounds with the exact scalar expression of the reference
/// path, so ub/lb agree bitwise across modes (the only sqrts on the fast
/// path — at most two per assigned point).
template <int D>
void AssignEngine<D>::batchKernel(Scratch& scratch, std::size_t m) {
    argmin::Lanes<D> lanes;
    argmin::Candidates<D> cand;
    for (std::size_t d = 0; d < static_cast<std::size_t>(D); ++d) {
        lanes.x[d] = scratch.gx[d].data();
        cand.cx[d] = candX_[d].data();
    }
    lanes.count = m;
    cand.invInfluence2 = candInv_.data();
    cand.key = keysValid_ ? candKey_.data() : nullptr;
    cand.count = candInv_.size();
    const auto stats =
        argmin::nearest<D>(lanes, cand, {scratch.best.data(), scratch.second.data()});
    scratch.counters.distanceCalcs += stats.distances;
    scratch.counters.batchedDistanceCalcs += stats.distances;
    scratch.counters.bboxBreaks += stats.breaks;

    for (std::size_t j = 0; j < m; ++j) {
        const std::size_t slot = scratch.slot[j];
        const Point<D> pt = lanePoint(scratch, j);
        GEO_CHECK(scratch.best[j] >= 0, "assignment found no center");
        const auto bc = static_cast<std::size_t>(
            sortedCenters_[static_cast<std::size_t>(scratch.best[j])]);
        assignment_[slot] = static_cast<std::int32_t>(bc);
        ub_[slot] = distance(pt, centers_[bc]) / influence_[bc];
        if (scratch.second[j] >= 0) {
            const auto sc = static_cast<std::size_t>(
                sortedCenters_[static_cast<std::size_t>(scratch.second[j])]);
            lb_[slot] = distance(pt, centers_[sc]) / influence_[sc];
        } else {
            lb_[slot] = kInf;
        }
    }
}

/// The seed implementation's inner loop, verbatim: per-candidate sqrt in
/// the effective-distance domain with the per-point pruning break.
template <int D>
void AssignEngine<D>::assignPointReference(std::size_t slot, const Point<D>& pt,
                                           KMeansCounters& counters) {
    if (settings_.useKdTree) {
        const auto q = tree_.query(pt);
        assignment_[slot] = q.best;
        ub_[slot] = q.bestDistance;
        lb_[slot] = q.secondDistance;
        return;
    }
    double best = kInf, second = kInf;
    std::int32_t bestC = -1;
    for (std::size_t ci = 0; ci < sortedCenters_.size(); ++ci) {
        const std::int32_t c = sortedCenters_[ci];
        if (keysValid_ && centerKey_[static_cast<std::size_t>(c)] > second) {
            counters.bboxBreaks++;
            break;  // no remaining center can beat the second best
        }
        counters.distanceCalcs++;
        const double eDist = distance(pt, centers_[static_cast<std::size_t>(c)]) /
                             influence_[static_cast<std::size_t>(c)];
        if (eDist < best) {
            second = best;
            best = eDist;
            bestC = c;
        } else if (eDist < second) {
            second = eDist;
        }
    }
    GEO_CHECK(bestC >= 0, "assignment found no center");
    assignment_[slot] = bestC;
    ub_[slot] = best;
    lb_[slot] = second;
}

template <int D>
void AssignEngine<D>::applyEpochs(std::size_t slot, KMeansCounters& counters) {
    if (epochs_.empty()) return;
    const auto c = static_cast<std::size_t>(assignment_[slot]);
    double ub = ub_[slot], lb = lb_[slot];
    counters.epochBoundApplications += epochs_.size();
    for (const Epoch& ep : epochs_) {
        if (ep.move) {
            ub = ub * ep.ratio[c] + ep.shift[c];
            lb = std::max(0.0, lb * ep.minRatio - ep.maxShift);
        } else {
            ub *= ep.ratio[c];
            lb *= ep.minRatio;
        }
    }
    ub_[slot] = ub;
    lb_[slot] = lb;
}

template <int D>
void AssignEngine<D>::pushInfluenceEpoch(std::span<const double> ratio) {
    if (!settings_.hamerlyBounds) return;
    GEO_REQUIRE(static_cast<std::int32_t>(ratio.size()) == k_,
                "need one ratio per cluster");
    Epoch epoch;
    epoch.ratio.assign(ratio.begin(), ratio.end());
    epoch.minRatio = *std::min_element(ratio.begin(), ratio.end());
    epoch.move = false;
    epochs_.push_back(std::move(epoch));
}

template <int D>
void AssignEngine<D>::pushMoveEpoch(std::span<const double> ratio,
                                    std::span<const double> shift) {
    if (!settings_.hamerlyBounds) return;
    GEO_REQUIRE(static_cast<std::int32_t>(ratio.size()) == k_ &&
                    static_cast<std::int32_t>(shift.size()) == k_,
                "need one ratio and shift per cluster");
    Epoch epoch;
    epoch.ratio.assign(ratio.begin(), ratio.end());
    epoch.shift.assign(shift.begin(), shift.end());
    epoch.minRatio = *std::min_element(ratio.begin(), ratio.end());
    epoch.maxShift = *std::max_element(shift.begin(), shift.end());
    epoch.move = true;
    epochs_.push_back(std::move(epoch));
}

template <int D>
void AssignEngine<D>::resetBounds() {
    std::fill(ub_.begin(), ub_.end(), kInf);
    std::fill(lb_.begin(), lb_.end(), 0.0);
    // The reset bounds are current, so no logged epoch may be replayed.
    epochs_.clear();
}

template class AssignEngine<2>;
template class AssignEngine<3>;

}  // namespace geo::core
