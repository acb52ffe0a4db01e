// Fast point-to-center assignment engine for balanced k-means.
//
// Every subsystem (one-shot partitioner, repart warm restarts, hier
// per-node solves) funnels into the assignment sweep of Algorithm 1/2; this
// engine owns that hot path. Four ideas, independently toggleable through
// Settings:
//
//   1. Squared effective-distance domain. Candidates are compared as
//      dist²(p,c) · (1/influence(c)²); x ↦ x² is monotone on non-negative
//      effective distances, so the argmin (and the bbox-pruning break) are
//      unchanged while the per-candidate sqrt disappears. Only when a point
//      is actually (re)assigned are its Hamerly bounds materialized — at
//      most two sqrts per assigned point, computed with the exact same
//      expression (`distance(p,c)/influence(c)`) the scalar reference path
//      uses, so ub/lb stay bitwise identical between modes.
//   2. Lazy epoch-based bounds. Influence adaptation and center movement no
//      longer sweep all n points to relax ub/lb; they append one epoch
//      (per-cluster ratio/shift + the min-ratio/max-shift scalars) to a log,
//      and a point replays the log when it is next touched. Every sweep
//      brings every active slot current (assigned slots replay, the rest
//      are materialized), so all assigned slots always lag by the same
//      epochs — the log holds exactly the epochs since the last sweep and
//      is cleared at its end; no per-point epoch stamp is needed. Each
//      balance round costs O(active points) instead of O(n) — the big win
//      for sampled initialization and warm-started repartitioning.
//      Sequential replay applies the identical multiply/add per round the
//      eager sweeps performed, so bound values are bitwise unchanged.
//   3. Slot-ordered state over a budgeted SoA mirror (core::PointStore) +
//      cache-blocked batch kernel. The sampling order is fixed at
//      construction and the active set is always a growing prefix of it,
//      so every per-point array (assignment, ub, lb) is indexed by
//      *slot* — the position in that order — not by point id. The skip
//      test, the per-block sizes and the center update stream contiguous
//      arrays in lockstep with the store's tiles; only assignment()
//      scatters back to point order, once per run. The store
//      mirrors coordinates and weights under the byte budget of
//      Settings::memoryBudgetBytes / GEO_MEM_BUDGET: unlimited keeps the
//      whole set resident and gathers each slot once per run, when it
//      first becomes active; a finite budget materializes budget-sized
//      waves of fixed 1024-point tiles, regenerated from the caller's
//      points on every pass. The sweep walks the waves in order, each
//      wave's fixed 1024-point blocks in parallel, gathers the not-skipped
//      slots of each block into contiguous scratch, and hands them to the
//      shared weighted-Voronoi argmin kernel (core/argmin_kernel: register
//      tiles, tile-level bbox break, runtime ISA dispatch) over the centers
//      in pruning-key order; ub/lb are materialized from the gathered lane
//      coordinates. Weighted cluster sizes are accumulated per block and
//      reduced in block order.
//   4. Intra-rank threading (Settings::threads; the old name assignThreads
//      survives as a deprecated alias) via par::parallelFor over whole
//      blocks. Because block (and wave) boundaries are fixed and the block
//      partials are reduced serially in ascending global block order —
//      waves ascending, blocks within a wave ascending, which is the same
//      left fold the resident path performs — results are bitwise
//      identical at every thread count AND every memory budget. The same
//      contract covers updateCenters(), the threaded Alg. 2 line-13
//      reduction.
//
// Settings::referenceAssignment selects the scalar sqrt-domain kernel (the
// seed implementation's per-candidate loop) as an equivalence oracle; the
// suite in tests/test_kmeans.cpp proves fast == reference == seed exactly.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/center_tree.hpp"
#include "core/point_store.hpp"
#include "core/settings.hpp"
#include "geometry/box.hpp"
#include "geometry/point.hpp"

namespace geo::core {

template <int D>
class AssignEngine {
public:
    /// `points`/`weights` must outlive the engine (weights may be empty =
    /// unit). `order` is a permutation of the point ids, fixed for the
    /// engine's lifetime: slot j is point order[j], and the active set is
    /// always the prefix of slots [0, activeCount). `k` is the number of
    /// clusters.
    AssignEngine(std::span<const Point<D>> points, std::span<const double> weights,
                 std::vector<std::size_t> order, const Settings& settings,
                 std::int32_t k);

    /// Grow the active prefix to slots [0, activeCount) — never shrinks.
    /// The PointStore extends the active bounding box and (budget
    /// permitting) mirrors the newly active points. Called once per
    /// assignAndBalance (the active set only changes between calls).
    void setActive(std::size_t activeCount);

    /// Bounding box of the active points (invalid when none are active).
    [[nodiscard]] const Box<D>& activeBox() const noexcept {
        return store_.activeBox();
    }

    /// Start one assignment round against `centers`/`influence` (replicated
    /// state; spans must stay valid until the next beginRound). Recomputes
    /// the bbox-pruning candidate order from `activeBox` — pruning keys are
    /// only ever consulted when they were computed in *this* round, so a
    /// round whose box is invalid can never scan against stale keys.
    void beginRound(std::span<const Point<D>> centers, std::span<const double> influence,
                    const Box<D>& activeBox);

    /// One assignment sweep over the active points: replay missed bound
    /// epochs, skip via ub < lb, (re)assign the rest, and write the
    /// deterministic per-cluster weighted sizes into `localSizes` (k wide).
    void sweep(std::span<double> localSizes);

    /// Weighted per-cluster coordinate/weight sums over the active points —
    /// the Alg. 2 line-13 center-update reduction. `sums` is k·(D+1) wide:
    /// D coordinate sums then the weight per cluster. Runs over the same
    /// fixed 1024-slot blocks as sweep(), with per-block partials reduced
    /// serially in block order, so the result is bitwise identical at every
    /// Settings::threads value (and to the block-ordered serial sum).
    void updateCenters(std::span<double> sums);

    /// Influence changed from I to I' (ratio = I/I'): ub scales by its own
    /// cluster's ratio, lb by the smallest ratio. O(k), applied lazily.
    void pushInfluenceEpoch(std::span<const double> ratio);

    /// Centers moved by delta (shift = delta/I') and influence possibly
    /// eroded (ratio = I/I'): Eq. 4–5 relaxation, O(k), applied lazily.
    void pushMoveEpoch(std::span<const double> ratio, std::span<const double> shift);

    /// Forget all bounds (ub = ∞, lb = 0) and drop the epoch log.
    void resetBounds();

    /// Cluster per point id (-1 while never active): the slot-ordered state
    /// scattered back through the order — one O(n) pass, meant for the end
    /// of a run, not for the hot loop.
    [[nodiscard]] std::vector<std::int32_t> assignment() const;
    [[nodiscard]] const KMeansCounters& counters() const noexcept { return counters_; }

private:
    struct Epoch {
        std::vector<double> ratio;  ///< per-cluster I/I'
        std::vector<double> shift;  ///< per-cluster delta/I' (move epochs only)
        double minRatio = 1.0;
        double maxShift = 0.0;
        bool move = false;
    };

    /// Per-worker scratch: gathered coordinates + the argmin kernel's
    /// per-lane best/second candidates (positions in the key order).
    struct Scratch {
        std::vector<std::size_t> slot;  ///< active slot per gathered lane
        std::array<std::vector<double>, static_cast<std::size_t>(D)> gx;
        std::vector<std::int32_t> best, second;
        KMeansCounters counters;
    };

    void processBlock(const typename PointStore<D>::WaveView& wave,
                      std::size_t block, Scratch& scratch, double* blockSizes);
    void batchKernel(Scratch& scratch, std::size_t m);
    void recordStoreCounters();
    [[nodiscard]] Point<D> lanePoint(const Scratch& scratch, std::size_t j) const noexcept;
    void assignPointReference(std::size_t slot, const Point<D>& pt,
                              KMeansCounters& counters);
    void applyEpochs(std::size_t slot, KMeansCounters& counters);

    const Settings& settings_;
    std::int32_t k_;

    // Persistent per-point state, indexed by active slot (order position).
    std::vector<std::int32_t> assignment_;
    std::vector<double> ub_, lb_;
    std::vector<Epoch> epochs_;  ///< pushed since the last sweep

    // Budgeted active-set mirror: the shared tiled point representation
    // (coords + weights in fixed tiles, the slot order, bounding box).
    PointStore<D> store_;

    // Round state.
    std::span<const Point<D>> centers_;
    std::span<const double> influence_;
    std::vector<std::int32_t> sortedCenters_;
    std::vector<double> centerKey_;
    bool keysValid_ = false;  ///< pruning keys were computed this round
    /// The centers in sortedCenters_ order, SoA, for the argmin kernel
    /// (keys ascending; the key array is handed over only when keysValid_).
    std::array<std::vector<double>, static_cast<std::size_t>(D)> candX_;
    std::vector<double> candInv_, candKey_;
    CenterKdTree<D> tree_;

    std::vector<double> blockSizes_;  ///< per-block weighted cluster sizes
    std::vector<double> blockSums_;   ///< per-block center-update partials
    std::vector<Scratch> scratch_;
    KMeansCounters counters_;
};

extern template class AssignEngine<2>;
extern template class AssignEngine<3>;

}  // namespace geo::core
