#include "core/point_store.hpp"

#include <algorithm>

#include "par/parallel_for.hpp"
#include "support/assert.hpp"

namespace geo::core {

template <int D>
PointStore<D>::PointStore(std::span<const Point<D>> points,
                          std::span<const double> weights, std::vector<std::size_t> order,
                          std::uint64_t budgetBytes)
    : points_(points), weights_(weights), budget_(budgetBytes), order_(std::move(order)) {
    GEO_REQUIRE(weights_.empty() || weights_.size() == points_.size(),
                "weights must be empty or match points");
    GEO_REQUIRE(std::all_of(order_.begin(), order_.end(),
                            [&](std::size_t p) { return p < points_.size(); }),
                "order entries must index points");
}

template <int D>
void PointStore<D>::setActive(std::size_t activeCount, int threads) {
    GEO_REQUIRE(activeCount <= order_.size(), "active count exceeds the order");
    GEO_REQUIRE(activeCount >= active_, "the active prefix only grows");
    const std::size_t before = active_;
    active_ = activeCount;

    // Extend the active box by the newly active slots: per-worker partial
    // boxes merged serially. Box merge is exact coordinate min/max, so the
    // result equals the box of the whole prefix at any thread count.
    if (active_ > before) {
        std::vector<Box<D>> partial(static_cast<std::size_t>(std::max(1, threads)),
                                    Box<D>::empty());
        par::parallelFor(threads, active_ - before,
                         [&](std::size_t i0, std::size_t i1, int worker) {
                             Box<D> bb = Box<D>::empty();
                             for (std::size_t i = before + i0; i < before + i1; ++i)
                                 bb.extend(points_[order_[i]]);
                             partial[static_cast<std::size_t>(worker)] = bb;
                         });
        for (const auto& bb : partial)
            if (bb.valid()) box_.extend(bb);
    }

    // Wave geometry: whole set resident when it fits the budget; otherwise
    // budget-sized waves rounded down to whole tiles (clamped up to one
    // tile, so a sub-tile budget still makes progress). Residency is
    // monotone in the prefix length, so a resident store was resident at
    // every earlier setActive too and already holds slots [0, before).
    resident_ = budget_ == 0 || budget_ >= kBytesPerPoint * active_;
    if (resident_) {
        wavePoints_ = active_;
    } else {
        const auto budgetPoints = static_cast<std::size_t>(budget_ / kBytesPerPoint);
        wavePoints_ = std::max(kTilePoints, budgetPoints / kTilePoints * kTilePoints);
    }
    waveCount_ = active_ == 0 || wavePoints_ == 0
                     ? 0
                     : (active_ + wavePoints_ - 1) / wavePoints_;

    const std::size_t capacity = std::min(wavePoints_, active_);
    for (int d = 0; d < D; ++d) sx_[static_cast<std::size_t>(d)].resize(capacity);
    sw_.resize(capacity);
    acc_.residentBytes = kBytesPerPoint * capacity;
    acc_.peakResidentBytes = std::max(acc_.peakResidentBytes, acc_.residentBytes);

    if (resident_) {
        const auto tiles = [](std::size_t n) { return (n + kTilePoints - 1) / kTilePoints; };
        fill(0, before, active_, threads);
        acc_.tileFills += tiles(active_) - tiles(before);
        waveFilled_.assign(waveCount_, 1);
        loadedWave_ = waveCount_ > 0 ? 0 : kNoWave;
    } else {
        waveFilled_.assign(waveCount_, 0);
        loadedWave_ = kNoWave;
    }
}

template <int D>
typename PointStore<D>::WaveView PointStore<D>::wave(std::size_t w, int threads) {
    GEO_REQUIRE(w < waveCount_, "wave index out of range");
    const std::size_t begin = w * wavePoints_;
    const std::size_t count = std::min(active_ - begin, wavePoints_);
    if (loadedWave_ != w) {
        fill(begin, begin, begin + count, threads);
        const std::uint64_t tiles = (count + kTilePoints - 1) / kTilePoints;
        acc_.tileFills += tiles;
        if (waveFilled_[w] != 0) acc_.spilledTiles += tiles;
        waveFilled_[w] = 1;
        loadedWave_ = w;
    }
    WaveView view;
    view.begin = begin;
    view.count = count;
    for (int d = 0; d < D; ++d)
        view.x[static_cast<std::size_t>(d)] = sx_[static_cast<std::size_t>(d)].data();
    view.weight = sw_.data();
    return view;
}

template <int D>
void PointStore<D>::fill(std::size_t base, std::size_t begin, std::size_t end,
                         int threads) {
    if (end <= begin) return;
    par::parallelFor(threads, end - begin, [&](std::size_t i0, std::size_t i1, int) {
        for (std::size_t slot = begin + i0; slot < begin + i1; ++slot) {
            const std::size_t p = order_[slot];
            const Point<D>& pt = points_[p];
            const std::size_t j = slot - base;
            for (int d = 0; d < D; ++d) sx_[static_cast<std::size_t>(d)][j] = pt[d];
            sw_[j] = weights_.empty() ? 1.0 : weights_[p];
        }
    });
}

template class PointStore<2>;
template class PointStore<3>;

}  // namespace geo::core
