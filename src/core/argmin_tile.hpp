// The argmin tile body, compiled once per ISA: core/argmin_kernel.cpp
// includes this file inside one namespace per variant, each under its own
// target pragma, after defining
//   V               the lane vector (double for the scalar variant),
//   splat(s)        a V with every lane s,
//   allBelow(v, s)  every lane of v < s (false on NaN, like the scalar test).
// No include guard on purpose; do not include it anywhere else.

inline constexpr std::size_t kVecLanes = sizeof(V) / sizeof(double);
inline constexpr std::size_t kRegs = kTileLanes / kVecLanes;
static_assert(kRegs * kVecLanes == kTileLanes);

/// Every tile of `lanes` against `cand`; kTwo keeps the runner-up and
/// honours the keys.
template <int D, bool kTwo>
ScanStats scanTiles(const Lanes<D>& lanes, const Candidates<D>& cand,
                    const Outputs& out) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr auto kD = static_cast<std::size_t>(D);
    ScanStats stats;
    const std::size_t k = cand.count;
    for (std::size_t t0 = 0; t0 < lanes.count; t0 += kTileLanes) {
        const std::size_t n = std::min(kTileLanes, lanes.count - t0);
        V x[kD][kRegs];
        for (std::size_t d = 0; d < kD; ++d) {
            const double* src = lanes.x[d] + t0;
            // A short tail tile repeats its first lane: a copy shares that
            // lane's break condition, so it never changes when the tile stops.
            alignas(64) double pad[kTileLanes];
            if (n < kTileLanes) {
                for (std::size_t l = 0; l < kTileLanes; ++l) pad[l] = src[l < n ? l : 0];
                src = pad;
            }
            for (std::size_t r = 0; r < kRegs; ++r)
                std::memcpy(&x[d][r], src + r * kVecLanes, sizeof(V));
        }
        V best2[kRegs], second2[kRegs], bestI[kRegs], secondI[kRegs];
        for (std::size_t r = 0; r < kRegs; ++r) {
            best2[r] = second2[r] = splat(kInf);
            bestI[r] = secondI[r] = splat(-1.0);
        }

        std::size_t scanned = k;
        for (std::size_t ci = 0; ci < k; ++ci) {
            double c[kD];
            for (std::size_t d = 0; d < kD; ++d) c[d] = cand.cx[d][ci];
            const double inv = cand.invInfluence2[ci];
            const auto id = static_cast<double>(ci);
            for (std::size_t r = 0; r < kRegs; ++r) {
                V diff = x[0][r] - c[0];
                V d2 = diff * diff;
                for (std::size_t d = 1; d < kD; ++d) {
                    diff = x[d][r] - c[d];
                    const V sq = diff * diff;
                    d2 = d2 + sq;
                }
                const V e2 = d2 * inv;
                const V ob = best2[r];
                const auto better = e2 < ob;
                if constexpr (kTwo) {
                    // second' = min(second, max(e2, best)) in minpd/maxpd
                    // operand order; ids follow with flat selects.
                    const auto beatsSecond = e2 < second2[r];
                    const V hi = e2 > ob ? e2 : ob;
                    second2[r] = second2[r] < hi ? second2[r] : hi;
                    const V demoted = beatsSecond ? id : secondI[r];
                    secondI[r] = better ? bestI[r] : demoted;
                }
                bestI[r] = better ? id : bestI[r];
                best2[r] = better ? e2 : ob;
            }
            if constexpr (kTwo) {
                if (cand.key != nullptr && ci + 1 < k &&
                    (ci % kBreakInterval == kBreakInterval - 1 || ci + 2 == k)) {
                    const double nextKey = cand.key[ci + 1];
                    bool done = true;
                    for (std::size_t r = 0; r < kRegs; ++r)
                        done = done && allBelow(second2[r], nextKey);
                    if (done) {
                        scanned = ci + 1;
                        stats.breaks += n;
                        break;
                    }
                }
            }
        }
        stats.distances += n * scanned;

        alignas(64) double lane[4][kTileLanes];
        for (std::size_t r = 0; r < kRegs; ++r) {
            std::memcpy(&lane[0][r * kVecLanes], &bestI[r], sizeof(V));
            std::memcpy(&lane[1][r * kVecLanes], &best2[r], sizeof(V));
            std::memcpy(&lane[2][r * kVecLanes], &secondI[r], sizeof(V));
            std::memcpy(&lane[3][r * kVecLanes], &second2[r], sizeof(V));
        }
        for (std::size_t l = 0; l < n; ++l) {
            out.best[t0 + l] = static_cast<std::int32_t>(lane[0][l]);
            if (out.best2 != nullptr) out.best2[t0 + l] = lane[1][l];
            if constexpr (kTwo) {
                out.second[t0 + l] = static_cast<std::int32_t>(lane[2][l]);
                if (out.second2 != nullptr) out.second2[t0 + l] = lane[3][l];
            }
        }
    }
    return stats;
}
