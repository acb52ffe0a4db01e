// The weighted-Voronoi argmin kernel shared by the assignment sweep
// (core/assign_kernel) and batched routing (serve/snapshot): for every
// query lane p, scan candidate centers c in the caller's order and keep the
// smallest e2 = ‖p − c‖² · (1/I_c²) — and, for the sweep, the runner-up.
// Comparisons are strict, so the first candidate scanned wins a tie.
//
// Lanes go through in tiles of kTileLanes whose coordinates, best/second
// values and candidate indices (as doubles, one select width) stay in
// vector registers across the whole candidate list. With ascending pruning
// keys (lower bounds on e2 for every lane), a tile stops once
// key[next] > second2 holds for ALL its lanes, checked every kBreakInterval
// candidates: no remaining candidate can change any lane's best or second,
// so results are exact.
//
// One tile body is compiled as scalar, SSE2, AVX2 and AVX-512F variants
// (x86 GCC builds; elsewhere scalar only); activeIsa() picks the widest the
// CPU supports. The logical tile width and break schedule are the same for
// every variant and the kernel's TU disables FMA contraction, so values,
// indices and counts are bitwise identical across variants.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace geo::core::argmin {

enum class Isa : std::uint8_t { Scalar, Sse2, Avx2, Avx512 };
inline constexpr std::array<Isa, 4> kIsas{Isa::Scalar, Isa::Sse2, Isa::Avx2, Isa::Avx512};

/// "scalar", "sse2", "avx2" or "avx512f".
[[nodiscard]] const char* isaName(Isa isa) noexcept;
/// Compiled into this build and supported by the running CPU.
[[nodiscard]] bool isaSupported(Isa isa) noexcept;
/// The variant calls without an explicit Isa run: the widest supported one
/// unless a ScopedIsa is alive.
[[nodiscard]] Isa activeIsa() noexcept;

/// Pins activeIsa() process-wide for the object's lifetime (tests and
/// benches); create it while no kernel call is in flight.
class ScopedIsa {
public:
    explicit ScopedIsa(Isa isa);
    ~ScopedIsa();
    ScopedIsa(const ScopedIsa&) = delete;
    ScopedIsa& operator=(const ScopedIsa&) = delete;

private:
    int previous_;
};

/// One AVX-512 register, two AVX2, four SSE2 or eight scalars.
inline constexpr std::size_t kTileLanes = 8;
inline constexpr std::size_t kBreakInterval = 4;

/// Query lanes, SoA.
template <int D>
struct Lanes {
    std::array<const double*, static_cast<std::size_t>(D)> x{};
    std::size_t count = 0;
};

/// Candidates in scan order, SoA; `key` (optional) ascending.
template <int D>
struct Candidates {
    std::array<const double*, static_cast<std::size_t>(D)> cx{};
    const double* invInfluence2 = nullptr;
    const double* key = nullptr;
    std::size_t count = 0;
};

/// Per-lane outputs: scan indices (-1 when nothing beat +∞) and, when
/// non-null, the e2 values. `second == nullptr` selects the best-only scan,
/// which visits every candidate (keys must then be null).
struct Outputs {
    std::int32_t* best = nullptr;
    std::int32_t* second = nullptr;
    double* best2 = nullptr;
    double* second2 = nullptr;
};

struct ScanStats {
    std::uint64_t distances = 0;  ///< lanes × candidates scanned
    std::uint64_t breaks = 0;     ///< lanes whose tile stopped on a key
};

template <int D>
ScanStats nearest(const Lanes<D>& lanes, const Candidates<D>& candidates,
                  const Outputs& out, Isa isa = activeIsa());

}  // namespace geo::core::argmin
