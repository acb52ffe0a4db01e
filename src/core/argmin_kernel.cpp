// No floating-point contraction in this translation unit: with AVX-512F
// enabled GCC would fuse `d2 + diff * diff` into an FMA, whose single
// rounding gives that variant different e2 bits. A pragma, not a per-file
// flag, so every build of src/ gets it; it precedes every definition.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("fp-contract=off")
#elif defined(__clang__)
#pragma clang fp contract(off)
#endif

#include "core/argmin_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>

#include "support/assert.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__) && !defined(__clang__)
#define GEO_ARGMIN_X86 1
#include <immintrin.h>
#else
#define GEO_ARGMIN_X86 0
#endif

namespace geo::core::argmin {

namespace scalar_isa {
using V = double;
inline V splat(double s) noexcept { return s; }
inline bool allBelow(V v, double s) noexcept { return v < s; }
#include "core/argmin_tile.hpp"
}  // namespace scalar_isa

#if GEO_ARGMIN_X86
#pragma GCC push_options
#pragma GCC target("sse2")
namespace sse2_isa {
using V = double __attribute__((vector_size(16)));
inline V splat(double s) noexcept { return V{} + s; }
inline bool allBelow(V v, double s) noexcept {
    return _mm_movemask_pd(_mm_cmplt_pd(v, _mm_set1_pd(s))) == 0x3;
}
#include "core/argmin_tile.hpp"
}  // namespace sse2_isa
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2_isa {
using V = double __attribute__((vector_size(32)));
inline V splat(double s) noexcept { return V{} + s; }
inline bool allBelow(V v, double s) noexcept {
    return _mm256_movemask_pd(_mm256_cmp_pd(v, _mm256_set1_pd(s), _CMP_LT_OQ)) == 0xF;
}
#include "core/argmin_tile.hpp"
}  // namespace avx2_isa
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
namespace avx512_isa {
using V = double __attribute__((vector_size(64)));
inline V splat(double s) noexcept { return V{} + s; }
inline bool allBelow(V v, double s) noexcept {
    return _mm512_cmp_pd_mask(v, _mm512_set1_pd(s), _CMP_LT_OQ) == 0xFF;
}
#include "core/argmin_tile.hpp"
}  // namespace avx512_isa
#pragma GCC pop_options
#endif

namespace {

/// Supported variants, probed once; the widest is the default.
struct Support {
    std::array<bool, kIsas.size()> supported{true};
    Isa widest = Isa::Scalar;

    Support() {
#if GEO_ARGMIN_X86
        __builtin_cpu_init();
        supported[1] = __builtin_cpu_supports("sse2");
        supported[2] = __builtin_cpu_supports("avx2");
        supported[3] = __builtin_cpu_supports("avx512f");
#endif
        for (const Isa isa : kIsas)
            if (supported[static_cast<std::size_t>(isa)]) widest = isa;
    }
};

const Support& support() {
    static const Support probed;
    return probed;
}

/// -1 = no ScopedIsa alive; otherwise the pinned Isa.
std::atomic<int> pinned{-1};

template <int D, bool kTwo>
ScanStats dispatch(const Lanes<D>& lanes, const Candidates<D>& cand, const Outputs& out,
                   Isa isa) {
    switch (isa) {
#if GEO_ARGMIN_X86
    case Isa::Sse2:
        return sse2_isa::scanTiles<D, kTwo>(lanes, cand, out);
    case Isa::Avx2:
        return avx2_isa::scanTiles<D, kTwo>(lanes, cand, out);
    case Isa::Avx512:
        return avx512_isa::scanTiles<D, kTwo>(lanes, cand, out);
#endif
    default:
        return scalar_isa::scanTiles<D, kTwo>(lanes, cand, out);
    }
}

}  // namespace

const char* isaName(Isa isa) noexcept {
    constexpr std::array<const char*, kIsas.size()> kNames{"scalar", "sse2", "avx2",
                                                           "avx512f"};
    return kNames[static_cast<std::size_t>(isa)];
}

bool isaSupported(Isa isa) noexcept {
    return support().supported[static_cast<std::size_t>(isa)];
}

Isa activeIsa() noexcept {
    const int p = pinned.load(std::memory_order_relaxed);
    return p < 0 ? support().widest : static_cast<Isa>(p);
}

ScopedIsa::ScopedIsa(Isa isa) : previous_(-1) {
    GEO_REQUIRE(isaSupported(isa), "argmin variant not supported on this CPU/build");
    previous_ = pinned.exchange(static_cast<int>(isa), std::memory_order_relaxed);
}

ScopedIsa::~ScopedIsa() { pinned.store(previous_, std::memory_order_relaxed); }

template <int D>
ScanStats nearest(const Lanes<D>& lanes, const Candidates<D>& candidates,
                  const Outputs& out, Isa isa) {
    GEO_REQUIRE(isaSupported(isa), "argmin variant not supported on this CPU/build");
    if (out.second != nullptr) return dispatch<D, true>(lanes, candidates, out, isa);
    GEO_REQUIRE(candidates.key == nullptr, "the best-only scan visits every candidate");
    return dispatch<D, false>(lanes, candidates, out, isa);
}

template ScanStats nearest<2>(const Lanes<2>&, const Candidates<2>&, const Outputs&, Isa);
template ScanStats nearest<3>(const Lanes<3>&, const Candidates<3>&, const Outputs&, Isa);

}  // namespace geo::core::argmin
