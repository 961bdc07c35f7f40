/**
 * @file
 * SIMD backend kernels. This is the ONLY translation unit in the repo
 * allowed to include immintrin.h (zcomp_lint enforces this). The rest
 * of the tree is compiled for the baseline ISA; every kernel here is
 * a non-inline function with an explicit target attribute, selected
 * at runtime via __builtin_cpu_supports.
 *
 * Bit-identity notes (each kernel mirrors a scalar reference loop):
 *  - laneHeader: laneKept() tests raw lane bits: EQZ keeps raw != 0
 *    (integer test), LTEZ keeps raw != 0 && sign-bit clear, which for
 *    an N-bit lane is exactly the signed integer compare lane > 0.
 *  - pack/unpack: exact byte moves; no lane is reinterpreted as FP.
 *  - axpyF32/dotPanel16F32: the build's baseline ISA has no FMA, so
 *    scalar code compiles to separate multiply + add; the kernels use
 *    separate _mm512_mul_ps / _mm512_add_ps in the same operand order
 *    and the same ascending accumulation order. GCC's mul/add intrinsics
 *    lower to plain vector operators, and target("avx512f") enables
 *    FMA, so this file is compiled with -ffp-contract=off (see the
 *    CMakeLists rule) to stop GCC fusing those pairs into vfmadd.
 */

#include "common/simd.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/check.hh"
#include "common/log.hh"

#if defined(__x86_64__) || defined(__i386__)
#define ZCOMP_SIMD_X86 1
// GCC's AVX-512 intrinsics expand through _mm512_undefined_epi32(),
// which trips -Wuninitialized when optimization inlines them (GCC
// PR105593); the value is immediately overwritten by the intrinsic.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#else
#define ZCOMP_SIMD_X86 0
#endif

namespace zcomp {
namespace simd {

namespace {

#if ZCOMP_SIMD_X86

#define ZCOMP_AVX512_TARGET "avx512f,avx512bw,avx512vl,avx512dq"

__attribute__((target(ZCOMP_AVX512_TARGET)))
uint64_t
laneHeaderAvx512(const uint8_t *vec, int elemBytes, bool dropNonPositive)
{
    const __m512i v = _mm512_loadu_si512(vec);
    const __m512i zero = _mm512_setzero_si512();
    switch (elemBytes) {
      case 1:
        return dropNonPositive
            ? static_cast<uint64_t>(_mm512_cmpgt_epi8_mask(v, zero))
            : static_cast<uint64_t>(_mm512_test_epi8_mask(v, v));
      case 2:
        return dropNonPositive
            ? static_cast<uint64_t>(_mm512_cmpgt_epi16_mask(v, zero))
            : static_cast<uint64_t>(_mm512_test_epi16_mask(v, v));
      case 4:
        return dropNonPositive
            ? static_cast<uint64_t>(_mm512_cmpgt_epi32_mask(v, zero))
            : static_cast<uint64_t>(_mm512_test_epi32_mask(v, v));
      default: // 8
        return dropNonPositive
            ? static_cast<uint64_t>(_mm512_cmpgt_epi64_mask(v, zero))
            : static_cast<uint64_t>(_mm512_test_epi64_mask(v, v));
    }
}

__attribute__((target(ZCOMP_AVX512_TARGET)))
void
packLanesAvx512(const uint8_t *vec, int elemBytes, uint64_t header,
                uint8_t *dst)
{
    const __m512i v = _mm512_loadu_si512(vec);
    // The compress-store memory forms write exactly popcount(mask)
    // elements, so nothing beyond the payload is touched.
    if (elemBytes == 4) {
        _mm512_mask_compressstoreu_epi32(
            dst, static_cast<__mmask16>(header), v);
    } else { // 8
        _mm512_mask_compressstoreu_epi64(
            dst, static_cast<__mmask8>(header), v);
    }
}

__attribute__((target(ZCOMP_AVX512_TARGET)))
void
unpackLanesAvx512(const uint8_t *payload, int elemBytes, uint64_t header,
                  uint8_t *out)
{
    // The expand-load memory forms read exactly popcount(mask)
    // elements; masked-off lanes are zeroed, never loaded.
    __m512i v;
    if (elemBytes == 4) {
        v = _mm512_maskz_expandloadu_epi32(
            static_cast<__mmask16>(header), payload);
    } else { // 8
        v = _mm512_maskz_expandloadu_epi64(
            static_cast<__mmask8>(header), payload);
    }
    _mm512_storeu_si512(out, v);
}

__attribute__((target(ZCOMP_AVX512_TARGET)))
void
axpyF32Avx512(float av, const float *b, float *c, size_t n)
{
    const __m512 a = _mm512_set1_ps(av);
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512 prod = _mm512_mul_ps(a, _mm512_loadu_ps(b + j));
        _mm512_storeu_ps(c + j,
                         _mm512_add_ps(_mm512_loadu_ps(c + j), prod));
    }
    if (j < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - j)) - 1u);
        const __m512 bb = _mm512_maskz_loadu_ps(m, b + j);
        const __m512 cc = _mm512_maskz_loadu_ps(m, c + j);
        _mm512_mask_storeu_ps(c + j, m,
                              _mm512_add_ps(cc, _mm512_mul_ps(a, bb)));
    }
}

__attribute__((target(ZCOMP_AVX512_TARGET)))
void
dotPanel16F32Avx512(const float *a, const float *bt, size_t plen,
                    float *acc)
{
    __m512 s = _mm512_loadu_ps(acc);
    for (size_t p = 0; p < plen; p++) {
        s = _mm512_add_ps(
            s, _mm512_mul_ps(_mm512_set1_ps(a[p]),
                             _mm512_loadu_ps(bt + p * 16)));
    }
    _mm512_storeu_ps(acc, s);
}

#endif // ZCOMP_SIMD_X86

std::atomic<int> g_backend{-1};

Backend
resolveBackend()
{
    const char *env = std::getenv("ZCOMP_SIMD");
    if (!env || !*env)
        return bestSupportedBackend();
    Backend req;
    if (!parseBackend(env, req)) {
        warn("ZCOMP_SIMD=%s not recognized (want off|scalar|avx512|auto); "
             "using auto",
             env);
        return bestSupportedBackend();
    }
    if (!backendSupported(req)) {
        warn("ZCOMP_SIMD=%s unsupported on this host; using %s", env,
             backendName(bestSupportedBackend()));
        return bestSupportedBackend();
    }
    return req;
}

} // namespace

const char *
backendName(Backend b)
{
    switch (b) {
      case Backend::Scalar: return "scalar";
      case Backend::Avx512: return "avx512";
    }
    panic("invalid SIMD backend %d", static_cast<int>(b));
}

bool
backendSupported(Backend b)
{
    switch (b) {
      case Backend::Scalar:
        return true;
      case Backend::Avx512:
#if ZCOMP_SIMD_X86
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512vl") &&
               __builtin_cpu_supports("avx512dq");
#else
        return false;
#endif
    }
    return false;
}

Backend
bestSupportedBackend()
{
    return backendSupported(Backend::Avx512) ? Backend::Avx512
                                             : Backend::Scalar;
}

Backend
activeBackend()
{
    int b = g_backend.load(std::memory_order_relaxed);
    if (b < 0) {
        int resolved = static_cast<int>(resolveBackend());
        int expected = -1;
        g_backend.compare_exchange_strong(expected, resolved);
        b = g_backend.load(std::memory_order_relaxed);
    }
    return static_cast<Backend>(b);
}

void
setBackend(Backend b)
{
    ZCOMP_CHECK(backendSupported(b),
                "SIMD backend %s not supported on this host",
                backendName(b));
    g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
}

bool
parseBackend(const char *name, Backend &out)
{
    if (!name)
        return false;
    const auto is = [name](const char *s) {
        return std::strcmp(name, s) == 0;
    };
    if (is("off") || is("scalar") || is("0")) {
        out = Backend::Scalar;
        return true;
    }
    if (is("avx512")) {
        out = Backend::Avx512;
        return true;
    }
    if (is("auto") || is("on") || is("1")) {
        out = bestSupportedBackend();
        return true;
    }
    return false;
}

#if ZCOMP_SIMD_X86

bool
laneHeader(const uint8_t *vec, int elemBytes, bool dropNonPositive,
           uint64_t &header)
{
    if (activeBackend() != Backend::Avx512)
        return false;
    header = laneHeaderAvx512(vec, elemBytes, dropNonPositive);
    return true;
}

bool
packLanes(const uint8_t *vec, int elemBytes, uint64_t header,
          uint8_t *dst)
{
    // 1- and 2-byte lanes need VBMI2 compress, which we do not
    // require; those widths stay on the scalar reference.
    if (activeBackend() != Backend::Avx512 ||
        (elemBytes != 4 && elemBytes != 8))
        return false;
    packLanesAvx512(vec, elemBytes, header, dst);
    return true;
}

bool
unpackLanes(const uint8_t *payload, int elemBytes, uint64_t header,
            uint8_t *out)
{
    if (activeBackend() != Backend::Avx512 ||
        (elemBytes != 4 && elemBytes != 8))
        return false;
    unpackLanesAvx512(payload, elemBytes, header, out);
    return true;
}

bool
axpyF32(float av, const float *b, float *c, size_t n)
{
    if (activeBackend() != Backend::Avx512)
        return false;
    axpyF32Avx512(av, b, c, n);
    return true;
}

bool
dotPanel16F32(const float *a, const float *bt, size_t plen, float *acc)
{
    if (activeBackend() != Backend::Avx512)
        return false;
    dotPanel16F32Avx512(a, bt, plen, acc);
    return true;
}

#else // !ZCOMP_SIMD_X86: no native backend; every call site runs scalar.

bool
laneHeader(const uint8_t *, int, bool, uint64_t &)
{
    return false;
}

bool
packLanes(const uint8_t *, int, uint64_t, uint8_t *)
{
    return false;
}

bool
unpackLanes(const uint8_t *, int, uint64_t, uint8_t *)
{
    return false;
}

bool
axpyF32(float, const float *, float *, size_t)
{
    return false;
}

bool
dotPanel16F32(const float *, const float *, size_t, float *)
{
    return false;
}

#endif // ZCOMP_SIMD_X86

} // namespace simd
} // namespace zcomp

#if ZCOMP_SIMD_X86
#pragma GCC diagnostic pop
#endif
