#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/simd.h"
#include "common/simd_internal.h"

/**
 * @file
 * NEON (aarch64 Advanced SIMD) backend, 128-bit f32 lanes.
 *
 * Advanced SIMD and half-precision *conversion* (fcvt between f16 and
 * f32) are baseline ARMv8.0-A, so no extra compile flags are needed —
 * just -ffp-contract=off like every backend TU. On non-aarch64 builds
 * this reduces to a nullptr stub. The default FPCR (round-to-nearest-
 * even, flush-to-zero off) gives the conversions the same rounding as
 * the software path.
 */

#if defined(__aarch64__)
#define ENODE_SIMD_BUILD_NEON 1
#endif

#ifdef ENODE_SIMD_BUILD_NEON

#include <arm_neon.h>

namespace enode {
namespace {

struct VecF
{
    static constexpr std::size_t kWidth = 4;
    float32x4_t v;

    static VecF load(const float *p) { return {vld1q_f32(p)}; }
    void store(float *p) const { vst1q_f32(p, v); }
    static VecF broadcast(float x) { return {vdupq_n_f32(x)}; }
    VecF add(VecF o) const { return {vaddq_f32(v, o.v)}; }
    VecF mul(VecF o) const { return {vmulq_f32(v, o.v)}; }
    VecF div(VecF o) const { return {vdivq_f32(v, o.v)}; }
    // fmin/fmax would return the NaN operand from either side; the
    // compare-select keeps the x86 minps/maxps semantics every backend
    // shares (NaN in o returned, NaN in v replaced by o).
    VecF min(VecF o) const { return {vbslq_f32(vcltq_f32(v, o.v), v, o.v)}; }
    VecF max(VecF o) const { return {vbslq_f32(vcgtq_f32(v, o.v), v, o.v)}; }
    static void
    addLanes4(VecF r0, VecF r1, VecF r2, VecF r3, float s[4])
    {
        float lanes[4][4];
        r0.store(lanes[0]);
        r1.store(lanes[1]);
        r2.store(lanes[2]);
        r3.store(lanes[3]);
        for (std::size_t j = 0; j < 4; j++)
            for (std::size_t k = 0; k < 4; k++)
                s[k] += lanes[k][j];
    }
};

struct VecD
{
    static constexpr std::size_t kWidth = 2;
    float64x2_t v;

    static VecD zero() { return {vdupq_n_f64(0.0)}; }
    static void
    widen8(const float *p, VecD out[4])
    {
        const float32x4_t lo = vld1q_f32(p);
        const float32x4_t hi = vld1q_f32(p + 4);
        out[0] = {vcvt_f64_f32(vget_low_f32(lo))};
        out[1] = {vcvt_high_f64_f32(lo)};
        out[2] = {vcvt_f64_f32(vget_low_f32(hi))};
        out[3] = {vcvt_high_f64_f32(hi)};
    }
    VecD add(VecD o) const { return {vaddq_f64(v, o.v)}; }
    VecD mul(VecD o) const { return {vmulq_f64(v, o.v)}; }
    void store(double *p) const { vst1q_f64(p, v); }
};

#define ENODE_SIMD_BACKEND_ENUM SimdBackend::Neon
#define ENODE_SIMD_BACKEND_NAME "neon"
#include "common/simd_kernels.inc"
#undef ENODE_SIMD_BACKEND_ENUM
#undef ENODE_SIMD_BACKEND_NAME

bool
allFiniteImpl(const float *x, std::size_t n)
{
    const uint32x4_t expMask = vdupq_n_u32(0x7f800000u);
    uint32x4_t bad = vdupq_n_u32(0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const uint32x4_t bits = vreinterpretq_u32_f32(vld1q_f32(x + i));
        bad = vorrq_u32(bad, vceqq_u32(vandq_u32(bits, expMask), expMask));
    }
    if (vmaxvq_u32(bad) != 0)
        return false;
    for (; i < n; i++) {
        if (!simd_detail::finiteBits(simd_detail::f32Bits(x[i])))
            return false;
    }
    return true;
}

void
quantizeFp16Impl(float *data, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float16x4_t h = vcvt_f16_f32(vld1q_f32(data + i));
        vst1q_f32(data + i, vcvt_f32_f16(h));
    }
    for (; i < n; i++)
        data[i] = simd_detail::halfRoundTrip(data[i]);
}

void
packFp16Impl(std::uint16_t *dst, const float *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float16x4_t h = vcvt_f16_f32(vld1q_f32(src + i));
        vst1_u16(dst + i, vreinterpret_u16_f16(h));
    }
    for (; i < n; i++)
        dst[i] = simd_detail::halfBitsFromFloat(src[i]);
}

void
unpackFp16Impl(float *dst, const std::uint16_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float16x4_t h = vreinterpret_f16_u16(vld1_u16(src + i));
        vst1q_f32(dst + i, vcvt_f32_f16(h));
    }
    for (; i < n; i++)
        dst[i] = simd_detail::halfToFloat(src[i]);
}

} // namespace

const SimdOps *
simdOpsNeon()
{
    return &kOps;
}

} // namespace enode

#else // !ENODE_SIMD_BUILD_NEON

namespace enode {

const SimdOps *
simdOpsNeon()
{
    return nullptr;
}

} // namespace enode

#endif
