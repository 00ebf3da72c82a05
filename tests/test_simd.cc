/**
 * @file
 * SIMD backend layer: dispatch-probe sanity, the ENODE_SIMD override,
 * and every kernel's equivalence contract against the scalar oracle.
 *
 * The contracts under test (see DESIGN.md "SIMD backend & dispatch"):
 *  - elementwise kernels, the column-form gemvT and the fixed-lane
 *    reductions (16-float accumDot16, 8-double sum of squares) are
 *    *bitwise identical* across backends, at every size including
 *    ragged tails;
 *  - the fixed-lane reductions sit within a documented reduction-order
 *    tolerance of a plain serial sum;
 *  - gemvT is each output's serial sum in input order; tanh stays within
 *    8 ulp of tanh on a sweep of every float, and Linear/Tanh batched
 *    forwards match the solo ones bitwise;
 *  - allFinite is exact; the fp16 conversions are bitwise against the
 *    software Fp16 reference for every non-NaN input (NaNs must stay
 *    NaN, payload unspecified on hardware paths).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/fp16.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/simd_internal.h"
#include "nn/activation.h"
#include "nn/linear.h"

namespace enode {
namespace {

/** Sizes chosen to straddle every backend's vector width and tail. */
const std::size_t kSizes[] = {0,  1,  2,  3,  5,  7,  8,  9,  15, 16,
                              17, 23, 31, 32, 33, 48, 63, 64, 67, 100};

/** Deterministic mixed-magnitude test data: the adversarial float set. */
std::vector<float>
testData(std::size_t n, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
    std::vector<float> out(n);
    for (std::size_t i = 0; i < n; i++) {
        switch (i % 7) {
        case 0:
            out[i] = unit(rng);
            break;
        case 1:
            out[i] = unit(rng) * 1e30f; // huge
            break;
        case 2:
            out[i] = unit(rng) * 1e-30f; // tiny
            break;
        case 3:
            out[i] = unit(rng) * 1e-42f; // subnormal territory
            break;
        case 4:
            out[i] = 0.0f;
            break;
        case 5:
            out[i] = -0.0f;
            break;
        default:
            out[i] = unit(rng) * 65000.0f; // near the fp16 edge
            break;
        }
    }
    return out;
}

bool
bitwiseEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

std::vector<SimdBackend>
vectorBackends()
{
    std::vector<SimdBackend> out;
    for (SimdBackend b : availableSimdBackends()) {
        if (b != SimdBackend::Scalar)
            out.push_back(b);
    }
    return out;
}

TEST(SimdDispatch, ProbeSanity)
{
    const auto available = availableSimdBackends();
    ASSERT_FALSE(available.empty());
    EXPECT_EQ(available.front(), SimdBackend::Scalar)
        << "scalar must always be available";

    const SimdBackend active = activeSimdBackend();
    EXPECT_TRUE(simdBackendSupported(active));
    EXPECT_TRUE(simdBackendCompiled(active));

    const SimdOps &ops = simdOps();
    EXPECT_EQ(ops.backend, active);
    EXPECT_STREQ(ops.name, simdBackendName(active));
    EXPECT_GE(ops.laneWidth, 1u);
    EXPECT_LE(ops.laneWidth, 16u);
}

TEST(SimdDispatch, ParseBackendNames)
{
    EXPECT_EQ(parseSimdBackendName("scalar"), SimdBackend::Scalar);
    EXPECT_EQ(parseSimdBackendName("avx2"), SimdBackend::Avx2);
    EXPECT_EQ(parseSimdBackendName("AVX512"), SimdBackend::Avx512);
    EXPECT_EQ(parseSimdBackendName("Neon"), SimdBackend::Neon);
    EXPECT_EQ(parseSimdBackendName("sse9"), std::nullopt);
    EXPECT_EQ(parseSimdBackendName(""), std::nullopt);
}

TEST(SimdDispatch, ScopedOverrideAppliesAndRestores)
{
    const SimdBackend before = activeSimdBackend();
    for (SimdBackend b : availableSimdBackends()) {
        ScopedSimdBackend forced(b);
        ASSERT_TRUE(forced.applied());
        EXPECT_EQ(activeSimdBackend(), b);
        EXPECT_STREQ(simdOps().name, simdBackendName(b));
    }
    EXPECT_EQ(activeSimdBackend(), before);
}

TEST(SimdDispatch, SetRejectsUnsupportedBackend)
{
    const SimdBackend before = activeSimdBackend();
    for (SimdBackend b : {SimdBackend::Neon, SimdBackend::Avx2,
                          SimdBackend::Avx512}) {
        if (!simdBackendSupported(b)) {
            EXPECT_FALSE(setSimdBackend(b));
            EXPECT_EQ(activeSimdBackend(), before);
        }
    }
}

TEST(SimdDispatch, EnvOverrideForcesBackend)
{
    // resetSimdBackend() re-runs the same selection as process startup,
    // so the env var can be exercised without re-execing the binary.
    ASSERT_EQ(setenv("ENODE_SIMD", "scalar", 1), 0);
    resetSimdBackend();
    EXPECT_EQ(activeSimdBackend(), SimdBackend::Scalar);

    // Nonsense values are ignored (with a warning): probe default wins.
    ASSERT_EQ(setenv("ENODE_SIMD", "quantum", 1), 0);
    resetSimdBackend();
    const SimdBackend probed = activeSimdBackend();
    EXPECT_TRUE(simdBackendSupported(probed));

    ASSERT_EQ(unsetenv("ENODE_SIMD"), 0);
    resetSimdBackend();
    EXPECT_EQ(activeSimdBackend(), probed);
}

// ---------------------------------------------------------------------------
// Bitwise cross-backend equivalence, scalar as the oracle.
// ---------------------------------------------------------------------------

class SimdKernelEquivalence : public ::testing::Test
{
  protected:
    /**
     * Run `kernel` under the scalar backend and under `backend`, and
     * require bitwise-identical float output.
     */
    template <typename Kernel>
    void
    expectBitwiseAcrossBackends(const Kernel &kernel)
    {
        for (SimdBackend b : vectorBackends()) {
            for (std::size_t n : kSizes) {
                std::vector<float> scalarOut;
                {
                    ScopedSimdBackend forced(SimdBackend::Scalar);
                    ASSERT_TRUE(forced.applied());
                    scalarOut = kernel(simdOps(), n);
                }
                std::vector<float> vectorOut;
                {
                    ScopedSimdBackend forced(b);
                    ASSERT_TRUE(forced.applied());
                    vectorOut = kernel(simdOps(), n);
                }
                EXPECT_TRUE(bitwiseEqual(scalarOut, vectorOut))
                    << simdBackendName(b) << " diverged from scalar at n="
                    << n;
            }
        }
    }
};

TEST_F(SimdKernelEquivalence, Axpy)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        std::vector<float> y = testData(n, 11);
        const std::vector<float> x = testData(n, 13);
        ops.axpy(y.data(), 1.7f, x.data(), n);
        return y;
    });
}

TEST_F(SimdKernelEquivalence, Scale)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        std::vector<float> y = testData(n, 17);
        ops.scale(y.data(), -0.37f, n);
        return y;
    });
}

TEST_F(SimdKernelEquivalence, AddSubInPlace)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        std::vector<float> y = testData(n, 19);
        const std::vector<float> x = testData(n, 23);
        ops.addInPlace(y.data(), x.data(), n);
        ops.subInPlace(y.data(), x.data(), n);
        return y;
    });
}

TEST_F(SimdKernelEquivalence, Copy)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        const std::vector<float> x = testData(n, 29);
        std::vector<float> y(n, -1.0f);
        ops.copy(y.data(), x.data(), n);
        return y;
    });
}

TEST_F(SimdKernelEquivalence, RowTaps3)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        std::vector<float> acc = testData(n, 31);
        const std::vector<float> row = testData(n + 2, 37);
        const float w[3] = {0.5f, -1.25f, 2.0f};
        ops.rowTaps3(acc.data(), row.data(), w, n);
        return acc;
    });
}

TEST_F(SimdKernelEquivalence, RowTaps3x4)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        std::vector<float> acc = testData(4 * n, 41);
        const std::vector<float> row = testData(n + 2, 43);
        const float w0[3] = {0.5f, -1.25f, 2.0f};
        const float w1[3] = {-0.75f, 0.1f, 1.5f};
        const float w2[3] = {3.0f, -2.0f, 0.25f};
        const float w3[3] = {0.0f, 1.0f, -1.0f};
        ops.rowTaps3x4(acc.data(), row.data(), w0, w1, w2, w3, n);
        return acc;
    });
}

TEST_F(SimdKernelEquivalence, AccumDot16LanesAndTail)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        const std::vector<float> a = testData(n, 47);
        const std::vector<float> b = testData(n, 53);
        std::vector<float> state(17);
        for (std::size_t j = 0; j < 17; j++)
            state[j] = 0.01f * static_cast<float>(j); // nonzero carry-in
        ops.accumDot16(state.data(), &state[16], a.data(), b.data(), n);
        return state;
    });
}

TEST_F(SimdKernelEquivalence, SumSquaresIsBitwiseUnderFixedLaneContract)
{
    for (SimdBackend b : vectorBackends()) {
        for (std::size_t n : kSizes) {
            const std::vector<float> x = testData(n, 67);
            double scalarSum = 0.0;
            {
                ScopedSimdBackend forced(SimdBackend::Scalar);
                ASSERT_TRUE(forced.applied());
                scalarSum = simdOps().sumSquares(x.data(), n);
            }
            ScopedSimdBackend forced(b);
            ASSERT_TRUE(forced.applied());
            const double vectorSum = simdOps().sumSquares(x.data(), n);
            EXPECT_EQ(std::memcmp(&scalarSum, &vectorSum, sizeof(double)), 0)
                << simdBackendName(b) << " norm diverged at n=" << n;
        }
    }
}

TEST_F(SimdKernelEquivalence, AllFiniteExactEverywhere)
{
    for (SimdBackend b : availableSimdBackends()) {
        ScopedSimdBackend forced(b);
        ASSERT_TRUE(forced.applied());
        const SimdOps &ops = simdOps();
        for (std::size_t n : kSizes) {
            std::vector<float> x = testData(n, 71);
            EXPECT_TRUE(ops.allFinite(x.data(), n)) << simdBackendName(b);
            // A single poison value at any position must flip it.
            const float poisons[] = {
                std::numeric_limits<float>::quiet_NaN(),
                std::numeric_limits<float>::infinity(),
                -std::numeric_limits<float>::infinity()};
            for (std::size_t i = 0; i < n; i++) {
                const float saved = x[i];
                x[i] = poisons[i % 3];
                EXPECT_FALSE(ops.allFinite(x.data(), n))
                    << simdBackendName(b) << " missed poison at " << i
                    << " of " << n;
                x[i] = saved;
            }
        }
    }
}

/** Output and input widths that straddle every backend's lane count. */
const std::size_t kGemvOuts[] = {1, 3, 4, 15, 16, 17, 63, 64, 65, 66};
const std::size_t kGemvIns[] = {0, 1, 16, 17, 64, 65};

/** acc + w * x as two rounded ops, out of the compiler's reach to fuse. */
float
addProduct(float acc, float w, float x)
{
    volatile float p = w * x;
    return acc + p;
}

TEST_F(SimdKernelEquivalence, GemvTIsEachOutputsSerialSumOnEveryBackend)
{
    for (std::size_t nOut : kGemvOuts) {
        for (std::size_t nIn : kGemvIns) {
            for (bool withBias : {false, true}) {
                const auto seed =
                    static_cast<std::uint32_t>(101 + nOut * 7 + nIn);
                const std::string where = std::to_string(nIn) + "x" +
                                          std::to_string(nOut) +
                                          " bias=" + std::to_string(withBias);
                // The contract: bias (or +0), then one rounded product
                // per input, in input order.
                const std::vector<float> wt = testData(nIn * nOut, seed);
                const std::vector<float> x = testData(nIn, seed + 1);
                const std::vector<float> bias = testData(nOut, seed + 2);
                std::vector<float> serial(nOut);
                for (std::size_t o = 0; o < nOut; o++) {
                    float acc = withBias ? bias[o] : 0.0f;
                    for (std::size_t i = 0; i < nIn; i++)
                        acc = addProduct(acc, wt[i * nOut + o], x[i]);
                    serial[o] = acc;
                }
                // y starts as junk the kernel must overwrite.
                auto run = [&] {
                    std::vector<float> y(nOut, -7.0f);
                    simdOps().gemvT(y.data(), wt.data(), x.data(),
                                    withBias ? bias.data() : nullptr, nIn,
                                    nOut);
                    return y;
                };
                std::vector<float> scalarOut;
                {
                    ScopedSimdBackend forced(SimdBackend::Scalar);
                    ASSERT_TRUE(forced.applied());
                    scalarOut = run();
                }
                EXPECT_TRUE(bitwiseEqual(scalarOut, serial))
                    << "scalar gemvT is not the serial sum at " << where;
                for (SimdBackend b : vectorBackends()) {
                    ScopedSimdBackend forced(b);
                    ASSERT_TRUE(forced.applied());
                    EXPECT_TRUE(bitwiseEqual(run(), scalarOut))
                        << simdBackendName(b)
                        << " gemvT diverged from scalar at " << where;
                }
            }
        }
    }
}

TEST_F(SimdKernelEquivalence, GemvTPropagatesNanAndInfPerOutput)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const std::size_t nIn = 17;
    for (SimdBackend b : availableSimdBackends()) {
        ScopedSimdBackend forced(b);
        ASSERT_TRUE(forced.applied());
        const SimdOps &ops = simdOps();
        for (std::size_t nOut : kGemvOuts) {
            std::mt19937 rng(static_cast<std::uint32_t>(nOut));
            std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
            std::vector<float> wt(nIn * nOut), x(nIn), bias(nOut);
            for (float &v : wt)
                v = unit(rng);
            for (float &v : x)
                v = unit(rng);
            for (float &v : bias)
                v = unit(rng);
            const std::size_t hit = nOut / 2;
            const std::string where = std::string(simdBackendName(b)) +
                                      " nOut=" + std::to_string(nOut);
            std::vector<float> y(nOut);
            auto run = [&] {
                ops.gemvT(y.data(), wt.data(), x.data(), bias.data(), nIn,
                          nOut);
            };

            // NaN in x reaches every output.
            x[5] = nan;
            run();
            for (std::size_t o = 0; o < nOut; o++)
                EXPECT_TRUE(std::isnan(y[o])) << where << " o=" << o;
            x[5] = 0.5f;

            // NaN in one bias, then Inf in one weight: only that output
            // changes, and no lane leaks into another.
            bias[hit] = nan;
            run();
            for (std::size_t o = 0; o < nOut; o++)
                EXPECT_EQ(std::isnan(y[o]), o == hit) << where << " o=" << o;
            bias[hit] = 0.0f;

            wt[3 * nOut + hit] = x[3] > 0.0f ? inf : -inf;
            run();
            for (std::size_t o = 0; o < nOut; o++) {
                if (o == hit)
                    EXPECT_EQ(y[o], inf) << where;
                else
                    EXPECT_TRUE(std::isfinite(y[o])) << where << " o=" << o;
            }

            // Inf * 0 is NaN; a later +Inf - Inf in the same chain too.
            const float saved = x[3];
            x[3] = 0.0f;
            run();
            EXPECT_TRUE(std::isnan(y[hit])) << where;
            x[3] = saved;
            wt[9 * nOut + hit] = x[9] > 0.0f ? -inf : inf;
            run();
            EXPECT_TRUE(std::isnan(y[hit])) << where;
        }
    }
}

TEST_F(SimdKernelEquivalence, TanhIsBitwiseAcrossBackends)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        std::vector<float> x = testData(n, 97);
        for (std::size_t i = 0; i < n; i += 3)
            x[i] *= 10.0f; // reach past the clamp as well
        std::vector<float> y(n);
        ops.tanh(y.data(), x.data(), n);
        ops.tanh(x.data(), x.data(), n); // in place
        EXPECT_TRUE(bitwiseEqual(x, y)) << "in-place tanh differs";
        return y;
    });
}

/** |y - tanh(x)| in units of the float spacing at tanh(x). */
double
tanhUlpError(float x, float y)
{
    const double ref = std::tanh(static_cast<double>(x));
    const double mag = std::fabs(ref);
    double ulp = std::ldexp(1.0, -149);
    if (mag >= std::ldexp(1.0, -126)) {
        int exp = 0;
        std::frexp(mag, &exp);
        ulp = std::ldexp(1.0, exp - 24);
    }
    return std::fabs(static_cast<double>(y) - ref) / ulp;
}

TEST_F(SimdKernelEquivalence, TanhWithin8UlpOnEveryFloatSweep)
{
    // Every finite float at stride 61 (both signs), then every float
    // near the clamp and a run of denormals, checked against double
    // tanh and for |y| <= 1 on scalar; every vector backend must match
    // scalar bitwise on the same sweep.
    constexpr std::uint32_t kStride = 61;
    std::vector<float> special;
    for (std::uint32_t u = 1; u < 4096; u++)
        special.push_back(simd_detail::f32FromBits(u)); // denormals
    special.push_back(simd_detail::f32FromBits(0x007fffffu));
    const std::uint32_t clampBits = simd_detail::f32Bits(9.02f);
    for (std::uint32_t u = clampBits - 4096; u < clampBits + 4096; u++)
        special.push_back(simd_detail::f32FromBits(u));

    constexpr std::size_t kBlock = 4096;
    std::vector<float> x, scalarY(kBlock), y(kBlock);
    x.reserve(kBlock);
    double worst = 0.0;
    float worstX = 0.0f;
    std::size_t checked = 0;
    bool bitwise = true, bounded = true;
    auto flush = [&] {
        {
            ScopedSimdBackend forced(SimdBackend::Scalar);
            simdOps().tanh(scalarY.data(), x.data(), x.size());
        }
        for (std::size_t i = 0; i < x.size(); i++) {
            const double err = tanhUlpError(x[i], scalarY[i]);
            if (err > worst) {
                worst = err;
                worstX = x[i];
            }
            bounded = bounded && std::fabs(scalarY[i]) <= 1.0f;
        }
        for (SimdBackend b : vectorBackends()) {
            ScopedSimdBackend forced(b);
            simdOps().tanh(y.data(), x.data(), x.size());
            bitwise = bitwise && std::memcmp(y.data(), scalarY.data(),
                                             x.size() * sizeof(float)) == 0;
        }
        checked += x.size();
        x.clear();
    };
    auto push = [&](float v) {
        x.push_back(v);
        if (x.size() == kBlock)
            flush();
    };
    for (std::uint64_t u = 0; u < 0x7f800000u; u += kStride) {
        const float v = simd_detail::f32FromBits(static_cast<std::uint32_t>(u));
        push(v);
        push(-v);
    }
    for (float v : special) {
        push(v);
        push(-v);
    }
    flush();
    EXPECT_GT(checked, 2u * (0x7f800000u / kStride));
    EXPECT_LE(worst, 8.0) << "worst at x = " << worstX;
    EXPECT_TRUE(bounded) << "|tanh| > 1 somewhere (Tanh::backward needs "
                            "1 - y^2 >= 0)";
    EXPECT_TRUE(bitwise) << "a vector backend's tanh diverged from scalar";
}

TEST_F(SimdKernelEquivalence, TanhSpecialValues)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (SimdBackend b : availableSimdBackends()) {
        ScopedSimdBackend forced(b);
        ASSERT_TRUE(forced.applied());
        // Enough elements that each lands in both a full vector and the
        // padded tail of every backend.
        std::vector<float> x;
        for (int rep = 0; rep < 5; rep++)
            x.insert(x.end(), {0.0f, -0.0f, inf, -inf, nan, -nan, 30.0f});
        std::vector<float> y(x.size());
        simdOps().tanh(y.data(), x.data(), x.size());
        for (std::size_t i = 0; i < x.size(); i += 7) {
            const std::string where =
                std::string(simdBackendName(b)) + " at " + std::to_string(i);
            EXPECT_EQ(simd_detail::f32Bits(y[i]), 0x00000000u) << where;
            EXPECT_EQ(simd_detail::f32Bits(y[i + 1]), 0x80000000u) << where;
            EXPECT_EQ(y[i + 2], 1.0f) << where;
            EXPECT_EQ(y[i + 3], -1.0f) << where;
            EXPECT_TRUE(std::isnan(y[i + 4])) << where;
            EXPECT_TRUE(std::isnan(y[i + 5])) << where;
            EXPECT_EQ(y[i + 6], 1.0f) << where;
        }
    }
}

TEST_F(SimdKernelEquivalence, LinearAndTanhBatchedMatchSoloAtEveryBatchSize)
{
    // 17 -> 66: a ragged input width and outputs past the last full
    // vector on every backend. 64 -> 16: the served MLP's output layer,
    // one vector of outputs on AVX-512.
    const std::size_t shapes[][2] = {{17, 66}, {64, 16}};
    for (SimdBackend b : availableSimdBackends()) {
        ScopedSimdBackend forced(b);
        ASSERT_TRUE(forced.applied());
        for (const auto &shape : shapes) {
            const std::size_t nIn = shape[0], nOut = shape[1];
            Rng rng(101);
            Linear linear(nIn, nOut, rng);
            Tanh tanhLayer;
            for (std::size_t batch = 1; batch <= 9; batch++) {
                Tensor xs =
                    Tensor::uniform(Shape{batch, nIn}, rng, -3.0f, 3.0f);
                Tensor linOut, tanhOut;
                linear.forwardBatched(xs, linOut);
                tanhLayer.forwardBatched(linOut, tanhOut);
                for (std::size_t s = 0; s < batch; s++) {
                    Tensor x(Shape{nIn});
                    std::memcpy(x.data(), xs.data() + s * nIn,
                                nIn * sizeof(float));
                    const Tensor lin = linear.forward(x);
                    const Tensor act = tanhLayer.forward(lin);
                    EXPECT_EQ(std::memcmp(lin.data(),
                                          linOut.data() + s * nOut,
                                          nOut * sizeof(float)),
                              0)
                        << simdBackendName(b) << " Linear " << nIn << "->"
                        << nOut << ", batch " << batch << " sample " << s;
                    EXPECT_EQ(std::memcmp(act.data(),
                                          tanhOut.data() + s * nOut,
                                          nOut * sizeof(float)),
                              0)
                        << simdBackendName(b) << " Tanh " << nIn << "->"
                        << nOut << ", batch " << batch << " sample " << s;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reduction-order tolerance vs a plain serial sum (the documented bound).
// ---------------------------------------------------------------------------

TEST(SimdReductionTolerance, SumSquaresVsSerial)
{
    // The fixed-lane reduction reorders a nonneg sum; condition number 1,
    // so the drift is bounded by ~n ulps. This is the documented
    // tolerance between Tensor::l2Norm and a serial sum.
    const std::size_t n = 4096;
    const std::vector<float> x = testData(n, 73);
    double serial = 0.0;
    for (float v : x)
        serial += static_cast<double>(v) * static_cast<double>(v);
    for (SimdBackend b : availableSimdBackends()) {
        ScopedSimdBackend forced(b);
        ASSERT_TRUE(forced.applied());
        const double got = simdOps().sumSquares(x.data(), n);
        const double tol =
            static_cast<double>(n) *
            std::numeric_limits<double>::epsilon() * serial;
        EXPECT_NEAR(got, serial, tol) << simdBackendName(b);
    }
}

TEST(SimdReductionTolerance, AccumDot16VsSerialDouble)
{
    const std::size_t n = 1024;
    std::mt19937 rng(79);
    std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
    std::vector<float> a(n), b(n);
    double serial = 0.0, absSum = 0.0;
    for (std::size_t i = 0; i < n; i++) {
        a[i] = unit(rng);
        b[i] = unit(rng);
        const double p =
            static_cast<double>(a[i]) * static_cast<double>(b[i]);
        serial += p;
        absSum += std::fabs(p);
    }
    // Signed sum: error scales with the sum of |terms|, not the result.
    const double tol = 64.0 * std::numeric_limits<float>::epsilon() * absSum;
    for (SimdBackend backend : availableSimdBackends()) {
        ScopedSimdBackend forced(backend);
        ASSERT_TRUE(forced.applied());
        float lanes[16] = {};
        float got = 0.0f;
        simdOps().accumDot16(lanes, &got, a.data(), b.data(), n);
        for (float lane : lanes)
            got += lane; // the callers' tail-first reduction
        EXPECT_NEAR(static_cast<double>(got), serial, tol)
            << simdBackendName(backend);
    }
}

// ---------------------------------------------------------------------------
// fp16 conversion kernels vs the software Fp16 reference.
// ---------------------------------------------------------------------------

/** Floats that exercise every rounding branch and boundary. */
std::vector<float>
fp16BoundarySamples()
{
    std::vector<float> out;
    // Every half value, widened (includes subnormals, infs; NaNs too).
    for (std::uint32_t h = 0; h <= 0xffffu; h++)
        out.push_back(Fp16::fromBits(static_cast<std::uint16_t>(h)).toFloat());
    // Dense scans around the encoder's branch thresholds.
    const std::uint32_t centers[] = {
        0x00000000u, // zero / smallest subnormal floats
        0x33000000u, // half of the smallest subnormal half
        0x33800000u, // smallest subnormal half
        0x38800000u, // smallest normal half
        0x477fe000u, // largest finite half
        0x47800000u, // overflow threshold (65536.0f)
        0x7f800000u, // infinity
    };
    for (std::uint32_t c : centers) {
        for (std::int32_t d = -96; d <= 96; d++) {
            const std::uint32_t bits =
                c + static_cast<std::uint32_t>(d);
            if (bits > 0x7f800000u && c != 0x7f800000u)
                continue;
            out.push_back(simd_detail::f32FromBits(bits));
            out.push_back(simd_detail::f32FromBits(bits | 0x80000000u));
        }
    }
    // Random patterns across the whole float range.
    std::mt19937 rng(83);
    for (int i = 0; i < 200000; i++)
        out.push_back(simd_detail::f32FromBits(rng()));
    return out;
}

TEST(SimdFp16, FusedScalarRoundTripMatchesFp16Class)
{
    for (float x : fp16BoundarySamples()) {
        const float viaClass = Fp16(x).toFloat();
        const float fused = simd_detail::halfRoundTrip(x);
        if (std::isnan(viaClass)) {
            EXPECT_TRUE(std::isnan(fused));
            continue;
        }
        EXPECT_EQ(simd_detail::f32Bits(viaClass), simd_detail::f32Bits(fused))
            << "input bits 0x" << std::hex << simd_detail::f32Bits(x);
    }
}

TEST(SimdFp16, ScalarHelpersMatchFp16ClassExhaustively)
{
    for (std::uint32_t h = 0; h <= 0xffffu; h++) {
        const auto bits = static_cast<std::uint16_t>(h);
        const float viaClass = Fp16::fromBits(bits).toFloat();
        const float viaHelper = simd_detail::halfToFloat(bits);
        EXPECT_EQ(simd_detail::f32Bits(viaClass),
                  simd_detail::f32Bits(viaHelper))
            << "half bits 0x" << std::hex << h;
    }
}

TEST(SimdFp16, QuantizeMatchesSoftwareGridOnEveryBackend)
{
    const std::vector<float> samples = fp16BoundarySamples();
    for (SimdBackend backend : availableSimdBackends()) {
        ScopedSimdBackend forced(backend);
        ASSERT_TRUE(forced.applied());
        std::vector<float> data = samples;
        simdOps().quantizeFp16(data.data(), data.size());
        for (std::size_t i = 0; i < samples.size(); i++) {
            const float expected = roundToFp16(samples[i]);
            if (std::isnan(expected)) {
                // NaNs stay NaN; hardware may keep payload bits the
                // software path canonicalizes, so only NaN-ness is pinned.
                EXPECT_TRUE(std::isnan(data[i])) << simdBackendName(backend);
                continue;
            }
            EXPECT_EQ(simd_detail::f32Bits(expected),
                      simd_detail::f32Bits(data[i]))
                << simdBackendName(backend) << " input bits 0x" << std::hex
                << simd_detail::f32Bits(samples[i]);
        }
    }
}

TEST(SimdFp16, PackMatchesSoftwareEncoderOnEveryBackend)
{
    const std::vector<float> samples = fp16BoundarySamples();
    for (SimdBackend backend : availableSimdBackends()) {
        ScopedSimdBackend forced(backend);
        ASSERT_TRUE(forced.applied());
        std::vector<std::uint16_t> packed(samples.size());
        simdOps().packFp16(packed.data(), samples.data(), samples.size());
        for (std::size_t i = 0; i < samples.size(); i++) {
            const Fp16 expected(samples[i]);
            if (expected.isNaN()) {
                EXPECT_TRUE(Fp16::fromBits(packed[i]).isNaN())
                    << simdBackendName(backend);
                continue;
            }
            EXPECT_EQ(expected.bits(), packed[i])
                << simdBackendName(backend) << " input bits 0x" << std::hex
                << simd_detail::f32Bits(samples[i]);
        }
    }
}

TEST(SimdFp16, UnpackWidensEveryPatternOnEveryBackend)
{
    std::vector<std::uint16_t> halves(0x10000);
    for (std::uint32_t h = 0; h <= 0xffffu; h++)
        halves[h] = static_cast<std::uint16_t>(h);
    for (SimdBackend backend : availableSimdBackends()) {
        ScopedSimdBackend forced(backend);
        ASSERT_TRUE(forced.applied());
        std::vector<float> widened(halves.size());
        simdOps().unpackFp16(widened.data(), halves.data(), halves.size());
        for (std::size_t h = 0; h < halves.size(); h++) {
            const Fp16 half = Fp16::fromBits(halves[h]);
            if (half.isNaN()) {
                // Hardware widening quiets signaling NaNs; software keeps
                // the pattern. Both must stay NaN.
                EXPECT_TRUE(std::isnan(widened[h]))
                    << simdBackendName(backend);
                continue;
            }
            EXPECT_EQ(simd_detail::f32Bits(half.toFloat()),
                      simd_detail::f32Bits(widened[h]))
                << simdBackendName(backend) << " half bits 0x" << std::hex
                << h;
        }
    }
}

} // namespace
} // namespace enode
