/**
 * @file
 * NN layers: every backward is checked against numerical gradients —
 * the foundation the ACA adjoint (and the unified core) rests on.
 */

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/activation.h"
#include "nn/concat_time.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/pool.h"
#include "nn/sequential.h"

namespace enode {
namespace {

/**
 * Numerical gradient of sum(layer(x) * seed) w.r.t. x, compared to
 * layer.backward(seed).
 */
void
checkInputGradient(Layer &layer, const Tensor &x, Rng &rng,
                   double tol = 2e-2)
{
    Tensor seed = Tensor::randn(layer.outputShape(x.shape()), rng, 1.0f);
    layer.forward(x);
    Tensor analytic = layer.backward(seed);

    const double eps = 1e-2;
    double diff_sq = 0.0, fd_sq = 0.0;
    for (std::size_t i = 0; i < x.numel(); i++) {
        Tensor xp = x, xm = x;
        xp.at(i) += static_cast<float>(eps);
        xm.at(i) -= static_cast<float>(eps);
        double lp = 0.0, lm = 0.0;
        Tensor yp = layer.forward(xp);
        for (std::size_t k = 0; k < yp.numel(); k++)
            lp += static_cast<double>(yp.at(k)) * seed.at(k);
        Tensor ym = layer.forward(xm);
        for (std::size_t k = 0; k < ym.numel(); k++)
            lm += static_cast<double>(ym.at(k)) * seed.at(k);
        const double fd = (lp - lm) / (2.0 * eps);
        diff_sq += (fd - analytic.at(i)) * (fd - analytic.at(i));
        fd_sq += fd * fd;
    }
    EXPECT_LT(std::sqrt(diff_sq) / std::max(std::sqrt(fd_sq), 1e-8), tol);
}

/** Same for parameter gradients. */
void
checkParamGradients(Layer &layer, const Tensor &x, Rng &rng,
                    double tol = 2e-2)
{
    Tensor seed = Tensor::randn(layer.outputShape(x.shape()), rng, 1.0f);
    layer.zeroGrad();
    layer.forward(x);
    layer.backward(seed);

    const double eps = 1e-2;
    for (auto &slot : layer.paramSlots()) {
        double diff_sq = 0.0, fd_sq = 0.0;
        const std::size_t n = std::min<std::size_t>(slot.param->numel(), 24);
        for (std::size_t i = 0; i < n; i++) {
            const float saved = slot.param->at(i);
            auto eval = [&](float v) {
                slot.param->at(i) = v;
                Tensor y = layer.forward(x);
                double l = 0.0;
                for (std::size_t k = 0; k < y.numel(); k++)
                    l += static_cast<double>(y.at(k)) * seed.at(k);
                return l;
            };
            const double lp = eval(saved + static_cast<float>(eps));
            const double lm = eval(saved - static_cast<float>(eps));
            slot.param->at(i) = saved;
            const double fd = (lp - lm) / (2.0 * eps);
            diff_sq += (fd - slot.grad->at(i)) * (fd - slot.grad->at(i));
            fd_sq += fd * fd;
        }
        EXPECT_LT(std::sqrt(diff_sq) / std::max(std::sqrt(fd_sq), 1e-8),
                  tol)
            << slot.name;
    }
}

TEST(Conv2d, ForwardKnownValues)
{
    Rng rng(1);
    Conv2d conv(1, 1, 3, rng, /*with_bias=*/false);
    conv.weight().fill(1.0f);
    Tensor x = Tensor::ones(Shape{1, 3, 3});
    Tensor y = conv.forward(x);
    // Center pixel sees all 9 taps; corners see 4.
    EXPECT_FLOAT_EQ(y.at(0, 1, 1), 9.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0), 4.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1), 6.0f);
}

TEST(Conv2d, GradientsMatchFiniteDifferences)
{
    Rng rng(2);
    Conv2d conv(3, 4, 3, rng);
    Tensor x = Tensor::randn(Shape{3, 5, 6}, rng, 1.0f);
    checkInputGradient(conv, x, rng);
    checkParamGradients(conv, x, rng);
}

TEST(Conv2d, BackwardDataIsAdjointOfForward)
{
    // <conv(x), y> == <x, conv^T(y)> for bias-free convolution: the
    // transpose property the unified core exploits.
    Rng rng(3);
    Conv2d conv(2, 3, 3, rng, /*with_bias=*/false);
    Tensor x = Tensor::randn(Shape{2, 6, 5}, rng, 1.0f);
    Tensor y = Tensor::randn(Shape{3, 6, 5}, rng, 1.0f);
    const Tensor cx = convForward(x, conv.weight(), Tensor());
    const Tensor cty = convBackwardData(y, conv.weight());
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < cx.numel(); i++)
        lhs += static_cast<double>(cx.at(i)) * y.at(i);
    for (std::size_t i = 0; i < x.numel(); i++)
        rhs += static_cast<double>(x.at(i)) * cty.at(i);
    EXPECT_NEAR(lhs, rhs, 1e-2 * std::abs(lhs));
}

// The flat GroupNorm and ReLU kernels are compared bitwise with the
// indexed loops they replaced (enode::reference, built like norm.cc with
// -ffp-contract=off), so the sweeps below compare bits, not tolerances.

/** Same shape and the same bytes, so NaN payloads and -0.0 count. */
::testing::AssertionResult
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    if (!(a.shape() == b.shape()))
        return ::testing::AssertionFailure()
               << "shape " << a.shape().str() << " vs " << b.shape().str();
    for (std::size_t i = 0; i < a.numel(); i++)
        if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0)
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << a.data()[i] << " vs "
                   << b.data()[i];
    return ::testing::AssertionSuccess();
}

/** Non-trivial affine parameters, so gamma and beta enter the bits. */
void
randomizeAffine(GroupNorm &norm, Rng &rng)
{
    for (auto &slot : norm.paramSlots()) {
        const Tensor drawn =
            Tensor::randn(slot.param->shape(), rng, 0.7f);
        slot.param->copyFrom(drawn);
    }
}

/** (C, H, W, groups) cases the flat kernels are swept over. */
struct NormCase
{
    std::size_t c, h, w, groups;
};
constexpr NormCase kNormCases[] = {
    {4, 10, 10, 1}, {8, 7, 5, 8}, {12, 4, 4, 4}, {6, 1, 1, 3}};

/** ReLU input with NaN, -0.0 and +0.0 planted among the draws. */
Tensor
reluInput(const Shape &shape, Rng &rng, float scale)
{
    Tensor x = Tensor::randn(shape, rng, scale);
    x.data()[0] = std::numeric_limits<float>::quiet_NaN();
    x.data()[1] = -0.0f;
    x.data()[2] = 0.0f;
    x.data()[x.numel() - 1] = -std::numeric_limits<float>::quiet_NaN();
    return x;
}

TEST(GroupNorm, FlatKernelsMatchIndexedLoopsBitwise)
{
    Rng rng(12);
    for (const NormCase &k : kNormCases) {
        for (const float scale : {0.5f, 3.0f}) {
            SCOPED_TRACE(::testing::Message()
                         << "C=" << k.c << " H=" << k.h << " W=" << k.w
                         << " G=" << k.groups << " scale=" << scale);
            GroupNorm norm(k.c, k.groups);
            randomizeAffine(norm, rng);
            Tensor &gamma = *norm.paramSlots()[0].param;
            Tensor &beta = *norm.paramSlots()[1].param;
            const Shape shape{k.c, k.h, k.w};
            // Offset the draws so the mean is not ~0.
            Tensor x = Tensor::randn(shape, rng, scale);
            for (std::size_t i = 0; i < x.numel(); i++)
                x.data()[i] += 0.25f * scale;
            const Tensor dy = Tensor::randn(shape, rng, scale);

            reference::GroupNormCache ref;
            EXPECT_TRUE(bitwiseEqual(
                norm.forward(x), reference::groupNormForward(
                                     x, gamma, beta, k.groups, 1e-5f, ref)));

            // Two backward calls: the parameter gradients accumulate.
            Tensor gamma_grad(Shape{k.c}), beta_grad(Shape{k.c});
            norm.zeroGrad();
            for (int rep = 0; rep < 2; rep++) {
                const Tensor ref_dx = reference::groupNormBackward(
                    dy, ref, gamma, k.groups, gamma_grad, beta_grad);
                EXPECT_TRUE(bitwiseEqual(norm.backward(dy), ref_dx));
            }
            EXPECT_TRUE(bitwiseEqual(*norm.paramSlots()[0].grad,
                                     gamma_grad));
            EXPECT_TRUE(bitwiseEqual(*norm.paramSlots()[1].grad,
                                     beta_grad));
        }
    }
}

TEST(GroupNorm, BatchedRowsMatchForwardBitwise)
{
    Rng rng(13);
    for (const NormCase &k : {kNormCases[0], kNormCases[1]}) {
        GroupNorm norm(k.c, k.groups);
        randomizeAffine(norm, rng);
        const Shape sample{k.c, k.h, k.w};
        for (std::size_t n = 1; n <= 9; n++) {
            SCOPED_TRACE(::testing::Message()
                         << "C=" << k.c << " G=" << k.groups << " n=" << n);
            const Tensor xs =
                Tensor::randn(sample.prepended(n), rng, 2.0f);
            Tensor out;
            norm.forwardBatched(xs, out);
            ASSERT_EQ(out.shape(), xs.shape());
            for (std::size_t i = 0; i < n; i++)
                EXPECT_TRUE(
                    bitwiseEqual(out.sample(i), norm.forward(xs.sample(i))));
        }
    }
}

TEST(Activations, ReluMatchesIndexedLoopsBitwise)
{
    Rng rng(14);
    for (const NormCase &k : kNormCases) {
        for (const float scale : {0.5f, 3.0f}) {
            const Shape shape{k.c, k.h, k.w};
            const Tensor x = reluInput(shape, rng, scale);
            const Tensor dy = reluInput(shape, rng, scale);
            ReLU relu;
            const Tensor y = relu.forward(x);
            EXPECT_TRUE(bitwiseEqual(y, reference::reluForward(x)));
            EXPECT_TRUE(std::isnan(y.data()[0]));
            EXPECT_TRUE(std::signbit(y.data()[1]));
            EXPECT_TRUE(bitwiseEqual(relu.backward(dy),
                                     reference::reluBackward(dy, x)));
        }
    }
}

TEST(Activations, ReluBatchedRowsMatchForwardBitwise)
{
    Rng rng(15);
    const Shape sample{4, 10, 10};
    ReLU relu;
    for (std::size_t n = 1; n <= 9; n++) {
        SCOPED_TRACE(::testing::Message() << "n=" << n);
        const Tensor xs = reluInput(sample.prepended(n), rng, 1.0f);
        Tensor out;
        relu.forwardBatched(xs, out);
        ASSERT_EQ(out.shape(), xs.shape());
        for (std::size_t i = 0; i < n; i++)
            EXPECT_TRUE(
                bitwiseEqual(out.sample(i), relu.forward(xs.sample(i))));
    }
}

TEST(GroupNorm, NormalizesPerGroup)
{
    Rng rng(4);
    GroupNorm norm(4, 2);
    Tensor x = Tensor::randn(Shape{4, 6, 6}, rng, 3.0f);
    Tensor y = norm.forward(x);
    // With unit gamma and zero beta, each group has ~zero mean, ~unit
    // variance.
    for (std::size_t g = 0; g < 2; g++) {
        double sum = 0.0, sum_sq = 0.0;
        for (std::size_t c = g * 2; c < (g + 1) * 2; c++)
            for (std::size_t h = 0; h < 6; h++)
                for (std::size_t w = 0; w < 6; w++) {
                    sum += y.at(c, h, w);
                    sum_sq += static_cast<double>(y.at(c, h, w)) *
                              y.at(c, h, w);
                }
        const double n = 72.0;
        EXPECT_NEAR(sum / n, 0.0, 1e-4);
        EXPECT_NEAR(sum_sq / n, 1.0, 1e-3);
    }
}

TEST(GroupNorm, GradientsMatchFiniteDifferences)
{
    Rng rng(5);
    GroupNorm norm(4, 2);
    Tensor x = Tensor::randn(Shape{4, 4, 4}, rng, 1.0f);
    checkInputGradient(norm, x, rng, 3e-2);
    checkParamGradients(norm, x, rng, 3e-2);
}

TEST(Activations, ForwardAndGradients)
{
    Rng rng(6);
    Tensor x = Tensor::randn(Shape{24}, rng, 1.5f);
    {
        ReLU relu;
        Tensor y = relu.forward(x);
        for (std::size_t i = 0; i < y.numel(); i++)
            EXPECT_GE(y.at(i), 0.0f);
        checkInputGradient(relu, x, rng);
    }
    {
        Tanh tanh_layer;
        checkInputGradient(tanh_layer, x, rng);
    }
    {
        Softplus sp;
        Tensor y = sp.forward(x);
        for (std::size_t i = 0; i < y.numel(); i++)
            EXPECT_GT(y.at(i), 0.0f);
        checkInputGradient(sp, x, rng);
    }
}

TEST(Linear, GradientsMatchFiniteDifferences)
{
    Rng rng(7);
    Linear lin(6, 4, rng);
    Tensor x = Tensor::randn(Shape{6}, rng, 1.0f);
    checkInputGradient(lin, x, rng);
    checkParamGradients(lin, x, rng);
}

TEST(Linear, WeightIsTransposeOfTheOutByInDraw)
{
    // The constructor draws W as (out, in), then the bias, from the
    // caller's rng, and stores W transposed as (in, out): the same seed
    // gives the same function whatever the storage layout.
    const std::size_t in = 5, out = 3;
    Rng rng(11), ref(11);
    Linear lin(in, out, rng);
    const float bound = static_cast<float>(std::sqrt(6.0 / in));
    const Tensor w = Tensor::uniform(Shape{out, in}, ref, -bound, bound);
    const Tensor b = Tensor::uniform(Shape{out}, ref, -bound, bound);
    ASSERT_EQ(lin.weight().shape(), (Shape{in, out}));
    for (std::size_t o = 0; o < out; o++)
        for (std::size_t i = 0; i < in; i++)
            EXPECT_EQ(lin.weight().data()[i * out + o], w.data()[o * in + i])
                << o << "," << i;
    const auto slots = lin.paramSlots();
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_EQ(Tensor::maxAbsDiff(*slots[1].param, b), 0.0);
    EXPECT_EQ(rng.nextU64(), ref.nextU64()) << "rng streams diverged";
}

TEST(Pooling, ForwardAndGradients)
{
    Rng rng(8);
    {
        GlobalAvgPool pool;
        Tensor x = Tensor::ones(Shape{3, 4, 4});
        Tensor y = pool.forward(x);
        EXPECT_EQ(y.shape(), Shape{3});
        EXPECT_FLOAT_EQ(y.at(1), 1.0f);
        Tensor xr = Tensor::randn(Shape{3, 4, 4}, rng, 1.0f);
        checkInputGradient(pool, xr, rng);
    }
    {
        AvgPool2x2 pool;
        Tensor x = Tensor::randn(Shape{2, 6, 6}, rng, 1.0f);
        Tensor y = pool.forward(x);
        EXPECT_EQ(y.shape(), (Shape{2, 3, 3}));
        checkInputGradient(pool, x, rng);
    }
    {
        Flatten flat;
        Tensor x = Tensor::randn(Shape{2, 3, 4}, rng, 1.0f);
        EXPECT_EQ(flat.forward(x).shape(), Shape{24});
        checkInputGradient(flat, x, rng);
    }
}

TEST(ConcatTime, AppendsAndDropsTimeFeature)
{
    ConcatTime ct;
    ct.setTime(0.75);
    Tensor v(Shape{3}, {1, 2, 3});
    Tensor out = ct.forward(v);
    EXPECT_EQ(out.shape(), Shape{4});
    EXPECT_FLOAT_EQ(out.at(3), 0.75f);
    Tensor grad = ct.backward(Tensor::ones(Shape{4}));
    EXPECT_EQ(grad.shape(), Shape{3});

    Tensor img = Tensor::ones(Shape{2, 3, 3});
    Tensor out3 = ct.forward(img);
    EXPECT_EQ(out3.shape(), (Shape{3, 3, 3}));
    EXPECT_FLOAT_EQ(out3.at(2, 1, 1), 0.75f);
}

TEST(Sequential, ChainsForwardBackwardAndNamesParams)
{
    Rng rng(9);
    Sequential seq;
    seq.add(std::make_unique<Linear>(4, 8, rng));
    seq.add(std::make_unique<Tanh>());
    seq.add(std::make_unique<Linear>(8, 2, rng));
    Tensor x = Tensor::randn(Shape{4}, rng, 1.0f);
    EXPECT_EQ(seq.forward(x).shape(), Shape{2});
    EXPECT_EQ(seq.outputShape(Shape{4}), Shape{2});
    checkInputGradient(seq, x, rng);

    auto slots = seq.paramSlots();
    EXPECT_EQ(slots.size(), 4u);
    EXPECT_EQ(slots[0].name, "layer0.weight");
    EXPECT_GT(seq.paramCount(), 0u);
}

TEST(EmbeddedNet, EvalCountsAndVjpConsistency)
{
    Rng rng(10);
    auto net = EmbeddedNet::makeMlp(3, 8, 1, rng);
    Tensor h = Tensor::randn(Shape{3}, rng, 1.0f);
    Tensor f0 = net->eval(0.0, h);
    Tensor f1 = net->eval(0.9, h);
    EXPECT_EQ(net->evalCount(), 2u);
    // Time must actually influence the output.
    EXPECT_GT(Tensor::maxAbsDiff(f0, f1), 1e-6);

    net->zeroGrad();
    net->vjp(Tensor::ones(Shape{3}));
    EXPECT_EQ(net->vjpCount(), 1u);
    double grad_norm = 0.0;
    for (auto &slot : net->paramSlots())
        grad_norm += slot.grad->l2Norm();
    EXPECT_GT(grad_norm, 0.0);
}

TEST(EmbeddedNet, ConvNetPreservesShape)
{
    Rng rng(11);
    auto net = EmbeddedNet::makeConvNet(8, 4, rng);
    Tensor h = Tensor::randn(Shape{8, 6, 6}, rng, 1.0f);
    EXPECT_EQ(net->eval(0.3, h).shape(), h.shape());
    auto streamable = EmbeddedNet::makeStreamableConvNet(4, 2, rng);
    Tensor h2 = Tensor::randn(Shape{4, 6, 6}, rng, 1.0f);
    EXPECT_EQ(streamable->eval(0.3, h2).shape(), h2.shape());
}

} // namespace
} // namespace enode
