#include "nn/linear.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"

namespace enode {

namespace {

/**
 * out[o] = bias[o] + weight[o] . x — the Linear matvec, four output rows
 * per fixed-lane SIMD dotRows4 call (sharing the x loads) and one-row
 * dots for the last O % 4 rows. dotRows4 is bitwise equal to four dot
 * calls, so every output is the same fixed-lane dot whichever call
 * produced it. Solo forward and the batched per-sample loop both call
 * exactly this, so a batched solve reproduces the solo outputs bitwise
 * at every batch size (the batched-vs-solo contract the runtime tests
 * pin).
 */
void
matvec(const SimdOps &ops, const float *wd, const float *bd, std::size_t O,
       std::size_t I, const float *x, float *out)
{
    std::size_t o = 0;
    for (; o + 4 <= O; o += 4)
        ops.dotRows4(out + o, wd + o * I, I, x, I);
    for (; o < O; o++)
        out[o] = ops.dot(wd + o * I, x, I);
    if (bd)
        for (o = 0; o < O; o++)
            out[o] = bd[o] + out[o];
}

} // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng &rng,
               bool with_bias)
    : inFeatures_(in_features),
      outFeatures_(out_features),
      withBias_(with_bias),
      weightGrad_(Shape{out_features, in_features})
{
    const float bound =
        static_cast<float>(std::sqrt(6.0 / static_cast<double>(in_features)));
    weight_ = Tensor::uniform(Shape{out_features, in_features}, rng, -bound,
                              bound);
    if (withBias_) {
        bias_ = Tensor::uniform(Shape{out_features}, rng, -bound, bound);
        biasGrad_ = Tensor(Shape{out_features});
    }
}

Tensor
Linear::forward(const Tensor &x)
{
    ENODE_ASSERT(x.shape().rank() == 1 && x.shape().dim(0) == inFeatures_,
                 "Linear expects (", inFeatures_, "), got ", x.shape().str());
    cachedInput_ = x;
    Tensor out(Shape{outFeatures_});
    matvec(simdOps(), weight_.data(), withBias_ ? bias_.data() : nullptr,
           outFeatures_, inFeatures_, x.data(), out.data());
    return out;
}

void
Linear::forwardBatched(const Tensor &xs, Tensor &out)
{
    ENODE_ASSERT(xs.shape().rank() == 2 && xs.shape().dim(1) == inFeatures_,
                 "batched Linear expects (n, ", inFeatures_, "), got ",
                 xs.shape().str());
    const std::size_t n = xs.shape().dim(0);
    out.resize(Shape{n, outFeatures_});
    const float *xd = xs.data();
    float *od = out.data();

    // Per-sample matvec, the exact solo kernel. The previous scheme
    // blocked samples eight at a time through a transposed scratch to
    // manufacture SIMD width from sample parallelism, which left every
    // batch smaller than eight (and every remainder) on a scalar path —
    // the source of the non-monotone serving-throughput dip at batch 4.
    // With the dot itself vectorized through the fixed-lane SIMD
    // kernel, width comes from the feature dimension instead and every
    // batch size takes the same path.
    const SimdOps &ops = simdOps();
    const float *bd = withBias_ ? bias_.data() : nullptr;
    for (std::size_t s = 0; s < n; s++)
        matvec(ops, weight_.data(), bd, outFeatures_, inFeatures_,
               xd + s * inFeatures_, od + s * outFeatures_);
}

Tensor
Linear::backward(const Tensor &grad_out)
{
    ENODE_ASSERT(!cachedInput_.empty(), "Linear backward before forward");
    ENODE_ASSERT(grad_out.shape().rank() == 1 &&
                     grad_out.shape().dim(0) == outFeatures_,
                 "Linear grad_out shape mismatch");

    for (std::size_t o = 0; o < outFeatures_; o++) {
        const float g = grad_out.at(o);
        float *gw_row = weightGrad_.data() + o * inFeatures_;
        for (std::size_t i = 0; i < inFeatures_; i++)
            gw_row[i] += g * cachedInput_.at(i);
        if (withBias_)
            biasGrad_.at(o) += g;
    }

    Tensor grad_in(Shape{inFeatures_});
    for (std::size_t i = 0; i < inFeatures_; i++) {
        float acc = 0.0f;
        for (std::size_t o = 0; o < outFeatures_; o++)
            acc += weight_.data()[o * inFeatures_ + i] * grad_out.at(o);
        grad_in.at(i) = acc;
    }
    return grad_in;
}

std::vector<ParamSlot>
Linear::paramSlots()
{
    std::vector<ParamSlot> slots;
    slots.push_back({"weight", &weight_, &weightGrad_});
    if (withBias_)
        slots.push_back({"bias", &bias_, &biasGrad_});
    return slots;
}

std::string
Linear::name() const
{
    return "Linear(" + std::to_string(inFeatures_) + "->" +
           std::to_string(outFeatures_) + ")";
}

Shape
Linear::outputShape(const Shape &input) const
{
    ENODE_ASSERT(input.rank() == 1 && input.dim(0) == inFeatures_,
                 "Linear input shape mismatch");
    return Shape{outFeatures_};
}

} // namespace enode
