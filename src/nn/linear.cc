#include "nn/linear.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"

namespace enode {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng &rng,
               bool with_bias)
    : inFeatures_(in_features),
      outFeatures_(out_features),
      withBias_(with_bias),
      weight_(Shape{in_features, out_features}),
      weightGrad_(Shape{in_features, out_features})
{
    // W is drawn as (out, in) and stored transposed, so the rng stream,
    // and with it every seeded model's function, does not depend on the
    // storage layout.
    const float bound =
        static_cast<float>(std::sqrt(6.0 / static_cast<double>(in_features)));
    const Tensor w = Tensor::uniform(Shape{out_features, in_features}, rng,
                                     -bound, bound);
    for (std::size_t o = 0; o < out_features; o++)
        for (std::size_t i = 0; i < in_features; i++)
            weight_.data()[i * out_features + o] =
                w.data()[o * in_features + i];
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
    simdOps().gemvT(out.data(), weight_.data(), x.data(),
                    withBias_ ? bias_.data() : nullptr, inFeatures_,
                    outFeatures_);
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

    // Per-sample matvec through the solo kernel, so a batched solve
    // reproduces the solo outputs bitwise at every batch size (the
    // batched-vs-solo contract the runtime tests pin).
    const SimdOps &ops = simdOps();
    const float *bd = withBias_ ? bias_.data() : nullptr;
    for (std::size_t s = 0; s < n; s++)
        ops.gemvT(od + s * outFeatures_, weight_.data(), xd + s * inFeatures_,
                  bd, inFeatures_, outFeatures_);
}

Tensor
Linear::backward(const Tensor &grad_out)
{
    ENODE_ASSERT(!cachedInput_.empty(), "Linear backward before forward");
    ENODE_ASSERT(grad_out.shape().rank() == 1 &&
                     grad_out.shape().dim(0) == outFeatures_,
                 "Linear grad_out shape mismatch");

    // dW[i][o] += g[o] * x[i] (one rounded op pair per element) and
    // dx[i] = sum over o of W[i][o] * g[o] in order o = 0 .. out-1.
    const float *gd = grad_out.data();
    const float *xd = cachedInput_.data();
    const float *wd = weight_.data();
    float *gw = weightGrad_.data();
    Tensor grad_in(Shape{inFeatures_});
    for (std::size_t i = 0; i < inFeatures_; i++) {
        const float *w_row = wd + i * outFeatures_;
        float *gw_row = gw + i * outFeatures_;
        float acc = 0.0f;
        for (std::size_t o = 0; o < outFeatures_; o++) {
            gw_row[o] += gd[o] * xd[i];
            acc += w_row[o] * gd[o];
        }
        grad_in.at(i) = acc;
    }
    if (withBias_)
        for (std::size_t o = 0; o < outFeatures_; o++)
            biasGrad_.at(o) += gd[o];
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
