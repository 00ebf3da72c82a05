#include "nn/activation.h"

#include <cmath>

#include "common/logging.h"
#include "common/simd.h"

namespace enode {

namespace {

/** out = max(x, 0) elementwise; NaN and -0.0 pass through unchanged. */
void
reluInto(Tensor &out, const Tensor &x)
{
    out.resize(x.shape());
    const float *src = x.data();
    float *dst = out.data();
    for (std::size_t i = 0; i < x.numel(); i++)
        dst[i] = src[i] < 0.0f ? 0.0f : src[i];
}

} // namespace

Tensor
ReLU::forward(const Tensor &x)
{
    cachedInput_ = x;
    Tensor out;
    reluInto(out, x);
    return out;
}

void
ReLU::forwardBatched(const Tensor &xs, Tensor &out)
{
    // Pointwise: one sweep over the whole stacked buffer is bitwise
    // identical to forward() per sample (and skips the backward cache —
    // the batched path is inference-only).
    reluInto(out, xs);
}

Tensor
ReLU::backward(const Tensor &grad_out)
{
    ENODE_ASSERT(!cachedInput_.empty(), "ReLU backward before forward");
    ENODE_ASSERT(grad_out.numel() == cachedInput_.numel(),
                 "ReLU backward expects ", cachedInput_.shape().str(),
                 ", got ", grad_out.shape().str());
    Tensor grad_in;
    grad_in.resize(grad_out.shape());
    const float *x = cachedInput_.data();
    const float *dy = grad_out.data();
    float *dx = grad_in.data();
    for (std::size_t i = 0; i < grad_out.numel(); i++)
        dx[i] = x[i] <= 0.0f ? 0.0f : dy[i];
    return grad_in;
}

Tensor
Tanh::forward(const Tensor &x)
{
    // The SIMD tanh kernel is elementwise, so this and the batched sweep
    // below agree bitwise on every backend.
    cachedOutput_.resize(x.shape());
    simdOps().tanh(cachedOutput_.data(), x.data(), x.numel());
    return cachedOutput_;
}

void
Tanh::forwardBatched(const Tensor &xs, Tensor &out)
{
    out.resize(xs.shape());
    simdOps().tanh(out.data(), xs.data(), xs.numel());
}

Tensor
Tanh::backward(const Tensor &grad_out)
{
    ENODE_ASSERT(!cachedOutput_.empty(), "Tanh backward before forward");
    Tensor grad_in = grad_out;
    for (std::size_t i = 0; i < grad_in.numel(); i++) {
        const float y = cachedOutput_.at(i);
        grad_in.at(i) *= 1.0f - y * y;
    }
    return grad_in;
}

Tensor
Softplus::forward(const Tensor &x)
{
    cachedInput_ = x;
    Tensor out = x;
    for (std::size_t i = 0; i < out.numel(); i++) {
        const float v = out.at(i);
        // Numerically stable softplus: max(v, 0) + log1p(exp(-|v|)).
        out.at(i) = std::max(v, 0.0f) + std::log1p(std::exp(-std::abs(v)));
    }
    return out;
}

void
Softplus::forwardBatched(const Tensor &xs, Tensor &out)
{
    out.resize(xs.shape());
    const float *src = xs.data();
    float *dst = out.data();
    for (std::size_t i = 0; i < xs.numel(); i++) {
        const float v = src[i];
        dst[i] = std::max(v, 0.0f) + std::log1p(std::exp(-std::abs(v)));
    }
}

Tensor
Softplus::backward(const Tensor &grad_out)
{
    ENODE_ASSERT(!cachedInput_.empty(), "Softplus backward before forward");
    Tensor grad_in = grad_out;
    for (std::size_t i = 0; i < grad_in.numel(); i++) {
        const float v = cachedInput_.at(i);
        grad_in.at(i) *= 1.0f / (1.0f + std::exp(-v)); // sigmoid(v)
    }
    return grad_in;
}

} // namespace enode
