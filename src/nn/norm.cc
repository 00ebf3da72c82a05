#include "nn/norm.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace enode {

GroupNorm::GroupNorm(std::size_t channels, std::size_t groups, float eps)
    : channels_(channels),
      groups_(groups),
      eps_(eps),
      gamma_(Shape{channels}, 1.0f),
      gammaGrad_(Shape{channels}),
      beta_(Shape{channels}),
      betaGrad_(Shape{channels})
{
    ENODE_ASSERT(groups > 0 && channels % groups == 0,
                 "channels ", channels, " not divisible by groups ", groups);
}

/**
 * One (C, H, W) sample stored flat: per group, the double sum and sum of
 * squares over the group's contiguous span, then one sweep per channel
 * writing gamma[c] * x_hat + beta[c] to the output and x_hat straight
 * into the backward cache. Elements are visited in (c, h, w) order with
 * unchanged per-element arithmetic, which tests/test_nn_layers.cc checks
 * bitwise against reference::groupNormForward.
 */
Tensor
GroupNorm::forward(const Tensor &x)
{
    ENODE_ASSERT(x.shape().rank() == 3 && x.shape().dim(0) == channels_,
                 "GroupNorm expects (C=", channels_, ", H, W), got ",
                 x.shape().str());
    const std::size_t hw = x.shape().dim(1) * x.shape().dim(2);
    const std::size_t cpg = channels_ / groups_; // channels per group
    const std::size_t group_elems = cpg * hw;
    Tensor out;
    out.resize(x.shape());
    cachedNormalized_.resize(x.shape());
    cachedInvStd_.resize(groups_);
    const float *src = x.data();
    const float *gamma = gamma_.data();
    const float *beta = beta_.data();
    float *dst = out.data();
    float *x_hat = cachedNormalized_.data();

    for (std::size_t g = 0; g < groups_; g++) {
        const std::size_t begin = g * group_elems;
        double sum = 0.0, sum_sq = 0.0;
        for (std::size_t i = begin; i < begin + group_elems; i++) {
            const double v = src[i];
            sum += v;
            sum_sq += v * v;
        }
        const double mean = sum / group_elems;
        const double var =
            std::max(0.0, sum_sq / group_elems - mean * mean);
        const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
        cachedInvStd_[g] = inv_std;

        const float mean_f = static_cast<float>(mean);
        for (std::size_t c = g * cpg; c < (g + 1) * cpg; c++) {
            const float gamma_c = gamma[c];
            const float beta_c = beta[c];
            for (std::size_t i = c * hw; i < (c + 1) * hw; i++) {
                const float xh = (src[i] - mean_f) * inv_std;
                x_hat[i] = xh;
                dst[i] = gamma_c * xh + beta_c;
            }
        }
    }
    return out;
}

Tensor
GroupNorm::backward(const Tensor &grad_out)
{
    ENODE_ASSERT(!cachedNormalized_.empty(),
                 "GroupNorm backward before forward");
    ENODE_ASSERT(grad_out.shape() == cachedNormalized_.shape(),
                 "GroupNorm backward expects ",
                 cachedNormalized_.shape().str(), ", got ",
                 grad_out.shape().str());
    const float *x_hat = cachedNormalized_.data();
    const float *dy = grad_out.data();
    const float *gamma = gamma_.data();
    const std::size_t C = channels_;
    const std::size_t hw =
        cachedNormalized_.shape().dim(1) * cachedNormalized_.shape().dim(2);
    const std::size_t cpg = C / groups_;
    const double n = static_cast<double>(cpg * hw);

    // Parameter gradients.
    for (std::size_t c = 0; c < C; c++) {
        double dg = 0.0, db = 0.0;
        for (std::size_t i = c * hw; i < (c + 1) * hw; i++) {
            dg += dy[i] * x_hat[i];
            db += dy[i];
        }
        gammaGrad_.data()[c] += static_cast<float>(dg);
        betaGrad_.data()[c] += static_cast<float>(db);
    }

    // Input gradient. With dxhat = grad_out * gamma:
    // dx = inv_std/n * (n*dxhat - sum(dxhat) - x_hat * sum(dxhat*x_hat))
    Tensor grad_in;
    grad_in.resize(grad_out.shape());
    float *dx = grad_in.data();
    for (std::size_t g = 0; g < groups_; g++) {
        double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
        for (std::size_t c = g * cpg; c < (g + 1) * cpg; c++) {
            for (std::size_t i = c * hw; i < (c + 1) * hw; i++) {
                const double dxh = static_cast<double>(dy[i]) * gamma[c];
                sum_dxhat += dxh;
                sum_dxhat_xhat += dxh * x_hat[i];
            }
        }
        const double inv_std = cachedInvStd_[g];
        for (std::size_t c = g * cpg; c < (g + 1) * cpg; c++) {
            for (std::size_t i = c * hw; i < (c + 1) * hw; i++) {
                const double dxh = static_cast<double>(dy[i]) * gamma[c];
                dx[i] = static_cast<float>(
                    inv_std / n *
                    (n * dxh - sum_dxhat - x_hat[i] * sum_dxhat_xhat));
            }
        }
    }
    return grad_in;
}

std::vector<ParamSlot>
GroupNorm::paramSlots()
{
    return {{"gamma", &gamma_, &gammaGrad_}, {"beta", &beta_, &betaGrad_}};
}

std::string
GroupNorm::name() const
{
    return "GroupNorm(C=" + std::to_string(channels_) +
           ", G=" + std::to_string(groups_) + ")";
}

} // namespace enode
