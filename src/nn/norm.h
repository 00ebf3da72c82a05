#ifndef ENODE_NN_NORM_H
#define ENODE_NN_NORM_H

/**
 * @file
 * Group normalization.
 *
 * NODE embedded networks use GroupNorm rather than BatchNorm because the
 * solver evaluates f on single states (batch of one) at arbitrary times;
 * statistics must come from within the sample. The eNODE pre-/post-
 * processing unit computes this "Norm" stage (Sec. VI). Backward
 * propagates through the mean/variance statistics exactly.
 *
 * The kernels index the flat (C, H, W) storage directly: a group's
 * channels are one contiguous span, so the double-precision statistics
 * accumulate in plain (c, h, w) order, and forward writes x_hat straight
 * into the backward cache. norm.cc is built with -ffp-contract=off so
 * gamma * x_hat + beta keeps per-op rounding under -march=native too.
 */

#include "nn/layer.h"

namespace enode {

/** GroupNorm over a (C, H, W) tensor with learned per-channel affine. */
class GroupNorm : public Layer
{
  public:
    /**
     * @param channels C; must be divisible by groups.
     * @param groups Number of channel groups sharing statistics.
     * @param eps Variance floor for numerical stability.
     */
    GroupNorm(std::size_t channels, std::size_t groups, float eps = 1e-5f);

    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<ParamSlot> paramSlots() override;
    std::string name() const override;
    Shape outputShape(const Shape &input) const override { return input; }

  private:
    std::size_t channels_;
    std::size_t groups_;
    float eps_;

    Tensor gamma_; // (C)
    Tensor gammaGrad_;
    Tensor beta_; // (C)
    Tensor betaGrad_;

    // Backward cache.
    Tensor cachedNormalized_;      // x_hat
    std::vector<float> cachedInvStd_; // per group
};

/**
 * GroupNorm as first written, through bounds-checked Tensor::at (c, h, w)
 * indexing with a temporary x_hat copied into the cache: the bitwise
 * oracle for the flat kernels above and the micro-benchmark baseline
 * (defined in reference.cc, built with -ffp-contract=off).
 */
namespace reference {

/** What groupNormForward leaves for groupNormBackward. */
struct GroupNormCache
{
    Tensor xHat;
    std::vector<float> invStd; // per group
};

Tensor groupNormForward(const Tensor &x, const Tensor &gamma,
                        const Tensor &beta, std::size_t groups, float eps,
                        GroupNormCache &cache);
/** Returns grad_in; accumulates into gamma_grad and beta_grad. */
Tensor groupNormBackward(const Tensor &grad_out, const GroupNormCache &cache,
                         const Tensor &gamma, std::size_t groups,
                         Tensor &gamma_grad, Tensor &beta_grad);

} // namespace reference

} // namespace enode

#endif // ENODE_NN_NORM_H
