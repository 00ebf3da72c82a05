/**
 * @file
 * Reference implementations of the convolution, GroupNorm and ReLU
 * kernels.
 *
 * These are the original scalar kernels, retained as the ground truth
 * the fast kernels are tested against (bitwise for GroupNorm and ReLU,
 * by equivalence for the blocked/vectorized conv in conv2d_kernels.cc)
 * and as the baseline the micro-benchmarks report speedups over. The
 * conv kernels clamp the tap range once per row and run their inner
 * loops over raw row pointers, one pass over the output per (channel,
 * tap); the only change from the originals is the std::min guard in the
 * h_hi/w_hi clamps: the unguarded H - dh underflows size_t on maps
 * narrower than the kernel (K > H or K > W), a shape regime the
 * equivalence sweep covers. GroupNorm and ReLU are the layers' indexed
 * loops verbatim, with the layer's members turned into arguments.
 */

#include <algorithm>
#include <cmath>

#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/norm.h"

#include "common/logging.h"

namespace enode {
namespace reference {

Tensor
convForward(const Tensor &x, const Tensor &weight, const Tensor &bias)
{
    ENODE_ASSERT(x.shape().rank() == 3, "convForward input must be CHW");
    ENODE_ASSERT(weight.shape().rank() == 4, "weight must be MCKK");
    const std::size_t C = x.shape().dim(0);
    const std::size_t H = x.shape().dim(1);
    const std::size_t W = x.shape().dim(2);
    const std::size_t M = weight.shape().dim(0);
    const std::size_t K = weight.shape().dim(2);
    ENODE_ASSERT(weight.shape().dim(1) == C, "weight C mismatch: ",
                 weight.shape().dim(1), " vs ", C);
    ENODE_ASSERT(K % 2 == 1 && weight.shape().dim(3) == K,
                 "kernel must be odd square");
    const std::size_t pad = K / 2;

    Tensor out(Shape{M, H, W});
    const float *xd = x.data();
    const float *wd = weight.data();
    float *od = out.data();

    for (std::size_t m = 0; m < M; m++) {
        const float b = bias.empty() ? 0.0f : bias.data()[m];
        float *out_map = od + m * H * W;
        std::fill(out_map, out_map + H * W, b);
        for (std::size_t c = 0; c < C; c++) {
            const float *in_map = xd + c * H * W;
            const float *w_base = wd + (m * C + c) * K * K;
            for (std::size_t kh = 0; kh < K; kh++) {
                const std::ptrdiff_t dh =
                    static_cast<std::ptrdiff_t>(kh) -
                    static_cast<std::ptrdiff_t>(pad);
                for (std::size_t kw = 0; kw < K; kw++) {
                    const std::ptrdiff_t dw =
                        static_cast<std::ptrdiff_t>(kw) -
                        static_cast<std::ptrdiff_t>(pad);
                    const float wv = w_base[kh * K + kw];
                    if (wv == 0.0f)
                        continue;
                    // Output rows h for which h+dh is a valid input row.
                    const std::size_t h_lo =
                        dh < 0 ? static_cast<std::size_t>(-dh) : 0;
                    const std::size_t h_hi =
                        dh > 0 ? H - std::min(static_cast<std::size_t>(dh),
                                              H)
                               : H;
                    const std::size_t w_lo =
                        dw < 0 ? static_cast<std::size_t>(-dw) : 0;
                    const std::size_t w_hi =
                        dw > 0 ? W - std::min(static_cast<std::size_t>(dw),
                                              W)
                               : W;
                    for (std::size_t h = h_lo; h < h_hi; h++) {
                        float *orow = out_map + h * W;
                        const float *irow =
                            in_map + (h + dh) * W + dw;
                        for (std::size_t w = w_lo; w < w_hi; w++)
                            orow[w] += wv * irow[w];
                    }
                }
            }
        }
    }
    return out;
}

Tensor
convBackwardData(const Tensor &grad_out, const Tensor &weight)
{
    ENODE_ASSERT(grad_out.shape().rank() == 3, "grad_out must be MHW");
    const std::size_t M = grad_out.shape().dim(0);
    const std::size_t H = grad_out.shape().dim(1);
    const std::size_t W = grad_out.shape().dim(2);
    const std::size_t C = weight.shape().dim(1);
    const std::size_t K = weight.shape().dim(2);
    ENODE_ASSERT(weight.shape().dim(0) == M, "weight M mismatch");
    const std::size_t pad = K / 2;

    // grad_x = conv(grad_out, flip(W), roles of C and M swapped): the
    // same clamped-tap structure as the forward kernel with dh, dw
    // negated.
    Tensor grad_x(Shape{C, H, W});
    const float *gd = grad_out.data();
    const float *wd = weight.data();
    float *xd = grad_x.data();

    for (std::size_t c = 0; c < C; c++) {
        float *out_map = xd + c * H * W;
        for (std::size_t m = 0; m < M; m++) {
            const float *in_map = gd + m * H * W;
            const float *w_base = wd + (m * C + c) * K * K;
            for (std::size_t kh = 0; kh < K; kh++) {
                const std::ptrdiff_t dh =
                    static_cast<std::ptrdiff_t>(pad) -
                    static_cast<std::ptrdiff_t>(kh);
                for (std::size_t kw = 0; kw < K; kw++) {
                    const std::ptrdiff_t dw =
                        static_cast<std::ptrdiff_t>(pad) -
                        static_cast<std::ptrdiff_t>(kw);
                    const float wv = w_base[kh * K + kw];
                    if (wv == 0.0f)
                        continue;
                    const std::size_t h_lo =
                        dh < 0 ? static_cast<std::size_t>(-dh) : 0;
                    const std::size_t h_hi =
                        dh > 0 ? H - std::min(static_cast<std::size_t>(dh),
                                              H)
                               : H;
                    const std::size_t w_lo =
                        dw < 0 ? static_cast<std::size_t>(-dw) : 0;
                    const std::size_t w_hi =
                        dw > 0 ? W - std::min(static_cast<std::size_t>(dw),
                                              W)
                               : W;
                    for (std::size_t h = h_lo; h < h_hi; h++) {
                        float *orow = out_map + h * W;
                        const float *irow =
                            in_map + (h + dh) * W + dw;
                        for (std::size_t w = w_lo; w < w_hi; w++)
                            orow[w] += wv * irow[w];
                    }
                }
            }
        }
    }
    return grad_x;
}

Tensor
convBackwardWeights(const Tensor &x, const Tensor &grad_out,
                    std::size_t kernel)
{
    ENODE_ASSERT(x.shape().rank() == 3 && grad_out.shape().rank() == 3,
                 "convBackwardWeights needs CHW tensors");
    const std::size_t C = x.shape().dim(0);
    const std::size_t H = x.shape().dim(1);
    const std::size_t W = x.shape().dim(2);
    const std::size_t M = grad_out.shape().dim(0);
    ENODE_ASSERT(grad_out.shape().dim(1) == H && grad_out.shape().dim(2) == W,
                 "spatial shape mismatch");
    const std::size_t K = kernel;
    const std::size_t pad = K / 2;

    Tensor grad_w(Shape{M, C, K, K});
    const float *xd = x.data();
    const float *gd = grad_out.data();
    float *wd = grad_w.data();

    for (std::size_t m = 0; m < M; m++) {
        const float *g_map = gd + m * H * W;
        for (std::size_t c = 0; c < C; c++) {
            const float *in_map = xd + c * H * W;
            float *w_base = wd + (m * C + c) * K * K;
            for (std::size_t kh = 0; kh < K; kh++) {
                const std::ptrdiff_t dh =
                    static_cast<std::ptrdiff_t>(kh) -
                    static_cast<std::ptrdiff_t>(pad);
                const std::size_t h_lo =
                    dh < 0 ? static_cast<std::size_t>(-dh) : 0;
                const std::size_t h_hi =
                    dh > 0 ? H - std::min(static_cast<std::size_t>(dh), H)
                           : H;
                for (std::size_t kw = 0; kw < K; kw++) {
                    const std::ptrdiff_t dw =
                        static_cast<std::ptrdiff_t>(kw) -
                        static_cast<std::ptrdiff_t>(pad);
                    const std::size_t w_lo =
                        dw < 0 ? static_cast<std::size_t>(-dw) : 0;
                    const std::size_t w_hi =
                        dw > 0 ? W - std::min(static_cast<std::size_t>(dw),
                                              W)
                               : W;
                    float acc = 0.0f;
                    for (std::size_t h = h_lo; h < h_hi; h++) {
                        const float *grow = g_map + h * W;
                        const float *irow =
                            in_map + (h + dh) * W + dw;
                        for (std::size_t w = w_lo; w < w_hi; w++)
                            acc += grow[w] * irow[w];
                    }
                    w_base[kh * K + kw] = acc;
                }
            }
        }
    }
    return grad_w;
}

Tensor
groupNormForward(const Tensor &x, const Tensor &gamma, const Tensor &beta,
                 std::size_t groups, float eps, GroupNormCache &cache)
{
    const std::size_t C = x.shape().dim(0);
    const std::size_t H = x.shape().dim(1);
    const std::size_t W = x.shape().dim(2);
    const std::size_t cpg = C / groups; // channels per group
    const std::size_t group_elems = cpg * H * W;

    Tensor x_hat(x.shape());
    Tensor out(x.shape());
    cache.invStd.assign(groups, 0.0f);

    for (std::size_t g = 0; g < groups; g++) {
        double sum = 0.0, sum_sq = 0.0;
        for (std::size_t c = g * cpg; c < (g + 1) * cpg; c++) {
            for (std::size_t h = 0; h < H; h++) {
                for (std::size_t w = 0; w < W; w++) {
                    const double v = x.at(c, h, w);
                    sum += v;
                    sum_sq += v * v;
                }
            }
        }
        const double mean = sum / group_elems;
        const double var =
            std::max(0.0, sum_sq / group_elems - mean * mean);
        const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps));
        cache.invStd[g] = inv_std;

        for (std::size_t c = g * cpg; c < (g + 1) * cpg; c++) {
            for (std::size_t h = 0; h < H; h++) {
                for (std::size_t w = 0; w < W; w++) {
                    const float xh = (x.at(c, h, w) -
                                      static_cast<float>(mean)) * inv_std;
                    x_hat.at(c, h, w) = xh;
                    out.at(c, h, w) = gamma.at(c) * xh + beta.at(c);
                }
            }
        }
    }
    cache.xHat = x_hat;
    return out;
}

Tensor
groupNormBackward(const Tensor &grad_out, const GroupNormCache &cache,
                  const Tensor &gamma, std::size_t groups,
                  Tensor &gamma_grad, Tensor &beta_grad)
{
    const Tensor &x_hat = cache.xHat;
    const std::size_t C = gamma.numel();
    const std::size_t H = x_hat.shape().dim(1);
    const std::size_t W = x_hat.shape().dim(2);
    const std::size_t cpg = C / groups;
    const double n = static_cast<double>(cpg * H * W);

    for (std::size_t c = 0; c < C; c++) {
        double dg = 0.0, db = 0.0;
        for (std::size_t h = 0; h < H; h++) {
            for (std::size_t w = 0; w < W; w++) {
                dg += grad_out.at(c, h, w) * x_hat.at(c, h, w);
                db += grad_out.at(c, h, w);
            }
        }
        gamma_grad.at(c) += static_cast<float>(dg);
        beta_grad.at(c) += static_cast<float>(db);
    }

    Tensor grad_in(x_hat.shape());
    for (std::size_t g = 0; g < groups; g++) {
        double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
        for (std::size_t c = g * cpg; c < (g + 1) * cpg; c++) {
            for (std::size_t h = 0; h < H; h++) {
                for (std::size_t w = 0; w < W; w++) {
                    const double dxh =
                        static_cast<double>(grad_out.at(c, h, w)) *
                        gamma.at(c);
                    sum_dxhat += dxh;
                    sum_dxhat_xhat += dxh * x_hat.at(c, h, w);
                }
            }
        }
        const double inv_std = cache.invStd[g];
        for (std::size_t c = g * cpg; c < (g + 1) * cpg; c++) {
            for (std::size_t h = 0; h < H; h++) {
                for (std::size_t w = 0; w < W; w++) {
                    const double dxh =
                        static_cast<double>(grad_out.at(c, h, w)) *
                        gamma.at(c);
                    grad_in.at(c, h, w) = static_cast<float>(
                        inv_std / n *
                        (n * dxh - sum_dxhat -
                         x_hat.at(c, h, w) * sum_dxhat_xhat));
                }
            }
        }
    }
    return grad_in;
}

Tensor
reluForward(const Tensor &x)
{
    Tensor out = x;
    for (std::size_t i = 0; i < out.numel(); i++)
        if (out.at(i) < 0.0f)
            out.at(i) = 0.0f;
    return out;
}

Tensor
reluBackward(const Tensor &grad_out, const Tensor &input)
{
    Tensor grad_in = grad_out;
    for (std::size_t i = 0; i < grad_in.numel(); i++)
        if (input.at(i) <= 0.0f)
            grad_in.at(i) = 0.0f;
    return grad_in;
}

} // namespace reference
} // namespace enode
