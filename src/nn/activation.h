#ifndef ENODE_NN_ACTIVATION_H
#define ENODE_NN_ACTIVATION_H

/**
 * @file
 * Pointwise activation layers.
 *
 * ReLU is what the eNODE pre-/post-processing unit computes (Sec. VI);
 * Tanh and Softplus are the smooth activations commonly used in the
 * embedded network of dynamic-system NODEs, where f must be Lipschitz
 * and smooth for the adaptive integrator to behave.
 */

#include "nn/layer.h"

namespace enode {

/** Rectified linear unit. */
class ReLU : public Layer
{
  public:
    Tensor forward(const Tensor &x) override;
    void forwardBatched(const Tensor &xs, Tensor &out) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "ReLU"; }
    Shape outputShape(const Shape &input) const override { return input; }

  private:
    Tensor cachedInput_;
};

/**
 * ReLU as first written, a copy patched through bounds-checked
 * Tensor::at: the bitwise oracle for ReLU and the micro-benchmark
 * baseline (defined in reference.cc).
 */
namespace reference {

Tensor reluForward(const Tensor &x);
Tensor reluBackward(const Tensor &grad_out, const Tensor &input);

} // namespace reference

/** Hyperbolic tangent. */
class Tanh : public Layer
{
  public:
    Tensor forward(const Tensor &x) override;
    void forwardBatched(const Tensor &xs, Tensor &out) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "Tanh"; }
    Shape outputShape(const Shape &input) const override { return input; }

  private:
    Tensor cachedOutput_; // tanh' = 1 - tanh^2, so cache the output
};

/** Softplus: log(1 + e^x), a smooth ReLU. */
class Softplus : public Layer
{
  public:
    Tensor forward(const Tensor &x) override;
    void forwardBatched(const Tensor &xs, Tensor &out) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "Softplus"; }
    Shape outputShape(const Shape &input) const override { return input; }

  private:
    Tensor cachedInput_;
};

} // namespace enode

#endif // ENODE_NN_ACTIVATION_H
