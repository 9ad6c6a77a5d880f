#pragma once

#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

/// \file attention.h
/// \brief Additive attention pooling over a sequence of graph
/// embeddings — the Attention+MLP comparator of Table III.

namespace ba::nn {

/// \brief Attention pooling: alpha = softmax(tanh(H·W + b)·u),
/// output = alphaᵀ·H, shape (1, d).
class AttentionPool : public Module {
 public:
  AttentionPool(int64_t input_size, int64_t attn_size, Rng* rng)
      : proj_(input_size, attn_size, rng),
        context_(tensor::Param(
            tensor::Tensor::XavierUniform(attn_size, 1, rng))) {}

  /// Pools a (T, input) sequence into (1, input).
  Var Forward(const Var& sequence) const {
    using namespace tensor;  // NOLINT(build/namespaces)
    const Var scores =
        MatMul(Tanh(proj_.Forward(sequence)), context_);  // (T, 1)
    const Var alpha = Softmax(scores, /*axis=*/0);        // column softmax
    return MatMul(Transpose(alpha), sequence);            // (1, input)
  }

  /// Forward without the tape; the same bits as Forward's value.
  tensor::Tensor ForwardValue(const tensor::Tensor& sequence) const {
    using namespace tensor;  // NOLINT(build/namespaces)
    const Tensor scores =
        MatMulValue(TanhValue(proj_.ForwardValue(sequence)), context_->value);
    const Tensor alpha = SoftmaxValue(scores, /*axis=*/0);
    return MatMulValue(TransposeValue(alpha), sequence);
  }

  std::vector<Var> Parameters() const override {
    std::vector<Var> out = proj_.Parameters();
    out.push_back(context_);
    return out;
  }

 private:
  Linear proj_;
  Var context_;
};

}  // namespace ba::nn
