#pragma once

#include <cmath>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

/// \file self_attention.h
/// \brief Single-head scaled dot-product self-attention over a
/// sequence, followed by mean pooling — a Transformer-style sequence
/// aggregator (the paper's background cites Transformer [35]; this is
/// an extension beyond the six aggregators of Table III).

namespace ba::nn {

/// \brief One self-attention block with mean-pooled output.
class SelfAttentionPool : public Module {
 public:
  SelfAttentionPool(int64_t input_size, int64_t model_size, Rng* rng)
      : query_(input_size, model_size, rng),
        key_(input_size, model_size, rng),
        value_(input_size, model_size, rng),
        scale_(1.0f / std::sqrt(static_cast<float>(model_size))) {}

  /// Pools a (T, input) sequence into (1, model_size).
  Var Forward(const Var& sequence) const {
    using namespace tensor;  // NOLINT(build/namespaces)
    const Var q = query_.Forward(sequence);   // (T, m)
    const Var k = key_.Forward(sequence);     // (T, m)
    const Var v = value_.Forward(sequence);   // (T, m)
    const Var attn =
        Softmax(Scale(MatMul(q, Transpose(k)), scale_), /*axis=*/1);
    return MeanRows(MatMul(attn, v));         // (1, m)
  }

  /// Forward without the tape; the same bits as Forward's value.
  tensor::Tensor ForwardValue(const tensor::Tensor& sequence) const {
    using namespace tensor;  // NOLINT(build/namespaces)
    const Tensor q = query_.ForwardValue(sequence);
    const Tensor k = key_.ForwardValue(sequence);
    const Tensor v = value_.ForwardValue(sequence);
    const Tensor attn = SoftmaxValue(
        ScaleValue(MatMulValue(q, TransposeValue(k)), scale_), /*axis=*/1);
    return MeanRowsValue(MatMulValue(attn, v));
  }

  std::vector<Var> Parameters() const override {
    return CollectParameters({&query_, &key_, &value_});
  }

 private:
  Linear query_;
  Linear key_;
  Linear value_;
  float scale_;
};

}  // namespace ba::nn
