#include "nn/quantized.h"

#include "util/logging.h"

namespace ba::nn {

QuantizedMlp::QuantizedMlp(
    const Mlp& mlp, const std::vector<const tensor::Tensor*>& calibration)
    : activation_(mlp.activation()) {
  const size_t depth = mlp.num_layers();
  BA_CHECK_GE(depth, 1u);
  // An uncalibrated activation grid would saturate everything to the
  // edge codes; refuse to build a silently broken model.
  BA_CHECK(!calibration.empty());
  std::vector<tensor::ActivationObserver> observers(depth);
  for (const tensor::Tensor* x : calibration) {
    tensor::Tensor h = *x;
    for (size_t i = 0; i < depth; ++i) {
      observers[i].Observe(h);
      h = mlp.layer(i).ForwardValue(h);
      if (i + 1 < depth) h = ActivateValue(std::move(h), activation_);
    }
  }
  layers_.reserve(depth);
  for (size_t i = 0; i < depth; ++i) {
    layers_.emplace_back(mlp.layer(i), observers[i].scale());
  }
}

tensor::Tensor QuantizedMlp::Forward(const tensor::Tensor& x) const {
  tensor::Tensor h = layers_[0].Forward(x);
  for (size_t i = 1; i < layers_.size(); ++i) {
    h = layers_[i].Forward(ActivateValue(std::move(h), activation_));
  }
  return h;
}

}  // namespace ba::nn
