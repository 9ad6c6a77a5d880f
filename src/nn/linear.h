#pragma once

#include <vector>

#include "nn/module.h"
#include "util/rng.h"

/// \file linear.h
/// \brief Affine layer and multi-layer perceptron — the building blocks
/// of the GFN classifier head (Eq. 14) and the final MLP of Eq. 22.

namespace ba::nn {

/// \brief y = x·W + b with Xavier-initialized W.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng)
      : weight_(tensor::Param(
            tensor::Tensor::XavierUniform(in_features, out_features, rng))),
        bias_(tensor::Param(tensor::Tensor({1, out_features}))) {}

  Var Forward(const Var& x) const {
    return tensor::Add(tensor::MatMul(x, weight_), bias_);
  }

  /// Forward without the tape; the same bits as Forward(x)->value.
  tensor::Tensor ForwardValue(const tensor::Tensor& x) const {
    return tensor::AddValue(tensor::MatMulValue(x, weight_->value),
                            bias_->value);
  }

  std::vector<Var> Parameters() const override { return {weight_, bias_}; }

  int64_t in_features() const { return weight_->value.dim(0); }
  int64_t out_features() const { return weight_->value.dim(1); }

  /// Trained parameter values — read-only views for deploy-time
  /// transforms (int8 quantization snapshots these, never mutates).
  const tensor::Tensor& weight_value() const { return weight_->value; }
  const tensor::Tensor& bias_value() const { return bias_->value; }

 private:
  Var weight_;
  Var bias_;
};

/// \brief Nonlinearity selector for Mlp hidden layers.
enum class Activation { kRelu, kTanh, kSigmoid };

inline Var Activate(const Var& x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return tensor::Relu(x);
    case Activation::kTanh:
      return tensor::Tanh(x);
    case Activation::kSigmoid:
      return tensor::Sigmoid(x);
  }
  return x;
}

/// Activate without the tape.
inline tensor::Tensor ActivateValue(tensor::Tensor x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return tensor::ReluValue(std::move(x));
    case Activation::kTanh:
      return tensor::TanhValue(std::move(x));
    case Activation::kSigmoid:
      return tensor::SigmoidValue(std::move(x));
  }
  return x;
}

/// \brief Feed-forward stack: Linear(+activation) per hidden layer,
/// plain Linear output layer, optional inverted dropout between layers.
class Mlp : public Module {
 public:
  /// `dims` = {in, hidden..., out}; at least {in, out}.
  Mlp(const std::vector<int64_t>& dims, Rng* rng,
      Activation activation = Activation::kRelu, float dropout = 0.0f)
      : activation_(activation), dropout_(dropout) {
    BA_CHECK_GE(dims.size(), 2u);
    for (size_t i = 0; i + 1 < dims.size(); ++i) {
      layers_.emplace_back(dims[i], dims[i + 1], rng);
    }
  }

  /// Forward pass; `rng` and `training` control dropout.
  Var Forward(const Var& x, Rng* rng = nullptr, bool training = false) const {
    Var h = x;
    for (size_t i = 0; i < layers_.size(); ++i) {
      h = layers_[i].Forward(h);
      if (i + 1 < layers_.size()) {
        h = Activate(h, activation_);
        if (dropout_ > 0.0f && training && rng != nullptr) {
          h = tensor::Dropout(h, dropout_, rng, training);
        }
      }
    }
    return h;
  }

  /// Inference forward without the tape (dropout does not apply); the
  /// same bits as Forward(x)->value.
  tensor::Tensor ForwardValue(const tensor::Tensor& x) const {
    tensor::Tensor h = layers_[0].ForwardValue(x);
    for (size_t i = 1; i < layers_.size(); ++i) {
      h = layers_[i].ForwardValue(ActivateValue(std::move(h), activation_));
    }
    return h;
  }

  std::vector<Var> Parameters() const override {
    std::vector<Var> out;
    for (const auto& l : layers_) {
      auto p = l.Parameters();
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  size_t num_layers() const { return layers_.size(); }

  /// Per-layer read access (quantization walks the stack layer by
  /// layer to calibrate each layer's input range).
  const Linear& layer(size_t i) const { return layers_[i]; }
  Activation activation() const { return activation_; }

 private:
  std::vector<Linear> layers_;
  Activation activation_;
  float dropout_;
};

}  // namespace ba::nn
