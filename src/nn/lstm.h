#pragma once

#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

/// \file lstm.h
/// \brief LSTM (Eq. 16-21) and bidirectional LSTM sequence encoders for
/// the address-classification stage (§III-C): an address's chronological
/// list of graph embeddings is folded into one vector.

namespace ba::nn {

/// \brief A single LSTM cell with the paper's gate structure
/// (forget/input/output gates over [h_{t-1}, x_t], Eq. 16-21).
class LstmCell : public Module {
 public:
  LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng);

  int64_t input_size() const { return input_size_; }
  int64_t hidden_size() const { return hidden_size_; }

  /// One step: consumes x_t (1, input), (h, c) each (1, hidden);
  /// returns the new (h, c).
  std::pair<Var, Var> Step(const Var& x, const Var& h, const Var& c) const;

  /// Step without the tape; the same bits as Step's values.
  std::pair<tensor::Tensor, tensor::Tensor> StepValue(
      const tensor::Tensor& x, const tensor::Tensor& h,
      const tensor::Tensor& c) const;

  std::vector<Var> Parameters() const override;

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  // Gate weights over the concatenated [h_{t-1}, x_t] (Eq. 16-18, 20).
  Linear forget_gate_;
  Linear input_gate_;
  Linear candidate_;
  Linear output_gate_;
};

/// \brief Unidirectional LSTM over a (T, input) sequence.
class Lstm : public Module {
 public:
  Lstm(int64_t input_size, int64_t hidden_size, Rng* rng)
      : cell_(input_size, hidden_size, rng) {}

  int64_t hidden_size() const { return cell_.hidden_size(); }

  /// Runs the full sequence; returns all hidden states stacked (T, hidden).
  Var ForwardAll(const Var& sequence) const;

  /// Runs the full sequence; returns the final hidden state (1, hidden).
  Var ForwardLast(const Var& sequence) const;

  /// ForwardLast without the tape; the same bits as its value.
  tensor::Tensor ForwardLastValue(const tensor::Tensor& sequence) const;

  std::vector<Var> Parameters() const override { return cell_.Parameters(); }

 private:
  Var InitialState() const;

  LstmCell cell_;
};

/// \brief Bidirectional LSTM: forward and reverse passes concatenated,
/// the BiLSTM+MLP comparator of Table III.
class BiLstm : public Module {
 public:
  BiLstm(int64_t input_size, int64_t hidden_size, Rng* rng)
      : forward_(input_size, hidden_size, rng),
        backward_(input_size, hidden_size, rng) {}

  /// Output feature width (2 * hidden).
  int64_t output_size() const { return 2 * forward_.hidden_size(); }

  /// Concatenated [h_fwd_last, h_bwd_last], shape (1, 2*hidden).
  Var ForwardLast(const Var& sequence) const;

  /// ForwardLast without the tape; the same bits as its value.
  tensor::Tensor ForwardLastValue(const tensor::Tensor& sequence) const;

  std::vector<Var> Parameters() const override {
    std::vector<Var> out = forward_.Parameters();
    auto b = backward_.Parameters();
    out.insert(out.end(), b.begin(), b.end());
    return out;
  }

 private:
  Lstm forward_;
  Lstm backward_;
};

/// Reverses the row order of a (T, d) sequence (constant-capable op).
Var ReverseRows(const Var& sequence);

/// ReverseRows without the tape.
tensor::Tensor ReverseRowsValue(const tensor::Tensor& sequence);

}  // namespace ba::nn
