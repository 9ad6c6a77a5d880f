#include "nn/lstm.h"

#include <algorithm>

namespace ba::nn {

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      forget_gate_(hidden_size + input_size, hidden_size, rng),
      input_gate_(hidden_size + input_size, hidden_size, rng),
      candidate_(hidden_size + input_size, hidden_size, rng),
      output_gate_(hidden_size + input_size, hidden_size, rng) {}

std::pair<Var, Var> LstmCell::Step(const Var& x, const Var& h,
                                   const Var& c) const {
  using namespace tensor;  // NOLINT(build/namespaces)
  const Var hx = ConcatCols({h, x});                     // [h_{t-1}, x_t]
  const Var f = Sigmoid(forget_gate_.Forward(hx));       // Eq. 16
  const Var i = Sigmoid(input_gate_.Forward(hx));        // Eq. 17
  const Var c_tilde = Tanh(candidate_.Forward(hx));      // Eq. 18
  const Var c_new = Add(Mul(f, c), Mul(i, c_tilde));     // Eq. 19
  const Var o = Sigmoid(output_gate_.Forward(hx));       // Eq. 20
  const Var h_new = Mul(o, Tanh(c_new));                 // Eq. 21
  return {h_new, c_new};
}

std::pair<tensor::Tensor, tensor::Tensor> LstmCell::StepValue(
    const tensor::Tensor& x, const tensor::Tensor& h,
    const tensor::Tensor& c) const {
  using namespace tensor;  // NOLINT(build/namespaces)
  const Tensor hx = ConcatColsValue({&h, &x});
  Tensor f = SigmoidValue(forget_gate_.ForwardValue(hx));
  Tensor i = SigmoidValue(input_gate_.ForwardValue(hx));
  const Tensor c_tilde = TanhValue(candidate_.ForwardValue(hx));
  Tensor c_new = AddValue(MulValue(std::move(f), c),
                          MulValue(std::move(i), c_tilde));
  Tensor o = SigmoidValue(output_gate_.ForwardValue(hx));
  Tensor h_new = MulValue(std::move(o), TanhValue(c_new));
  return {std::move(h_new), std::move(c_new)};
}

std::vector<Var> LstmCell::Parameters() const {
  return CollectParameters(
      {&forget_gate_, &input_gate_, &candidate_, &output_gate_});
}

Var Lstm::InitialState() const {
  return tensor::Constant(tensor::Tensor({1, cell_.hidden_size()}));
}

Var Lstm::ForwardAll(const Var& sequence) const {
  BA_CHECK_EQ(sequence->value.rank(), 2);
  BA_CHECK_EQ(sequence->value.dim(1), cell_.input_size());
  const int64_t t_steps = sequence->value.dim(0);
  BA_CHECK_GT(t_steps, 0);
  Var h = InitialState();
  Var c = InitialState();
  std::vector<Var> hiddens;
  hiddens.reserve(static_cast<size_t>(t_steps));
  for (int64_t t = 0; t < t_steps; ++t) {
    const Var x = tensor::SliceRows(sequence, t, t + 1);
    std::tie(h, c) = cell_.Step(x, h, c);
    hiddens.push_back(h);
  }
  return tensor::ConcatRows(hiddens);
}

Var Lstm::ForwardLast(const Var& sequence) const {
  const Var all = ForwardAll(sequence);
  const int64_t t_steps = all->value.dim(0);
  return tensor::SliceRows(all, t_steps - 1, t_steps);
}

tensor::Tensor Lstm::ForwardLastValue(const tensor::Tensor& sequence) const {
  BA_CHECK_EQ(sequence.rank(), 2);
  BA_CHECK_EQ(sequence.dim(1), cell_.input_size());
  const int64_t t_steps = sequence.dim(0);
  BA_CHECK_GT(t_steps, 0);
  tensor::Tensor h({1, cell_.hidden_size()});
  tensor::Tensor c({1, cell_.hidden_size()});
  for (int64_t t = 0; t < t_steps; ++t) {
    std::tie(h, c) =
        cell_.StepValue(tensor::SliceRowsValue(sequence, t, t + 1), h, c);
  }
  return h;
}

Var ReverseRows(const Var& sequence) {
  const int64_t t_steps = sequence->value.dim(0);
  std::vector<Var> rows;
  rows.reserve(static_cast<size_t>(t_steps));
  for (int64_t t = t_steps - 1; t >= 0; --t) {
    rows.push_back(tensor::SliceRows(sequence, t, t + 1));
  }
  return tensor::ConcatRows(rows);
}

tensor::Tensor ReverseRowsValue(const tensor::Tensor& sequence) {
  BA_CHECK_EQ(sequence.rank(), 2);
  const int64_t t_steps = sequence.dim(0), d = sequence.dim(1);
  tensor::Tensor out({t_steps, d});
  for (int64_t t = 0; t < t_steps; ++t) {
    std::copy_n(sequence.data() + (t_steps - 1 - t) * d, d,
                out.data() + t * d);
  }
  return out;
}

Var BiLstm::ForwardLast(const Var& sequence) const {
  const Var fwd = forward_.ForwardLast(sequence);
  const Var bwd = backward_.ForwardLast(ReverseRows(sequence));
  return tensor::ConcatCols({fwd, bwd});
}

tensor::Tensor BiLstm::ForwardLastValue(const tensor::Tensor& sequence) const {
  const tensor::Tensor fwd = forward_.ForwardLastValue(sequence);
  const tensor::Tensor bwd =
      backward_.ForwardLastValue(ReverseRowsValue(sequence));
  return tensor::ConcatColsValue({&fwd, &bwd});
}

}  // namespace ba::nn
