// Unit tests for the int8 quantized inference path: weight/activation
// quantization semantics (tensor/quant.h), bit-exact kernel dispatch
// (tensor/gemm.h), the nn-level QuantizedLinear/QuantizedMlp twins,
// and the GraphModel/BaClassifier calibration surface.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/classifier.h"
#include "core/gfn_features.h"
#include "core/graph_model.h"
#include "nn/linear.h"
#include "nn/quantized.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace ba {
namespace {

using tensor::Tensor;
namespace ti = tensor::internal;

TEST(QuantizeWeightsTest, PerChannelScalesAndColsums) {
  // Column 0 spans [-2, 1], column 1 is all zero, column 2 is constant.
  Tensor w({3, 3});
  w.at(0, 0) = -2.0f;
  w.at(1, 0) = 1.0f;
  w.at(2, 0) = 0.5f;
  w.at(0, 2) = w.at(1, 2) = w.at(2, 2) = 0.25f;
  const tensor::QuantizedWeights qw = tensor::QuantizeWeights(w, nullptr);
  ASSERT_EQ(qw.in_features, 3);
  ASSERT_EQ(qw.out_features, 3);
  ASSERT_EQ(qw.packed_k, ti::Int8PackedK(3));
  EXPECT_FLOAT_EQ(qw.scales[0], 2.0f / 127.0f);
  // All-zero channel: scale 1 by convention, every code 0 — exact.
  EXPECT_FLOAT_EQ(qw.scales[1], 1.0f);
  EXPECT_EQ(qw.colsums[1], 0);
  // Constant channel: absmax maps to the +-127 edge exactly.
  EXPECT_FLOAT_EQ(qw.scales[2], 0.25f / 127.0f);
  const int8_t* ch2 = qw.packed.data() + 2 * qw.packed_k;
  EXPECT_EQ(ch2[0], 127);
  EXPECT_EQ(qw.colsums[2], 3 * 127);
  // Padding lanes are zero so they cancel against any activation code.
  const int8_t* ch0 = qw.packed.data() + 0 * qw.packed_k;
  for (int64_t p = 3; p < qw.packed_k; ++p) EXPECT_EQ(ch0[p], 0);
  EXPECT_TRUE(qw.bias.empty());
}

TEST(QuantizeActivationsTest, ZeroPointRoundingAndPadding) {
  // scale 1.0: codes are clamp(round(x), -127, 127) + 128 with
  // half-away-from-zero rounding.
  Tensor x({1, 5});
  x.at(0, 0) = 0.0f;
  x.at(0, 1) = 2.5f;    // rounds away from zero -> 2.5 -> 3
  x.at(0, 2) = -2.5f;   // -> -3
  x.at(0, 3) = 300.0f;  // saturates to +127
  x.at(0, 4) = -1.0f;
  std::vector<uint8_t> codes;
  tensor::QuantizeActivations(x, /*a_scale=*/1.0f, &codes);
  ASSERT_EQ(codes.size(), static_cast<size_t>(ti::Int8PackedK(5)));
  EXPECT_EQ(codes[0], 128);
  EXPECT_EQ(codes[1], 131);
  EXPECT_EQ(codes[2], 125);
  EXPECT_EQ(codes[3], 255);
  EXPECT_EQ(codes[4], 127);
  // Padding lanes encode 0.0 (code 128).
  for (size_t p = 5; p < codes.size(); ++p) EXPECT_EQ(codes[p], 128);
}

TEST(ActivationObserverTest, TracksAbsmaxWithFlooredScale) {
  tensor::ActivationObserver obs;
  EXPECT_GT(obs.scale(), 0.0f);  // floor keeps an empty observer usable
  Tensor a({1, 2});
  a.at(0, 0) = -3.0f;
  a.at(0, 1) = 2.0f;
  obs.Observe(a);
  EXPECT_FLOAT_EQ(obs.absmax(), 3.0f);
  EXPECT_FLOAT_EQ(obs.scale(), 3.0f / 127.0f);
  Tensor b({1, 1});
  b.at(0, 0) = 1.0f;
  obs.Observe(b);  // smaller input must not shrink the range
  EXPECT_FLOAT_EQ(obs.absmax(), 3.0f);
}

/// Error bound of one int8 product term (activation quantization step
/// x weight magnitude + weight step x activation magnitude), matching
/// the derivation in bench_gemm.
double Int8Tolerance(int64_t k, float a_scale, float w_scale, float x_max,
                     float w_max) {
  const double e1 = 0.5 * (static_cast<double>(a_scale) * w_max +
                           static_cast<double>(w_scale) * x_max) +
                    0.25 * static_cast<double>(a_scale) * w_scale;
  return 4.0 * std::sqrt(static_cast<double>(k)) * e1 + 1e-6;
}

TEST(Int8LinearTest, MatchesFp32WithinQuantizationError) {
  Rng rng(7);
  for (const auto [m, k, n] :
       {std::array<int64_t, 3>{1, 8, 5}, {4, 64, 16}, {7, 130, 33},
        {3, 300, 17}}) {
    Tensor x = Tensor::RandomUniform({m, k}, &rng, -2.0f, 2.0f);
    Tensor w = Tensor::RandomUniform({k, n}, &rng, -1.0f, 1.0f);
    Tensor bias = Tensor::RandomUniform({1, n}, &rng, -0.5f, 0.5f);
    const tensor::QuantizedWeights qw = tensor::QuantizeWeights(w, &bias);
    tensor::ActivationObserver obs;
    obs.Observe(x);
    const Tensor got = tensor::Int8LinearValue(x, qw, obs.scale());
    const Tensor ref = tensor::MatMulReferenceValue(x, w);
    float w_scale = 0.0f;
    for (float s : qw.scales) w_scale = std::max(w_scale, s);
    const double tol =
        Int8Tolerance(k, obs.scale(), w_scale, x.AbsMax(), w.AbsMax());
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        ASSERT_NEAR(got.at(i, j), ref.at(i, j) + bias.at(0, j), tol)
            << "m=" << m << " k=" << k << " n=" << n << " at (" << i << ","
            << j << ")";
      }
    }
  }
}

TEST(Int8GemmTest, DispatchedKernelIsBitExactVsScalarReference) {
  // The integer core is exact in every ISA variant and the epilogue
  // uses identical fma algebra, so the dispatched kernel must agree
  // with the forced-scalar reference to the bit — not a tolerance.
  Rng rng(11);
  for (const auto [m, k, n] :
       {std::array<int64_t, 3>{1, 1, 1}, {2, 8, 14}, {5, 64, 16},
        {9, 100, 31}, {4, 256, 64}}) {
    Tensor x = Tensor::RandomUniform({m, k}, &rng, -3.0f, 3.0f);
    Tensor w = Tensor::RandomUniform({k, n}, &rng, -1.0f, 1.0f);
    Tensor bias = Tensor::RandomUniform({1, n}, &rng, -1.0f, 1.0f);
    const tensor::QuantizedWeights qw = tensor::QuantizeWeights(w, &bias);
    tensor::ActivationObserver obs;
    obs.Observe(x);
    const float a_scale = obs.scale();
    const Tensor got = tensor::Int8LinearValue(x, qw, a_scale);
    std::vector<uint8_t> codes;
    tensor::QuantizeActivations(x, a_scale, &codes);
    Tensor ref({m, n});
    ti::Int8GemmReference(codes.data(), qw.packed.data(),
                          qw.colsums.data(), qw.scales.data(),
                          qw.bias.data(), a_scale, ref.data(), m,
                          qw.packed_k, n);
    ASSERT_EQ(0, std::memcmp(got.data(), ref.data(),
                             static_cast<size_t>(m * n) * sizeof(float)))
        << "variant " << ti::Int8GemmVariantName() << " diverges at m=" << m
        << " k=" << k << " n=" << n;
  }
}

TEST(QuantizedMlpTest, TracksFp32MlpWithinQuantizationError) {
  Rng rng(13);
  nn::Mlp mlp({24, 48, 8}, &rng, nn::Activation::kRelu);
  Tensor calib = Tensor::RandomUniform({32, 24}, &rng, -1.5f, 1.5f);
  nn::QuantizedMlp qmlp(mlp, {&calib});
  ASSERT_EQ(qmlp.num_layers(), 2u);
  Tensor x = Tensor::RandomUniform({6, 24}, &rng, -1.0f, 1.0f);
  const Tensor got = qmlp.Forward(x);
  const Tensor want = mlp.Forward(tensor::Constant(x))->value;
  ASSERT_EQ(got.dim(0), 6);
  ASSERT_EQ(got.dim(1), 8);
  // Loose end-to-end bound: two quantized layers, O(1) activations.
  double max_abs = 0.0;
  for (int64_t i = 0; i < want.numel(); ++i) {
    max_abs = std::max(max_abs, static_cast<double>(
                                    std::abs(want.data()[i])));
  }
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_NEAR(got.data()[i], want.data()[i],
                0.05 * std::max(1.0, max_abs))
        << "element " << i;
  }
}

core::AddressSample FakeGfnSample(int64_t input_dim, int nodes, Rng* rng) {
  core::AddressSample sample;
  core::GraphTensors gt;
  gt.augmented = Tensor::RandomUniform({nodes, input_dim}, rng, -1.0f, 1.0f);
  sample.tensors.push_back(std::move(gt));
  return sample;
}

TEST(GraphModelQuantizeTest, QuantizedEmbedTracksFp32) {
  core::GraphModelOptions options;
  options.k_hops = 2;
  Rng rng(17);
  const int64_t input_dim = core::AugmentedDim(options.k_hops);
  core::GraphModel model(options);
  std::vector<core::AddressSample> calib;
  calib.push_back(FakeGfnSample(input_dim, 12, &rng));
  calib.push_back(FakeGfnSample(input_dim, 5, &rng));
  EXPECT_FALSE(model.quantized());
  ASSERT_TRUE(model.Quantize(calib).ok());
  EXPECT_TRUE(model.quantized());
  const core::GraphTensors& gt = calib[0].tensors[0];
  const Tensor fp32 = model.Embed(gt);
  const Tensor int8 = model.EmbedQuantized(gt.augmented);
  ASSERT_TRUE(int8.SameShape(fp32));
  for (int64_t j = 0; j < fp32.dim(1); ++j) {
    ASSERT_NEAR(int8.at(0, j), fp32.at(0, j),
                0.05 * std::max(1.0, static_cast<double>(
                                         std::abs(fp32.at(0, j)))) +
                    0.05)
        << "dim " << j;
  }
}

TEST(GraphModelQuantizeTest, RejectsNonGfnAndEmptyCalibration) {
  Rng rng(19);
  core::GraphModelOptions gcn;
  gcn.encoder = core::GraphEncoderKind::kGcn;
  core::GraphModel gcn_model(gcn);
  const Status st = gcn_model.Quantize({});
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented);

  core::GraphModelOptions gfn;
  core::GraphModel gfn_model(gfn);
  const Status empty = gfn_model.Quantize({});
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(gfn_model.quantized());
}

TEST(ClassifierQuantizeTest, RequiresTraining) {
  core::BaClassifier::Options options;
  auto created = core::BaClassifier::Create(options);
  ASSERT_TRUE(created.ok());
  const Status st = created.value()->Quantize({});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(created.value()->quantized());
}

}  // namespace
}  // namespace ba
