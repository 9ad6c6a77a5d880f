// Inference without the autograd tape must give the tape's bits: GFN's
// node MLP + SUM readout, and every aggregator's logits, against the
// tape's forward values on the same weights.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/aggregator.h"
#include "core/gfn_features.h"
#include "core/graph_model.h"
#include "nn/gfn.h"
#include "util/rng.h"

namespace ba {
namespace {

using tensor::Tensor;

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(TapeFreeInferenceTest, GfnEmbedMatchesTapeEmbed) {
  Rng rng(3);
  nn::GfnEncoder::Options options;
  options.input_dim = core::AugmentedDim(2);
  options.dropout = 0.1f;  // training-only; inference never applies it
  const nn::GfnEncoder enc(options, &rng);
  int mismatches = 0;
  for (int64_t n = 1; n <= 40; ++n) {
    const Tensor x =
        Tensor::RandomUniform({n, options.input_dim}, &rng, -2.0f, 2.0f);
    const Tensor tape = enc.Embed(tensor::Constant(x))->value;
    if (!SameBits(enc.EmbedValue(x), tape)) ++mismatches;
    if (!SameBits(enc.node_mlp().ForwardValue(x),
                  enc.node_mlp().Forward(tensor::Constant(x))->value)) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(TapeFreeInferenceTest, GraphModelEmbedPathsAgree) {
  core::GraphModelOptions options;
  options.k_hops = 2;
  const core::GraphModel model(options);
  Rng rng(5);
  core::GraphTensors gt;
  gt.augmented = Tensor::RandomUniform(
      {9, core::AugmentedDim(options.k_hops)}, &rng, -1.0f, 1.0f);
  EXPECT_TRUE(SameBits(model.Embed(gt), model.EmbedAugmented(gt.augmented)));
}

/// Random (T, dim) sequences with labels, for a short training run
/// that moves the weights off their initialization.
std::vector<core::EmbeddingSequence> RandomSequences(int count, int64_t dim,
                                                     Rng* rng) {
  std::vector<core::EmbeddingSequence> out;
  for (int i = 0; i < count; ++i) {
    core::EmbeddingSequence s;
    s.embeddings = Tensor::RandomNormal({1 + i % 12, dim}, rng);
    s.label = i % 4;
    out.push_back(std::move(s));
  }
  return out;
}

TEST(TapeFreeInferenceTest, AggregatorLogitsMatchTapeForEveryKind) {
  std::vector<core::AggregatorKind> kinds = core::AllAggregators();
  kinds.push_back(core::AggregatorKind::kSelfAttention);
  for (const core::AggregatorKind kind : kinds) {
    SCOPED_TRACE(core::AggregatorName(kind));
    core::AggregatorOptions options;
    options.kind = kind;
    options.embed_dim = 16;
    options.hidden_dim = 12;
    options.mlp_hidden = 10;
    options.epochs = 1;
    options.batch_size = 4;
    core::AggregatorModel model(options);
    Rng rng(11);
    model.Train(RandomSequences(24, options.embed_dim, &rng));
    int cases = 0;
    int mismatches = 0;
    for (int64_t t = 1; t <= 12; ++t) {
      for (int rep = 0; rep < 4; ++rep) {
        const Tensor seq = Tensor::RandomNormal({t, options.embed_dim}, &rng);
        const Tensor tape = model.Logits(seq)->value;
        const Tensor value = model.LogitsValue(seq);
        ++cases;
        if (!SameBits(value, tape)) {
          ++mismatches;
          continue;
        }
        int best = 0;
        for (int c = 1; c < options.num_classes; ++c) {
          if (tape.at(0, c) > tape.at(0, best)) best = c;
        }
        EXPECT_EQ(model.Predict(seq), best);
      }
    }
    EXPECT_EQ(cases, 48);
    EXPECT_EQ(mismatches, 0);
  }
}

}  // namespace
}  // namespace ba
