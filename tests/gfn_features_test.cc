// Differential test of GFN feature preparation (Eq. 12-13): the
// one-pass CSR PrepareGraphTensors, and the X^G-only AugmentedFeatures,
// must reproduce the replaced AdjacencyList/triplet version
// (reference_gfn_features.cc) bit for bit — X, every CSR row of Ã and
// X^G — on seeded economies and on hand-built edge cases.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/gfn_features.h"
#include "core/graph_builder.h"
#include "datagen/simulator.h"
#include "reference_gfn_features.h"
#include "util/rng.h"

namespace ba::core {
namespace {

bool SameBits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// First difference between two sets of graph tensors, or "".
std::string FirstDifference(const GraphTensors& got,
                            const GraphTensors& want) {
  if (!SameBits(got.base_features, want.base_features)) {
    return "base_features";
  }
  if (!SameBits(got.augmented, want.augmented)) return "augmented";
  const graph::SparseMatrix& a = *got.norm_adj;
  const graph::SparseMatrix& b = *want.norm_adj;
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.nnz() != b.nnz()) {
    return "norm_adj shape/nnz";
  }
  for (int64_t r = 0; r < a.rows(); ++r) {
    const auto ai = a.RowIndices(r), bi = b.RowIndices(r);
    const auto av = a.RowValues(r), bv = b.RowValues(r);
    if (ai.size() != bi.size() ||
        std::memcmp(ai.data(), bi.data(), ai.size() * sizeof(int64_t)) != 0 ||
        std::memcmp(av.data(), bv.data(), av.size() * sizeof(float)) != 0) {
      return "norm_adj row " + std::to_string(r);
    }
  }
  return "";
}

/// Tallies graph × k_hops cases that differ; keeps the first one.
struct Tally {
  int64_t cases = 0;
  int64_t mismatches = 0;
  std::string first;

  void Compare(const AddressGraph& g, const std::string& where) {
    for (int k = 0; k <= 3; ++k) {
      ++cases;
      const GraphTensors want = reference::PrepareGraphTensors(g, k);
      std::string d = FirstDifference(PrepareGraphTensors(g, k), want);
      if (d.empty() && !SameBits(AugmentedFeatures(g, k), want.augmented)) {
        d = "AugmentedFeatures";
      }
      if (d.empty()) continue;
      ++mismatches;
      if (first.empty()) first = where + " k=" + std::to_string(k) + ": " + d;
    }
  }
};

TEST(GfnFeaturesDifferentialTest, MatchesReferenceOnSeededEconomies) {
  Tally tally;
  for (const uint64_t seed : {5u, 11u, 29u}) {
    datagen::ScenarioConfig config;
    config.seed = seed;
    config.num_blocks = 120;
    config.num_mining_pools = 2;
    config.miners_per_pool = 20;
    config.pool_payout_interval_blocks = 6;
    config.gamblers_per_house = 8;
    config.num_retail_users = 30;
    datagen::Simulator sim(config);
    ASSERT_TRUE(sim.Run().ok());
    const chain::LedgerSnapshot snapshot = sim.ledger().Snapshot();
    const auto labeled = sim.CollectLabeledAddresses(/*min_txs=*/1);
    for (const int slice : {20, 100}) {
      // Compressed graphs as served, and uncompressed ones, which keep
      // the parallel edges that compression would merge.
      for (const bool compress : {true, false}) {
        GraphConstructorOptions opts;
        opts.slice_size = slice;
        opts.enable_single_compression = compress;
        opts.enable_multi_compression = compress;
        GraphConstructor ctor(opts);
        for (const auto& l : labeled) {
          const auto graphs = ctor.BuildGraphs(snapshot, l.address);
          for (size_t g = 0; g < graphs.size(); ++g) {
            tally.Compare(graphs[g],
                          "seed=" + std::to_string(seed) +
                              " slice=" + std::to_string(slice) +
                              " compress=" + std::to_string(compress) +
                              " addr " + std::to_string(l.address) +
                              " graph " + std::to_string(g));
          }
        }
      }
    }
  }
  EXPECT_GT(tally.cases, 15000);
  EXPECT_EQ(tally.mismatches, 0) << tally.first;
}

/// A graph of `n` nodes with seeded, non-trivial feature values.
AddressGraph HandGraph(int n, uint64_t seed) {
  Rng rng(seed);
  AddressGraph g;
  for (int i = 0; i < n; ++i) {
    GraphNode node;
    node.features.resize(kNodeFeatureDim);
    for (double& f : node.features) f = rng.Uniform(-3.0, 3.0);
    g.nodes.push_back(std::move(node));
  }
  return g;
}

TEST(GfnFeaturesDifferentialTest, MatchesReferenceOnHandBuiltEdgeCases) {
  Tally tally;

  // A self-loop edge next to an ordinary one.
  AddressGraph self_loop = HandGraph(3, 1);
  self_loop.edges = {{0, 0, 1.0, true}, {0, 1, 2.0, false},
                     {2, 1, 0.5, true}};
  tally.Compare(self_loop, "self-loop");

  // Parallel edges, in both directions, plus a repeated self-loop.
  AddressGraph parallel = HandGraph(4, 2);
  parallel.edges = {{0, 1, 1.0, true},  {0, 1, 1.0, true},
                    {1, 0, 3.0, false}, {2, 3, 1.0, true},
                    {3, 3, 1.0, true},  {3, 3, 2.0, false},
                    {0, 1, 4.0, false}};
  tally.Compare(parallel, "parallel");

  // Node 2 has no edge at all.
  AddressGraph isolated = HandGraph(4, 3);
  isolated.edges = {{0, 1, 1.0, true}, {1, 3, 1.0, false}};
  tally.Compare(isolated, "isolated");

  // One node, without and with a self-loop.
  AddressGraph single = HandGraph(1, 4);
  tally.Compare(single, "single");
  single.edges = {{0, 0, 1.0, true}};
  tally.Compare(single, "single self-loop");

  EXPECT_EQ(tally.cases, 20);
  EXPECT_EQ(tally.mismatches, 0) << tally.first;

  // The isolated node's row of Ã is its self-loop alone, weight 1.
  const GraphTensors gt = PrepareGraphTensors(isolated, 1);
  ASSERT_EQ(gt.norm_adj->RowIndices(2).size(), 1u);
  EXPECT_EQ(gt.norm_adj->RowIndices(2)[0], 2);
  EXPECT_EQ(gt.norm_adj->RowValues(2)[0], 1.0f);
}

}  // namespace
}  // namespace ba::core
