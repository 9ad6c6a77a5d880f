// Tests for the four-stage address graph construction pipeline
// (§III-A): slicing, single- and multi-transaction compression, and
// structure augmentation, plus a differential test holding the builder
// to a verbatim reference implementation bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <sstream>

#include "chain/ledger.h"
#include "chain/wallet.h"
#include "core/gfn_features.h"
#include "core/graph_builder.h"
#include "core/graph_dataset.h"
#include "datagen/simulator.h"
#include "reference_graph_builder.h"

namespace ba::core {
namespace {

using chain::AddressId;
using chain::Amount;
using chain::Ledger;
using chain::LedgerOptions;
using chain::OutPoint;
using chain::TxDraft;

constexpr Amount kCoin = 100'000'000;

/// Fixture economy: a "pool-like" target address that receives
/// coinbases and pays many recipients per transaction.
class GraphBuilderTest : public ::testing::Test {
 protected:
  GraphBuilderTest() : ledger_(LedgerOptions{.block_subsidy = 100 * kCoin}) {}

  /// Funds `target` with one coinbase and seals a block.
  chain::TxId FundTarget(AddressId target, chain::Timestamp t) {
    auto cb = ledger_.ApplyCoinbase(t, target);
    EXPECT_TRUE(cb.ok());
    EXPECT_TRUE(ledger_.SealBlock(t).ok());
    return cb.value();
  }

  Ledger ledger_;
};

TEST_F(GraphBuilderTest, EmptyHistoryYieldsNoGraphs) {
  const AddressId a = ledger_.NewAddress();
  GraphConstructor constructor;
  EXPECT_TRUE(constructor.BuildGraphs(ledger_, a).empty());
}

TEST_F(GraphBuilderTest, SlicingProducesCeilGraphs) {
  const AddressId target = ledger_.NewAddress();
  // 7 transactions, slice size 3 -> 3 graphs (3, 3, 1).
  for (int i = 0; i < 7; ++i) FundTarget(target, i * 600);
  GraphConstructorOptions opts;
  opts.slice_size = 3;
  opts.enable_single_compression = false;
  opts.enable_multi_compression = false;
  opts.enable_augmentation = false;
  GraphConstructor constructor(opts);
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 3u);
  EXPECT_EQ(graphs[0].CountKind(NodeKind::kTransaction), 3);
  EXPECT_EQ(graphs[1].CountKind(NodeKind::kTransaction), 3);
  EXPECT_EQ(graphs[2].CountKind(NodeKind::kTransaction), 1);
  for (const auto& g : graphs) {
    EXPECT_EQ(g.target, target);
    EXPECT_EQ(g.nodes[static_cast<size_t>(g.target_node)].address, target);
  }
  EXPECT_EQ(graphs[2].slice_index, 2);
}

TEST_F(GraphBuilderTest, OriginalGraphEdgesMatchLedger) {
  const AddressId target = ledger_.NewAddress();
  const auto cb = FundTarget(target, 0);
  // One payment: target -> {b, c} + change.
  const AddressId b = ledger_.NewAddress();
  const AddressId c = ledger_.NewAddress();
  TxDraft draft;
  draft.timestamp = 600;
  draft.inputs = {OutPoint{cb, 0}};
  draft.outputs = {{b, 30 * kCoin}, {c, 20 * kCoin}, {target, 50 * kCoin}};
  ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger_.SealBlock(600).ok());

  GraphConstructorOptions opts;
  opts.enable_single_compression = false;
  opts.enable_multi_compression = false;
  opts.enable_augmentation = false;
  GraphConstructor constructor(opts);
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  const AddressGraph& g = graphs[0];
  // Nodes: target, b, c addresses + 2 tx nodes.
  EXPECT_EQ(g.CountKind(NodeKind::kAddress), 3);
  EXPECT_EQ(g.CountKind(NodeKind::kTransaction), 2);
  // Edge values in BTC: coinbase output 100; spend input 100 + outputs.
  double total_value = 0.0;
  int input_edges = 0;
  for (const auto& e : g.edges) {
    total_value += e.value;
    input_edges += e.is_input;
  }
  EXPECT_EQ(input_edges, 1);  // only the target funds the payment
  EXPECT_NEAR(total_value, 100.0 + 100.0 + 30.0 + 20.0 + 50.0, 1e-9);
}

TEST_F(GraphBuilderTest, NodeFeaturesAreWellFormed) {
  const AddressId target = ledger_.NewAddress();
  FundTarget(target, 0);
  GraphConstructor constructor;
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  for (const auto& node : graphs[0].nodes) {
    ASSERT_EQ(node.features.size(), static_cast<size_t>(kNodeFeatureDim));
    // Exactly one kind flag set.
    double kind_sum = 0.0;
    for (int k = 0; k < kNumNodeKinds; ++k) {
      kind_sum += node.features[static_cast<size_t>(k)];
    }
    EXPECT_DOUBLE_EQ(kind_sum, 1.0);
    for (double f : node.features) EXPECT_TRUE(std::isfinite(f));
  }
}

TEST_F(GraphBuilderTest, SingleCompressionMergesFanOut) {
  const AddressId target = ledger_.NewAddress();
  const auto cb = FundTarget(target, 0);
  // Payout with 20 one-shot recipients (single-transaction addresses).
  TxDraft draft;
  draft.timestamp = 600;
  draft.inputs = {OutPoint{cb, 0}};
  for (int i = 0; i < 20; ++i) {
    draft.outputs.push_back({ledger_.NewAddress(), 5 * kCoin});
  }
  ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger_.SealBlock(600).ok());

  GraphConstructorOptions opts;
  opts.enable_multi_compression = false;
  opts.enable_augmentation = false;
  GraphConstructor constructor(opts);
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  const AddressGraph& g = graphs[0];
  // The 20 recipients merge into ONE single-transaction hyper node.
  EXPECT_EQ(g.CountKind(NodeKind::kSingleHyper), 1);
  EXPECT_EQ(g.CountKind(NodeKind::kAddress), 1);  // only the target
  // Hyper node records how many addresses it represents.
  for (const auto& node : g.nodes) {
    if (node.kind == NodeKind::kSingleHyper) {
      EXPECT_EQ(node.merged_count, 20);
    }
  }
  // Value is conserved through the merge: the hyper edge sums members.
  double hyper_out = 0.0;
  for (const auto& e : g.edges) {
    if (g.nodes[static_cast<size_t>(e.to)].kind == NodeKind::kSingleHyper) {
      hyper_out += e.value;
    }
  }
  EXPECT_NEAR(hyper_out, 100.0, 1e-9);
}

TEST_F(GraphBuilderTest, SingleCompressionNeverMergesTarget) {
  const AddressId target = ledger_.NewAddress();
  const auto cb = FundTarget(target, 0);
  TxDraft draft;
  draft.timestamp = 600;
  draft.inputs = {OutPoint{cb, 0}};
  draft.outputs = {{ledger_.NewAddress(), 50 * kCoin},
                   {ledger_.NewAddress(), 50 * kCoin}};
  ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger_.SealBlock(600).ok());

  GraphConstructor constructor;
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  const auto& g = graphs[0];
  EXPECT_EQ(g.nodes[static_cast<size_t>(g.target_node)].address, target);
  EXPECT_EQ(g.nodes[static_cast<size_t>(g.target_node)].kind,
            NodeKind::kAddress);
}

TEST_F(GraphBuilderTest, MultiCompressionMergesCoOccurringAddresses) {
  // Mining-pool pattern: the same 10 "miners" are paid in every payout.
  const AddressId target = ledger_.NewAddress();
  std::vector<AddressId> miners;
  for (int i = 0; i < 10; ++i) miners.push_back(ledger_.NewAddress());
  for (int round = 0; round < 4; ++round) {
    const auto cb = FundTarget(target, round * 1200);
    TxDraft draft;
    draft.timestamp = round * 1200 + 600;
    draft.inputs = {OutPoint{cb, 0}};
    for (AddressId m : miners) draft.outputs.push_back({m, 10 * kCoin});
    ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
    ASSERT_TRUE(ledger_.SealBlock(draft.timestamp).ok());
  }

  GraphConstructorOptions opts;
  opts.enable_single_compression = false;
  opts.enable_augmentation = false;
  opts.similarity_threshold = 0.5;
  opts.sigma = 1;
  GraphConstructor constructor(opts);
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  const AddressGraph& g = graphs[0];
  // All 10 miners co-occur in all 4 payouts: similarity 1 > Ψ -> one
  // multi-transaction hyper node.
  EXPECT_EQ(g.CountKind(NodeKind::kMultiHyper), 1);
  EXPECT_EQ(g.CountKind(NodeKind::kAddress), 1);  // target only
  for (const auto& node : g.nodes) {
    if (node.kind == NodeKind::kMultiHyper) {
      EXPECT_EQ(node.merged_count, 10);
    }
  }
}

TEST_F(GraphBuilderTest, MultiCompressionRespectsThreshold) {
  // Two disjoint miner cliques paid by disjoint transaction sets: the
  // cliques must merge separately, never together.
  const AddressId target = ledger_.NewAddress();
  std::vector<AddressId> clique_a, clique_b;
  for (int i = 0; i < 5; ++i) clique_a.push_back(ledger_.NewAddress());
  for (int i = 0; i < 5; ++i) clique_b.push_back(ledger_.NewAddress());
  for (int round = 0; round < 4; ++round) {
    const auto cb = FundTarget(target, round * 1200);
    TxDraft draft;
    draft.timestamp = round * 1200 + 600;
    draft.inputs = {OutPoint{cb, 0}};
    const auto& clique = (round % 2 == 0) ? clique_a : clique_b;
    for (AddressId m : clique) draft.outputs.push_back({m, 20 * kCoin});
    ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
    ASSERT_TRUE(ledger_.SealBlock(draft.timestamp).ok());
  }

  GraphConstructorOptions opts;
  opts.enable_single_compression = false;
  opts.enable_augmentation = false;
  GraphConstructor constructor(opts);
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_EQ(graphs[0].CountKind(NodeKind::kMultiHyper), 2);
}

TEST_F(GraphBuilderTest, AugmentationFillsCentralitySlots) {
  const AddressId target = ledger_.NewAddress();
  const auto cb = FundTarget(target, 0);
  TxDraft draft;
  draft.timestamp = 600;
  draft.inputs = {OutPoint{cb, 0}};
  for (int i = 0; i < 5; ++i) {
    draft.outputs.push_back({ledger_.NewAddress(), 20 * kCoin});
  }
  ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger_.SealBlock(600).ok());

  GraphConstructor constructor;  // all stages on
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  const int base = kCentralityFeatureOffset;
  bool any_degree = false;
  for (const auto& node : graphs[0].nodes) {
    // Degree slot: log1p(degree) >= 0; connected nodes > 0.
    EXPECT_GE(node.features[static_cast<size_t>(base)], 0.0);
    if (node.features[static_cast<size_t>(base)] > 0.0) any_degree = true;
    // PageRank slot present and finite.
    EXPECT_TRUE(std::isfinite(node.features[static_cast<size_t>(base + 3)]));
  }
  EXPECT_TRUE(any_degree);
}

TEST_F(GraphBuilderTest, TimingsAccumulatePerStage) {
  const AddressId target = ledger_.NewAddress();
  for (int i = 0; i < 5; ++i) FundTarget(target, i * 600);
  GraphConstructor constructor;
  ASSERT_FALSE(constructor.BuildGraphs(ledger_, target).empty());
  const StageTimings& t = constructor.timings();
  EXPECT_GT(t.extract_seconds, 0.0);
  EXPECT_GT(t.TotalSeconds(), 0.0);
  EXPECT_GE(t.single_compress_seconds, 0.0);
  constructor.ResetTimings();
  EXPECT_DOUBLE_EQ(constructor.timings().TotalSeconds(), 0.0);
}

TEST_F(GraphBuilderTest, DeterministicAcrossRuns) {
  const AddressId target = ledger_.NewAddress();
  const auto cb = FundTarget(target, 0);
  TxDraft draft;
  draft.timestamp = 600;
  draft.inputs = {OutPoint{cb, 0}};
  for (int i = 0; i < 8; ++i) {
    draft.outputs.push_back({ledger_.NewAddress(), 10 * kCoin});
  }
  ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
  ASSERT_TRUE(ledger_.SealBlock(600).ok());

  GraphConstructor c1, c2;
  const auto g1 = c1.BuildGraphs(ledger_, target);
  const auto g2 = c2.BuildGraphs(ledger_, target);
  ASSERT_EQ(g1.size(), g2.size());
  ASSERT_EQ(g1[0].num_nodes(), g2[0].num_nodes());
  ASSERT_EQ(g1[0].num_edges(), g2[0].num_edges());
  for (int i = 0; i < g1[0].num_nodes(); ++i) {
    EXPECT_EQ(g1[0].nodes[static_cast<size_t>(i)].features,
              g2[0].nodes[static_cast<size_t>(i)].features);
  }
}

TEST_F(GraphBuilderTest, MaxTxCapLimitsSliceCount) {
  const AddressId target = ledger_.NewAddress();
  for (int i = 0; i < 30; ++i) FundTarget(target, i * 600);
  GraphConstructorOptions opts;
  opts.slice_size = 10;
  opts.max_txs_per_address = 15;
  GraphConstructor constructor(opts);
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  EXPECT_EQ(graphs.size(), 2u);  // ceil(15 / 10)
}

TEST_F(GraphBuilderTest, GfnTensorsHaveAugmentedWidth) {
  const AddressId target = ledger_.NewAddress();
  FundTarget(target, 0);
  GraphConstructor constructor;
  const auto graphs = constructor.BuildGraphs(ledger_, target);
  ASSERT_EQ(graphs.size(), 1u);
  for (int k : {0, 1, 2, 3}) {
    const GraphTensors gt = PrepareGraphTensors(graphs[0], k);
    EXPECT_EQ(gt.base_features.dim(1), kNodeFeatureDim);
    EXPECT_EQ(gt.augmented.dim(1), AugmentedDim(k));
    EXPECT_EQ(gt.augmented.dim(0), graphs[0].num_nodes());
    EXPECT_EQ(gt.norm_adj->rows(), graphs[0].num_nodes());
    // Hop-0 block of the augmented features equals the base features.
    for (int64_t i = 0; i < gt.base_features.dim(0); ++i) {
      for (int64_t j = 0; j < kNodeFeatureDim; ++j) {
        EXPECT_FLOAT_EQ(gt.augmented.at(i, 1 + j), gt.base_features.at(i, j));
      }
    }
  }
}

TEST_F(GraphBuilderTest, DatasetBuilderDropsEmptyAndKeepsLabels) {
  const AddressId active = ledger_.NewAddress();
  const AddressId silent = ledger_.NewAddress();
  FundTarget(active, 0);
  GraphDatasetBuilder builder;
  const auto samples = builder.Build(
      ledger_, {{active, datagen::BehaviorLabel::kMining},
                {silent, datagen::BehaviorLabel::kExchange}});
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].address, active);
  EXPECT_EQ(samples[0].label, static_cast<int>(datagen::BehaviorLabel::kMining));
  EXPECT_EQ(samples[0].graphs.size(), samples[0].tensors.size());
  EXPECT_GT(builder.timings().TotalSeconds(), 0.0);
}

TEST_F(GraphBuilderTest, ParallelDatasetBuildMatchesSerial) {
  std::vector<datagen::LabeledAddress> addresses;
  for (int a = 0; a < 6; ++a) {
    const AddressId target = ledger_.NewAddress();
    for (int i = 0; i < 3; ++i) {
      FundTarget(target, (a * 10 + i) * 600);
    }
    addresses.push_back({target, datagen::BehaviorLabel::kMining});
  }
  GraphDatasetOptions serial_opts;
  GraphDatasetBuilder serial(serial_opts);
  GraphDatasetOptions parallel_opts;
  parallel_opts.num_threads = 4;
  GraphDatasetBuilder parallel(parallel_opts);
  const auto s = serial.Build(ledger_, addresses);
  const auto p = parallel.Build(ledger_, addresses);
  ASSERT_EQ(s.size(), p.size());
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].address, p[i].address);
    ASSERT_EQ(s[i].graphs.size(), p[i].graphs.size());
    for (size_t g = 0; g < s[i].graphs.size(); ++g) {
      EXPECT_EQ(s[i].graphs[g].num_nodes(), p[i].graphs[g].num_nodes());
      EXPECT_EQ(s[i].graphs[g].num_edges(), p[i].graphs[g].num_edges());
    }
  }
}

// -- Differential test against the reference builder ----------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Empty when `got` and `want` are identical field by field (doubles
/// compared bitwise), else a description of the first difference.
std::string FirstDifference(const AddressGraph& got, const AddressGraph& want) {
  std::ostringstream os;
  if (got.target != want.target || got.slice_index != want.slice_index ||
      got.target_node != want.target_node) {
    os << "header differs (target_node " << got.target_node << " vs "
       << want.target_node << ")";
    return os.str();
  }
  if (got.num_nodes() != want.num_nodes() ||
      got.num_edges() != want.num_edges()) {
    os << "size " << got.num_nodes() << "/" << got.num_edges() << " vs "
       << want.num_nodes() << "/" << want.num_edges();
    return os.str();
  }
  for (size_t i = 0; i < got.nodes.size(); ++i) {
    const GraphNode& x = got.nodes[i];
    const GraphNode& y = want.nodes[i];
    if (x.kind != y.kind || x.address != y.address || x.txid != y.txid ||
        x.merged_count != y.merged_count ||
        x.features.size() != y.features.size()) {
      os << "node " << i << " identity differs";
      return os.str();
    }
    for (size_t f = 0; f < x.features.size(); ++f) {
      if (!SameBits(x.features[f], y.features[f])) {
        os << "node " << i << " feature " << f << ": " << x.features[f]
           << " vs " << y.features[f];
        return os.str();
      }
    }
  }
  for (size_t k = 0; k < got.edges.size(); ++k) {
    const GraphEdge& x = got.edges[k];
    const GraphEdge& y = want.edges[k];
    if (x.from != y.from || x.to != y.to || x.is_input != y.is_input ||
        !SameBits(x.value, y.value)) {
      os << "edge " << k << ": (" << x.from << "," << x.to << ","
         << x.value << ") vs (" << y.from << "," << y.to << "," << y.value
         << ")";
      return os.str();
    }
  }
  return "";
}

/// Tallies graph lists that differ; keeps the first difference.
struct DiffTally {
  int64_t graphs = 0;
  int64_t mismatches = 0;
  std::string first;

  void Compare(const std::vector<AddressGraph>& got,
               const std::vector<AddressGraph>& want,
               const std::string& where) {
    if (got.size() != want.size()) {
      Note(where + ": " + std::to_string(got.size()) + " graphs vs " +
           std::to_string(want.size()));
      return;
    }
    for (size_t g = 0; g < got.size(); ++g) {
      ++graphs;
      const std::string d = FirstDifference(got[g], want[g]);
      if (!d.empty()) Note(where + " slice " + std::to_string(g) + ": " + d);
    }
  }
  void Note(const std::string& what) {
    ++mismatches;
    if (first.empty()) first = what;
  }
};

/// Runs the public stages one by one, as perfbench's per-layer probe
/// does.
std::vector<AddressGraph> BuildStageByStage(
    const GraphConstructor& ctor, const chain::LedgerSnapshot& snapshot,
    AddressId address, int start_slice) {
  auto graphs = ctor.ExtractOriginalGraphs(snapshot, address, start_slice);
  const auto& o = ctor.options();
  for (auto& g : graphs) {
    if (o.enable_single_compression) ctor.CompressSingleTransactionAddresses(&g);
    if (o.enable_multi_compression) ctor.CompressMultiTransactionAddresses(&g);
    if (o.enable_augmentation) ctor.AugmentStructure(&g);
  }
  return graphs;
}

/// Compares BuildGraphsFrom, and the stages run one by one, with the
/// reference for every address.
void CompareAll(const GraphConstructorOptions& opts,
                const chain::LedgerSnapshot& snapshot,
                const std::vector<AddressId>& addresses, int start_slice,
                const std::string& label, DiffTally* tally) {
  GraphConstructor ctor(opts);
  const reference::ReferenceGraphConstructor ref(opts);
  for (const AddressId a : addresses) {
    const auto want = ref.BuildGraphsFrom(snapshot, a, start_slice);
    const std::string where = label + " addr " + std::to_string(a);
    tally->Compare(ctor.BuildGraphsFrom(snapshot, a, start_slice), want,
                   where + " build");
    tally->Compare(BuildStageByStage(ctor, snapshot, a, start_slice), want,
                   where + " staged");
  }
}

/// A small seeded economy with every behavior; pools pay out often so
/// multi-transaction compression has work, and a few addresses span
/// several 100-tx slices.
class GraphBuilderDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (const uint64_t seed : {11u, 23u}) {
      datagen::ScenarioConfig config;
      config.seed = seed;
      config.num_blocks = 160;
      config.num_mining_pools = 2;
      config.miners_per_pool = 30;
      config.pool_payout_interval_blocks = 6;
      config.num_exchanges = 2;
      config.num_gambling_houses = 2;
      config.gamblers_per_house = 12;
      config.num_services = 2;
      config.num_retail_users = 40;
      auto* sim = new datagen::Simulator(config);
      BA_CHECK_OK(sim->Run());
      economies_.push_back(sim);
    }
  }
  static void TearDownTestSuite() {
    for (auto* sim : economies_) delete sim;
    economies_.clear();
  }

  /// Up to `limit` labeled addresses, longest histories first so the
  /// multi-slice ones are always included.
  static std::vector<AddressId> Addresses(const datagen::Simulator& sim,
                                          size_t limit) {
    auto labeled = sim.CollectLabeledAddresses(/*min_txs=*/1);
    const chain::LedgerSnapshot snapshot = sim.ledger().Snapshot();
    std::vector<std::pair<size_t, AddressId>> by_size;
    for (const auto& l : labeled) {
      by_size.push_back({snapshot.TransactionsOf(l.address, 1u << 20).size(),
                         l.address});
    }
    std::sort(by_size.begin(), by_size.end(), std::greater<>());
    std::vector<AddressId> out;
    for (size_t i = 0; i < by_size.size() && out.size() < limit; ++i) {
      // Every fourth beyond the first few, so short histories count too.
      if (i < limit / 2 || i % 4 == 0) out.push_back(by_size[i].second);
    }
    return out;
  }

  static std::vector<datagen::Simulator*> economies_;
};

std::vector<datagen::Simulator*> GraphBuilderDifferentialTest::economies_;

TEST_F(GraphBuilderDifferentialTest, MatchesReferenceAcrossThresholdGrid) {
  DiffTally tally;
  for (const auto* sim : economies_) {
    const chain::LedgerSnapshot snapshot = sim->ledger().Snapshot();
    const auto addresses = Addresses(*sim, 24);
    for (const int slice : {20, 100}) {
      for (const double psi : {0.0, 0.3, 0.5, 0.8}) {
        for (const int sigma : {0, 1, 2}) {
          GraphConstructorOptions opts;
          opts.slice_size = slice;
          opts.similarity_threshold = psi;
          opts.sigma = sigma;
          std::ostringstream label;
          label << "slice=" << slice << " psi=" << psi << " sigma=" << sigma;
          CompareAll(opts, snapshot, addresses, 0, label.str(), &tally);
        }
      }
    }
  }
  EXPECT_GT(tally.graphs, 1000);
  EXPECT_EQ(tally.mismatches, 0) << tally.first;
}

TEST_F(GraphBuilderDifferentialTest, MatchesReferenceWithEachStageToggled) {
  DiffTally tally;
  for (const auto* sim : economies_) {
    const chain::LedgerSnapshot snapshot = sim->ledger().Snapshot();
    const auto addresses = Addresses(*sim, 24);
    for (const int slice : {20, 100}) {
      for (int mask = 0; mask < 8; ++mask) {
        GraphConstructorOptions opts;
        opts.slice_size = slice;
        opts.enable_single_compression = (mask & 1) != 0;
        opts.enable_multi_compression = (mask & 2) != 0;
        opts.enable_augmentation = (mask & 4) != 0;
        CompareAll(opts, snapshot, addresses, 0,
                   "slice=" + std::to_string(slice) +
                       " stages=" + std::to_string(mask),
                   &tally);
      }
    }
  }
  EXPECT_EQ(tally.mismatches, 0) << tally.first;
}

TEST_F(GraphBuilderDifferentialTest, MatchesReferenceFromLaterSlices) {
  DiffTally tally;
  for (const auto* sim : economies_) {
    const chain::LedgerSnapshot snapshot = sim->ledger().Snapshot();
    const auto addresses = Addresses(*sim, 16);
    GraphConstructorOptions opts;
    opts.slice_size = 20;
    for (const int start : {1, 2, 5, 1000}) {
      CompareAll(opts, snapshot, addresses, start,
                 "start=" + std::to_string(start), &tally);
    }
  }
  EXPECT_GT(tally.graphs, 0);
  EXPECT_EQ(tally.mismatches, 0) << tally.first;
}

TEST_F(GraphBuilderDifferentialTest, EachStageMatchesReferenceStage) {
  // Stage by stage on the same input graph, not only end to end.
  DiffTally tally;
  const datagen::Simulator& sim = *economies_.front();
  const chain::LedgerSnapshot snapshot = sim.ledger().Snapshot();
  GraphConstructorOptions opts;
  opts.slice_size = 20;
  const GraphConstructor ctor(opts);
  const reference::ReferenceGraphConstructor ref(opts);
  for (const AddressId a : Addresses(sim, 24)) {
    auto got = ctor.ExtractOriginalGraphs(snapshot, a, 0);
    auto want = ref.ExtractOriginalGraphs(snapshot, a, 0);
    tally.Compare(got, want, "extract");
    for (auto& g : got) ctor.CompressSingleTransactionAddresses(&g);
    for (auto& g : want) ref.CompressSingleTransactionAddresses(&g);
    tally.Compare(got, want, "single");
    for (auto& g : got) ctor.CompressMultiTransactionAddresses(&g);
    for (auto& g : want) ref.CompressMultiTransactionAddresses(&g);
    tally.Compare(got, want, "multi");
    for (auto& g : got) ctor.AugmentStructure(&g);
    for (auto& g : want) ref.AugmentStructure(&g);
    tally.Compare(got, want, "augment");
  }
  EXPECT_EQ(tally.mismatches, 0) << tally.first;
}

TEST_F(GraphBuilderTest, MatchesReferenceOnParallelEdgesAndEmptyHistory) {
  // Repeat payees: every payout pays each of four miners twice (parallel
  // tx→address edges) and returns change to the target (the target on
  // both sides of one transaction). No address is single-transaction,
  // so Stage 2 merges nothing and leaves the parallel edges unsummed
  // for Stage 3. A co-spender that funds one payout and gets change back
  // from it sits on both sides as a single-transaction address.
  const AddressId target = ledger_.NewAddress();
  const AddressId cospender = ledger_.NewAddress();
  std::vector<AddressId> miners;
  for (int i = 0; i < 4; ++i) miners.push_back(ledger_.NewAddress());
  const auto cospend_cb = ledger_.ApplyCoinbase(0, cospender);
  ASSERT_TRUE(cospend_cb.ok());
  ASSERT_TRUE(ledger_.SealBlock(0).ok());
  for (int round = 0; round < 3; ++round) {
    const auto cb = FundTarget(target, 1200 * round + 1);
    TxDraft draft;
    draft.timestamp = 1200 * round + 600;
    draft.inputs = {OutPoint{cb, 0}};
    if (round == 1) draft.inputs.push_back(OutPoint{cospend_cb.value(), 0});
    for (const AddressId m : miners) {
      draft.outputs.push_back({m, 5 * kCoin});
      draft.outputs.push_back({m, (3 + round) * kCoin});
    }
    draft.outputs.push_back({target, 40 * kCoin});
    if (round == 1) draft.outputs.push_back({cospender, 90 * kCoin});
    ASSERT_TRUE(ledger_.ApplyTransaction(draft).ok());
    ASSERT_TRUE(ledger_.SealBlock(draft.timestamp).ok());
  }
  const AddressId silent = ledger_.NewAddress();
  const chain::LedgerSnapshot snapshot = ledger_.Snapshot();

  DiffTally tally;
  for (const double psi : {0.0, 0.5}) {
    for (int mask = 0; mask < 8; ++mask) {
      GraphConstructorOptions opts;
      opts.similarity_threshold = psi;
      opts.enable_single_compression = (mask & 1) != 0;
      opts.enable_multi_compression = (mask & 2) != 0;
      opts.enable_augmentation = (mask & 4) != 0;
      CompareAll(opts, snapshot, {target, cospender, miners[0], silent}, 0,
                 "mask=" + std::to_string(mask), &tally);
    }
  }
  EXPECT_EQ(tally.mismatches, 0) << tally.first;

  // The fixture does exercise what it claims: Stage 3 merges the miners
  // over unsummed parallel edges, and the empty history has no graphs.
  GraphConstructorOptions no_single;
  no_single.enable_single_compression = false;
  GraphConstructor ctor(no_single);
  const auto graphs = ctor.BuildGraphs(snapshot, target);
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_EQ(graphs[0].CountKind(NodeKind::kMultiHyper), 1);
  EXPECT_TRUE(ctor.BuildGraphs(snapshot, silent).empty());
}

}  // namespace
}  // namespace ba::core
