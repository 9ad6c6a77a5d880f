// Verbatim copy of the original hash-map / dense-matrix construction
// stages and of the original SFE (see reference_graph_builder.h). Do
// not optimize: this file is the specification the differential test
// holds GraphConstructor to.

#include "reference_graph_builder.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace ba::core::reference {

namespace {

double Percentile(std::vector<double> sorted, double p) {
  // Linear interpolation between closest ranks (inclusive method).
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double SignedLog1p(double v) {
  return v >= 0.0 ? std::log1p(v) : -std::log1p(-v);
}

double Clamp(double v, double lo, double hi) {
  if (std::isnan(v)) return 0.0;
  return std::clamp(v, lo, hi);
}


std::array<double, kSfeDim> ComputeSfe(const std::vector<double>& values) {
  std::array<double, kSfeDim> out{};
  const size_t n = values.size();
  if (n == 0) return out;

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double min_v = sorted.front();
  const double max_v = sorted.back();

  double sum = 0.0;
  for (double v : values) sum += v;
  const double mean = sum / static_cast<double>(n);

  double m2 = 0.0, m3 = 0.0, m4 = 0.0, abs_dev = 0.0;
  for (double v : values) {
    const double d = v - mean;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
    abs_dev += std::abs(d);
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  m4 /= static_cast<double>(n);
  const double variance = m2;
  const double stddev = std::sqrt(variance);
  const double mad = abs_dev / static_cast<double>(n);
  const double median = Percentile(sorted, 0.5);

  out[kSfeMax] = max_v;
  out[kSfeMin] = min_v;
  out[kSfeSum] = sum;
  out[kSfeMean] = mean;
  out[kSfeCount] = static_cast<double>(n);
  out[kSfeRange] = max_v - min_v;
  out[kSfeMidRange] = (max_v + min_v) / 2.0;
  out[kSfePercentile75] = Percentile(sorted, 0.75);
  out[kSfeVariance] = variance;
  out[kSfeStdDev] = stddev;
  out[kSfeMeanAbsDev] = mad;
  out[kSfeCoeffVar] = mean != 0.0 ? stddev / std::abs(mean) : 0.0;
  // Population kurtosis (not excess) and skewness; degenerate
  // (zero-variance) inputs report 0.
  out[kSfeKurtosis] = variance > 0.0 ? m4 / (variance * variance) : 0.0;
  out[kSfeSkewness] = stddev > 0.0 ? m3 / (stddev * stddev * stddev) : 0.0;
  // Tilt: Pearson's second (median) skewness coefficient.
  out[kSfeTilt] = stddev > 0.0 ? 3.0 * (mean - median) / stddev : 0.0;
  return out;
}

std::array<double, kSfeDim> CompressSfe(
    const std::array<double, kSfeDim>& raw) {
  std::array<double, kSfeDim> out = raw;
  for (int i : {kSfeMax, kSfeMin, kSfeSum, kSfeMean, kSfeCount, kSfeRange,
                kSfeMidRange, kSfePercentile75, kSfeVariance, kSfeStdDev,
                kSfeMeanAbsDev}) {
    out[static_cast<size_t>(i)] = SignedLog1p(out[static_cast<size_t>(i)]);
  }
  out[kSfeCoeffVar] = Clamp(out[kSfeCoeffVar], 0.0, 10.0);
  out[kSfeKurtosis] = Clamp(SignedLog1p(out[kSfeKurtosis]), -10.0, 10.0);
  out[kSfeSkewness] = Clamp(out[kSfeSkewness], -10.0, 10.0);
  out[kSfeTilt] = Clamp(out[kSfeTilt], -10.0, 10.0);
  return out;
}

std::array<double, kSfeDim> RefComputeCompressedSfe(
    const std::vector<double>& values) {
  return CompressSfe(ComputeSfe(values));
}

std::vector<double> RefMakeNodeFeatures(NodeKind kind,
                                        const std::vector<double>& values) {
  std::vector<double> f(kNodeFeatureDim, 0.0);
  f[static_cast<size_t>(kind)] = 1.0;
  const auto sfe = RefComputeCompressedSfe(values);
  for (int i = 0; i < kSfeDim; ++i) {
    f[static_cast<size_t>(kSfeFeatureOffset + i)] =
        sfe[static_cast<size_t>(i)];
  }
  return f;
}


constexpr double kSatoshisPerCoin = 100'000'000.0;

double ToBtc(chain::Amount v) {
  return static_cast<double>(v) / kSatoshisPerCoin;
}

/// Rebuilds a graph after merging: `group_of[i]` >= 0 assigns node i to
/// a merge group; -1 keeps the node as-is. Each group becomes one node
/// of `merged_kind` whose features are the compressed SFE over all the
/// member edge values; parallel (node, node, side) edges are summed.
void ApplyMerges(AddressGraph* graph, const std::vector<int>& group_of,
                 int num_groups, NodeKind merged_kind) {
  if (num_groups == 0) return;
  const int old_n = graph->num_nodes();
  BA_CHECK_EQ(static_cast<int>(group_of.size()), old_n);

  // New index for every old node: kept nodes first (stable), then one
  // node per group.
  std::vector<int> new_index(static_cast<size_t>(old_n), -1);
  std::vector<GraphNode> new_nodes;
  for (int i = 0; i < old_n; ++i) {
    if (group_of[static_cast<size_t>(i)] < 0) {
      new_index[static_cast<size_t>(i)] =
          static_cast<int>(new_nodes.size());
      new_nodes.push_back(std::move(graph->nodes[static_cast<size_t>(i)]));
    }
  }
  const int first_group_node = static_cast<int>(new_nodes.size());
  std::vector<std::vector<double>> group_values(
      static_cast<size_t>(num_groups));
  std::vector<int> group_sizes(static_cast<size_t>(num_groups), 0);
  for (int i = 0; i < old_n; ++i) {
    const int g = group_of[static_cast<size_t>(i)];
    if (g >= 0) {
      new_index[static_cast<size_t>(i)] = first_group_node + g;
      group_sizes[static_cast<size_t>(g)] +=
          graph->nodes[static_cast<size_t>(i)].merged_count;
    }
  }

  // Collect member edge values per group (the SFE input of Eq. 2/7) and
  // remap edges, summing parallel ones.
  struct EdgeKey {
    int from;
    int to;
    bool is_input;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    size_t operator()(const EdgeKey& k) const {
      return std::hash<int64_t>()((static_cast<int64_t>(k.from) << 32) ^
                                  (static_cast<uint32_t>(k.to) << 1) ^
                                  (k.is_input ? 1 : 0));
    }
  };
  std::unordered_map<EdgeKey, double, EdgeKeyHash> merged_edges;
  for (const auto& e : graph->edges) {
    const int gf = group_of[static_cast<size_t>(e.from)];
    const int gt = group_of[static_cast<size_t>(e.to)];
    if (gf >= 0) group_values[static_cast<size_t>(gf)].push_back(e.value);
    if (gt >= 0) group_values[static_cast<size_t>(gt)].push_back(e.value);
    const EdgeKey key{new_index[static_cast<size_t>(e.from)],
                      new_index[static_cast<size_t>(e.to)], e.is_input};
    merged_edges[key] += e.value;
  }

  for (int g = 0; g < num_groups; ++g) {
    GraphNode node;
    node.kind = merged_kind;
    node.merged_count = group_sizes[static_cast<size_t>(g)];
    node.features =
        RefMakeNodeFeatures(merged_kind, group_values[static_cast<size_t>(g)]);
    new_nodes.push_back(std::move(node));
  }

  std::vector<GraphEdge> new_edges;
  new_edges.reserve(merged_edges.size());
  for (const auto& [key, value] : merged_edges) {
    new_edges.push_back({key.from, key.to, value, key.is_input});
  }
  std::sort(new_edges.begin(), new_edges.end(),
            [](const GraphEdge& a, const GraphEdge& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.is_input < b.is_input;
            });

  graph->target_node = new_index[static_cast<size_t>(graph->target_node)];
  BA_CHECK_GE(graph->target_node, 0);
  graph->nodes = std::move(new_nodes);
  graph->edges = std::move(new_edges);
}

}  // namespace

std::vector<AddressGraph> ReferenceGraphConstructor::BuildGraphsFrom(
    const chain::LedgerSnapshot& snapshot, chain::AddressId address,
    int start_slice) const {
  std::vector<AddressGraph> graphs =
      ExtractOriginalGraphs(snapshot, address, start_slice);
  if (options_.enable_single_compression) {
    for (auto& g : graphs) CompressSingleTransactionAddresses(&g);
  }
  if (options_.enable_multi_compression) {
    for (auto& g : graphs) CompressMultiTransactionAddresses(&g);
  }
  if (options_.enable_augmentation) {
    for (auto& g : graphs) AugmentStructure(&g);
  }
  return graphs;
}

std::vector<AddressGraph> ReferenceGraphConstructor::ExtractOriginalGraphs(
    const chain::LedgerSnapshot& snapshot, chain::AddressId address,
    int start_slice) const {
  const std::vector<chain::TxId> txs = snapshot.TransactionsOf(
      address, static_cast<size_t>(options_.max_txs_per_address));

  std::vector<AddressGraph> graphs;
  const int slice_size = options_.slice_size;
  const int num_slices =
      static_cast<int>((txs.size() + slice_size - 1) / slice_size);
  if (start_slice >= num_slices) return graphs;
  graphs.reserve(static_cast<size_t>(num_slices - start_slice));

  for (int s = start_slice; s < num_slices; ++s) {
    const size_t begin = static_cast<size_t>(s) * slice_size;
    const size_t end =
        std::min(txs.size(), begin + static_cast<size_t>(slice_size));

    AddressGraph g;
    g.target = address;
    g.slice_index = s;

    // Values incident to each node within this slice, used for the
    // node's SFE features; indexed by node id.
    std::unordered_map<chain::AddressId, int> addr_node;
    std::vector<std::vector<double>> node_values;

    auto address_node = [&](chain::AddressId a) {
      auto it = addr_node.find(a);
      if (it != addr_node.end()) return it->second;
      GraphNode node;
      node.kind = NodeKind::kAddress;
      node.address = a;
      const int idx = g.num_nodes();
      g.nodes.push_back(std::move(node));
      node_values.emplace_back();
      addr_node.emplace(a, idx);
      return idx;
    };

    // The target address is always node 0 of its graph.
    g.target_node = address_node(address);

    for (size_t t = begin; t < end; ++t) {
      const chain::Transaction& tx = snapshot.tx(txs[t]);
      GraphNode tx_node;
      tx_node.kind = NodeKind::kTransaction;
      tx_node.txid = tx.txid;
      const int tx_idx = g.num_nodes();
      g.nodes.push_back(std::move(tx_node));
      node_values.emplace_back();

      for (const auto& in : tx.inputs) {
        const int a_idx = address_node(in.address);
        const double v = ToBtc(in.value);
        g.edges.push_back({a_idx, tx_idx, v, /*is_input=*/true});
        node_values[static_cast<size_t>(a_idx)].push_back(v);
        node_values[static_cast<size_t>(tx_idx)].push_back(v);
      }
      for (const auto& out : tx.outputs) {
        const int a_idx = address_node(out.address);
        const double v = ToBtc(out.value);
        g.edges.push_back({tx_idx, a_idx, v, /*is_input=*/false});
        node_values[static_cast<size_t>(a_idx)].push_back(v);
        node_values[static_cast<size_t>(tx_idx)].push_back(v);
      }
    }

    for (int i = 0; i < g.num_nodes(); ++i) {
      GraphNode& node = g.nodes[static_cast<size_t>(i)];
      node.features =
          RefMakeNodeFeatures(node.kind, node_values[static_cast<size_t>(i)]);
    }
    g.nodes[static_cast<size_t>(g.target_node)]
        .features[static_cast<size_t>(kTargetFlagIndex)] = 1.0;
    graphs.push_back(std::move(g));
  }
  return graphs;
}

void ReferenceGraphConstructor::CompressSingleTransactionAddresses(
    AddressGraph* graph) const {
  const int n = graph->num_nodes();
  // Distinct transactions incident to each address node.
  std::vector<std::unordered_set<int>> txs_of(static_cast<size_t>(n));
  for (const auto& e : graph->edges) {
    const auto& from = graph->nodes[static_cast<size_t>(e.from)];
    if (from.kind == NodeKind::kAddress) {
      txs_of[static_cast<size_t>(e.from)].insert(e.to);
    }
    const auto& to = graph->nodes[static_cast<size_t>(e.to)];
    if (to.kind == NodeKind::kAddress) {
      txs_of[static_cast<size_t>(e.to)].insert(e.from);
    }
  }

  // Group single-transaction addresses by (transaction, side).
  // Key: tx_node * 2 + (is_input ? 1 : 0).
  std::unordered_map<int64_t, std::vector<int>> side_groups;
  std::vector<bool> is_input_side(static_cast<size_t>(n), false);
  for (const auto& e : graph->edges) {
    if (e.is_input) {
      const auto& from = graph->nodes[static_cast<size_t>(e.from)];
      if (from.kind == NodeKind::kAddress) {
        is_input_side[static_cast<size_t>(e.from)] = true;
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    const auto& node = graph->nodes[static_cast<size_t>(i)];
    if (node.kind != NodeKind::kAddress) continue;
    if (i == graph->target_node) continue;  // never merge the target
    if (txs_of[static_cast<size_t>(i)].size() != 1) continue;
    const int tx = *txs_of[static_cast<size_t>(i)].begin();
    const int64_t key =
        static_cast<int64_t>(tx) * 2 +
        (is_input_side[static_cast<size_t>(i)] ? 1 : 0);
    side_groups[key].push_back(i);
  }

  std::vector<int> group_of(static_cast<size_t>(n), -1);
  int num_groups = 0;
  for (auto& [key, members] : side_groups) {
    if (members.size() < 2) continue;  // nothing to compress
    for (int m : members) group_of[static_cast<size_t>(m)] = num_groups;
    ++num_groups;
  }
  ApplyMerges(graph, group_of, num_groups, NodeKind::kSingleHyper);
}

void ReferenceGraphConstructor::CompressMultiTransactionAddresses(
    AddressGraph* graph) const {
  const int n = graph->num_nodes();
  // Multi-transaction candidates: plain address nodes (not the target)
  // incident to >= 2 distinct transactions.
  std::vector<std::unordered_set<int>> txs_of(static_cast<size_t>(n));
  std::unordered_map<int, int> tx_col;  // tx node index -> column
  for (const auto& e : graph->edges) {
    int addr_side = -1;
    int tx_side = -1;
    if (graph->nodes[static_cast<size_t>(e.from)].kind ==
        NodeKind::kTransaction) {
      tx_side = e.from;
      addr_side = e.to;
    } else {
      addr_side = e.from;
      tx_side = e.to;
    }
    if (graph->nodes[static_cast<size_t>(tx_side)].kind !=
        NodeKind::kTransaction) {
      continue;  // hyper-hyper artifacts cannot occur, but stay safe
    }
    if (!tx_col.count(tx_side)) {
      const int col = static_cast<int>(tx_col.size());
      tx_col.emplace(tx_side, col);
    }
    txs_of[static_cast<size_t>(addr_side)].insert(tx_side);
  }

  std::vector<int> candidates;
  for (int i = 0; i < n; ++i) {
    const auto& node = graph->nodes[static_cast<size_t>(i)];
    if (node.kind != NodeKind::kAddress || i == graph->target_node) continue;
    if (txs_of[static_cast<size_t>(i)].size() >= 2) candidates.push_back(i);
  }
  if (candidates.size() < 2) return;

  // A ∈ {0,1}^(n_multi x d): candidate-transaction incidence (Eq. 3).
  const int64_t rows = static_cast<int64_t>(candidates.size());
  const int64_t cols = static_cast<int64_t>(tx_col.size());
  const double psi = options_.similarity_threshold;
  std::vector<std::vector<int>> similar(static_cast<size_t>(rows));

  // Paper-faithful dense computation (Eq. 3-5): materialize A, then
  // S = A·Aᵀ, M = S·D⁻¹ and Q = ReLU(M − Ψ·I) as dense matrices.
  // This all-pairs similarity is what makes Stage 3 the most
  // expensive construction stage in the paper's Table V.
  std::vector<float> a(static_cast<size_t>(rows * cols), 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    for (int tx :
         txs_of[static_cast<size_t>(candidates[static_cast<size_t>(r)])]) {
      a[static_cast<size_t>(r * cols + tx_col.at(tx))] = 1.0f;
    }
  }
  std::vector<float> s(static_cast<size_t>(rows * rows), 0.0f);
  for (int64_t i = 0; i < rows; ++i) {          // S = A·Aᵀ (Eq. 3)
    for (int64_t j = 0; j < rows; ++j) {
      float acc = 0.0f;
      const float* ai = a.data() + i * cols;
      const float* aj = a.data() + j * cols;
      for (int64_t k = 0; k < cols; ++k) acc += ai[k] * aj[k];
      s[static_cast<size_t>(i * rows + j)] = acc;
    }
  }
  std::vector<float> q(static_cast<size_t>(rows * rows), 0.0f);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < rows; ++j) {
      const float degree_j = s[static_cast<size_t>(j * rows + j)];
      // M = S·D⁻¹ (Eq. 4), Q = ReLU(M − Ψ·I) (Eq. 5).
      const float m = degree_j > 0.0f
                          ? s[static_cast<size_t>(i * rows + j)] / degree_j
                          : 0.0f;
      q[static_cast<size_t>(i * rows + j)] =
          std::max(0.0f, m - static_cast<float>(psi));
    }
  }
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < rows; ++j) {
      if (i != j && q[static_cast<size_t>(i * rows + j)] > 0.0f) {
        similar[static_cast<size_t>(i)].push_back(static_cast<int>(j));
      }
    }
  }

  // Greedy merge, most-connected seeds first (the paper retains nodes
  // whose similar set exceeds σ and folds g_i^sim into them).
  std::vector<int64_t> order(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
    return similar[static_cast<size_t>(x)].size() >
           similar[static_cast<size_t>(y)].size();
  });

  std::vector<int> group_of(static_cast<size_t>(n), -1);
  std::vector<bool> consumed(static_cast<size_t>(rows), false);
  int num_groups = 0;
  for (int64_t i : order) {
    if (consumed[static_cast<size_t>(i)]) continue;
    const auto& sim = similar[static_cast<size_t>(i)];
    if (static_cast<int>(sim.size()) < options_.sigma) continue;
    std::vector<int> members{candidates[static_cast<size_t>(i)]};
    consumed[static_cast<size_t>(i)] = true;
    for (int j : sim) {
      if (consumed[static_cast<size_t>(j)]) continue;
      consumed[static_cast<size_t>(j)] = true;
      members.push_back(candidates[static_cast<size_t>(j)]);
    }
    if (members.size() < 2) continue;
    for (int m : members) group_of[static_cast<size_t>(m)] = num_groups;
    ++num_groups;
  }
  ApplyMerges(graph, group_of, num_groups, NodeKind::kMultiHyper);
}

void ReferenceGraphConstructor::AugmentStructure(AddressGraph* graph) const {
  const graph::AdjacencyList adj = graph->ToAdjacency();
  const std::vector<double> degree = graph::DegreeCentrality(adj);
  const std::vector<double> closeness = graph::ClosenessCentrality(adj);
  const std::vector<double> betweenness = graph::BetweennessCentrality(adj);
  const std::vector<double> pagerank = graph::PageRank(adj);
  const double n = static_cast<double>(graph->num_nodes());
  const int base = kCentralityFeatureOffset;
  for (int i = 0; i < graph->num_nodes(); ++i) {
    auto& f = graph->nodes[static_cast<size_t>(i)].features;
    BA_CHECK_EQ(static_cast<int>(f.size()), kNodeFeatureDim);
    f[static_cast<size_t>(base + 0)] =
        std::log1p(degree[static_cast<size_t>(i)]);
    f[static_cast<size_t>(base + 1)] = closeness[static_cast<size_t>(i)];
    f[static_cast<size_t>(base + 2)] =
        std::log1p(betweenness[static_cast<size_t>(i)]);
    // PageRank rescaled to mean 1 before compression.
    f[static_cast<size_t>(base + 3)] =
        std::log1p(n * pagerank[static_cast<size_t>(i)]);
  }
}

}  // namespace ba::core::reference
