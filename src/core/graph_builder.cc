#include "core/graph_builder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "util/logging.h"

// Every stage works on flat arrays: CSR lists indexed by node, no
// per-node hash sets, no dense similarity matrix. The graphs are
// bit-identical to the straightforward hash-map / dense-matrix
// formulation (tests/reference_graph_builder.cc), including the order
// of nodes and edges and the order in which every floating-point sum is
// taken.

namespace ba::core {

namespace {

constexpr double kSatoshisPerCoin = 100'000'000.0;

double ToBtc(chain::Amount v) {
  return static_cast<double>(v) / kSatoshisPerCoin;
}

/// SFE inputs of every node, held back until the node set is final so
/// nodes merged away by Stages 2-3 never pay for SFE: node i summarizes
/// `values[begin[i], begin[i] + count[i])`. Merges append the group
/// nodes' values and keep the survivors' ranges.
struct PendingValues {
  std::vector<double> values;
  std::vector<uint32_t> begin;
  std::vector<uint32_t> count;

  std::span<const double> Of(int node) const {
    const auto i = static_cast<size_t>(node);
    return {values.data() + begin[i], count[i]};
  }
};

/// Open-addressing map from address to its node in one slice; the slot
/// count is a power of two at least twice the number of keys.
class AddressNodeTable {
 public:
  explicit AddressNodeTable(size_t max_keys)
      : mask_(std::bit_ceil(std::max<size_t>(16, 2 * max_keys)) - 1),
        keys_(mask_ + 1),
        nodes_(mask_ + 1, -1) {}

  /// The node of `a`, or -1 after reserving its slot for `next`.
  int FindOrInsert(chain::AddressId a, int next) {
    size_t slot = (static_cast<size_t>(a) * 0x9E3779B97F4A7C15ull) >> 17;
    for (;; ++slot) {
      slot &= mask_;
      if (nodes_[slot] < 0) {
        keys_[slot] = a;
        nodes_[slot] = next;
        return -1;
      }
      if (keys_[slot] == a) return nodes_[slot];
    }
  }

 private:
  size_t mask_;
  std::vector<chain::AddressId> keys_;
  std::vector<int> nodes_;
};

/// Computes every node's features from `pending` and sets the target
/// flag: the end of Stage 1, deferred past compression.
void FinalizeFeatures(const PendingValues& pending, AddressGraph* graph) {
  BA_TRACE_SPAN("core.sfe");
  std::vector<double> scratch;
  for (int i = 0; i < graph->num_nodes(); ++i) {
    GraphNode& node = graph->nodes[static_cast<size_t>(i)];
    node.features = MakeNodeFeatures(node.kind, pending.Of(i), &scratch);
  }
  graph->nodes[static_cast<size_t>(graph->target_node)]
      .features[static_cast<size_t>(kTargetFlagIndex)] = 1.0;
}

/// Stage 1 for slices [start_slice, ...): nodes and edges, with each
/// node's incident values in edge order left in `pending` (one per
/// graph) for FinalizeFeatures.
std::vector<AddressGraph> ExtractSlices(const chain::LedgerSnapshot& snapshot,
                                        chain::AddressId address,
                                        int start_slice,
                                        const GraphConstructorOptions& options,
                                        std::vector<PendingValues>* pending) {
  const std::vector<chain::TxId> txs = snapshot.TransactionsOf(
      address, static_cast<size_t>(options.max_txs_per_address));

  std::vector<AddressGraph> graphs;
  const size_t slice_size = static_cast<size_t>(options.slice_size);
  const int num_slices =
      static_cast<int>((txs.size() + slice_size - 1) / slice_size);
  if (start_slice >= num_slices) return graphs;
  graphs.resize(static_cast<size_t>(num_slices - start_slice));
  pending->resize(graphs.size());

  for (int s = start_slice; s < num_slices; ++s) {
    const size_t begin = static_cast<size_t>(s) * slice_size;
    const size_t end = std::min(txs.size(), begin + slice_size);
    AddressGraph& g = graphs[static_cast<size_t>(s - start_slice)];
    PendingValues& values = (*pending)[static_cast<size_t>(s - start_slice)];
    g.target = address;
    g.slice_index = s;

    size_t max_edges = 0;
    for (size_t t = begin; t < end; ++t) {
      const chain::Transaction& tx = snapshot.tx(txs[t]);
      max_edges += tx.inputs.size() + tx.outputs.size();
    }
    g.nodes.reserve(1 + (end - begin) + max_edges);
    g.edges.reserve(max_edges);
    AddressNodeTable table(1 + max_edges);
    auto address_node = [&](chain::AddressId a) {
      const int idx = g.num_nodes();
      const int found = table.FindOrInsert(a, idx);
      if (found >= 0) return found;
      GraphNode& node = g.nodes.emplace_back();
      node.kind = NodeKind::kAddress;
      node.address = a;
      return idx;
    };

    // The target address is always node 0 of its graph.
    g.target_node = address_node(address);
    for (size_t t = begin; t < end; ++t) {
      const chain::Transaction& tx = snapshot.tx(txs[t]);
      const int tx_idx = g.num_nodes();
      GraphNode& tx_node = g.nodes.emplace_back();
      tx_node.kind = NodeKind::kTransaction;
      tx_node.txid = tx.txid;
      for (const auto& in : tx.inputs) {
        g.edges.push_back(
            {address_node(in.address), tx_idx, ToBtc(in.value), true});
      }
      for (const auto& out : tx.outputs) {
        g.edges.push_back(
            {tx_idx, address_node(out.address), ToBtc(out.value), false});
      }
    }

    // Incident values per node in edge order: a counting sort of the
    // edge endpoints.
    const size_t n = g.nodes.size();
    values.count.assign(n, 0);
    for (const GraphEdge& e : g.edges) {
      ++values.count[static_cast<size_t>(e.from)];
      ++values.count[static_cast<size_t>(e.to)];
    }
    values.begin.resize(n);
    std::exclusive_scan(values.count.begin(), values.count.end(),
                        values.begin.begin(), uint32_t{0});
    values.values.resize(2 * g.edges.size());
    std::vector<uint32_t> cursor = values.begin;
    for (const GraphEdge& e : g.edges) {
      values.values[cursor[static_cast<size_t>(e.from)]++] = e.value;
      values.values[cursor[static_cast<size_t>(e.to)]++] = e.value;
    }
  }
  return graphs;
}

/// Stable counting sort of `items` by `key(item)` in [0, buckets).
template <typename Key>
std::vector<uint32_t> StableCountingSort(const std::vector<uint32_t>& items,
                                         size_t buckets, const Key& key) {
  std::vector<uint32_t> begin(buckets + 1, 0);
  for (const uint32_t item : items) ++begin[key(item) + 1];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<uint32_t> out(items.size());
  for (const uint32_t item : items) out[begin[key(item)]++] = item;
  return out;
}

/// Rebuilds a graph after merging: `group_of[i]` >= 0 assigns node i to
/// a merge group; -1 keeps the node as-is. Each group becomes one node
/// of `merged_kind` summarizing all the member edge values (in edge
/// order); parallel (node, node, side) edges are summed in edge order.
/// With `pending`, group values are appended there and SFE waits for
/// FinalizeFeatures; without, group features are computed here and kept
/// nodes keep theirs.
void ApplyMerges(AddressGraph* graph, const std::vector<int>& group_of,
                 int num_groups, NodeKind merged_kind,
                 PendingValues* pending) {
  if (num_groups == 0) return;
  const int old_n = graph->num_nodes();
  BA_CHECK_EQ(static_cast<int>(group_of.size()), old_n);
  const auto groups = static_cast<size_t>(num_groups);

  // New index for every old node: kept nodes first (stable), then one
  // node per group.
  const auto merged = static_cast<size_t>(
      std::count_if(group_of.begin(), group_of.end(),
                    [](int g) { return g >= 0; }));
  std::vector<int> new_index(static_cast<size_t>(old_n));
  std::vector<GraphNode> new_nodes;
  new_nodes.reserve(static_cast<size_t>(old_n) - merged + groups);
  std::vector<uint32_t> new_begin, new_count;
  for (int i = 0; i < old_n; ++i) {
    if (group_of[static_cast<size_t>(i)] >= 0) continue;
    new_index[static_cast<size_t>(i)] = static_cast<int>(new_nodes.size());
    new_nodes.push_back(std::move(graph->nodes[static_cast<size_t>(i)]));
    if (pending != nullptr) {
      new_begin.push_back(pending->begin[static_cast<size_t>(i)]);
      new_count.push_back(pending->count[static_cast<size_t>(i)]);
    }
  }
  const int first_group_node = static_cast<int>(new_nodes.size());
  std::vector<int> group_sizes(groups, 0);
  for (int i = 0; i < old_n; ++i) {
    const int g = group_of[static_cast<size_t>(i)];
    if (g >= 0) {
      new_index[static_cast<size_t>(i)] = first_group_node + g;
      group_sizes[static_cast<size_t>(g)] +=
          graph->nodes[static_cast<size_t>(i)].merged_count;
    }
  }

  // Member edge values per group (the SFE input of Eq. 2/7), in edge
  // order, laid out group after group.
  std::vector<uint32_t> group_count(groups, 0);
  for (const GraphEdge& e : graph->edges) {
    const int gf = group_of[static_cast<size_t>(e.from)];
    const int gt = group_of[static_cast<size_t>(e.to)];
    if (gf >= 0) ++group_count[static_cast<size_t>(gf)];
    if (gt >= 0) ++group_count[static_cast<size_t>(gt)];
  }
  std::vector<double> local_values;
  std::vector<double>& values =
      pending != nullptr ? pending->values : local_values;
  const auto base = static_cast<uint32_t>(values.size());
  std::vector<uint32_t> group_begin(groups);
  std::exclusive_scan(group_count.begin(), group_count.end(),
                      group_begin.begin(), base);
  values.resize(base + std::accumulate(group_count.begin(), group_count.end(),
                                       size_t{0}));
  std::vector<uint32_t> cursor = group_begin;
  for (const GraphEdge& e : graph->edges) {
    const int gf = group_of[static_cast<size_t>(e.from)];
    const int gt = group_of[static_cast<size_t>(e.to)];
    if (gf >= 0) values[cursor[static_cast<size_t>(gf)]++] = e.value;
    if (gt >= 0) values[cursor[static_cast<size_t>(gt)]++] = e.value;
  }

  std::vector<double> scratch;
  for (size_t g = 0; g < groups; ++g) {
    GraphNode& node = new_nodes.emplace_back();
    node.kind = merged_kind;
    node.merged_count = group_sizes[g];
    if (pending != nullptr) {
      new_begin.push_back(group_begin[g]);
      new_count.push_back(group_count[g]);
    } else {
      node.features = MakeNodeFeatures(
          merged_kind, {values.data() + group_begin[g], group_count[g]},
          &scratch);
    }
  }

  // Remap edges and sum parallel ones. Two stable counting sorts of the
  // edge indices, by (to, is_input) and then by from, order them as the
  // edge list must be and leave each (from, to, is_input) run in edge
  // order, the order its values are added in.
  const auto to_side = [&](uint32_t k) {
    const GraphEdge& e = graph->edges[k];
    return static_cast<size_t>(new_index[static_cast<size_t>(e.to)]) * 2 +
           (e.is_input ? 1 : 0);
  };
  const auto from = [&](uint32_t k) {
    return static_cast<size_t>(
        new_index[static_cast<size_t>(graph->edges[k].from)]);
  };
  std::vector<uint32_t> edge_order(graph->edges.size());
  std::iota(edge_order.begin(), edge_order.end(), 0u);
  edge_order = StableCountingSort(edge_order, 2 * new_nodes.size(), to_side);
  edge_order = StableCountingSort(edge_order, new_nodes.size(), from);
  std::vector<GraphEdge> new_edges;
  for (size_t k = 0; k < edge_order.size();) {
    const uint32_t first = edge_order[k];
    double sum = 0.0;
    for (; k < edge_order.size() && from(edge_order[k]) == from(first) &&
           to_side(edge_order[k]) == to_side(first);
         ++k) {
      sum += graph->edges[edge_order[k]].value;
    }
    const size_t side = to_side(first);
    new_edges.push_back({static_cast<int>(from(first)),
                         static_cast<int>(side / 2), sum, side % 2 == 1});
  }

  graph->target_node = new_index[static_cast<size_t>(graph->target_node)];
  BA_CHECK_GE(graph->target_node, 0);
  graph->nodes = std::move(new_nodes);
  graph->edges = std::move(new_edges);
  if (pending != nullptr) {
    pending->begin = std::move(new_begin);
    pending->count = std::move(new_count);
  }
}

/// Stage 2 (Fig 3): single-transaction address nodes grouped by
/// (transaction, side).
void CompressSingle(AddressGraph* graph, PendingValues* pending) {
  const int n = graph->num_nodes();
  const auto is_address = [&](int i) {
    return graph->nodes[static_cast<size_t>(i)].kind == NodeKind::kAddress;
  };
  // The one node an address node is incident to, or -2 once it has
  // seen two distinct ones (-1: none yet).
  std::vector<int> only_tx(static_cast<size_t>(n), -1);
  std::vector<char> is_input_side(static_cast<size_t>(n), 0);
  const auto see = [&](int a, int tx) {
    int& only = only_tx[static_cast<size_t>(a)];
    if (only == -1) {
      only = tx;
    } else if (only != tx) {
      only = -2;
    }
  };
  for (const GraphEdge& e : graph->edges) {
    if (is_address(e.from)) {
      see(e.from, e.to);
      if (e.is_input) is_input_side[static_cast<size_t>(e.from)] = 1;
    }
    if (is_address(e.to)) see(e.to, e.from);
  }

  // Key: tx_node * 2 + (is_input ? 1 : 0). Groups are numbered in the
  // iteration order of this map, which fixes where the hyper nodes
  // land; the reference builder's map has the same key type, hash and
  // insertion sequence, so it iterates identically. Ascending-key order
  // would not depend on the standard library, but it reorders the hyper
  // nodes of about a third of all graphs and so changes trained models;
  // that is a change of its own (ROADMAP, determinism).
  std::unordered_map<int64_t, int> slot_of_key;
  std::vector<int> slot_of(static_cast<size_t>(n), -1);
  std::vector<int> slot_size;
  for (int i = 0; i < n; ++i) {
    if (!is_address(i) || i == graph->target_node) continue;
    const int tx = only_tx[static_cast<size_t>(i)];
    if (tx < 0) continue;
    const int64_t key = static_cast<int64_t>(tx) * 2 +
                        is_input_side[static_cast<size_t>(i)];
    const auto [it, inserted] =
        slot_of_key.try_emplace(key, static_cast<int>(slot_size.size()));
    if (inserted) slot_size.push_back(0);
    slot_of[static_cast<size_t>(i)] = it->second;
    ++slot_size[static_cast<size_t>(it->second)];
  }

  std::vector<int> group_of_slot(slot_size.size(), -1);
  int num_groups = 0;
  for (const auto& [key, slot] : slot_of_key) {
    // A lone member has nothing to compress with.
    if (slot_size[static_cast<size_t>(slot)] >= 2) {
      group_of_slot[static_cast<size_t>(slot)] = num_groups++;
    }
  }
  std::vector<int> group_of(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const int slot = slot_of[static_cast<size_t>(i)];
    if (slot >= 0) {
      group_of[static_cast<size_t>(i)] =
          group_of_slot[static_cast<size_t>(slot)];
    }
  }
  ApplyMerges(graph, group_of, num_groups, NodeKind::kSingleHyper, pending);
}

/// Stage 3 (Fig 4, Eq. 3-7): multi-transaction address nodes merged by
/// connectivity similarity. s_ij (shared transactions of candidates i
/// and j) is counted straight from a transaction → candidates inverted
/// index, so only co-occurring pairs are ever touched; the test on it is
/// Eq. 4-6's q_ij = max(0, s_ij / s_jj − Ψ) > 0, in float.
void CompressMulti(AddressGraph* graph, const GraphConstructorOptions& options,
                   PendingValues* pending) {
  const int n = graph->num_nodes();
  const auto kind = [&](int i) {
    return graph->nodes[static_cast<size_t>(i)].kind;
  };

  // Transaction → incident address-side nodes (CSR over node ids, with
  // repeats for parallel edges).
  std::vector<uint32_t> tx_begin(static_cast<size_t>(n) + 1, 0);
  const auto endpoints = [&](const GraphEdge& e) {
    return kind(e.from) == NodeKind::kTransaction
               ? std::pair{e.from, e.to}
               : std::pair{e.to, e.from};
  };
  for (const GraphEdge& e : graph->edges) {
    const auto [tx, addr] = endpoints(e);
    if (kind(tx) == NodeKind::kTransaction) {
      ++tx_begin[static_cast<size_t>(tx) + 1];
    }
  }
  std::partial_sum(tx_begin.begin(), tx_begin.end(), tx_begin.begin());
  std::vector<int> tx_nodes(tx_begin.back());
  {
    std::vector<uint32_t> cursor(tx_begin.begin(), tx_begin.end() - 1);
    for (const GraphEdge& e : graph->edges) {
      const auto [tx, addr] = endpoints(e);
      if (kind(tx) == NodeKind::kTransaction) {
        tx_nodes[cursor[static_cast<size_t>(tx)]++] = addr;
      }
    }
  }

  // Distinct transactions per node; candidates are the plain address
  // nodes (not the target) with at least two.
  std::vector<int> last_tx(static_cast<size_t>(n), -1);
  std::vector<int> degree(static_cast<size_t>(n), 0);
  for (int tx = 0; tx < n; ++tx) {
    for (uint32_t k = tx_begin[tx]; k < tx_begin[tx + 1]; ++k) {
      const auto a = static_cast<size_t>(tx_nodes[k]);
      if (last_tx[a] != tx) {
        last_tx[a] = tx;
        ++degree[a];
      }
    }
  }
  std::vector<int> candidates;
  std::vector<int> row_of(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    if (kind(i) != NodeKind::kAddress || i == graph->target_node) continue;
    if (degree[static_cast<size_t>(i)] >= 2) {
      row_of[static_cast<size_t>(i)] = static_cast<int>(candidates.size());
      candidates.push_back(i);
    }
  }
  if (candidates.size() < 2) return;
  const auto rows = candidates.size();

  // Distinct transactions per candidate row, ascending; a row's count
  // is its s_jj.
  std::vector<uint32_t> row_begin(rows + 1, 0);
  for (size_t r = 0; r < rows; ++r) {
    row_begin[r + 1] =
        row_begin[r] +
        static_cast<uint32_t>(degree[static_cast<size_t>(candidates[r])]);
  }
  std::vector<int> row_txs(row_begin.back());
  {
    std::vector<uint32_t> cursor(row_begin.begin(), row_begin.end() - 1);
    std::fill(last_tx.begin(), last_tx.end(), -1);
    for (int tx = 0; tx < n; ++tx) {
      for (uint32_t k = tx_begin[tx]; k < tx_begin[tx + 1]; ++k) {
        const auto a = static_cast<size_t>(tx_nodes[k]);
        const int r = row_of[a];
        if (r < 0 || last_tx[a] == tx) continue;
        last_tx[a] = tx;
        row_txs[cursor[static_cast<size_t>(r)]++] = tx;
      }
    }
  }
  const auto txs_of_row = [&](int r) {
    const auto sr = static_cast<size_t>(r);
    return std::span<const int>(row_txs.data() + row_begin[sr],
                                row_begin[sr + 1] - row_begin[sr]);
  };

  // Rows with the same transactions (the miners one pool pays together)
  // have the same similarities, so the counting below runs over classes
  // of such twins. Class c's rows are by_txs[class_begin[c], ...).
  std::vector<int> by_txs(rows);
  std::iota(by_txs.begin(), by_txs.end(), 0);
  std::sort(by_txs.begin(), by_txs.end(), [&](int x, int y) {
    const auto tx = txs_of_row(x);
    const auto ty = txs_of_row(y);
    return std::lexicographical_compare(tx.begin(), tx.end(), ty.begin(),
                                        ty.end());
  });
  std::vector<uint32_t> class_begin;
  std::vector<int> class_of(rows);
  for (size_t k = 0; k < rows; ++k) {
    if (k == 0 || !std::ranges::equal(txs_of_row(by_txs[k - 1]),
                                      txs_of_row(by_txs[k]))) {
      class_begin.push_back(static_cast<uint32_t>(k));
    }
    class_of[static_cast<size_t>(by_txs[k])] =
        static_cast<int>(class_begin.size()) - 1;
  }
  const size_t classes = class_begin.size();
  class_begin.push_back(static_cast<uint32_t>(rows));
  const auto class_size = [&](size_t c) {
    return class_begin[c + 1] - class_begin[c];
  };
  const auto txs_of_class = [&](size_t c) {
    return txs_of_row(by_txs[class_begin[c]]);
  };

  // Transaction → classes, ascending.
  std::vector<uint32_t> tx_class_begin(static_cast<size_t>(n) + 1, 0);
  for (size_t c = 0; c < classes; ++c) {
    for (const int tx : txs_of_class(c)) {
      ++tx_class_begin[static_cast<size_t>(tx) + 1];
    }
  }
  std::partial_sum(tx_class_begin.begin(), tx_class_begin.end(),
                   tx_class_begin.begin());
  std::vector<int> tx_classes(tx_class_begin.back());
  std::vector<uint32_t> tx_cursor(tx_class_begin.begin(),
                                  tx_class_begin.end() - 1);
  for (size_t c = 0; c < classes; ++c) {
    for (const int tx : txs_of_class(c)) {
      tx_classes[tx_cursor[static_cast<size_t>(tx)]++] = static_cast<int>(c);
    }
  }

  // q_ij > 0 is monotone in s_ij for a fixed s_jj, so evaluating the
  // float test once per (s_jj, s) gives each class the least shared
  // count that makes it similar (s_jj + 1: never).
  const float psi = static_cast<float>(options.similarity_threshold);
  std::vector<int> least_for_degree;
  std::vector<int> least_shared(classes);
  for (size_t c = 0; c < classes; ++c) {
    const int d = static_cast<int>(txs_of_class(c).size());
    if (least_for_degree.size() <= static_cast<size_t>(d)) {
      least_for_degree.resize(static_cast<size_t>(d) + 1, -1);
    }
    int& least = least_for_degree[static_cast<size_t>(d)];
    if (least < 0) {
      least = 1;
      while (least <= d &&
             !(std::max(0.0f, static_cast<float>(least) /
                                      static_cast<float>(d) -
                                  psi) > 0.0f)) {
        ++least;
      }
    }
    least_shared[c] = least;
  }

  // |similar[i]| is the same for every row of a class: the rows of
  // every class similar to it, less itself. Twins share all s_jj
  // transactions. For classes u < v, s_uv is counted from the inverted
  // index: classes are visited in ascending order and each transaction
  // lists its classes ascending, so u sits at its transactions' cursors
  // and the classes after it are exactly the v > u; each pair is
  // counted once and decides both directions.
  std::vector<uint32_t> class_sim_size(classes, 0);
  for (size_t c = 0; c < classes; ++c) {
    if (static_cast<int>(txs_of_class(c).size()) >= least_shared[c]) {
      class_sim_size[c] = class_size(c) - 1;
    }
  }
  std::copy(tx_class_begin.begin(), tx_class_begin.end() - 1,
            tx_cursor.begin());
  std::vector<int> shared(classes, 0);
  for (size_t u = 0; u < classes; ++u) {
    for (const int tx : txs_of_class(u)) {
      const auto stx = static_cast<size_t>(tx);
      const uint32_t self = tx_cursor[stx]++;
      for (uint32_t k = self + 1; k < tx_class_begin[stx + 1]; ++k) {
        ++shared[static_cast<size_t>(tx_classes[k])];
      }
    }
    for (size_t v = u + 1; v < classes; ++v) {
      if (shared[v] == 0) continue;
      const int s_uv = std::exchange(shared[v], 0);
      if (s_uv >= least_shared[v]) class_sim_size[u] += class_size(v);
      if (s_uv >= least_shared[u]) class_sim_size[v] += class_size(u);
    }
  }
  const auto sim_size = [&](int64_t r) {
    return class_sim_size[static_cast<size_t>(
        class_of[static_cast<size_t>(r)])];
  };

  // Greedy merge, most-connected seeds first (the paper retains nodes
  // whose similar set exceeds σ and folds g_i^sim into them). Ties are
  // left to std::sort, called exactly as the reference builder calls
  // it; breaking them on the row index belongs with Stage 2's group
  // order (ROADMAP, determinism).
  std::vector<int64_t> order(rows);
  std::iota(order.begin(), order.end(), int64_t{0});
  std::sort(order.begin(), order.end(),
            [&](int64_t x, int64_t y) { return sim_size(x) > sim_size(y); });

  // A seed folds in every unconsumed row of the classes similar to its
  // own, found by recounting its class's s_uv against all classes.
  std::vector<int> group_of(static_cast<size_t>(n), -1);
  std::vector<char> consumed(rows, 0);
  std::vector<uint32_t> unconsumed(classes);
  for (size_t c = 0; c < classes; ++c) unconsumed[c] = class_size(c);
  std::vector<int> touched;
  int num_groups = 0;
  std::vector<int> members;
  for (const int64_t i : order) {
    const auto si = static_cast<size_t>(i);
    if (consumed[si]) continue;
    if (static_cast<int64_t>(sim_size(i)) < options.sigma) continue;
    const auto u = static_cast<size_t>(class_of[si]);
    members.assign(1, candidates[si]);
    consumed[si] = 1;
    --unconsumed[u];
    for (const int tx : txs_of_class(u)) {
      const auto stx = static_cast<size_t>(tx);
      for (uint32_t k = tx_class_begin[stx]; k < tx_class_begin[stx + 1];
           ++k) {
        const int v = tx_classes[k];
        if (shared[static_cast<size_t>(v)]++ == 0) touched.push_back(v);
      }
    }
    for (const int tv : touched) {
      const auto v = static_cast<size_t>(tv);
      if (std::exchange(shared[v], 0) < least_shared[v]) continue;
      for (uint32_t m = class_begin[v];
           unconsumed[v] > 0 && m < class_begin[v + 1]; ++m) {
        const auto j = static_cast<size_t>(by_txs[m]);
        if (consumed[j]) continue;
        consumed[j] = 1;
        --unconsumed[v];
        members.push_back(candidates[j]);
      }
    }
    touched.clear();
    if (members.size() < 2) continue;
    for (const int m : members) group_of[static_cast<size_t>(m)] = num_groups;
    ++num_groups;
  }
  ApplyMerges(graph, group_of, num_groups, NodeKind::kMultiHyper, pending);
}

}  // namespace

Status GraphConstructorOptions::Validate() const {
  if (slice_size <= 0) {
    return Status::InvalidArgument(
        "construction.slice_size must be positive (got " +
        std::to_string(slice_size) + ")");
  }
  if (!std::isfinite(similarity_threshold) || similarity_threshold < 0.0) {
    return Status::InvalidArgument(
        "construction.similarity_threshold must be finite and non-negative "
        "(got " +
        std::to_string(similarity_threshold) + ")");
  }
  if (sigma < 0) {
    return Status::InvalidArgument("construction.sigma must be >= 0 (got " +
                                   std::to_string(sigma) + ")");
  }
  if (max_txs_per_address <= 0) {
    return Status::InvalidArgument(
        "construction.max_txs_per_address must be positive (got " +
        std::to_string(max_txs_per_address) + ")");
  }
  return Status::OK();
}

GraphConstructor::GraphConstructor(GraphConstructorOptions options)
    : options_(options) {
  BA_CHECK_GT(options_.slice_size, 0);
  BA_CHECK_GE(options_.similarity_threshold, 0.0);
}

std::vector<AddressGraph> GraphConstructor::BuildGraphs(
    const chain::LedgerSnapshot& snapshot, chain::AddressId address) {
  return BuildGraphsFrom(snapshot, address, /*start_slice=*/0);
}

std::vector<AddressGraph> GraphConstructor::BuildGraphs(
    const chain::Ledger& ledger, chain::AddressId address) {
  return BuildGraphsFrom(ledger.Snapshot(), address, /*start_slice=*/0);
}

std::vector<AddressGraph> GraphConstructor::BuildGraphsFrom(
    const chain::Ledger& ledger, chain::AddressId address, int start_slice) {
  return BuildGraphsFrom(ledger.Snapshot(), address, start_slice);
}

std::vector<AddressGraph> GraphConstructor::BuildGraphsFrom(
    const chain::LedgerSnapshot& snapshot, chain::AddressId address,
    int start_slice) {
  BA_TRACE_SPAN("core.graph.build");
  Stopwatch watch;

  watch.Start();
  std::vector<AddressGraph> graphs;
  std::vector<PendingValues> pending;
  {
    BA_TRACE_SPAN("core.graph.extract");
    graphs = ExtractSlices(snapshot, address, start_slice, options_, &pending);
  }
  watch.Stop();
  timings_.extract_seconds += watch.ElapsedSeconds();

  if (options_.enable_single_compression) {
    BA_TRACE_SPAN("core.graph.compress_single");
    watch.Reset();
    watch.Start();
    for (size_t i = 0; i < graphs.size(); ++i) {
      CompressSingle(&graphs[i], &pending[i]);
    }
    watch.Stop();
    timings_.single_compress_seconds += watch.ElapsedSeconds();
  }

  if (options_.enable_multi_compression) {
    BA_TRACE_SPAN("core.graph.compress_multi");
    watch.Reset();
    watch.Start();
    for (size_t i = 0; i < graphs.size(); ++i) {
      CompressMulti(&graphs[i], options_, &pending[i]);
    }
    watch.Stop();
    timings_.multi_compress_seconds += watch.ElapsedSeconds();
  }

  // Stage 1's SFE, run once the surviving nodes are known.
  watch.Reset();
  watch.Start();
  for (size_t i = 0; i < graphs.size(); ++i) {
    FinalizeFeatures(pending[i], &graphs[i]);
  }
  watch.Stop();
  timings_.extract_seconds += watch.ElapsedSeconds();

  if (options_.enable_augmentation) {
    BA_TRACE_SPAN("core.graph.augment");
    watch.Reset();
    watch.Start();
    for (auto& g : graphs) AugmentStructure(&g);
    watch.Stop();
    timings_.augment_seconds += watch.ElapsedSeconds();
  }
  return graphs;
}

std::vector<AddressGraph> GraphConstructor::ExtractOriginalGraphs(
    const chain::LedgerSnapshot& snapshot, chain::AddressId address) const {
  return ExtractOriginalGraphs(snapshot, address, /*start_slice=*/0);
}

std::vector<AddressGraph> GraphConstructor::ExtractOriginalGraphs(
    const chain::Ledger& ledger, chain::AddressId address) const {
  return ExtractOriginalGraphs(ledger.Snapshot(), address, /*start_slice=*/0);
}

std::vector<AddressGraph> GraphConstructor::ExtractOriginalGraphs(
    const chain::Ledger& ledger, chain::AddressId address,
    int start_slice) const {
  return ExtractOriginalGraphs(ledger.Snapshot(), address, start_slice);
}

std::vector<AddressGraph> GraphConstructor::ExtractOriginalGraphs(
    const chain::LedgerSnapshot& snapshot, chain::AddressId address,
    int start_slice) const {
  std::vector<PendingValues> pending;
  std::vector<AddressGraph> graphs =
      ExtractSlices(snapshot, address, start_slice, options_, &pending);
  for (size_t i = 0; i < graphs.size(); ++i) {
    FinalizeFeatures(pending[i], &graphs[i]);
  }
  return graphs;
}

void GraphConstructor::CompressSingleTransactionAddresses(
    AddressGraph* graph) const {
  CompressSingle(graph, /*pending=*/nullptr);
}

void GraphConstructor::CompressMultiTransactionAddresses(
    AddressGraph* graph) const {
  CompressMulti(graph, options_, /*pending=*/nullptr);
}

void GraphConstructor::AugmentStructure(AddressGraph* graph) const {
  const int n = graph->num_nodes();
  const auto un = static_cast<size_t>(n);
  // Undirected CSR adjacency, each node's neighbors in edge order
  // (parallel edges repeat, self-loops appear once).
  std::vector<uint32_t> adj_begin(un + 1, 0);
  for (const GraphEdge& e : graph->edges) {
    ++adj_begin[static_cast<size_t>(e.from) + 1];
    if (e.from != e.to) ++adj_begin[static_cast<size_t>(e.to) + 1];
  }
  std::partial_sum(adj_begin.begin(), adj_begin.end(), adj_begin.begin());
  std::vector<int> adj(adj_begin.back());
  {
    std::vector<uint32_t> cursor(adj_begin.begin(), adj_begin.end() - 1);
    for (const GraphEdge& e : graph->edges) {
      adj[cursor[static_cast<size_t>(e.from)]++] = e.to;
      if (e.from != e.to) adj[cursor[static_cast<size_t>(e.to)]++] = e.from;
    }
  }
  const auto neighbors = [&](int v) {
    const auto sv = static_cast<size_t>(v);
    return std::span<const int>(adj.data() + adj_begin[sv],
                                adj_begin[sv + 1] - adj_begin[sv]);
  };

  // Closeness (Wasserman-Faust) and Brandes betweenness from one BFS
  // per source. The dependency pass finds each node's BFS parents among
  // its neighbors (dist one less) instead of keeping predecessor lists;
  // every delta receives the same terms in the same order.
  std::vector<double> closeness(un, 0.0);
  std::vector<double> betweenness(un, 0.0);
  std::vector<int> dist(un);
  std::vector<double> sigma(un);
  std::vector<double> delta(un);
  std::vector<int> order;
  order.reserve(un);
  for (int s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    order.assign(1, s);
    dist[static_cast<size_t>(s)] = 0;
    sigma[static_cast<size_t>(s)] = 1.0;
    int64_t reachable = 0;  // excluding s
    int64_t dist_sum = 0;
    for (size_t head = 0; head < order.size(); ++head) {
      const int u = order[head];
      const int du = dist[static_cast<size_t>(u)];
      for (const int w : neighbors(u)) {
        if (w == u) continue;
        int& dw = dist[static_cast<size_t>(w)];
        if (dw < 0) {
          dw = du + 1;
          dist_sum += dw;
          ++reachable;
          order.push_back(w);
        }
        if (dw == du + 1) {
          sigma[static_cast<size_t>(w)] += sigma[static_cast<size_t>(u)];
        }
      }
    }
    if (n > 1 && reachable > 0 && dist_sum > 0) {
      const double r = static_cast<double>(reachable);
      closeness[static_cast<size_t>(s)] =
          (r / static_cast<double>(n - 1)) *
          (r / static_cast<double>(dist_sum));
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const auto w = static_cast<size_t>(*it);
      for (const int u : neighbors(*it)) {
        const auto su = static_cast<size_t>(u);
        if (dist[su] == dist[w] - 1) {
          delta[su] += sigma[su] / sigma[w] * (1.0 + delta[w]);
        }
      }
      if (*it != s) betweenness[w] += delta[w];
    }
  }
  // Undirected graphs count each pair twice.
  for (double& b : betweenness) b *= 0.5;

  // PageRank (α = 0.85, ≤ 100 power iterations to L1 change < 1e-10),
  // dangling mass redistributed uniformly.
  constexpr double kAlpha = 0.85;
  std::vector<double> rank(un, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  if (n > 0) {
    const double uniform = 1.0 / static_cast<double>(n);
    std::vector<double> next(un);
    for (int iter = 0; iter < 100; ++iter) {
      double dangling = 0.0;
      for (int v = 0; v < n; ++v) {
        if (neighbors(v).empty()) dangling += rank[static_cast<size_t>(v)];
      }
      std::fill(next.begin(), next.end(),
                (1.0 - kAlpha) * uniform + kAlpha * dangling * uniform);
      for (int v = 0; v < n; ++v) {
        const auto nbrs = neighbors(v);
        if (nbrs.empty()) continue;
        const double share = kAlpha * rank[static_cast<size_t>(v)] /
                             static_cast<double>(nbrs.size());
        for (const int w : nbrs) next[static_cast<size_t>(w)] += share;
      }
      double change = 0.0;
      for (size_t v = 0; v < un; ++v) change += std::abs(next[v] - rank[v]);
      rank.swap(next);
      if (change < 1e-10) break;
    }
  }

  const double dn = static_cast<double>(n);
  const int base = kCentralityFeatureOffset;
  for (int i = 0; i < n; ++i) {
    const auto si = static_cast<size_t>(i);
    auto& f = graph->nodes[si].features;
    BA_CHECK_EQ(static_cast<int>(f.size()), kNodeFeatureDim);
    f[static_cast<size_t>(base + 0)] =
        std::log1p(static_cast<double>(neighbors(i).size()));
    f[static_cast<size_t>(base + 1)] = closeness[si];
    f[static_cast<size_t>(base + 2)] = std::log1p(betweenness[si]);
    // PageRank rescaled to mean 1 before compression.
    f[static_cast<size_t>(base + 3)] = std::log1p(dn * rank[si]);
  }
}

}  // namespace ba::core
