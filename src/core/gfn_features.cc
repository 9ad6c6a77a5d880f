#include "core/gfn_features.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.h"

namespace ba::core {

namespace {

/// Ã = D̃^{-1/2}(A+I)D̃^{-1/2} (Eq. 12) as canonical CSR arrays, plus
/// each node's degree in A (the d column of X^G).
struct NormalizedRows {
  std::vector<int64_t> row_ptr;
  std::vector<int64_t> col_idx;
  std::vector<float> values;
  std::vector<int64_t> degree;
};

/// Builds the rows of A+I straight from `graph.edges`: row u lists u
/// itself, then the far end of every incident edge (a self-loop edge
/// adds u once more). Sorting a row and merging equal columns into
/// counts gives A+I with parallel edges summed; D̃ is the row length.
NormalizedRows NormalizeRows(const AddressGraph& graph) {
  const int64_t n = graph.num_nodes();
  BA_CHECK_GT(n, 0);
  std::vector<int64_t> start(static_cast<size_t>(n) + 1, 1);
  start[0] = 0;
  for (const GraphEdge& e : graph.edges) {
    BA_CHECK(e.from >= 0 && e.from < n);
    BA_CHECK(e.to >= 0 && e.to < n);
    ++start[static_cast<size_t>(e.from) + 1];
    if (e.to != e.from) ++start[static_cast<size_t>(e.to) + 1];
  }
  for (size_t u = 0; u < static_cast<size_t>(n); ++u) {
    start[u + 1] += start[u];
  }
  std::vector<int64_t> entries(static_cast<size_t>(start.back()));
  std::vector<int64_t> fill(start.begin(), start.end() - 1);
  for (int64_t u = 0; u < n; ++u) {
    entries[static_cast<size_t>(fill[static_cast<size_t>(u)]++)] = u;
  }
  for (const GraphEdge& e : graph.edges) {
    entries[static_cast<size_t>(fill[static_cast<size_t>(e.from)]++)] = e.to;
    if (e.to != e.from) {
      entries[static_cast<size_t>(fill[static_cast<size_t>(e.to)]++)] =
          e.from;
    }
  }

  NormalizedRows rows;
  rows.degree.resize(static_cast<size_t>(n));
  std::vector<double> inv_sqrt_deg(static_cast<size_t>(n));
  for (size_t u = 0; u < static_cast<size_t>(n); ++u) {
    const int64_t len = start[u + 1] - start[u];
    rows.degree[u] = len - 1;
    inv_sqrt_deg[u] = 1.0 / std::sqrt(static_cast<double>(len));
  }
  rows.row_ptr.reserve(static_cast<size_t>(n) + 1);
  rows.row_ptr.push_back(0);
  rows.col_idx.reserve(entries.size());
  rows.values.reserve(entries.size());
  for (size_t u = 0; u < static_cast<size_t>(n); ++u) {
    const auto end = entries.begin() + start[u + 1];
    auto it = entries.begin() + start[u];
    std::sort(it, end);
    while (it != end) {
      const int64_t c = *it;
      int64_t count = 0;
      for (; it != end && *it == c; ++it) ++count;
      rows.col_idx.push_back(c);
      rows.values.push_back(static_cast<float>(
          static_cast<double>(count) * inv_sqrt_deg[u] *
          inv_sqrt_deg[static_cast<size_t>(c)]));
    }
    rows.row_ptr.push_back(static_cast<int64_t>(rows.col_idx.size()));
  }
  return rows;
}

/// X as a row-major (n, kNodeFeatureDim) float array.
std::vector<float> BaseFeatures(const AddressGraph& graph) {
  std::vector<float> x;
  x.reserve(graph.nodes.size() * kNodeFeatureDim);
  for (const GraphNode& node : graph.nodes) {
    BA_CHECK_EQ(static_cast<int>(node.features.size()), kNodeFeatureDim);
    for (const double v : node.features) x.push_back(static_cast<float>(v));
  }
  return x;
}

/// X^G = [d | X | ÃX | … | ÃᵏX] from Ã's rows and X.
tensor::Tensor Augment(const NormalizedRows& rows,
                       const std::vector<float>& x, int k_hops) {
  BA_CHECK_GE(k_hops, 0);
  const int64_t n = static_cast<int64_t>(rows.degree.size());
  const int64_t aug_dim = AugmentedDim(k_hops);
  tensor::Tensor out({n, aug_dim});
  float* o = out.data();
  for (int64_t i = 0; i < n; ++i) {
    o[i * aug_dim] = static_cast<float>(
        std::log1p(static_cast<double>(rows.degree[static_cast<size_t>(i)])));
  }
  std::vector<float> propagated = x;  // Ã⁰X
  std::vector<float> next(x.size());
  for (int hop = 0; hop <= k_hops; ++hop) {
    if (hop > 0) {
      graph::CsrMultiplyDense(n, rows.row_ptr.data(), rows.col_idx.data(),
                              rows.values.data(), propagated.data(),
                              kNodeFeatureDim, next.data());
      propagated.swap(next);
    }
    const int64_t col = 1 + static_cast<int64_t>(hop) * kNodeFeatureDim;
    for (int64_t i = 0; i < n; ++i) {
      std::copy_n(propagated.data() + i * kNodeFeatureDim, kNodeFeatureDim,
                  o + i * aug_dim + col);
    }
  }
  return out;
}

}  // namespace

tensor::Tensor AugmentedFeatures(const AddressGraph& graph, int k_hops) {
  return Augment(NormalizeRows(graph), BaseFeatures(graph), k_hops);
}

GraphTensors PrepareGraphTensors(const AddressGraph& graph, int k_hops) {
  const int64_t n = graph.num_nodes();
  NormalizedRows rows = NormalizeRows(graph);
  std::vector<float> x = BaseFeatures(graph);

  GraphTensors out;
  out.augmented = Augment(rows, x, k_hops);
  out.base_features = tensor::Tensor({n, kNodeFeatureDim}, std::move(x));
  out.norm_adj = std::make_shared<const graph::SparseMatrix>(
      graph::SparseMatrix::FromCsr(n, n, std::move(rows.row_ptr),
                                   std::move(rows.col_idx),
                                   std::move(rows.values)));
  return out;
}

}  // namespace ba::core
