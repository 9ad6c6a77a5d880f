#include "reference_gfn_features.h"

#include <cmath>
#include <vector>

#include "graph/centrality.h"
#include "util/logging.h"

namespace ba::core::reference {

GraphTensors PrepareGraphTensors(const AddressGraph& graph, int k_hops) {
  BA_CHECK_GE(k_hops, 0);
  const int64_t n = graph.num_nodes();
  BA_CHECK_GT(n, 0);

  GraphTensors out;
  out.base_features = tensor::Tensor({n, kNodeFeatureDim});
  for (int64_t i = 0; i < n; ++i) {
    const auto& f = graph.nodes[static_cast<size_t>(i)].features;
    BA_CHECK_EQ(static_cast<int>(f.size()), kNodeFeatureDim);
    for (int64_t j = 0; j < kNodeFeatureDim; ++j) {
      out.base_features.at(i, j) =
          static_cast<float>(f[static_cast<size_t>(j)]);
    }
  }

  const graph::AdjacencyList adj = graph.ToAdjacency();
  out.norm_adj = std::make_shared<const graph::SparseMatrix>(
      graph::NormalizedAdjacency(adj));

  // X^G = [d | X | ÃX | … | ÃᵏX].
  const int64_t aug_dim = AugmentedDim(k_hops);
  out.augmented = tensor::Tensor({n, aug_dim});
  const std::vector<double> degree = graph::DegreeCentrality(adj);
  for (int64_t i = 0; i < n; ++i) {
    out.augmented.at(i, 0) = static_cast<float>(
        std::log1p(degree[static_cast<size_t>(i)]));
  }
  tensor::Tensor propagated = out.base_features;  // Ã⁰X
  int64_t col = 1;
  for (int hop = 0; hop <= k_hops; ++hop) {
    if (hop > 0) {
      tensor::Tensor next({n, kNodeFeatureDim});
      out.norm_adj->MultiplyDense(propagated.data(), kNodeFeatureDim,
                                  next.data());
      propagated = std::move(next);
    }
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < kNodeFeatureDim; ++j) {
        out.augmented.at(i, col + j) = propagated.at(i, j);
      }
    }
    col += kNodeFeatureDim;
  }
  BA_CHECK_EQ(col, aug_dim);
  return out;
}

}  // namespace ba::core::reference
