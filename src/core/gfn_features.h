#pragma once

#include <memory>

#include "core/address_graph.h"
#include "graph/sparse_matrix.h"
#include "tensor/tensor.h"

/// \file gfn_features.h
/// \brief GFN graph feature augmentation (§III-B, Eq. 12-13): converts
/// an address graph into the tensors the neural encoders consume.
///
/// X^G = [d, X, Ã¹X, Ã²X, …, ÃᵏX] where Ã = D̃^{-1/2}(A+I)D̃^{-1/2}.
/// Precomputing the propagation is what lets GFN itself be a plain MLP.

namespace ba::core {

/// \brief The tensor view of one address graph.
struct GraphTensors {
  /// Raw node features X, shape (n, kNodeFeatureDim) — GCN/DiffPool input.
  tensor::Tensor base_features;
  /// Normalized adjacency Ã (Eq. 12), shared with the autograd SpMM op.
  std::shared_ptr<const graph::SparseMatrix> norm_adj;
  /// Augmented features X^G (Eq. 13), shape (n, AugmentedDim(k)) — GFN
  /// input.
  tensor::Tensor augmented;
};

/// Feature width of X^G for propagation depth `k_hops`:
/// 1 (degree) + kNodeFeatureDim * (k_hops + 1).
inline int64_t AugmentedDim(int k_hops) {
  return 1 + static_cast<int64_t>(kNodeFeatureDim) * (k_hops + 1);
}

/// \brief Builds X, Ã and X^G for one graph. `k_hops` >= 0 is the
/// maximum propagation power in Eq. 13 (the paper's k).
GraphTensors PrepareGraphTensors(const AddressGraph& graph, int k_hops);

/// \brief X^G alone, equal bit for bit to
/// `PrepareGraphTensors(graph, k_hops).augmented`. GFN reads nothing
/// else, so its serving path skips materializing X and Ã.
tensor::Tensor AugmentedFeatures(const AddressGraph& graph, int k_hops);

}  // namespace ba::core
