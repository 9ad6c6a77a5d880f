#pragma once

#include "core/address_graph.h"
#include "core/gfn_features.h"

/// \file reference_gfn_features.h
/// \brief Test-only reference for GFN feature preparation: the
/// AdjacencyList → NormalizedAdjacency (two triplet sorts) → SpMM
/// version that the one-pass CSR builder replaced, kept verbatim so
/// gfn_features_test can demand bit-identical X, Ã and X^G.

namespace ba::core::reference {

/// The replaced core::PrepareGraphTensors.
GraphTensors PrepareGraphTensors(const AddressGraph& graph, int k_hops);

}  // namespace ba::core::reference
