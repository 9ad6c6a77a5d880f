#pragma once

#include <vector>

#include "chain/ledger.h"
#include "core/address_graph.h"
#include "core/graph_builder.h"

/// \file reference_graph_builder.h
/// \brief Test-only reference for the four construction stages: the
/// straightforward hash-map / dense-matrix implementation that
/// GraphConstructor replaced, kept verbatim so the differential test in
/// graph_builder_test can demand bit-identical graphs from the flat-array
/// builder. Stage 3 is the dense S = A·Aᵀ, M = S·D⁻¹, Q = ReLU(M − Ψ·I)
/// form of Eq. 3-5, and SFE is the original copy-and-sort version, so no
/// code under test is shared except the centrality routines of
/// src/graph.

namespace ba::core::reference {

/// \brief Slow, obviously-correct GraphConstructor twin (no timings).
class ReferenceGraphConstructor {
 public:
  explicit ReferenceGraphConstructor(GraphConstructorOptions options)
      : options_(options) {}

  /// All enabled stages in order, slices from `start_slice` on.
  std::vector<AddressGraph> BuildGraphsFrom(
      const chain::LedgerSnapshot& snapshot, chain::AddressId address,
      int start_slice) const;

  std::vector<AddressGraph> ExtractOriginalGraphs(
      const chain::LedgerSnapshot& snapshot, chain::AddressId address,
      int start_slice) const;
  void CompressSingleTransactionAddresses(AddressGraph* graph) const;
  void CompressMultiTransactionAddresses(AddressGraph* graph) const;
  void AugmentStructure(AddressGraph* graph) const;

 private:
  GraphConstructorOptions options_;
};

}  // namespace ba::core::reference
