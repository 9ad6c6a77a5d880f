#pragma once

#include <cstdint>
#include <vector>

#include "chain/ledger.h"
#include "core/classifier.h"

/// \file layers.h
/// \brief Per-layer probes of the traced run and the serial reference
/// the served answers are checked against. Each probe calls one
/// layer's public functions directly, on the workload's own inputs,
/// outside the timed serving window.

namespace perfbench {

/// \brief The serial reference answer for `address` at the epoch where
/// its capped history held `tx_count` transactions: GraphConstructor::
/// BuildGraphs on Ledger::SnapshotAt, GraphModel::Embed per slice, then
/// the scaler and the aggregator — the engine-free path every served
/// answer must equal.
int ReferencePredict(const ba::core::BaClassifier& classifier,
                     const ba::chain::Ledger& ledger,
                     ba::chain::AddressId address, uint64_t tx_count);

/// \brief Graph construction stage by stage (Table V), embed and
/// aggregate, per address of a sample.
struct CoreProbe {
  int64_t addresses = 0;
  int64_t graphs = 0;
  double extract_us = 0.0;   ///< Stage 1, per address
  double single_us = 0.0;    ///< Stage 2, per address
  double multi_us = 0.0;     ///< Stage 3, per address
  double augment_us = 0.0;   ///< Stage 4, per address
  int64_t nodes_in = 0;      ///< nodes after Stage 1, summed
  int64_t nodes_out = 0;     ///< nodes after Stage 4, summed
  double embed_us = 0.0;     ///< GraphModel::Embed, per graph
  double aggregate_us = 0.0; ///< scaler + aggregator, per address
  /// Node-MLP multiply-add work per graph, computed from the tensor
  /// shapes (2·n·(in·hidden + hidden·embed)), not counted by hardware.
  double gemm_mflop = 0.0;
  /// True when the stage-by-stage graphs equal GraphConstructor::
  /// BuildGraphs for every sampled address.
  bool matches_build = true;
};

CoreProbe ProbeCore(const ba::core::BaClassifier& classifier,
                    const ba::chain::Ledger& ledger,
                    const std::vector<ba::chain::AddressId>& sample);

/// Nanoseconds per request of ClassifyRequest::EncodePayload plus
/// FrameDecoder::Append/Next over those frames, on `addresses`.
double ProbeCodecNs(const std::vector<ba::chain::AddressId>& addresses);

/// Microseconds per Ledger::Snapshot() call.
double ProbeSnapshotUs(const ba::chain::Ledger& ledger);

}  // namespace perfbench
