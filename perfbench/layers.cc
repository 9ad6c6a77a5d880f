#include "layers.h"

#include <string>

#include "core/gfn_features.h"
#include "core/graph_builder.h"
#include "loadgen.h"
#include "serve/protocol.h"

namespace perfbench {

using ba::chain::AddressId;
using ba::core::AddressGraph;

namespace {

double UsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

bool SameGraph(const AddressGraph& a, const AddressGraph& b) {
  if (a.target != b.target || a.target_node != b.target_node ||
      a.slice_index != b.slice_index || a.num_nodes() != b.num_nodes() ||
      a.num_edges() != b.num_edges()) {
    return false;
  }
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    const auto& x = a.nodes[i];
    const auto& y = b.nodes[i];
    if (x.kind != y.kind || x.address != y.address || x.txid != y.txid ||
        x.merged_count != y.merged_count || x.features != y.features) {
      return false;
    }
  }
  for (size_t i = 0; i < a.edges.size(); ++i) {
    const auto& x = a.edges[i];
    const auto& y = b.edges[i];
    if (x.from != y.from || x.to != y.to || x.value != y.value ||
        x.is_input != y.is_input) {
      return false;
    }
  }
  return true;
}

// Embeds `graphs` and aggregates them into one prediction, exactly as
// the engine's build/aggregate stages do for a full miss.
int Classify(const ba::core::BaClassifier& classifier,
             const std::vector<AddressGraph>& graphs) {
  if (graphs.empty()) return 0;
  const ba::core::GraphModel& model = classifier.graph_model();
  const int64_t embed_dim = model.embed_dim();
  std::vector<ba::core::EmbeddingSequence> seqs(1);
  seqs[0].embeddings = ba::tensor::Tensor(
      {static_cast<int64_t>(graphs.size()), embed_dim});
  for (size_t g = 0; g < graphs.size(); ++g) {
    const ba::core::GraphTensors gt = ba::core::PrepareGraphTensors(
        graphs[g], classifier.options().dataset.k_hops);
    const ba::tensor::Tensor e = model.Embed(gt);
    for (int64_t j = 0; j < embed_dim; ++j) {
      seqs[0].embeddings.at(static_cast<int64_t>(g), j) = e.at(0, j);
    }
  }
  classifier.scaler().Apply(&seqs);
  return classifier.aggregator().Predict(seqs[0].embeddings);
}

}  // namespace

int ReferencePredict(const ba::core::BaClassifier& classifier,
                     const ba::chain::Ledger& ledger, AddressId address,
                     uint64_t tx_count) {
  if (tx_count == 0) return 0;
  const std::vector<ba::chain::TxId> history = ledger.TransactionsOf(address);
  if (tx_count > history.size()) return -1;  // an epoch that never existed
  const ba::chain::LedgerSnapshot snapshot =
      ledger.SnapshotAt(history[static_cast<size_t>(tx_count) - 1] + 1);
  ba::core::GraphConstructor ctor(classifier.options().dataset.construction);
  return Classify(classifier, ctor.BuildGraphs(snapshot, address));
}

CoreProbe ProbeCore(const ba::core::BaClassifier& classifier,
                    const ba::chain::Ledger& ledger,
                    const std::vector<AddressId>& sample) {
  CoreProbe p;
  ba::core::GraphConstructor ctor(classifier.options().dataset.construction);
  const auto& opts = ctor.options();
  const ba::core::GraphModel& model = classifier.graph_model();
  const int k_hops = classifier.options().dataset.k_hops;
  const double hidden = static_cast<double>(model.options().hidden_dim);
  const double embed = static_cast<double>(model.embed_dim());
  const ba::chain::LedgerSnapshot snapshot = ledger.Snapshot();
  double flops = 0.0;
  for (const AddressId address : sample) {
    int64_t t = NowNs();
    std::vector<AddressGraph> graphs =
        ctor.ExtractOriginalGraphs(snapshot, address);
    p.extract_us += UsSince(t);
    for (const auto& g : graphs) p.nodes_in += g.num_nodes();
    if (opts.enable_single_compression) {
      t = NowNs();
      for (auto& g : graphs) ctor.CompressSingleTransactionAddresses(&g);
      p.single_us += UsSince(t);
    }
    if (opts.enable_multi_compression) {
      t = NowNs();
      for (auto& g : graphs) ctor.CompressMultiTransactionAddresses(&g);
      p.multi_us += UsSince(t);
    }
    if (opts.enable_augmentation) {
      t = NowNs();
      for (auto& g : graphs) ctor.AugmentStructure(&g);
      p.augment_us += UsSince(t);
    }
    for (const auto& g : graphs) p.nodes_out += g.num_nodes();

    const std::vector<AddressGraph> built = ctor.BuildGraphs(snapshot, address);
    bool same = built.size() == graphs.size();
    for (size_t i = 0; same && i < graphs.size(); ++i) {
      same = SameGraph(graphs[i], built[i]);
    }
    p.matches_build = p.matches_build && same;

    if (graphs.empty()) continue;
    std::vector<ba::core::EmbeddingSequence> seqs(1);
    seqs[0].embeddings = ba::tensor::Tensor(
        {static_cast<int64_t>(graphs.size()), model.embed_dim()});
    for (size_t g = 0; g < graphs.size(); ++g) {
      const ba::core::GraphTensors gt =
          ba::core::PrepareGraphTensors(graphs[g], k_hops);
      t = NowNs();
      const ba::tensor::Tensor e = model.Embed(gt);
      p.embed_us += UsSince(t);
      for (int64_t j = 0; j < model.embed_dim(); ++j) {
        seqs[0].embeddings.at(static_cast<int64_t>(g), j) = e.at(0, j);
      }
      const double n = static_cast<double>(gt.augmented.dim(0));
      const double in = static_cast<double>(gt.augmented.dim(1));
      flops += 2.0 * n * (in * hidden + hidden * embed);
      ++p.graphs;
    }
    t = NowNs();
    classifier.scaler().Apply(&seqs);
    (void)classifier.aggregator().Predict(seqs[0].embeddings);
    p.aggregate_us += UsSince(t);
  }
  p.addresses = static_cast<int64_t>(sample.size());
  if (p.addresses > 0) {
    const double n = static_cast<double>(p.addresses);
    p.extract_us /= n;
    p.single_us /= n;
    p.multi_us /= n;
    p.augment_us /= n;
    p.aggregate_us /= n;
  }
  if (p.graphs > 0) {
    p.embed_us /= static_cast<double>(p.graphs);
    p.gemm_mflop = flops / static_cast<double>(p.graphs) / 1e6;
  }
  return p;
}

double ProbeCodecNs(const std::vector<AddressId>& addresses) {
  constexpr size_t kFrames = 20000;
  if (addresses.empty()) return 0.0;
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::string> payloads(kFrames);
  int64_t t = NowNs();
  for (size_t i = 0; i < kFrames; ++i) {
    ba::serve::ClassifyRequest req;
    req.request_id = i + 1;
    req.address = addresses[i % addresses.size()];
    payloads[i] = req.EncodePayload(now);
  }
  const int64_t encode_ns = NowNs() - t;
  std::string stream;
  for (const auto& p : payloads) {
    stream += ba::serve::EncodeFrame(ba::serve::MessageType::kClassifyRequest,
                                     p);
  }
  ba::serve::FrameDecoder decoder;
  ba::serve::Frame frame;
  size_t decoded = 0;
  t = NowNs();
  decoder.Append(stream);
  while (true) {
    auto next = decoder.Next(&frame);
    if (!next.ok() || !next.value()) break;
    ++decoded;
  }
  const int64_t decode_ns = NowNs() - t;
  if (decoded != kFrames) return -1.0;
  return static_cast<double>(encode_ns + decode_ns) /
         static_cast<double>(kFrames);
}

double ProbeSnapshotUs(const ba::chain::Ledger& ledger) {
  constexpr int kCalls = 200000;
  uint64_t sink = 0;
  const int64_t t = NowNs();
  for (int i = 0; i < kCalls; ++i) sink += ledger.Snapshot().num_transactions();
  const double us = static_cast<double>(NowNs() - t) / 1e3 / kCalls;
  return sink == 0 ? -1.0 : us;
}

}  // namespace perfbench
