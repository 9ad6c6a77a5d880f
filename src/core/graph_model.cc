#include "core/graph_model.h"

#include <algorithm>
#include <cmath>

#include "core/checkpoint.h"
#include "obs/trace.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ba::core {

const char* GraphEncoderName(GraphEncoderKind kind) {
  switch (kind) {
    case GraphEncoderKind::kGfn:
      return "GFN";
    case GraphEncoderKind::kGcn:
      return "GCN";
    case GraphEncoderKind::kDiffPool:
      return "DiffPool";
    case GraphEncoderKind::kGat:
      return "GAT";
  }
  return "Unknown";
}

Status GraphModelOptions::Validate() const {
  if (num_classes < 2) {
    return Status::InvalidArgument(
        "graph_model.num_classes must be >= 2 (got " +
        std::to_string(num_classes) + ")");
  }
  if (k_hops < 0) {
    return Status::InvalidArgument("graph_model.k_hops must be >= 0 (got " +
                                   std::to_string(k_hops) + ")");
  }
  if (hidden_dim <= 0 || embed_dim <= 0) {
    return Status::InvalidArgument(
        "graph_model dims must be positive (hidden_dim " +
        std::to_string(hidden_dim) + ", embed_dim " +
        std::to_string(embed_dim) + ")");
  }
  if (diffpool_clusters <= 0) {
    return Status::InvalidArgument(
        "graph_model.diffpool_clusters must be positive (got " +
        std::to_string(diffpool_clusters) + ")");
  }
  if (!(dropout >= 0.0f && dropout < 1.0f)) {  // also rejects NaN
    return Status::InvalidArgument(
        "graph_model.dropout must be in [0, 1) (got " +
        std::to_string(dropout) + ")");
  }
  if (epochs < 1 || batch_size < 1) {
    return Status::InvalidArgument(
        "graph_model.epochs and batch_size must be >= 1 (epochs " +
        std::to_string(epochs) + ", batch_size " +
        std::to_string(batch_size) + ")");
  }
  if (!(learning_rate > 0.0f) || !std::isfinite(learning_rate)) {
    return Status::InvalidArgument(
        "graph_model.learning_rate must be finite and positive (got " +
        std::to_string(learning_rate) + ")");
  }
  if (!std::isfinite(weight_decay) || weight_decay < 0.0f) {
    return Status::InvalidArgument(
        "graph_model.weight_decay must be finite and >= 0 (got " +
        std::to_string(weight_decay) + ")");
  }
  if (checkpoint_every < 1) {
    return Status::InvalidArgument(
        "graph_model.checkpoint_every must be >= 1 (got " +
        std::to_string(checkpoint_every) + ")");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "graph_model.num_threads must be >= 0 (got " +
        std::to_string(num_threads) + ")");
  }
  BA_RETURN_NOT_OK(checkpoint_retry.Validate());
  return Status::OK();
}

GraphModel::GraphModel(const GraphModelOptions& options)
    : options_(options), rng_(options.seed) {
  switch (options_.encoder) {
    case GraphEncoderKind::kGfn: {
      nn::GfnEncoder::Options o;
      o.input_dim = AugmentedDim(options_.k_hops);
      o.hidden_dim = options_.hidden_dim;
      o.embed_dim = options_.embed_dim;
      o.num_classes = options_.num_classes;
      o.dropout = options_.dropout;
      gfn_ = std::make_unique<nn::GfnEncoder>(o, &rng_);
      optimizer_ = std::make_unique<tensor::Adam>(
          gfn_->Parameters(), options_.learning_rate, 0.9f, 0.999f, 1e-8f,
          options_.weight_decay);
      break;
    }
    case GraphEncoderKind::kGcn: {
      nn::GcnEncoder::Options o;
      o.input_dim = kNodeFeatureDim;
      o.hidden_dim = options_.hidden_dim;
      o.embed_dim = options_.embed_dim;
      o.num_classes = options_.num_classes;
      gcn_ = std::make_unique<nn::GcnEncoder>(o, &rng_);
      optimizer_ = std::make_unique<tensor::Adam>(
          gcn_->Parameters(), options_.learning_rate, 0.9f, 0.999f, 1e-8f,
          options_.weight_decay);
      break;
    }
    case GraphEncoderKind::kDiffPool: {
      nn::DiffPoolEncoder::Options o;
      o.input_dim = kNodeFeatureDim;
      o.hidden_dim = options_.hidden_dim;
      o.embed_dim = options_.embed_dim;
      o.num_classes = options_.num_classes;
      o.num_clusters = options_.diffpool_clusters;
      diffpool_ = std::make_unique<nn::DiffPoolEncoder>(o, &rng_);
      optimizer_ = std::make_unique<tensor::Adam>(
          diffpool_->Parameters(), options_.learning_rate, 0.9f, 0.999f,
          1e-8f, options_.weight_decay);
      break;
    }
    case GraphEncoderKind::kGat: {
      nn::GatEncoder::Options o;
      o.input_dim = kNodeFeatureDim;
      o.hidden_dim = options_.hidden_dim;
      o.embed_dim = options_.embed_dim;
      o.num_classes = options_.num_classes;
      gat_ = std::make_unique<nn::GatEncoder>(o, &rng_);
      optimizer_ = std::make_unique<tensor::Adam>(
          gat_->Parameters(), options_.learning_rate, 0.9f, 0.999f, 1e-8f,
          options_.weight_decay);
      break;
    }
  }
}

int64_t GraphModel::NumParameters() const {
  if (gfn_) return gfn_->NumParameters();
  if (gcn_) return gcn_->NumParameters();
  if (gat_) return gat_->NumParameters();
  return diffpool_->NumParameters();
}

std::vector<tensor::Var> GraphModel::Parameters() const {
  if (gfn_) return gfn_->Parameters();
  if (gcn_) return gcn_->Parameters();
  if (gat_) return gat_->Parameters();
  return diffpool_->Parameters();
}

tensor::Var GraphModel::LogitsImpl(const GraphTensors& gt, bool training,
                                   Rng* rng) const {
  switch (options_.encoder) {
    case GraphEncoderKind::kGfn:
      return gfn_->Forward(tensor::Constant(gt.augmented),
                           training ? rng : nullptr, training);
    case GraphEncoderKind::kGcn:
      return gcn_->Forward(gt.norm_adj, tensor::Constant(gt.base_features));
    case GraphEncoderKind::kDiffPool:
      return diffpool_->Forward(gt.norm_adj,
                                tensor::Constant(gt.base_features));
    case GraphEncoderKind::kGat:
      return gat_->Forward(*gt.norm_adj,
                           tensor::Constant(gt.base_features));
  }
  BA_CHECK(false);
  return nullptr;
}

tensor::Var GraphModel::Logits(const GraphTensors& gt) const {
  return LogitsImpl(gt, /*training=*/false, /*rng=*/nullptr);
}

int GraphModel::PredictGraph(const GraphTensors& gt) const {
  const tensor::Var logits = Logits(gt);
  int best = 0;
  for (int c = 1; c < options_.num_classes; ++c) {
    if (logits->value.at(0, c) > logits->value.at(0, best)) best = c;
  }
  return best;
}

tensor::Tensor GraphModel::Embed(const GraphTensors& gt) const {
  switch (options_.encoder) {
    case GraphEncoderKind::kGfn:
      return gfn_->EmbedValue(gt.augmented);
    case GraphEncoderKind::kGcn:
      return gcn_->Embed(gt.norm_adj, tensor::Constant(gt.base_features))
          ->value;
    case GraphEncoderKind::kDiffPool:
      return diffpool_
          ->Embed(gt.norm_adj, tensor::Constant(gt.base_features))
          ->value;
    case GraphEncoderKind::kGat:
      return gat_->Embed(*gt.norm_adj, tensor::Constant(gt.base_features))
          ->value;
  }
  BA_CHECK(false);
  return tensor::Tensor();
}

Status GraphModel::Quantize(const std::vector<AddressSample>& calibration) {
  if (options_.encoder != GraphEncoderKind::kGfn) {
    return Status::Unimplemented(
        std::string("int8 quantization supports the GFN encoder only; "
                    "this model uses ") +
        GraphEncoderName(options_.encoder));
  }
  std::vector<const tensor::Tensor*> inputs;
  for (const AddressSample& s : calibration) {
    for (const GraphTensors& gt : s.tensors) inputs.push_back(&gt.augmented);
  }
  if (inputs.empty()) {
    return Status::InvalidArgument(
        "GraphModel::Quantize: calibration set has no graphs");
  }
  quantized_node_mlp_ =
      std::make_unique<nn::QuantizedMlp>(gfn_->node_mlp(), inputs);
  return Status::OK();
}

tensor::Tensor GraphModel::EmbedAugmented(
    const tensor::Tensor& augmented) const {
  BA_CHECK(gfn_ != nullptr);
  return gfn_->EmbedValue(augmented);
}

tensor::Tensor GraphModel::EmbedQuantized(
    const tensor::Tensor& augmented) const {
  BA_CHECK(quantized_node_mlp_ != nullptr);
  // SUM readout (Eq. 15) in fp32, exactly like the fp32 path.
  return tensor::SumRowsValue(quantized_node_mlp_->Forward(augmented));
}

Status GraphModel::Train(const std::vector<AddressSample>& train,
                         const std::vector<AddressSample>* eval,
                         std::vector<EpochStat>* history) {
  // Flatten to (graph, label) pairs — each slice is one example.
  struct Example {
    const GraphTensors* tensors;
    int label;
  };
  std::vector<Example> examples;
  for (const auto& s : train) {
    BA_CHECK_GE(s.label, 0);
    for (const auto& gt : s.tensors) examples.push_back({&gt, s.label});
  }
  BA_CHECK(!examples.empty());

  // Resume from an existing checkpoint when checkpointing is enabled.
  const bool checkpointing = !options_.checkpoint_dir.empty();
  const std::string ckpt_path = CheckpointPath(options_.checkpoint_dir);
  int start_epoch = 0;
  if (checkpointing && util::FileExists(ckpt_path)) {
    BA_ASSIGN_OR_RETURN(const TrainingCheckpoint ckpt,
                        LoadTrainingCheckpoint(ckpt_path));
    BA_RETURN_NOT_OK(RestoreTrainingCheckpoint(ckpt, Parameters(),
                                               optimizer_.get(), &rng_,
                                               &start_epoch));
  }

  // Lane setup for data-parallel batches. Lane 0 is this model; lanes
  // 1..T-1 are private replicas (their own tapes and Param nodes, so
  // concurrent Backward calls never touch shared autograd state).
  // Replica parameter values are re-synced from the master at every
  // batch start, so replicas carry no state of their own.
  size_t lanes = options_.num_threads == 0
                     ? util::SharedPoolThreads()
                     : static_cast<size_t>(options_.num_threads);
  lanes = std::max<size_t>(1, std::min(lanes, static_cast<size_t>(
                                                  options_.batch_size)));
  std::vector<std::unique_ptr<GraphModel>> replicas;
  std::vector<GraphModel*> lane_models{this};
  if (lanes > 1) {
    GraphModelOptions replica_options = options_;
    replica_options.checkpoint_dir.clear();
    replica_options.num_threads = 1;
    for (size_t l = 1; l < lanes; ++l) {
      replicas.push_back(std::make_unique<GraphModel>(replica_options));
      lane_models.push_back(replicas.back().get());
    }
  }
  std::vector<std::vector<tensor::Var>> lane_params;
  lane_params.reserve(lanes);
  for (GraphModel* m : lane_models) lane_params.push_back(m->Parameters());
  const std::vector<tensor::Var>& master_params = lane_params[0];
  const size_t num_params = master_params.size();
  // Only GFN consumes randomness in its training forward (dropout);
  // drawing seeds only when needed keeps the other encoders' RNG
  // streams — and therefore their existing checkpoints — unchanged.
  const bool uses_dropout_rng = options_.encoder == GraphEncoderKind::kGfn;

  // Each epoch visits examples through a fresh permutation drawn from
  // the RNG, so the visit order is a function of the RNG position at
  // the epoch boundary alone — the property that makes kill/resume
  // reproduce an uninterrupted run bit-exactly. Per-example dropout
  // seeds are likewise drawn from the trainer RNG *in visit order*
  // before each batch fans out, which keeps the RNG stream independent
  // of the lane count.
  std::vector<size_t> order(examples.size());
  obs::ScopedSpan train_span("core.train");
  train_span.AddArg("epochs", static_cast<double>(options_.epochs));
  train_span.AddArg("examples", static_cast<double>(examples.size()));
  train_span.AddArg("lanes", static_cast<double>(lanes));
  Stopwatch train_watch;
  for (int epoch = start_epoch; epoch < options_.epochs; ++epoch) {
    obs::ScopedSpan epoch_span("core.train.epoch");
    train_watch.Start();
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng_.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t i = 0;
    while (i < examples.size()) {
      const size_t batch_end = std::min(
          examples.size(), i + static_cast<size_t>(options_.batch_size));
      const size_t bs = batch_end - i;
      obs::ScopedSpan batch_span("core.train.batch");
      batch_span.AddArg("size", static_cast<double>(bs));
      batch_span.AddArg("lanes", static_cast<double>(lanes));

      std::vector<uint64_t> seeds(bs, 0);
      if (uses_dropout_rng) {
        for (size_t e = 0; e < bs; ++e) seeds[e] = rng_.Next();
      }
      // Sync replica weights to the master's current values.
      for (size_t l = 1; l < lanes; ++l) {
        for (size_t pi = 0; pi < num_params; ++pi) {
          lane_params[l][pi]->value = master_params[pi]->value;
        }
      }

      // Per-example result slots, written by exactly one lane each:
      // gradient snapshots (per param), per-param presence flags, and
      // the example's loss.
      std::vector<std::vector<tensor::Tensor>> grad_slots(bs);
      std::vector<std::vector<char>> grad_present(bs);
      std::vector<double> loss_slots(bs, 0.0);
      for (size_t e = 0; e < bs; ++e) {
        grad_slots[e].resize(num_params);
        grad_present[e].assign(num_params, 0);
      }

      const auto run_example = [&](size_t lane, size_t e) {
        GraphModel* m = lane_models[lane];
        const std::vector<tensor::Var>& params = lane_params[lane];
        m->optimizer_->ZeroGrad();
        Rng example_rng(seeds[e]);
        const Example& ex = examples[order[i + e]];
        const tensor::Var logits =
            m->LogitsImpl(*ex.tensors, /*training=*/true,
                          uses_dropout_rng ? &example_rng : nullptr);
        const tensor::Var loss =
            tensor::SoftmaxCrossEntropy(logits, std::vector<int>{ex.label});
        tensor::Backward(loss);
        loss_slots[e] = static_cast<double>(loss->value.item());
        for (size_t pi = 0; pi < num_params; ++pi) {
          if (!params[pi]->grad_ready) continue;
          grad_slots[e][pi] = params[pi]->grad;
          grad_present[e][pi] = 1;
        }
      };
      if (lanes == 1) {
        for (size_t e = 0; e < bs; ++e) run_example(0, e);
      } else {
        util::SharedPool().ParallelFor(lanes, [&](size_t lane) {
          for (size_t e = lane; e < bs; e += lanes) run_example(lane, e);
        });
      }

      // Fixed-order reduction: per parameter, example gradients are
      // summed in ascending example index — never in completion order —
      // then scaled by 1/batch. This is the determinism contract: the
      // result is a pure function of the batch, independent of lane
      // count and scheduling (DESIGN.md §7).
      for (size_t pi = 0; pi < num_params; ++pi) {
        const tensor::Var& p = master_params[pi];
        tensor::Tensor sum(p->value.shape());
        bool any = false;
        for (size_t e = 0; e < bs; ++e) {
          if (!grad_present[e][pi]) continue;
          sum.AddInPlace(grad_slots[e][pi]);
          any = true;
        }
        if (any) {
          sum.ScaleInPlace(1.0f / static_cast<float>(bs));
          p->grad = std::move(sum);
          p->grad_ready = true;
        } else {
          p->grad_ready = false;
        }
      }
      optimizer_->Step();
      for (size_t e = 0; e < bs; ++e) epoch_loss += loss_slots[e];
      i = batch_end;
    }
    train_watch.Stop();

    const double epoch_seconds = train_watch.ElapsedSeconds();
    const double mean_loss =
        epoch_loss / static_cast<double>(examples.size());
    BA_LOG(Info, "core.train")
        << "epoch " << (epoch + 1) << "/" << options_.epochs << " loss "
        << mean_loss << " (" << examples.size() << " examples, "
        << epoch_seconds << "s)";
    if (epoch_span.active()) {
      epoch_span.AddArg("epoch", static_cast<double>(epoch + 1));
      epoch_span.AddArg("loss", mean_loss);
      if (epoch_seconds > 0.0) {
        epoch_span.AddArg("examples_per_s",
                          static_cast<double>(examples.size()) /
                              epoch_seconds);
      }
      // The post-Step gradient L2 norm — an extra parameter sweep, so
      // computed only when the span is recorded.
      double grad_sq = 0.0;
      for (const tensor::Var& p : Parameters()) {
        if (!p->grad_ready) continue;
        const float* g = p->grad.data();
        for (int64_t j = 0; j < p->grad.numel(); ++j) {
          grad_sq += static_cast<double>(g[j]) * static_cast<double>(g[j]);
        }
      }
      epoch_span.AddArg("grad_norm", std::sqrt(grad_sq));
    }

    if (history != nullptr) {
      EpochStat stat;
      stat.epoch = epoch + 1;
      stat.seconds = train_watch.ElapsedSeconds();
      stat.train_loss = epoch_loss / static_cast<double>(examples.size());
      if (eval != nullptr) stat.eval_f1 = GraphLevelWeightedF1(*this, *eval);
      history->push_back(stat);
    }

    if (checkpointing) {
      const int done = epoch + 1;
      const int every = std::max(options_.checkpoint_every, 1);
      if (done % every == 0 || done == options_.epochs) {
        BA_RETURN_NOT_OK(util::RetryWithBackoff(
            options_.checkpoint_retry, "checkpoint save (epoch " +
                std::to_string(done) + ")",
            [&] {
              return SaveTrainingCheckpoint(
                  CaptureTrainingCheckpoint(Parameters(), *optimizer_, rng_,
                                            done),
                  ckpt_path);
            }));
      }
    }
  }
  return Status::OK();
}

metrics::ConfusionMatrix GraphModel::EvaluateGraphLevel(
    const std::vector<AddressSample>& samples) const {
  metrics::ConfusionMatrix cm(options_.num_classes);
  for (const auto& s : samples) {
    for (const auto& gt : s.tensors) {
      cm.Add(s.label, PredictGraph(gt));
    }
  }
  return cm;
}

double GraphLevelWeightedF1(const GraphModel& model,
                            const std::vector<AddressSample>& samples) {
  return model.EvaluateGraphLevel(samples).WeightedAverage().f1;
}

}  // namespace ba::core
