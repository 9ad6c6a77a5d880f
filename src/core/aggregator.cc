#include "core/aggregator.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ba::core {

const char* AggregatorName(AggregatorKind kind) {
  switch (kind) {
    case AggregatorKind::kLstm:
      return "LSTM+MLP";
    case AggregatorKind::kBiLstm:
      return "BiLSTM+MLP";
    case AggregatorKind::kAttention:
      return "Attention+MLP";
    case AggregatorKind::kSum:
      return "SUM+MLP";
    case AggregatorKind::kAvg:
      return "AVG+MLP";
    case AggregatorKind::kMax:
      return "MAX+MLP";
    case AggregatorKind::kSelfAttention:
      return "SelfAttn+MLP";
  }
  return "Unknown";
}

std::vector<AggregatorKind> AllAggregators() {
  return {AggregatorKind::kLstm,      AggregatorKind::kBiLstm,
          AggregatorKind::kAttention, AggregatorKind::kSum,
          AggregatorKind::kAvg,       AggregatorKind::kMax};
}

Status AggregatorOptions::Validate() const {
  if (embed_dim <= 0 || hidden_dim <= 0 || mlp_hidden <= 0) {
    return Status::InvalidArgument(
        "aggregator dims must be positive (embed_dim " +
        std::to_string(embed_dim) + ", hidden_dim " +
        std::to_string(hidden_dim) + ", mlp_hidden " +
        std::to_string(mlp_hidden) + ")");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument(
        "aggregator.num_classes must be >= 2 (got " +
        std::to_string(num_classes) + ")");
  }
  if (epochs < 1 || batch_size < 1) {
    return Status::InvalidArgument(
        "aggregator.epochs and batch_size must be >= 1 (epochs " +
        std::to_string(epochs) + ", batch_size " +
        std::to_string(batch_size) + ")");
  }
  if (!(learning_rate > 0.0f) || !std::isfinite(learning_rate)) {
    return Status::InvalidArgument(
        "aggregator.learning_rate must be finite and positive (got " +
        std::to_string(learning_rate) + ")");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "aggregator.num_threads must be >= 0 (got " +
        std::to_string(num_threads) + ")");
  }
  return Status::OK();
}

AggregatorModel::AggregatorModel(const AggregatorOptions& options)
    : options_(options), rng_(options.seed) {
  int64_t pooled_dim = options_.embed_dim;
  switch (options_.kind) {
    case AggregatorKind::kLstm:
      lstm_ = std::make_unique<nn::Lstm>(options_.embed_dim,
                                         options_.hidden_dim, &rng_);
      pooled_dim = options_.hidden_dim;
      break;
    case AggregatorKind::kBiLstm:
      bilstm_ = std::make_unique<nn::BiLstm>(options_.embed_dim,
                                             options_.hidden_dim, &rng_);
      pooled_dim = 2 * options_.hidden_dim;
      break;
    case AggregatorKind::kAttention:
      attention_ = std::make_unique<nn::AttentionPool>(
          options_.embed_dim, options_.hidden_dim, &rng_);
      pooled_dim = options_.embed_dim;
      break;
    case AggregatorKind::kSelfAttention:
      self_attention_ = std::make_unique<nn::SelfAttentionPool>(
          options_.embed_dim, options_.hidden_dim, &rng_);
      pooled_dim = options_.hidden_dim;
      break;
    case AggregatorKind::kSum:
    case AggregatorKind::kAvg:
    case AggregatorKind::kMax:
      break;
  }
  head_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{pooled_dim, options_.mlp_hidden,
                           static_cast<int64_t>(options_.num_classes)},
      &rng_);

  std::vector<tensor::Var> params = head_->Parameters();
  auto append = [&params](const nn::Module* m) {
    if (m == nullptr) return;
    auto p = m->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  };
  append(lstm_.get());
  append(bilstm_.get());
  append(attention_.get());
  append(self_attention_.get());
  optimizer_ =
      std::make_unique<tensor::Adam>(std::move(params),
                                     options_.learning_rate);
}

std::vector<tensor::Var> AggregatorModel::Parameters() const {
  std::vector<tensor::Var> params = head_->Parameters();
  auto append = [&params](const nn::Module* m) {
    if (m == nullptr) return;
    auto p = m->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  };
  append(lstm_.get());
  append(bilstm_.get());
  append(attention_.get());
  append(self_attention_.get());
  return params;
}

tensor::Var AggregatorModel::Logits(
    const tensor::Tensor& embeddings) const {
  BA_CHECK_EQ(embeddings.rank(), 2);
  BA_CHECK_EQ(embeddings.dim(1), options_.embed_dim);
  const tensor::Var seq = tensor::Constant(embeddings);
  tensor::Var pooled;
  switch (options_.kind) {
    case AggregatorKind::kLstm:
      pooled = lstm_->ForwardLast(seq);
      break;
    case AggregatorKind::kBiLstm:
      pooled = bilstm_->ForwardLast(seq);
      break;
    case AggregatorKind::kAttention:
      pooled = attention_->Forward(seq);
      break;
    case AggregatorKind::kSum:
      pooled = tensor::SumRows(seq);
      break;
    case AggregatorKind::kAvg:
      pooled = tensor::MeanRows(seq);
      break;
    case AggregatorKind::kMax:
      pooled = tensor::MaxRows(seq);
      break;
    case AggregatorKind::kSelfAttention:
      pooled = self_attention_->Forward(seq);
      break;
  }
  return head_->Forward(pooled);
}

tensor::Tensor AggregatorModel::LogitsValue(
    const tensor::Tensor& embeddings) const {
  BA_CHECK_EQ(embeddings.rank(), 2);
  BA_CHECK_EQ(embeddings.dim(1), options_.embed_dim);
  tensor::Tensor pooled;
  switch (options_.kind) {
    case AggregatorKind::kLstm:
      pooled = lstm_->ForwardLastValue(embeddings);
      break;
    case AggregatorKind::kBiLstm:
      pooled = bilstm_->ForwardLastValue(embeddings);
      break;
    case AggregatorKind::kAttention:
      pooled = attention_->ForwardValue(embeddings);
      break;
    case AggregatorKind::kSum:
      pooled = tensor::SumRowsValue(embeddings);
      break;
    case AggregatorKind::kAvg:
      pooled = tensor::MeanRowsValue(embeddings);
      break;
    case AggregatorKind::kMax:
      pooled = tensor::MaxRowsValue(embeddings);
      break;
    case AggregatorKind::kSelfAttention:
      pooled = self_attention_->ForwardValue(embeddings);
      break;
  }
  return head_->ForwardValue(pooled);
}

int AggregatorModel::Predict(const tensor::Tensor& embeddings) const {
  const tensor::Tensor logits = LogitsValue(embeddings);
  int best = 0;
  for (int c = 1; c < options_.num_classes; ++c) {
    if (logits.at(0, c) > logits.at(0, best)) best = c;
  }
  return best;
}

void AggregatorModel::Train(const std::vector<EmbeddingSequence>& train,
                            const std::vector<EmbeddingSequence>* eval,
                            std::vector<EpochStat>* history) {
  BA_CHECK(!train.empty());
  std::vector<size_t> order(train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Lane setup mirroring GraphModel::Train: lane 0 is this model,
  // lanes 1..T-1 are replicas whose weights are re-synced from the
  // master each batch. No aggregator forward consumes randomness, so
  // no per-example seeds are needed and the RNG stream (shuffles only)
  // is identical at every lane count.
  size_t lanes = options_.num_threads == 0
                     ? util::SharedPoolThreads()
                     : static_cast<size_t>(options_.num_threads);
  lanes = std::max<size_t>(1, std::min(lanes, static_cast<size_t>(
                                                  options_.batch_size)));
  std::vector<std::unique_ptr<AggregatorModel>> replicas;
  std::vector<AggregatorModel*> lane_models{this};
  if (lanes > 1) {
    AggregatorOptions replica_options = options_;
    replica_options.num_threads = 1;
    for (size_t l = 1; l < lanes; ++l) {
      replicas.push_back(std::make_unique<AggregatorModel>(replica_options));
      lane_models.push_back(replicas.back().get());
    }
  }
  std::vector<std::vector<tensor::Var>> lane_params;
  lane_params.reserve(lanes);
  for (AggregatorModel* m : lane_models) {
    lane_params.push_back(m->Parameters());
  }
  const std::vector<tensor::Var>& master_params = lane_params[0];
  const size_t num_params = master_params.size();

  obs::ScopedSpan train_span("core.aggregate.train");
  train_span.AddArg("epochs", static_cast<double>(options_.epochs));
  train_span.AddArg("examples", static_cast<double>(train.size()));
  train_span.AddArg("lanes", static_cast<double>(lanes));
  Stopwatch watch;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    obs::ScopedSpan epoch_span("core.aggregate.epoch");
    watch.Start();
    rng_.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t i = 0;
    while (i < order.size()) {
      const size_t batch_end = std::min(
          order.size(), i + static_cast<size_t>(options_.batch_size));
      const size_t bs = batch_end - i;
      obs::ScopedSpan batch_span("core.aggregate.batch");
      batch_span.AddArg("size", static_cast<double>(bs));
      batch_span.AddArg("lanes", static_cast<double>(lanes));

      for (size_t l = 1; l < lanes; ++l) {
        for (size_t pi = 0; pi < num_params; ++pi) {
          lane_params[l][pi]->value = master_params[pi]->value;
        }
      }
      std::vector<std::vector<tensor::Tensor>> grad_slots(bs);
      std::vector<std::vector<char>> grad_present(bs);
      std::vector<double> loss_slots(bs, 0.0);
      for (size_t e = 0; e < bs; ++e) {
        grad_slots[e].resize(num_params);
        grad_present[e].assign(num_params, 0);
      }
      const auto run_example = [&](size_t lane, size_t e) {
        AggregatorModel* m = lane_models[lane];
        const std::vector<tensor::Var>& params = lane_params[lane];
        m->optimizer_->ZeroGrad();
        const EmbeddingSequence& ex = train[order[i + e]];
        const tensor::Var loss = tensor::SoftmaxCrossEntropy(
            m->Logits(ex.embeddings), std::vector<int>{ex.label});
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

      // Fixed-order reduction (ascending example index, then 1/batch
      // scale): bit-identical at any lane count. See DESIGN.md §7.
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
    watch.Stop();

    const double mean_loss = epoch_loss / static_cast<double>(train.size());
    BA_LOG(Info, "core.aggregate")
        << "epoch " << (epoch + 1) << "/" << options_.epochs << " loss "
        << mean_loss << " (" << watch.ElapsedSeconds() << "s)";
    if (epoch_span.active()) {
      epoch_span.AddArg("epoch", static_cast<double>(epoch + 1));
      epoch_span.AddArg("loss", mean_loss);
    }

    if (history != nullptr) {
      EpochStat stat;
      stat.epoch = epoch + 1;
      stat.seconds = watch.ElapsedSeconds();
      stat.train_loss = epoch_loss / static_cast<double>(train.size());
      if (eval != nullptr) {
        stat.eval_f1 = Evaluate(*eval).WeightedAverage().f1;
      }
      history->push_back(stat);
    }
  }
}

metrics::ConfusionMatrix AggregatorModel::Evaluate(
    const std::vector<EmbeddingSequence>& samples) const {
  metrics::ConfusionMatrix cm(options_.num_classes);
  for (const auto& s : samples) cm.Add(s.label, Predict(s.embeddings));
  return cm;
}

std::vector<EmbeddingSequence> BuildEmbeddingSequences(
    const GraphModel& model, const std::vector<AddressSample>& samples) {
  std::vector<EmbeddingSequence> out;
  out.reserve(samples.size());
  for (const auto& s : samples) {
    BA_CHECK_GT(s.num_graphs(), 0);
    EmbeddingSequence seq;
    seq.label = s.label;
    seq.embeddings =
        tensor::Tensor({s.num_graphs(), model.embed_dim()});
    for (int g = 0; g < s.num_graphs(); ++g) {
      const tensor::Tensor e = model.Embed(s.tensors[static_cast<size_t>(g)]);
      for (int64_t j = 0; j < model.embed_dim(); ++j) {
        seq.embeddings.at(g, j) = e.at(0, j);
      }
    }
    out.push_back(std::move(seq));
  }
  return out;
}

}  // namespace ba::core
