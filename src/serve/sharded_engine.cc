#include "serve/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <utility>

#include "obs/trace.h"
#include "util/fs.h"
#include "util/logging.h"

namespace ba::serve {

namespace {

/// Severity order for aggregating per-shard admission states: the
/// aggregate reports the *worst* shard, so a monitoring loop watching
/// one field still sees "shedding" when any shard is overloaded.
int AdmissionRank(const std::string& state) {
  if (state == "shedding") return 3;
  if (state == "recovering") return 2;
  if (state == "accepting") return 1;
  return 0;  // disabled
}

/// Count-weighted merge of per-shard latency histograms. Percentiles
/// from different shards cannot be combined exactly without the raw
/// buckets; the count-weighted average is the standard dashboard
/// approximation (exact when shards are identically loaded), and max
/// merges exactly.
HistogramSnapshot MergeHistograms(const HistogramSnapshot& a,
                                  const HistogramSnapshot& b) {
  HistogramSnapshot out;
  out.count = a.count + b.count;
  out.total_seconds = a.total_seconds + b.total_seconds;
  out.max_seconds = std::max(a.max_seconds, b.max_seconds);
  if (out.count > 0) {
    const double wa = static_cast<double>(a.count);
    const double wb = static_cast<double>(b.count);
    const double wsum = wa + wb;
    out.mean_seconds = out.total_seconds / static_cast<double>(out.count);
    out.p50_seconds = (a.p50_seconds * wa + b.p50_seconds * wb) / wsum;
    out.p95_seconds = (a.p95_seconds * wa + b.p95_seconds * wb) / wsum;
    out.p99_seconds = (a.p99_seconds * wa + b.p99_seconds * wb) / wsum;
  }
  return out;
}

}  // namespace

Status ShardedEngineOptions::Validate() const {
  if (num_engines < 1) {
    return Status::InvalidArgument(
        "ShardedEngineOptions.num_engines must be >= 1, got " +
        std::to_string(num_engines));
  }
  if (vnodes_per_shard < 1) {
    return Status::InvalidArgument(
        "ShardedEngineOptions.vnodes_per_shard must be >= 1, got " +
        std::to_string(vnodes_per_shard));
  }
  return engine.Validate();
}

std::string ShardedEngine::ManifestPath(const std::string& cache_base) {
  return cache_base + ".manifest";
}

Status ShardedEngine::CheckManifest(const std::string& cache_base,
                                    int num_engines) {
  if (cache_base.empty()) return Status::OK();
  const std::string path = ManifestPath(cache_base);
  if (!util::FileExists(path)) return Status::OK();  // cold start
  auto body = util::ReadFileToString(path);
  BA_RETURN_NOT_OK(body.status());
  std::istringstream is(*body);
  std::string tag;
  int persisted = 0;
  if (!(is >> tag >> persisted) || tag != "shards" || persisted < 1) {
    return Status::InvalidArgument("sharded cache manifest " + path +
                                   " is corrupt (expected \"shards <N>\")");
  }
  if (persisted != num_engines) {
    return Status::InvalidArgument(
        "sharded cache manifest " + path + " was written by a " +
        std::to_string(persisted) + "-shard deployment but --engines is " +
        std::to_string(num_engines) +
        ": the consistent-hash ring would route addresses away from the "
        "shard files holding their embeddings. Restart with " +
        std::to_string(persisted) +
        " engines, or delete the per-shard cache files (and this "
        "manifest) to start cold");
  }
  return Status::OK();
}

Status ShardedEngine::WriteManifest() const {
  if (options_.engine.cache_path.empty()) return Status::OK();
  util::AtomicFileWriter out(ManifestPath(options_.engine.cache_path));
  BA_RETURN_NOT_OK(out.Open());
  BA_RETURN_NOT_OK(
      out.Append("shards " + std::to_string(options_.num_engines) + "\n"));
  return out.Commit();
}

ShardedEngine::ShardedEngine(Options options)
    : options_(std::move(options)),
      router_(static_cast<uint32_t>(options_.num_engines),
              options_.vnodes_per_shard),
      detector_(options_.sweep_miss_streak) {
  auto& reg = obs::MetricsRegistry::Instance();
  requests_ = reg.GetCounter("serve.router.requests");
  sweep_requests_ = reg.GetCounter("serve.router.sweep_requests");
  // Unique per process, mirroring the per-engine providers.
  static std::atomic<uint64_t> next_router_id{0};
  registry_provider_name_ =
      "serve.router." + std::to_string(next_router_id.fetch_add(1));
  reg.RegisterProvider(registry_provider_name_, [this] {
    std::ostringstream os;
    os << "{\"shards\":" << router_.num_shards()
       << ",\"sweeping_clients\":" << detector_.sweeping_clients() << "}";
    return os.str();
  });
}

ShardedEngine::~ShardedEngine() {
  // Same ordering rule as the single engine: no scrape may run the
  // provider while members tear down under it.
  obs::MetricsRegistry::Instance().UnregisterProvider(
      registry_provider_name_);
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const core::BaClassifier* classifier, const chain::Ledger* ledger,
    Options options) {
  BA_RETURN_NOT_OK(options.Validate());
  // Refuse a mismatched warm restart before any shard loads a file.
  BA_RETURN_NOT_OK(
      CheckManifest(options.engine.cache_path, options.num_engines));
  auto sharded = std::unique_ptr<ShardedEngine>(new ShardedEngine(options));
  for (int k = 0; k < options.num_engines; ++k) {
    InferenceEngineOptions shard_options = options.engine;
    if (!shard_options.cache_path.empty()) {
      shard_options.cache_path += ".shard" + std::to_string(k);
    }
    auto engine =
        InferenceEngine::Create(classifier, ledger, std::move(shard_options));
    if (!engine.ok()) {
      return Status(engine.status().code(),
                    "ShardedEngine: shard " + std::to_string(k) + ": " +
                        engine.status().message());
    }
    sharded->shards_.push_back(std::move(*engine));
  }
  return sharded;
}

ClassifyOptions ShardedEngine::Route(const ClassifyOptions& options) {
  requests_->Increment();
  ClassifyOptions routed = options;
  routed.cache_mode = detector_.ModeFor(options.client_id);
  if (routed.cache_mode == CacheMode::kNoPromote) {
    sweep_requests_->Increment();
  }
  return routed;
}

void ShardedEngine::Observe(uint64_t client_id,
                            const Result<ClassifyResult>& r) {
  if (client_id != 0 && r.ok() && r->tx_count > 0) {
    detector_.Observe(client_id, r->cache_hit || r->slices_reused > 0);
  }
}

void ShardedEngine::ClassifyAsync(chain::AddressId address,
                                  const ClassifyOptions& options,
                                  ClassifyCallback done) {
  BA_TRACE_SPAN("serve.router.dispatch");
  const uint64_t client_id = options.client_id;
  shards_[router_.ShardOf(address)]->ClassifyAsync(
      address, Route(options),
      [this, client_id, done = std::move(done)](Result<ClassifyResult> r,
                                                const RequestTimeline& tl) {
        // Observed before delivery so the *next* request of a scanning
        // client already sees the updated mode.
        Observe(client_id, r);
        done(std::move(r), tl);
      });
}

Result<ClassifyResult> ShardedEngine::Classify(chain::AddressId address,
                                               const ClassifyOptions& options) {
  BA_TRACE_SPAN("serve.router.dispatch");
  // The shard's blocking path lets this thread become its batch leader,
  // so a lone blocking caller keeps the unsharded latency profile.
  Result<ClassifyResult> r =
      shards_[router_.ShardOf(address)]->Classify(address, Route(options));
  Observe(options.client_id, r);
  return r;
}

std::vector<Result<ClassifyResult>> ShardedEngine::ClassifyBatch(
    const std::vector<chain::AddressId>& addresses,
    const ClassifyOptions& options) {
  const size_t n = addresses.size();
  // Fan out through the async path: each shard micro-batches the slice
  // of the list it owns, and shards run concurrently.
  struct BatchState {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
  } state;
  state.remaining = n;
  std::vector<std::unique_ptr<Result<ClassifyResult>>> outcomes(n);
  for (size_t i = 0; i < n; ++i) {
    ClassifyAsync(addresses[i], options,
                  [&state, &outcomes, i](Result<ClassifyResult> r,
                                         const RequestTimeline&) {
                    std::lock_guard<std::mutex> lk(state.mu);
                    outcomes[i] =
                        std::make_unique<Result<ClassifyResult>>(std::move(r));
                    if (--state.remaining == 0) state.cv.notify_one();
                  });
  }
  if (n > 0) {
    std::unique_lock<std::mutex> lk(state.mu);
    state.cv.wait(lk, [&state] { return state.remaining == 0; });
  }
  std::vector<Result<ClassifyResult>> out;
  out.reserve(n);
  for (auto& o : outcomes) out.push_back(std::move(*o));
  return out;
}

Status ShardedEngine::SaveCache() const {
  // Attempt every shard even after a failure — a partially persisted
  // fleet restarts warmer than an unpersisted one — and report the
  // first error.
  Status first = Status::OK();
  for (size_t k = 0; k < shards_.size(); ++k) {
    Status s = shards_[k]->SaveCache();
    if (!s.ok() && first.ok()) {
      first = Status(s.code(), "shard " + std::to_string(k) + ": " +
                                   s.message());
    }
  }
  if (first.ok()) first = WriteManifest();
  return first;
}

size_t ShardedEngine::CacheSize() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->CacheSize();
  return n;
}

void ShardedEngine::ClearCache() {
  for (auto& shard : shards_) shard->ClearCache();
}

InferenceMetricsSnapshot ShardedEngine::ShardMetrics(int shard) const {
  BA_CHECK(shard >= 0 && shard < static_cast<int>(shards_.size()));
  return shards_[static_cast<size_t>(shard)]->Metrics();
}

InferenceMetricsSnapshot ShardedEngine::Metrics() const {
  InferenceMetricsSnapshot agg;
  agg.admission_state = "disabled";
  int worst_rank = 0;
  for (const auto& shard : shards_) {
    const InferenceMetricsSnapshot s = shard->Metrics();
    agg.requests += s.requests;
    agg.full_hits += s.full_hits;
    agg.partial_hits += s.partial_hits;
    agg.misses += s.misses;
    agg.coalesced += s.coalesced;
    agg.empty_history += s.empty_history;
    agg.batches += s.batches;
    agg.slices_built += s.slices_built;
    agg.slices_reused += s.slices_reused;
    agg.cache_entries += s.cache_entries;
    agg.cache_evictions += s.cache_evictions;
    agg.pool_backlog += s.pool_backlog;
    agg.queue_depth += s.queue_depth;
    agg.shed += s.shed;
    agg.deadline_exceeded += s.deadline_exceeded;
    agg.degraded_stale += s.degraded_stale;
    agg.degraded_fallback += s.degraded_fallback;
    agg.degraded_late += s.degraded_late;
    agg.slow_requests += s.slow_requests;
    agg.build_seconds += s.build_seconds;
    agg.embed_seconds += s.embed_seconds;
    agg.aggregate_seconds += s.aggregate_seconds;
    agg.request_latency = MergeHistograms(agg.request_latency,
                                          s.request_latency);
    agg.batch_latency = MergeHistograms(agg.batch_latency, s.batch_latency);
    const int rank = AdmissionRank(s.admission_state);
    if (rank > worst_rank) {
      worst_rank = rank;
      agg.admission_state = s.admission_state;
    }
  }
  const uint64_t classified = agg.requests >= agg.empty_history
                                  ? agg.requests - agg.empty_history
                                  : 0;
  agg.hit_rate = classified == 0
                     ? 0.0
                     : static_cast<double>(agg.full_hits + agg.partial_hits +
                                           agg.coalesced) /
                           static_cast<double>(classified);
  return agg;
}

std::string ShardedEngine::SlowlogJson(size_t max_entries) const {
  // Same shape as the single engine's payload; each array holds up to
  // max_entries entries per shard, in shard-major order (per-recorder
  // seq values are not comparable across shards).
  std::ostringstream os;
  os << "{\"threshold_seconds\":" << options_.engine.slow_request_threshold;
  for (const char* ring : {"slow", "recent"}) {
    os << ",\"" << ring << "\":[";
    bool first = true;
    for (const auto& shard : shards_) {
      const FlightRecorder* rec = ring[0] == 's'
                                      ? shard->slow_recorder()
                                      : shard->flight_recorder();
      if (rec == nullptr) continue;
      for (const FlightRecorder::Entry& e : rec->Snapshot(max_entries)) {
        if (!first) os << ",";
        first = false;
        os << e.ToJson();
      }
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

std::optional<FlightRecorder::Entry> ShardedEngine::FindTimeline(
    uint64_t trace_id) const {
  for (const auto& shard : shards_) {
    auto hit = shard->FindTimeline(trace_id);
    if (hit.has_value()) return hit;
  }
  return std::nullopt;
}

void ShardedEngine::ForgetClient(uint64_t client_id) {
  detector_.Forget(client_id);
}

}  // namespace ba::serve
