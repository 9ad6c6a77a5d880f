#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/ledger.h"
#include "core/classifier.h"
#include "serve/admission.h"
#include "serve/flight_recorder.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file inference_engine.h
/// \brief Concurrent serving layer over a trained BaClassifier.
///
/// A monitoring deployment of the paper's system (think: watch every
/// address that touched the mempool this block) issues many small
/// classification queries against a slowly growing ledger, with heavy
/// repetition — the same addresses come back block after block. The
/// engine exploits all three properties:
///
///  * **Micro-batching.** Concurrent Classify() callers enqueue their
///    request; the first caller becomes the batch leader, drains up to
///    `max_batch_size` requests, and fans the expensive graph
///    construction + encoder forward passes out over a shared
///    `util::ThreadPool`. Followers block until the leader fulfills
///    their request (group commit). A blocking caller leads on its own
///    thread and waits while pool workers build; an async
///    (ClassifyAsync) leader runs as a pool task and builds alongside
///    the other workers, so either way a cold batch uses the whole
///    pool. The misses of a batch are built longest history first.
///
///  * **Incremental caching.** Results are cached per address, keyed on
///    the length of the address's transaction history (a proxy for
///    ledger height that is exact for that address). Because the ledger
///    is append-only and graph slices are fixed-size chronological
///    chunks, every *complete* slice of a cached history is immutable:
///    a repeat query is answered from cache outright, and a query after
///    the address gained transactions reuses the cached per-slice
///    embeddings and rebuilds only the tail (GraphConstructor::
///    BuildGraphsFrom). The cache persists to disk through the
///    crash-safe AtomicFileWriter, so a killed server restarts warm.
///
///  * **Observability.** Counters, per-stage wall-clock accumulators
///    and latency histograms (p50/p95/p99) are collected into an
///    `InferenceMetricsSnapshot`, printable or JSON-exportable. Each
///    engine also publishes that snapshot as a JSON provider named
///    `serve.engine.<n>` in the process-wide obs::MetricsRegistry, and
///    the batch lifecycle emits trace spans (`serve.request`,
///    `serve.batch` + per-stage children) when tracing is enabled — see
///    DESIGN.md §6.
///
/// Thread-safety contract (snapshot model):
/// Classify/ClassifyBatch/ClassifyAsync/Metrics/SaveCache may be called
/// concurrently
/// from any number of threads, and — new with the epoch layer — the
/// ledger's single writer may grow the chain (NewAddress /
/// ApplyTransaction / SealBlock) at any time with **no external
/// ordering**. Each micro-batch pins a `chain::LedgerSnapshot` when the
/// leader starts processing it; every result in the batch is computed
/// against that pinned epoch, reported in `ClassifyResult::tx_count`.
/// Queries are therefore not linearizable across a concurrent seal — a
/// request racing a seal may be answered from the epoch just before or
/// just after it — but every answer is exactly what a quiesced engine
/// would have produced at some epoch the chain actually passed through
/// between enqueue and completion. The cache needs no notification:
/// keys are snapshot-clamped tx counts, so entries from older epochs
/// are reused only for their immutable complete slices.
///
/// Resilience contract (see DESIGN.md "Overload & failure model"):
/// every request ends in exactly one of four explicit outcomes —
///
///  * **nominal**: the exact answer at the batch's pinned epoch;
///  * **degraded** (`ClassifyResult::degraded`, only with
///    `ClassifyOptions::allow_degraded`): a labeled non-nominal answer —
///    a stale cached prediction at its last pinned epoch
///    (`epoch_lag` > 0), a flat-feature fallback, or a fresh result
///    delivered past its deadline;
///  * **DeadlineExceeded**: the per-request deadline expired and no
///    degraded answer was allowed/available. Deadlines are checked at
///    submit, at cache lookup (before any graph construction) and again
///    at every batch-stage boundary;
///  * **ResourceExhausted**: the `AdmissionController` shed the request
///    in well under a millisecond because the engine is overloaded.
///
/// Nothing hangs, nothing is silently dropped, and every degraded
/// answer is counted (`serve.degraded.*`).

namespace ba::serve {

/// \brief Numeric precision of the engine's embed stage.
enum class Precision {
  kFp32,  ///< the trained model's native path (default)
  kInt8,  ///< quantized node-MLP path — requires a calibrated
          ///< (BaClassifier::Quantize) classifier
};

const char* PrecisionName(Precision p);

/// \brief Engine tunables.
struct InferenceEngineOptions {
  /// Requests the batch leader drains per micro-batch.
  int max_batch_size = 32;
  /// Concurrent batch leaders. With 1 (the default, the historical
  /// behavior) a slow batch serializes every arrival behind it; with
  /// more, a leader that takes a batch while queued work remains hands
  /// off mid-drain — it spawns a fresh leader on the pool before
  /// processing, so arrivals keep draining while the slow batch runs.
  /// The sharded tier defaults each shard to 2.
  int max_batch_leaders = 1;
  /// Embed-stage precision. kInt8 runs the quantized encoder path;
  /// Create() fails when the classifier has not been quantized. Cached
  /// embeddings are precision-specific (the cache file records which
  /// path produced it and refuses a mismatched warm start).
  Precision precision = Precision::kFp32;
  /// Worker threads for graph construction + encoder passes; async
  /// batch leaders also run on them. A cold batch builds on every
  /// worker at once, the async leader's included. 0 draws on the
  /// process-wide `util::SharedPool()` instead of creating a private
  /// pool — the right choice when an engine coexists with training or
  /// other engines in one process (no oversubscription).
  int num_threads = 2;
  /// Injected worker pool (non-owning; must outlive the engine). When
  /// set, `num_threads` is ignored and no private pool is created.
  ThreadPool* pool = nullptr;
  /// Maximum cached addresses; least-recently-used entries are evicted
  /// beyond it.
  size_t cache_capacity = 1 << 16;
  /// Cache persistence file. Empty disables persistence; otherwise
  /// Create() warm-starts from an existing file and SaveCache() writes
  /// it atomically.
  std::string cache_path;
  /// Retry policy for SaveCache(). The default (max_attempts = 1)
  /// keeps fail-fast semantics; a multi-attempt policy rides out
  /// transient write failures.
  util::RetryPolicy save_retry;
  /// Enables the AdmissionController: overloaded engines shed requests
  /// fast with ResourceExhausted instead of queueing without bound.
  /// Off by default — an engine without an operator-chosen budget
  /// accepts everything, as before.
  bool enable_admission = false;
  /// Budget and watermarks (used only with enable_admission).
  AdmissionOptions admission;
  /// Optional flat-feature fallback: when a request is shed or past
  /// deadline with `allow_degraded` and no cached answer exists, this
  /// hook supplies a cheap prediction (labeled degraded, epoch_lag 0).
  /// Must be thread-safe; called outside engine locks.
  std::function<int(chain::AddressId)> degraded_fallback;
  /// Flight-recorder capacity: the last N request timelines stay
  /// queryable (admin `slowlog` / `timeline <trace_id>`). Cheap enough
  /// to leave on (see flight_recorder.h); 0 disables recording.
  size_t flight_recorder_capacity = 1024;
  /// Requests whose total latency reaches this many seconds are copied
  /// into a separate slow ring and logged as one structured
  /// `BA_LOG(Warn, serve.slowlog)` line. 0 disables slow-request
  /// capture (the main recorder still records everything).
  double slow_request_threshold = 0.0;

  /// \brief Returns OK when every field is usable, or a descriptive
  /// InvalidArgument naming the offending field and value.
  Status Validate() const;
};

// ClassifyOptions / ClassifyResult moved to serve/protocol.h (the
// versioned wire-stable protocol surface shared with the network
// layer); including it here keeps every existing caller compiling
// unchanged.

/// \brief Completion hook of `ClassifyAsync`. Invoked exactly once per
/// submitted request — either synchronously on the submitting thread
/// (fast-path rejections: unknown address, shed, deadline expired at
/// submit) or later on an engine worker thread. The second argument is
/// the request's timeline — identical to `result.timeline` on ok
/// outcomes, and the only way to observe the timeline of an error
/// outcome (a Status cannot carry one); its `outcome` field always
/// matches the delivered result. The callback must not block and must
/// not call the engine's *blocking* methods (Classify / ClassifyBatch
/// / ~InferenceEngine) — it runs on the thread that drains batches, so
/// blocking there deadlocks the engine.
using ClassifyCallback =
    std::function<void(Result<ClassifyResult>, const RequestTimeline&)>;

/// \brief Point-in-time view of every engine metric.
struct InferenceMetricsSnapshot {
  uint64_t requests = 0;
  uint64_t full_hits = 0;     ///< answered from cache outright
  uint64_t partial_hits = 0;  ///< tail rebuilt, prefix reused
  uint64_t misses = 0;
  /// Batch-duplicate requests folded onto another request's work.
  uint64_t coalesced = 0;
  uint64_t empty_history = 0;  ///< addresses with no transactions
  uint64_t batches = 0;
  uint64_t slices_built = 0;
  uint64_t slices_reused = 0;
  uint64_t cache_entries = 0;
  uint64_t cache_evictions = 0;
  uint64_t pool_backlog = 0;  ///< thread-pool tasks in flight now
  uint64_t queue_depth = 0;   ///< requests enqueued, not yet in a batch
  uint64_t shed = 0;          ///< rejected by admission control
  uint64_t deadline_exceeded = 0;  ///< rejected on an expired deadline
  uint64_t degraded_stale = 0;     ///< answered from a stale cache entry
  uint64_t degraded_fallback = 0;  ///< answered by the fallback hook
  uint64_t degraded_late = 0;      ///< fresh result past its deadline
  /// Requests at or past `slow_request_threshold` (0 when disabled).
  uint64_t slow_requests = 0;
  /// Admission state name ("accepting"/"shedding"/"recovering"), or
  /// "disabled" when admission control is off.
  std::string admission_state;
  /// (full + partial + coalesced) / (requests - empty_history), 0 when
  /// undefined.
  double hit_rate = 0.0;
  double build_seconds = 0.0;      ///< graph construction (all workers)
  double embed_seconds = 0.0;      ///< tensor prep + encoder forward
  double aggregate_seconds = 0.0;  ///< scaler + LSTM head + cache write
  HistogramSnapshot request_latency;
  HistogramSnapshot batch_latency;

  /// Multi-line human-readable rendering (monitoring loops print this).
  std::string ToString() const;
  /// Single JSON object (same fields; histograms flattened).
  std::string ToJson() const;
};

/// \brief Abstract serving surface shared by the single
/// `InferenceEngine` and the sharded tier (`serve::ShardedEngine`).
/// `net::Server`, the daemon and the monitoring tools program against
/// this interface, so swapping one engine for N behind a router
/// changes none of them — the wire protocol, admin commands and
/// metrics JSON all keep their shapes.
class Engine {
 public:
  virtual ~Engine() = default;

  /// See InferenceEngine::ClassifyAsync for the full contract.
  virtual void ClassifyAsync(chain::AddressId address,
                             const ClassifyOptions& options,
                             ClassifyCallback done) = 0;

  /// Blocking single-address classification.
  virtual Result<ClassifyResult> Classify(
      chain::AddressId address, const ClassifyOptions& options = {}) = 0;

  /// Blocking multi-address classification; results align with input.
  virtual std::vector<Result<ClassifyResult>> ClassifyBatch(
      const std::vector<chain::AddressId>& addresses,
      const ClassifyOptions& options = {}) = 0;

  /// Persists the embedding cache (no-op OK when disabled).
  virtual Status SaveCache() const = 0;

  /// Entries currently cached (summed across shards).
  virtual size_t CacheSize() const = 0;

  /// Drops every cached entry (metrics keep counting).
  virtual void ClearCache() = 0;

  /// Point-in-time metrics (aggregated across shards).
  virtual InferenceMetricsSnapshot Metrics() const = 0;

  /// The admin `slowlog` payload: one JSON object
  /// {"threshold_seconds":…,"slow":[…],"recent":[…]} with up to
  /// `max_entries` timelines per ring (merged across shards).
  virtual std::string SlowlogJson(size_t max_entries) const = 0;

  /// The most recent recorded timeline carrying `trace_id`, searching
  /// the flight and slow rings (of every shard), or nullopt.
  virtual std::optional<FlightRecorder::Entry> FindTimeline(
      uint64_t trace_id) const = 0;

  /// A client (`ClassifyOptions::client_id`) went away — the net
  /// server calls this on connection close. Default no-op; the sharded
  /// tier drops the client's sweep-detector state so a recycled
  /// connection id never inherits a stale miss streak.
  virtual void ForgetClient(uint64_t client_id) { (void)client_id; }
};

/// \brief Batched, cached, instrumented classification server.
class InferenceEngine : public Engine {
 public:
  using Options = InferenceEngineOptions;

  /// Fault points of the cache-persist path (see util::FaultInjector):
  /// armed, SaveCache/warm-start fail before touching the filesystem —
  /// on top of the fs.* points inside AtomicFileWriter.
  static constexpr const char* kFaultCacheSave = "serve.cache.save";
  static constexpr const char* kFaultCacheLoad = "serve.cache.load";
  /// Batch-pipeline fault points, each consulted once per micro-batch
  /// at its stage boundary. A firing point fails every request still
  /// undecided in the batch with an explicit injected Internal error
  /// (never a hang or a wrong answer); ArmLatency on one stalls the
  /// stage, which is how chaos tests force deadlines to expire between
  /// stages.
  static constexpr const char* kFaultBatchLookup = "serve.batch.lookup";
  static constexpr const char* kFaultBatchBuild = "serve.batch.build";
  static constexpr const char* kFaultBatchAggregate =
      "serve.batch.aggregate";

  /// \brief Validating factory. Fails on null/untrained classifier,
  /// invalid engine or classifier options, or (when `cache_path` names
  /// an existing file) a cache file that is corrupt or was built under
  /// different model options. `classifier` and `ledger` must outlive
  /// the engine.
  static Result<std::unique_ptr<InferenceEngine>> Create(
      const core::BaClassifier* classifier, const chain::Ledger* ledger,
      Options options);

  /// Blocks until every in-flight request has completed and its
  /// callback returned — an engine is never destroyed out from under a
  /// pending `ClassifyAsync`.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// \brief Classifies one address, delivering the outcome to `done`
  /// (see ClassifyCallback for the invocation contract). This is the
  /// primitive the network server drives — one epoll thread keeps
  /// thousands of requests in flight without burning a thread per
  /// request — and the blocking Classify/ClassifyBatch are thin
  /// wrappers over it. Micro-batching, caching, deadlines, admission
  /// and degraded answers behave exactly as documented on Classify.
  void ClassifyAsync(chain::AddressId address, const ClassifyOptions& options,
                     ClassifyCallback done) override;

  /// \brief Classifies one address (blocking). Thread-safe; concurrent
  /// callers are micro-batched. An address with no transactions
  /// predicts class 0 without touching the models. With a deadline or
  /// under overload the call can instead return DeadlineExceeded /
  /// ResourceExhausted, or a labeled degraded answer when
  /// `options.allow_degraded` permits one (see the resilience contract
  /// above). Implemented as a wrapper over ClassifyAsync; the calling
  /// thread becomes the batch leader when none is active, so blocking
  /// callers keep their pre-async latency profile.
  Result<ClassifyResult> Classify(chain::AddressId address,
                                  const ClassifyOptions& options = {}) override;

  /// \brief Classifies many addresses through the same batching path
  /// (the whole list is enqueued before processing starts, so a single
  /// caller still gets batched execution). Results align with input;
  /// `options` applies to every request in the list.
  std::vector<Result<ClassifyResult>> ClassifyBatch(
      const std::vector<chain::AddressId>& addresses,
      const ClassifyOptions& options = {}) override;

  /// \brief Persists the cache to `options().cache_path` atomically
  /// (no-op OK when persistence is disabled). Safe to call while
  /// queries run.
  Status SaveCache() const override;

  /// Entries currently cached.
  size_t CacheSize() const override;

  /// Drops every cached entry (metrics keep counting).
  void ClearCache() override;

  InferenceMetricsSnapshot Metrics() const override;

  std::string SlowlogJson(size_t max_entries) const override;

  std::optional<FlightRecorder::Entry> FindTimeline(
      uint64_t trace_id) const override;

  /// The admission controller, or nullptr when `enable_admission` is
  /// off (monitoring loops report its state).
  const AdmissionController* admission() const { return admission_.get(); }

  /// Ring of the last `flight_recorder_capacity` request timelines —
  /// every outcome, including sheds and deadline rejections. nullptr
  /// when the capacity option is 0.
  const FlightRecorder* flight_recorder() const { return recorder_.get(); }

  /// Ring of requests that crossed `slow_request_threshold`. nullptr
  /// when slow capture is disabled (threshold 0 or no recorder).
  const FlightRecorder* slow_recorder() const {
    return slow_recorder_.get();
  }

  const Options& options() const { return options_; }

 private:
  /// An answer the engine holds for an address without further work:
  /// a cache entry, or the result its batch just built (`fresh`).
  struct Answer {
    uint64_t tx_count = 0;  ///< capped tx count it was computed at
    int predicted = 0;
    int slices_reused = 0;
    int slices_built = 0;
    bool fresh = false;
  };

  struct CacheEntry {
    /// Transaction-history length the entry was computed at (after the
    /// max_txs_per_address cap).
    uint64_t tx_count = 0;
    /// Per-slice graph embeddings, unscaled, in chronological slice
    /// order (embed_dim floats each). The first tx_count/slice_size of
    /// them cover complete — hence immutable — slices.
    std::vector<std::vector<float>> slice_embeddings;
    int predicted = 0;
    uint64_t last_used = 0;  ///< LRU tick

    Answer Held() const {
      return {tx_count, predicted, static_cast<int>(slice_embeddings.size())};
    }
  };

  /// One in-flight request. Heap-allocated at submit, owned by the
  /// engine until its callback fires (async callers hold nothing).
  struct Request {
    chain::AddressId address = chain::kInvalidAddress;
    std::chrono::steady_clock::time_point deadline{};
    bool allow_degraded = false;
    /// kNoPromote for router-flagged sweep traffic: lookups skip the
    /// LRU touch and results never insert new cache entries.
    CacheMode cache_mode = CacheMode::kNormal;
    ClassifyResult result;
    /// Non-OK when the request ended in an explicit error outcome
    /// (DeadlineExceeded, injected Internal) instead of a result.
    Status status;
    /// Completion hook; consumes the request.
    ClassifyCallback done;
    /// True when this request holds an admission slot to release.
    bool admitted = false;
    /// Submit time, for the request-latency histogram, trace span and
    /// the timeline's stamp origin.
    std::chrono::steady_clock::time_point submitted{};
    /// Stage stamps accumulated as the request crosses the pipeline
    /// (offsets from `submitted`; trace context copied from options).
    RequestTimeline tl;
    /// Lookup-stage hand-off for a request answered without building
    /// (an exact hit, or expired — `status` then holds the deadline
    /// error): read under `cache_mu_`, decided once it is released.
    bool decide_after_lookup = false;
    uint64_t live_tx_count = 0;
    std::optional<Answer> held;

    bool has_deadline() const {
      return deadline != std::chrono::steady_clock::time_point{};
    }
    bool expired(std::chrono::steady_clock::time_point now) const {
      return has_deadline() && now >= deadline;
    }
    int64_t SinceSubmitNs(std::chrono::steady_clock::time_point now) const {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 now - submitted)
          .count();
    }
  };

  InferenceEngine(const core::BaClassifier* classifier,
                  const chain::Ledger* ledger, Options options);

  /// Submit-side fast paths (validation, admission, expired-at-submit).
  /// Returns a heap request ready to enqueue, or nullptr after
  /// delivering the early outcome to `done`.
  Request* MakeRequest(chain::AddressId address,
                       const ClassifyOptions& options,
                       ClassifyCallback done);

  /// Pushes prepared requests onto the queue in one critical section
  /// (a multi-request submit is batched as a unit) and ensures a
  /// leader is running: dispatched to the worker pool when
  /// `inline_leader` is false (async submit — the caller must not
  /// block), run on the calling thread when true and no leader is
  /// active (blocking submit — keeps the pre-async latency profile and
  /// stays deadlock-free when the caller *is* a pool worker).
  void Enqueue(const std::vector<Request*>& requests, bool inline_leader);

  /// Completes one request: releases its admission slot, records
  /// request metrics, fires the callback and frees it.
  void FinishRequest(Request* req);

  /// Leader loop: drains the queue in micro-batches until empty.
  /// Entered and left with `queue_mu_` held; callbacks fire with the
  /// lock released.
  void RunLeader(std::unique_lock<std::mutex>* lock);

  /// One unit of graph work in a micro-batch: an address that missed
  /// the cache and every live request coalesced onto it.
  struct Work {
    std::vector<Request*> reqs;
    chain::AddressId address = chain::kInvalidAddress;
    uint64_t tx_count = 0;
    int reuse_slices = 0;
    int built = 0;
    /// Reused complete-slice embeddings; workers append the rebuilt
    /// tail behind them.
    std::vector<std::vector<float>> rows;
    /// The cache entry found at lookup, behind the live epoch: it
    /// answers any member whose deadline expires before the build.
    std::optional<Answer> stale;
    /// True only while every requester is router-flagged sweep
    /// traffic; one normal requester earns the result a cache slot.
    bool no_promote = true;
  };

  /// Executes one micro-batch (no queue lock held) over one pinned
  /// epoch: the three stages below, in order.
  void ProcessBatch(const std::vector<Request*>& batch);
  /// Decides empty histories, exact hits and requests expired at
  /// lookup; coalesces the rest into one Work unit per address.
  std::vector<Work> LookupStage(const chain::LedgerSnapshot& snapshot,
                                const std::vector<Request*>& batch);
  /// Re-checks deadlines at the lookup->build boundary, then builds and
  /// embeds every unit's tail slices over the pool.
  void BuildEmbedStage(const chain::LedgerSnapshot& snapshot,
                       std::vector<Work>* work);
  /// Aggregates each unit, answers its requests, refreshes the cache.
  void AggregateStage(std::vector<Work>* work);

  /// The one decision for what a request gets from an answer already
  /// `held` (a cache entry not ahead of the live capped tx count `n`,
  /// or the batch's fresh result). `why` is the error of a request
  /// that is shed or past its deadline, OK otherwise; without
  /// `allow_degraded` it is returned at once. Else, in order: the exact
  /// answer (a cache hit, or the fresh result — labeled late when `why`
  /// fails), a stale entry, the fallback hook, `why`. Fills `out` or
  /// returns the error, and counts the outcome. Runs the fallback hook:
  /// never call it holding `cache_mu_`.
  Status Decide(chain::AddressId address, uint64_t n,
                const std::optional<Answer>& held, bool allow_degraded,
                const Status& why, ClassifyResult* out);

  /// Decide for a request answered at submit (shed, or expired), over
  /// the live epoch and its cache entry (promoted unless kNoPromote).
  Result<ClassifyResult> AnswerAtSubmit(chain::AddressId address,
                                        const ClassifyOptions& options,
                                        const Status& why);

  /// Capped chronological tx count of `address` at the pinned epoch —
  /// the cache key.
  uint64_t TxCountOf(const chain::LedgerSnapshot& snapshot,
                     chain::AddressId address) const;

  /// Inserts/overwrites the entry and evicts past capacity. With
  /// `no_promote` an existing entry is refreshed in place (recency
  /// untouched) and a new address is not inserted at all — sweep
  /// traffic cannot trigger eviction. Candidate ordering for an
  /// eviction sweep runs outside `cache_mu_` so concurrent lookups
  /// never stall behind the O(size) scan's nth_element. Caller must
  /// not hold `cache_mu_`.
  void StoreEntry(chain::AddressId address, CacheEntry entry,
                  bool no_promote);

  Status LoadCacheFile(const std::string& path);

  /// One save attempt (SaveCache wraps this in `options().save_retry`).
  Status SaveCacheOnce() const;

  /// Completes a submit-side fast path (shed, expired-at-submit,
  /// unknown address) with a timeline: deliver stamp, outcome label,
  /// flight-recorder entry, then the callback. Mirrors FinishRequest
  /// for requests that never got a heap Request.
  void DeliverEarly(chain::AddressId address,
                    std::chrono::steady_clock::time_point submit,
                    const ClassifyOptions& options,
                    Result<ClassifyResult> outcome,
                    const ClassifyCallback& done);

  /// Delivery-side bookkeeping shared by FinishRequest and
  /// DeliverEarly: flight recorder, slow-ring + slowlog line, Perfetto
  /// flow event.
  void RecordDelivery(chain::AddressId address, const RequestTimeline& tl);

  /// Live backlog signal for admission: enqueued requests plus pool
  /// tasks in flight.
  int64_t Backlog() const {
    return queue_depth_.load(std::memory_order_relaxed) +
           static_cast<int64_t>(pool_->in_flight());
  }

  const core::BaClassifier* classifier_;
  const chain::Ledger* ledger_;
  Options options_;
  int slice_size_;
  int k_hops_;
  int64_t embed_dim_;
  /// Set only when the engine owns a private pool (num_threads >= 1
  /// and no injected pool); declared before pool_ so pool_ can alias it.
  std::unique_ptr<ThreadPool> owned_pool_;
  /// The pool work actually runs on: injected, shared, or owned_pool_.
  ThreadPool* pool_;

  mutable std::mutex cache_mu_;
  std::unordered_map<chain::AddressId, CacheEntry> cache_;
  uint64_t lru_tick_ = 0;

  std::mutex queue_mu_;
  /// Signals queue-drained (destructor) and leader handoff.
  std::condition_variable done_cv_;
  std::deque<Request*> queue_;
  /// Leaders currently draining (<= options_.max_batch_leaders).
  int active_leaders_ = 0;
  /// Requests submitted but not yet finished (callback not returned) —
  /// the destructor drains this to zero before tearing down.
  int64_t inflight_requests_ = 0;
  /// Mirrors queue_.size() without the lock — the admission backlog
  /// signal must be readable in nanoseconds from any thread.
  std::atomic<int64_t> queue_depth_{0};

  /// Set only with options_.enable_admission.
  std::unique_ptr<AdmissionController> admission_;

  /// Last-N timeline ring (null when flight_recorder_capacity is 0).
  std::unique_ptr<FlightRecorder> recorder_;
  /// Timelines at or past the slow threshold (null when disabled).
  std::unique_ptr<FlightRecorder> slow_recorder_;
  /// options_.slow_request_threshold in nanoseconds (0 = disabled).
  int64_t slow_threshold_ns_ = 0;

  struct Stats {
    Counter requests;
    Counter full_hits;
    Counter partial_hits;
    Counter misses;
    Counter coalesced;
    Counter empty_history;
    Counter batches;
    Counter slices_built;
    Counter slices_reused;
    Counter evictions;
    Counter shed;
    Counter deadline_exceeded;
    Counter degraded_stale;
    Counter degraded_fallback;
    Counter degraded_late;
    Counter slow_requests;
    TimeAccumulator build_seconds;
    TimeAccumulator embed_seconds;
    TimeAccumulator aggregate_seconds;
    LatencyHistogram request_latency;
    LatencyHistogram batch_latency;
  };
  mutable Stats stats_;

  /// Name this engine's snapshot provider is registered under in
  /// obs::MetricsRegistry ("serve.engine.<n>", unique per process).
  std::string registry_provider_name_;
  /// Registry gauges mirroring live load — "serve.engine.<n>.
  /// pool_backlog" / ".queue_depth" — refreshed per batch and on every
  /// Metrics() scrape.
  Gauge* backlog_gauge_ = nullptr;
  Gauge* queue_depth_gauge_ = nullptr;
};

}  // namespace ba::serve
