// Tests for the async Classify contract that the network front end
// depends on: the callback fires exactly once per submission — fast
// rejections (expired deadline, admission shed) synchronously on the
// submitting thread, real answers on a worker; concurrent async and
// blocking callers get identical answers (verified against a serial
// re-run of the inference path); and destroying the engine with
// callbacks in flight blocks until every one has fired.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chain/ledger.h"
#include "core/aggregator.h"
#include "core/classifier.h"
#include "core/gfn_features.h"
#include "core/graph_builder.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "serve/inference_engine.h"
#include "util/fs.h"
#include "util/rng.h"

namespace ba {
namespace {

using chain::AddressId;
using serve::ClassifyOptions;
using serve::ClassifyResult;
using serve::InferenceEngine;

/// Every fault-injection test must leave the global injector clean.
class FaultGuard {
 public:
  FaultGuard() { util::FaultInjector::Instance().DisarmAll(); }
  ~FaultGuard() { util::FaultInjector::Instance().DisarmAll(); }
};

class AsyncClassifyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 23;
    config.num_blocks = 60;
    config.num_retail_users = 20;
    config.miners_per_pool = 8;
    config.gamblers_per_house = 4;
    simulator_ = new datagen::Simulator(config);
    ASSERT_TRUE(simulator_->Run().ok());

    auto labeled = simulator_->CollectLabeledAddresses(3);
    Rng rng(1);
    const auto split = datagen::StratifiedSplit(labeled, 0.8, &rng);
    ASSERT_GE(split.test.size(), 6u);
    watched_ = new std::vector<datagen::LabeledAddress>(split.test);

    core::BaClassifier::Options opts;
    opts.dataset.construction.slice_size = 20;
    opts.graph_model.epochs = 2;
    opts.graph_model.embed_dim = 16;
    opts.graph_model.hidden_dim = 32;
    opts.aggregator.epochs = 4;
    auto created = core::BaClassifier::Create(opts);
    ASSERT_TRUE(created.ok()) << created.status().message();
    classifier_ = created.value().release();
    ASSERT_TRUE(classifier_->Train(simulator_->ledger(), split.train).ok());
  }

  static void TearDownTestSuite() {
    delete classifier_;
    delete simulator_;
    delete watched_;
    classifier_ = nullptr;
    simulator_ = nullptr;
    watched_ = nullptr;
  }

  static std::unique_ptr<InferenceEngine> MakeEngine(
      serve::InferenceEngineOptions options = {}, int num_threads = 2) {
    options.num_threads = num_threads;
    auto engine = InferenceEngine::Create(
        classifier_, &simulator_->ledger(), std::move(options));
    EXPECT_TRUE(engine.ok()) << engine.status().message();
    return std::move(engine.value());
  }

  /// Serial re-run of the inference path at the epoch where `address`
  /// had exactly `tx_count` (capped) transactions — the ground truth
  /// every batched/cached/async answer must agree with.
  static int PredictAtEpoch(AddressId address, uint64_t tx_count) {
    if (tx_count == 0) return 0;
    const chain::Ledger& ledger = simulator_->ledger();
    const std::vector<chain::TxId> full = ledger.TransactionsOf(address);
    EXPECT_LE(tx_count, full.size());
    const chain::LedgerSnapshot snap =
        ledger.SnapshotAt(full[static_cast<size_t>(tx_count) - 1] + 1);
    core::GraphConstructor ctor(
        classifier_->options().dataset.construction);
    const std::vector<core::AddressGraph> graphs =
        ctor.BuildGraphs(snap, address);
    if (graphs.empty()) return 0;
    const core::GraphModel& model = classifier_->graph_model();
    const int64_t embed_dim = model.embed_dim();
    std::vector<core::EmbeddingSequence> seqs(1);
    seqs[0].embeddings =
        tensor::Tensor({static_cast<int64_t>(graphs.size()), embed_dim});
    for (size_t g = 0; g < graphs.size(); ++g) {
      const core::GraphTensors gt = core::PrepareGraphTensors(
          graphs[g], classifier_->options().dataset.k_hops);
      const tensor::Tensor e = model.Embed(gt);
      for (int64_t j = 0; j < embed_dim; ++j) {
        seqs[0].embeddings.at(static_cast<int64_t>(g), j) = e.at(0, j);
      }
    }
    classifier_->scaler().Apply(&seqs);
    return classifier_->aggregator().Predict(seqs[0].embeddings);
  }

  static datagen::Simulator* simulator_;
  static std::vector<datagen::LabeledAddress>* watched_;
  static core::BaClassifier* classifier_;
};

datagen::Simulator* AsyncClassifyTest::simulator_ = nullptr;
std::vector<datagen::LabeledAddress>* AsyncClassifyTest::watched_ = nullptr;
core::BaClassifier* AsyncClassifyTest::classifier_ = nullptr;

TEST_F(AsyncClassifyTest, ExpiredDeadlineFiresCallbackSynchronously) {
  auto engine = MakeEngine();
  ClassifyOptions options;
  options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);

  const std::thread::id submitter = std::this_thread::get_id();
  std::atomic<int> fired{0};
  engine->ClassifyAsync(
      (*watched_)[0].address, options,
      [&](Result<ClassifyResult> outcome,
          const serve::RequestTimeline& tl) {
        // Fast-path rejection: delivered on the submitting thread,
        // before ClassifyAsync returns.
        EXPECT_EQ(std::this_thread::get_id(), submitter);
        ASSERT_FALSE(outcome.ok());
        EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
        // Error outcomes still deliver a timeline — the callback arg
        // is the only channel (a Status carries none).
        EXPECT_EQ(tl.outcome, serve::RequestOutcome::kDeadline);
        EXPECT_TRUE(tl.Monotone()) << tl.ToJson();
        fired.fetch_add(1);
      });
  EXPECT_EQ(fired.load(), 1) << "callback did not fire synchronously";
}

TEST_F(AsyncClassifyTest, UnknownAddressFiresCallbackWithInvalidArgument) {
  auto engine = MakeEngine();
  std::atomic<int> fired{0};
  engine->ClassifyAsync(
      simulator_->ledger().num_addresses() + 99, {},
      [&](Result<ClassifyResult> outcome,
          const serve::RequestTimeline& tl) {
        ASSERT_FALSE(outcome.ok());
        EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(tl.outcome, serve::RequestOutcome::kError);
        EXPECT_TRUE(tl.Monotone()) << tl.ToJson();
        fired.fetch_add(1);
      });
  EXPECT_EQ(fired.load(), 1);
}

TEST_F(AsyncClassifyTest, ShedRequestsFireCallbackWithResourceExhausted) {
  FaultGuard guard;
  serve::InferenceEngineOptions options;
  options.enable_admission = true;
  options.admission.max_inflight = 64;
  options.admission.high_watermark = 3;
  options.admission.low_watermark = 1;
  auto engine = MakeEngine(std::move(options));
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.02);

  constexpr int kBurst = 48;
  std::mutex mu;
  std::condition_variable cv;
  int fired = 0;
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    engine->ClassifyAsync(
        (*watched_)[static_cast<size_t>(i) % watched_->size()].address, {},
        [&](Result<ClassifyResult> outcome,
            const serve::RequestTimeline& tl) {
          std::lock_guard<std::mutex> lock(mu);
          EXPECT_TRUE(tl.Monotone()) << tl.ToJson();
          if (outcome.ok()) {
            // The timeline's outcome label always matches what was
            // delivered — including on the inline shed fast path.
            EXPECT_EQ(tl.outcome, outcome.value().degraded
                                      ? serve::RequestOutcome::kDegraded
                                      : serve::RequestOutcome::kOk);
            EXPECT_EQ(outcome.value().timeline.outcome, tl.outcome);
            ++ok;
          } else {
            EXPECT_EQ(outcome.status().code(),
                      StatusCode::kResourceExhausted)
                << outcome.status().message();
            EXPECT_EQ(tl.outcome, serve::RequestOutcome::kShed);
            ++shed;
          }
          ++fired;
          cv.notify_all();
        });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                          [&] { return fired == kBurst; }))
      << fired << " of " << kBurst << " callbacks fired";
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0) << "burst never tripped the watermark";
}

TEST_F(AsyncClassifyTest, AsyncAndBlockingCallersAgreeWithSerialRerun) {
  auto engine = MakeEngine();
  const size_t n = std::min<size_t>(watched_->size(), 6);

  // Half the addresses async, half blocking, all concurrent — every
  // answer must match the serial re-run at its own pinned epoch.
  std::mutex mu;
  std::condition_variable cv;
  size_t async_done = 0;
  std::vector<Result<ClassifyResult>> async_results;
  async_results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    async_results.emplace_back(Status::Internal("not yet delivered"));
  }
  std::vector<Result<ClassifyResult>> blocking_results;

  std::thread blocker([&] {
    for (size_t i = 0; i < n; ++i) {
      blocking_results.push_back(engine->Classify((*watched_)[i].address));
    }
  });
  for (size_t i = 0; i < n; ++i) {
    engine->ClassifyAsync((*watched_)[i].address, {},
                          [&, i](Result<ClassifyResult> outcome,
                                 const serve::RequestTimeline&) {
                            std::lock_guard<std::mutex> lock(mu);
                            async_results[i] = std::move(outcome);
                            ++async_done;
                            cv.notify_all();
                          });
  }
  blocker.join();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(120),
                            [&] { return async_done == n; }));
  }

  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(async_results[i].ok())
        << async_results[i].status().message();
    ASSERT_TRUE(blocking_results[i].ok())
        << blocking_results[i].status().message();
    const auto& a = async_results[i].value();
    const auto& b = blocking_results[i].value();
    const AddressId address = (*watched_)[i].address;
    EXPECT_EQ(a.predicted, PredictAtEpoch(address, a.tx_count))
        << "async answer diverged from serial re-run, address " << address;
    EXPECT_EQ(b.predicted, PredictAtEpoch(address, b.tx_count))
        << "blocking answer diverged from serial re-run, address "
        << address;
  }
}

TEST_F(AsyncClassifyTest, AsyncColdBurstIsIdenticalAcrossPoolSizes) {
  // Every labeled address, training ones included, is cold to a fresh
  // engine. A burst of async submits makes the batch leader a pool
  // task, so its cold batches fan out with the leader taking work units
  // itself — whatever the pool size, answers and cached slice
  // embeddings must be bit-identical.
  const std::vector<datagen::LabeledAddress> labeled =
      simulator_->CollectLabeledAddresses(3);
  const size_t n = std::min<size_t>(labeled.size(), 40);
  ASSERT_GE(n, 32u);
  const chain::Ledger& ledger = simulator_->ledger();
  std::vector<int> truth(n);
  for (size_t i = 0; i < n; ++i) {
    truth[i] = PredictAtEpoch(labeled[i].address,
                              ledger.TxCountOf(labeled[i].address));
  }

  std::string reference_cache;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    const std::string cache_path = ::testing::TempDir() +
                                   "ba_async_cold_burst_" +
                                   std::to_string(threads);
    std::remove(cache_path.c_str());
    serve::InferenceEngineOptions options;
    options.cache_path = cache_path;
    auto engine = MakeEngine(options, threads);

    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
    std::vector<Result<ClassifyResult>> results(
        n, Result<ClassifyResult>(Status::Internal("not yet delivered")));
    for (size_t i = 0; i < n; ++i) {
      engine->ClassifyAsync(labeled[i].address, {},
                            [&, i](Result<ClassifyResult> outcome,
                                   const serve::RequestTimeline&) {
                              std::lock_guard<std::mutex> lock(mu);
                              results[i] = std::move(outcome);
                              ++done;
                              cv.notify_all();
                            });
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(120),
                              [&] { return done == n; }));
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().message();
      EXPECT_FALSE(results[i].value().cache_hit);
      EXPECT_EQ(results[i].value().predicted, truth[i])
          << "address " << labeled[i].address;
    }

    ASSERT_TRUE(engine->SaveCache().ok());
    auto bytes = util::ReadFileToString(cache_path);
    std::remove(cache_path.c_str());
    ASSERT_TRUE(bytes.ok()) << bytes.status().message();
    if (reference_cache.empty()) {
      reference_cache = bytes.value();
    } else {
      EXPECT_TRUE(bytes.value() == reference_cache)
          << "cached slice embeddings differ from the 1-thread pool";
    }
  }
}

TEST_F(AsyncClassifyTest, ColdBatchesAggregateConcurrentlyOnTwoWorkers) {
  // Two workers, all-miss traffic from an async burst and a blocking
  // batch at once: build+embed and the aggregate's Predict calls run
  // concurrently on both workers (under TSan via check.sh thread), and
  // every answer must still equal the serial re-run.
  const std::vector<datagen::LabeledAddress> labeled =
      simulator_->CollectLabeledAddresses(3);
  const size_t n = std::min<size_t>(labeled.size(), 40);
  ASSERT_GE(n, 32u);
  auto engine = MakeEngine({}, /*num_threads=*/2);

  std::vector<AddressId> blocking_addresses;
  for (size_t i = n / 2; i < n; ++i) {
    blocking_addresses.push_back(labeled[i].address);
  }
  std::vector<Result<ClassifyResult>> blocking_results;
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  std::vector<Result<ClassifyResult>> async_results(
      n / 2, Result<ClassifyResult>(Status::Internal("not yet delivered")));
  std::thread blocker(
      [&] { blocking_results = engine->ClassifyBatch(blocking_addresses); });
  for (size_t i = 0; i < n / 2; ++i) {
    engine->ClassifyAsync(labeled[i].address, {},
                          [&, i](Result<ClassifyResult> outcome,
                                 const serve::RequestTimeline&) {
                            std::lock_guard<std::mutex> lock(mu);
                            async_results[i] = std::move(outcome);
                            ++done;
                            cv.notify_all();
                          });
  }
  blocker.join();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(120),
                            [&] { return done == n / 2; }));
  }

  ASSERT_EQ(blocking_results.size(), blocking_addresses.size());
  for (size_t i = 0; i < n; ++i) {
    const Result<ClassifyResult>& r =
        i < n / 2 ? async_results[i] : blocking_results[i - n / 2];
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().predicted,
              PredictAtEpoch(labeled[i].address, r.value().tx_count))
        << "address " << labeled[i].address;
  }
  // Cold batches held several units each, so Predict did fan out.
  const serve::InferenceMetricsSnapshot m = engine->Metrics();
  EXPECT_EQ(m.misses, n);
  EXPECT_LT(m.batches, n);
}

TEST_F(AsyncClassifyTest, DestructionDrainsCallbacksInFlight) {
  FaultGuard guard;
  std::atomic<int> fired{0};
  constexpr int kInflight = 6;
  {
    auto engine = MakeEngine();
    // Slow the pipeline so the engine dies with work genuinely queued.
    util::FaultInjector::Instance().ArmLatency(
        InferenceEngine::kFaultBatchBuild, 0.01);
    for (int i = 0; i < kInflight; ++i) {
      engine->ClassifyAsync(
          (*watched_)[static_cast<size_t>(i) % watched_->size()].address,
          {}, [&](Result<ClassifyResult>, const serve::RequestTimeline&) {
            fired.fetch_add(1);
          });
    }
    // ~InferenceEngine blocks until every callback has fired.
  }
  EXPECT_EQ(fired.load(), kInflight);
}

}  // namespace
}  // namespace ba
