// Unit tests for src/util: Status/Result, Rng, Stopwatch, ThreadPool,
// TablePrinter, CliFlags.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/cli.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace ba {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("over budget").ToString(),
            "ResourceExhausted: over budget");
  EXPECT_EQ(Status::DeadlineExceeded("too late").ToString(),
            "DeadlineExceeded: too late");
}

TEST(RetryTest, DefaultPolicyRunsExactlyOnce) {
  int calls = 0;
  const Status st = util::RetryWithBackoff(
      util::RetryPolicy{}, "op", [&] {
        ++calls;
        return Status::Internal("transient");
      });
  EXPECT_EQ(calls, 1);
  // Fail-fast default: the status comes back verbatim, unannotated.
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(st.message(), "transient");
}

TEST(RetryTest, RetriesTransientFailuresUntilSuccess) {
  util::RetryPolicy policy = util::RetryPolicy::Standard(5);
  policy.initial_backoff_seconds = 1e-4;
  policy.max_backoff_seconds = 1e-3;
  int calls = 0;
  const Status st = util::RetryWithBackoff(policy, "op", [&] {
    return ++calls < 3 ? Status::ResourceExhausted("busy") : Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, NonRetryableFailureReturnsImmediately) {
  util::RetryPolicy policy = util::RetryPolicy::Standard(5);
  int calls = 0;
  const Status st = util::RetryWithBackoff(policy, "op", [&] {
    ++calls;
    return Status::InvalidArgument("permanent");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "permanent");
}

TEST(RetryTest, ExhaustedBudgetAnnotatesLastError) {
  util::RetryPolicy policy = util::RetryPolicy::Standard(3);
  policy.initial_backoff_seconds = 1e-5;
  policy.max_backoff_seconds = 1e-4;
  int calls = 0;
  const Status st = util::RetryWithBackoff(policy, "flaky save", [&] {
    ++calls;
    return Status::Internal("disk full");
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("flaky save"), std::string::npos);
  EXPECT_NE(st.message().find("disk full"), std::string::npos);
  EXPECT_NE(st.message().find("max_attempts=3"), std::string::npos);
}

TEST(RetryTest, DeadlineAbandonsRemainingAttempts) {
  util::RetryPolicy policy = util::RetryPolicy::Standard(100);
  policy.initial_backoff_seconds = 0.02;
  policy.max_backoff_seconds = 0.02;
  policy.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  int calls = 0;
  const Status st = util::RetryWithBackoff(policy, "op", [&] {
    ++calls;
    return Status::Internal("down");
  });
  EXPECT_FALSE(st.ok());
  // Far fewer than 100 attempts: a backoff sleep that would land past
  // the deadline abandons the loop instead.
  EXPECT_LT(calls, 10);
  EXPECT_NE(st.message().find("deadline reached"), std::string::npos);
}

TEST(RetryTest, ValidateRejectsBadPolicies) {
  util::RetryPolicy policy;
  policy.max_attempts = 0;
  EXPECT_EQ(util::RetryWithBackoff(policy, "op", [] {
              return Status::OK();
            }).code(),
            StatusCode::kInvalidArgument);
  policy = util::RetryPolicy{};
  policy.initial_backoff_seconds = -1.0;
  EXPECT_FALSE(policy.Validate().ok());
  policy = util::RetryPolicy{};
  policy.max_backoff_seconds = policy.initial_backoff_seconds / 2.0;
  EXPECT_FALSE(policy.Validate().ok());
  EXPECT_TRUE(util::RetryPolicy::Standard().Validate().ok());
}

TEST(RetryTest, ClassifiesRetryableStatuses) {
  EXPECT_TRUE(util::IsRetryableStatus(Status::Internal("io")));
  EXPECT_TRUE(
      util::IsRetryableStatus(Status::ResourceExhausted("backpressure")));
  EXPECT_FALSE(util::IsRetryableStatus(Status::OK()));
  EXPECT_FALSE(util::IsRetryableStatus(Status::InvalidArgument("bad")));
  EXPECT_FALSE(util::IsRetryableStatus(Status::NotFound("gone")));
  EXPECT_FALSE(
      util::IsRetryableStatus(Status::DeadlineExceeded("expired")));
}

Status FailIfNegative(int v) {
  if (v < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Propagates(int v) {
  BA_RETURN_NOT_OK(FailIfNegative(v));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(Propagates(1).ok());
  EXPECT_FALSE(Propagates(-1).ok());
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::OutOfRange("not positive");
  return v;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 5);
  EXPECT_EQ(*good, 5);

  Result<int> bad = ParsePositive(0);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(bad.ValueOr(-7), -7);
}

Result<int> Doubled(int v) {
  BA_ASSIGN_OR_RETURN(int x, ParsePositive(v));
  return 2 * x;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  ASSERT_TRUE(Doubled(3).ok());
  EXPECT_EQ(Doubled(3).value(), 6);
  EXPECT_FALSE(Doubled(-3).ok());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
  for (int i = 0; i < 100; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(42);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(5);
  for (double mean : {0.5, 3.0, 20.0, 100.0}) {
    double total = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) total += static_cast<double>(rng.Poisson(mean));
    EXPECT_NEAR(total / n, mean, mean * 0.08 + 0.05) << "mean=" << mean;
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(9);
  double total = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) total += rng.Exponential(2.0);
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(RngTest, ZipfFavorsSmallIndices) {
  Rng rng(3);
  int first = 0, last = 0;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.Zipf(100, 1.2);
    EXPECT_LT(v, 100u);
    if (v == 0) ++first;
    if (v == 99) ++last;
  }
  EXPECT_GT(first, 20 * std::max(last, 1));
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> w{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(99);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(StopwatchTest, AccumulatesAcrossIntervals) {
  Stopwatch w;
  w.Start();
  w.Stop();
  const int64_t first = w.ElapsedNanos();
  EXPECT_GE(first, 0);
  w.Start();
  w.Stop();
  EXPECT_GE(w.ElapsedNanos(), first);
  w.Reset();
  EXPECT_EQ(w.ElapsedNanos(), 0);
}

TEST(StopwatchTest, ScopedTimerAccumulates) {
  Stopwatch w;
  {
    ScopedTimer t(&w);
    volatile int sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  EXPECT_GT(w.ElapsedNanos(), 0);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  pool.Shutdown();  // drains the pending task, then joins
  EXPECT_EQ(counter.load(), 1);
  EXPECT_FALSE(pool.Submit([&counter] { counter.fetch_add(1); }));
  EXPECT_EQ(counter.load(), 1);
  pool.Shutdown();  // idempotent
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, ParallelForRunsInlineAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::vector<int> hits(10, 0);  // plain ints: iterations run inline
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

/// A count-down latch whose Wait gives up after a generous safety
/// timeout, so a pool that fails to run work concurrently fails the
/// test instead of hanging it. Wait returns false on timeout.
class Latch {
 public:
  explicit Latch(int count) : count_(count) {}
  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--count_ <= 0) cv_.notify_all();
  }
  bool Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [this] { return count_ <= 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_;
};

TEST(ThreadPoolTest, NestedParallelForFromWorkerRunsOnTwoThreads) {
  ThreadPool pool(2);
  // Each iteration waits until both have started: only a second thread
  // taking an iteration alongside the calling worker can release them.
  Latch both_started(2);
  Latch finished(1);
  std::atomic<int> released{0};
  std::mutex ids_mu;
  std::set<std::thread::id> ids;
  ASSERT_TRUE(pool.Submit([&] {
    pool.ParallelFor(2, [&](size_t) {
      {
        std::lock_guard<std::mutex> lock(ids_mu);
        ids.insert(std::this_thread::get_id());
      }
      both_started.CountDown();
      if (both_started.Wait()) released.fetch_add(1);
    });
    finished.CountDown();
  }));
  ASSERT_TRUE(finished.Wait());
  EXPECT_EQ(released.load(), 2);
  EXPECT_EQ(ids.size(), 2u);
}

TEST(ThreadPoolTest, WorkerCallerReturnsWhileHelperQueuedBehindBlockedWorker) {
  ThreadPool pool(2);
  Latch blocker_running(1);
  Latch unblock(1);
  Latch caller_done(1);
  ASSERT_TRUE(pool.Submit([&] {
    blocker_running.CountDown();
    unblock.Wait();
  }));
  ASSERT_TRUE(blocker_running.Wait());
  std::atomic<int> runs{0};
  size_t backlog_at_return = 0;
  ASSERT_TRUE(pool.Submit([&] {
    {
      const std::function<void(size_t)> body = [&runs](size_t) {
        runs.fetch_add(1);
      };
      pool.ParallelFor(3, body);
    }  // `body` is gone: a late helper that touched it would trip ASan.
    backlog_at_return = pool.in_flight();
    caller_done.CountDown();
  }));
  ASSERT_TRUE(caller_done.Wait());
  // The other worker is blocked, so the caller ran all three iterations
  // itself and returned with its one helper (a worker of a 2-thread
  // pool gets at most one) still queued: blocker + this task + helper.
  EXPECT_EQ(backlog_at_return, 3u);
  EXPECT_EQ(runs.load(), 3);
  unblock.CountDown();
  pool.Wait();  // the late helper has now run — and done nothing
  EXPECT_EQ(runs.load(), 3);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  constexpr size_t kOuter = 3;
  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (size_t n : {1u, 2u, 7u, 257u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " n=" + std::to_string(n));
      std::vector<std::atomic<int>> flat(n);
      pool.ParallelFor(n, [&](size_t i) { flat[i].fetch_add(1); });
      for (auto& h : flat) EXPECT_EQ(h.load(), 1);

      // Nested: every outer iteration (on a worker) runs a full inner
      // loop on the same pool.
      std::vector<std::atomic<int>> nested(kOuter * n);
      pool.ParallelFor(kOuter, [&](size_t o) {
        pool.ParallelFor(n, [&](size_t i) { nested[o * n + i].fetch_add(1); });
      });
      for (auto& h : nested) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadPoolTest, ShutDownPoolRunsEveryIterationOnTheCaller) {
  ThreadPool dead(2);
  dead.Shutdown();
  auto run_on_dead = [&dead](int* runs, int* off_caller) {
    const std::thread::id caller = std::this_thread::get_id();
    dead.ParallelFor(7, [&](size_t) {
      ++*runs;
      if (std::this_thread::get_id() != caller) ++*off_caller;
    });
  };
  int runs = 0;
  int off_caller = 0;
  run_on_dead(&runs, &off_caller);
  EXPECT_EQ(runs, 7);
  EXPECT_EQ(off_caller, 0);

  // Same from a worker of another pool (the helping-caller path).
  ThreadPool live(1);
  Latch done(1);
  int worker_runs = 0;
  int worker_off_caller = 0;
  ASSERT_TRUE(live.Submit([&] {
    run_on_dead(&worker_runs, &worker_off_caller);
    done.CountDown();
  }));
  ASSERT_TRUE(done.Wait());
  EXPECT_EQ(worker_runs, 7);
  EXPECT_EQ(worker_off_caller, 0);
}

TEST(TablePrinterTest, RendersAlignedRows) {
  TablePrinter t({"Model", "F1"});
  t.AddRow({"GFN", "0.9769"});
  t.AddRow({"GCN", "0.9514"});
  std::ostringstream os;
  t.Print(os, "Table II");
  const std::string out = os.str();
  EXPECT_NE(out.find("Table II"), std::string::npos);
  EXPECT_NE(out.find("GFN"), std::string::npos);
  EXPECT_NE(out.find("0.9514"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsFixedPrecision) {
  EXPECT_EQ(TablePrinter::Num(0.97693, 4), "0.9769");
  EXPECT_EQ(TablePrinter::Num(1.0, 2), "1.00");
}

TEST(TablePrinterTest, CountAddsThousandsSeparators) {
  EXPECT_EQ(TablePrinter::Count(912322), "912,322");
  EXPECT_EQ(TablePrinter::Count(133), "133");
  EXPECT_EQ(TablePrinter::Count(2138657), "2,138,657");
  EXPECT_EQ(TablePrinter::Count(-1500), "-1,500");
}

TEST(CliFlagsTest, ParsesFormsAndDefaults) {
  const char* argv[] = {"prog",     "--addresses", "500",  "--seed=9",
                        "--verbose", "--rate",      "0.25"};
  CliFlags flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("addresses", 0), 500);
  EXPECT_EQ(flags.GetInt("seed", 0), 9);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 0.25);
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
}

/// Restores the process-wide logger configuration on scope exit.
class LogConfigGuard {
 public:
  LogConfigGuard() : level_(util::log::MinLevel()) {}
  ~LogConfigGuard() {
    util::log::SetMinLevel(level_);
    util::log::SetModuleFilter("");
  }

 private:
  util::log::Level level_;
};

TEST(LoggingTest, ParseLevelAcceptsNamesAndFallsBack) {
  using util::log::Level;
  using util::log::ParseLevel;
  EXPECT_EQ(ParseLevel("debug", Level::kOff), Level::kDebug);
  EXPECT_EQ(ParseLevel("INFO", Level::kOff), Level::kInfo);
  EXPECT_EQ(ParseLevel("Warn", Level::kOff), Level::kWarn);
  EXPECT_EQ(ParseLevel("warning", Level::kOff), Level::kWarn);
  EXPECT_EQ(ParseLevel("error", Level::kOff), Level::kError);
  EXPECT_EQ(ParseLevel("off", Level::kDebug), Level::kOff);
  EXPECT_EQ(ParseLevel("bogus", Level::kInfo), Level::kInfo);
}

TEST(LoggingTest, MinLevelGatesShouldLog) {
  LogConfigGuard guard;
  using util::log::Level;
  util::log::SetMinLevel(Level::kWarn);
  EXPECT_FALSE(util::log::ShouldLog(Level::kDebug, "test"));
  EXPECT_FALSE(util::log::ShouldLog(Level::kInfo, "test"));
  EXPECT_TRUE(util::log::ShouldLog(Level::kWarn, "test"));
  EXPECT_TRUE(util::log::ShouldLog(Level::kError, "test"));
  util::log::SetMinLevel(Level::kOff);
  EXPECT_FALSE(util::log::ShouldLog(Level::kError, "test"));
}

TEST(LoggingTest, ModuleFilterMatchesPrefixes) {
  LogConfigGuard guard;
  using util::log::Level;
  util::log::SetMinLevel(Level::kDebug);
  util::log::SetModuleFilter("core.train, obs");
  EXPECT_TRUE(util::log::ShouldLog(Level::kInfo, "core.train"));
  EXPECT_TRUE(util::log::ShouldLog(Level::kInfo, "core.train.epoch"));
  EXPECT_TRUE(util::log::ShouldLog(Level::kInfo, "obs.trace"));
  EXPECT_FALSE(util::log::ShouldLog(Level::kInfo, "serve"));
  util::log::SetModuleFilter("");
  EXPECT_TRUE(util::log::ShouldLog(Level::kInfo, "serve"));
}

TEST(LoggingTest, FilteredStatementSkipsOperandEvaluation) {
  LogConfigGuard guard;
  util::log::SetMinLevel(util::log::Level::kError);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return 42;
  };
  BA_LOG(Debug, "test") << "value " << expensive();
  EXPECT_EQ(evaluations, 0);
  BA_LOG(Error, "test") << "value " << expensive();
  EXPECT_EQ(evaluations, 1);
}

}  // namespace
}  // namespace ba
