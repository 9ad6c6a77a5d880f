#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ba {

namespace {

/// Process-wide instruments shared by every pool (several engines may
/// each own one); Add(+1)/Add(-1) pairs keep the aggregate depth right.
/// Pointers are cached once — instruments live forever.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Instance().GetGauge(
      "util.thread_pool.queue_depth");
  return gauge;
}

obs::Counter* TasksCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Instance().GetCounter("util.thread_pool.tasks");
  return counter;
}

/// The pool whose WorkerLoop owns the calling thread (null elsewhere),
/// so nested parallel regions can detect they are already running on
/// pool capacity — and on which pool.
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  BA_CHECK_GE(num_threads, 1u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

bool ThreadPool::Submit(std::function<void()> task) {
  PendingTask pending;
  pending.fn = std::move(task);
  if (obs::Tracer::Instance().enabled()) {
    pending.enqueue_ns = obs::Tracer::NowNs();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return false;
    tasks_.push(std::move(pending));
    ++in_flight_;
  }
  QueueDepthGauge()->Add(1);
  TasksCounter()->Increment();
  task_available_.notify_one();
  return true;
}

size_t ThreadPool::in_flight() const {
  std::unique_lock<std::mutex> lock(mu_);
  return in_flight_;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::InWorkerThread() { return t_worker_of != nullptr; }

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  // Iterations are claimed one at a time from a shared counter, so a
  // slow iteration never strands a pre-assigned chunk behind it. The
  // state is heap-shared with the helper tasks: a helper that is still
  // queued when the call returns finds the counter exhausted, never
  // dereferences `body`, and only then drops its reference.
  struct State {
    std::atomic<size_t> next{0};
    size_t n = 0;
    const std::function<void(size_t)>* body = nullptr;
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
  };
  auto state = std::make_shared<State>();
  state->n = n;
  state->body = &body;
  auto drain = [](State& s) {
    size_t ran = 0;
    for (;;) {
      const size_t i = s.next.fetch_add(1);
      if (i >= s.n) break;
      (*s.body)(i);
      ++ran;
    }
    if (ran == 0) return;
    std::unique_lock<std::mutex> lock(s.mu);
    s.done += ran;
    if (s.done == s.n) s.cv.notify_all();
  };

  // A worker caller takes iterations itself and so needs one helper
  // fewer. It drains the counter before waiting, so it only ever waits
  // on iterations already running on other threads — never on a task
  // queued behind it — and a nested call cannot deadlock. A worker of
  // this pool occupies one of its workers, so a helper beyond the
  // others could only start once the call is over. An external caller
  // only waits, keeping bodies on pool workers.
  const bool caller_helps = t_worker_of != nullptr;
  const size_t free_workers =
      t_worker_of == this ? workers_.size() - 1 : workers_.size();
  const size_t helpers = std::min(caller_helps ? n - 1 : n, free_workers);
  size_t accepted = 0;
  for (size_t h = 0; h < helpers; ++h) {
    if (!Submit([state, drain] { drain(*state); })) break;
    ++accepted;
  }
  // A shut-down pool accepts no helper: the caller runs every iteration.
  if (caller_helps || accepted == 0) drain(*state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state] { return state->done == state->n; });
}

void ThreadPool::WorkerLoop() {
  obs::Tracer::Instance().SetCurrentThreadName("ba.pool.worker");
  t_worker_of = this;
  for (;;) {
    PendingTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    QueueDepthGauge()->Add(-1);
    obs::Tracer& tracer = obs::Tracer::Instance();
    if (task.enqueue_ns >= 0 && tracer.enabled()) {
      // The wait span lands on the worker's track, abutting the task
      // span that follows — queueing delay reads straight off the
      // timeline.
      tracer.RecordComplete("util.thread_pool.wait", task.enqueue_ns,
                            obs::Tracer::NowNs() - task.enqueue_ns);
    }
    {
      BA_TRACE_SPAN("util.thread_pool.task");
      task.fn();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

namespace util {

namespace {

std::mutex g_shared_pool_mu;
ThreadPool* g_shared_pool = nullptr;      // leaked singleton, LSan-reachable
size_t g_shared_pool_override = 0;        // 0 = no override

size_t DefaultSharedPoolThreads() {
  if (const char* env = std::getenv("BA_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return static_cast<size_t>(parsed);
    }
    BA_LOG(Warn, "util.thread_pool")
        << "ignoring unparseable BA_THREADS=\"" << env << "\"";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

}  // namespace

bool SetSharedPoolThreads(size_t num_threads) {
  if (num_threads < 1) return false;
  std::unique_lock<std::mutex> lock(g_shared_pool_mu);
  if (g_shared_pool != nullptr) return false;  // already materialized
  g_shared_pool_override = num_threads;
  return true;
}

size_t SharedPoolThreads() {
  std::unique_lock<std::mutex> lock(g_shared_pool_mu);
  if (g_shared_pool != nullptr) return g_shared_pool->num_threads();
  if (g_shared_pool_override >= 1) return g_shared_pool_override;
  return DefaultSharedPoolThreads();
}

ThreadPool& SharedPool() {
  std::unique_lock<std::mutex> lock(g_shared_pool_mu);
  if (g_shared_pool == nullptr) {
    const size_t n = g_shared_pool_override >= 1 ? g_shared_pool_override
                                                 : DefaultSharedPoolThreads();
    // Leaked deliberately (like Tracer / MetricsRegistry): workers must
    // outlive every static-destruction-order client, and the pointer
    // stays reachable so LSan is quiet.
    g_shared_pool = new ThreadPool(n);
  }
  return *g_shared_pool;
}

}  // namespace util

}  // namespace ba
