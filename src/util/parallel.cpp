#include "util/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace cool::util {

namespace {

// True on a pool worker, and on a caller while it drains its own batch: a
// parallel_chunks call from inside any task runs inline.
thread_local bool t_in_batch = false;

std::size_t env_thread_count() {
  const char* env = std::getenv("COOL_THREADS");
  if (env == nullptr || *env == '\0') return hardware_threads();
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || parsed <= 0) return hardware_threads();
  return static_cast<std::size_t>(parsed);
}

// Requested count; 0 means "resolve from COOL_THREADS / hardware".
std::atomic<std::size_t> g_requested{0};

// Workers that, together with the calling thread, claim task indices from
// one shared counter. run() publishes a batch under `mutex_` and bumps the
// epoch; a worker joins by reading the job and the count under the mutex
// and counting itself in `active_`. The caller drains beside the workers,
// then waits until no worker is still inside the batch, so no straggler
// claims an index of the next batch through this batch's dead job.
class Pool {
 public:
  explicit Pool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      threads_.emplace_back([this] { worker_loop(); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (auto& thread : threads_) thread.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  std::size_t worker_count() const noexcept { return threads_.size(); }

  void run(std::size_t count, FunctionRef<void(std::size_t)> job) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      count_ = count;
      next_.store(0);
      first_error_ = nullptr;
      ++epoch_;
    }
    job_cv_.notify_all();
    t_in_batch = true;
    drain(job, count);
    t_in_batch = false;
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] { return active_ == 0; });
      job_ = nullptr;
      error = first_error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  // Runs claimed indices until the shared counter passes `count`. A task
  // that throws records the first exception; the drain goes on.
  void drain(FunctionRef<void(std::size_t)> job, std::size_t count) {
    for (std::size_t i = next_.fetch_add(1); i < count; i = next_.fetch_add(1)) {
      try {
        job(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
  }

  void worker_loop() {
    t_in_batch = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      job_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      // Woke after that batch had returned, or after every index was
      // claimed: joining would only make the caller wait for this worker.
      if (job_ == nullptr || next_.load() >= count_) continue;
      const FunctionRef<void(std::size_t)> job = *job_;
      const std::size_t count = count_;
      ++active_;
      lock.unlock();
      drain(job, count);
      lock.lock();
      if (--active_ == 0) done_cv_.notify_all();
    }
  }

  // Batch hand-off state, guarded by `mutex_`.
  std::mutex mutex_;
  std::condition_variable job_cv_;   // workers wait for a new epoch
  std::condition_variable done_cv_;  // run() waits for active_ == 0
  const FunctionRef<void(std::size_t)>* job_ = nullptr;
  std::size_t count_ = 0;
  std::uint64_t epoch_ = 0;
  std::size_t active_ = 0;  // workers inside the current batch
  std::exception_ptr first_error_;
  bool stop_ = false;

  std::atomic<std::size_t> next_{0};  // next unclaimed index of the batch
  std::vector<std::thread> threads_;  // last: the workers use every member
};

// One batch at a time. Also guards g_pool, which is rebuilt when the
// thread count changes.
std::mutex g_batch_mutex;
std::unique_ptr<Pool> g_pool;

}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void set_thread_count(std::size_t n) {
  g_requested.store(n, std::memory_order_relaxed);
}

std::size_t thread_count() {
  const std::size_t requested = g_requested.load(std::memory_order_relaxed);
  return requested == 0 ? env_thread_count() : requested;
}

void parallel_chunks(std::size_t count, FunctionRef<void(std::size_t)> body) {
  const std::size_t threads = thread_count();
  if (threads <= 1 || count <= 1 || t_in_batch) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  COOL_METRIC_SET("parallel.threads", threads);
  COOL_METRIC_ADD("parallel.tasks", count);
  std::lock_guard<std::mutex> lock(g_batch_mutex);
  if (!g_pool || g_pool->worker_count() != threads - 1) {
    g_pool.reset();
    g_pool = std::make_unique<Pool>(threads - 1);
  }
  g_pool->run(count, body);
}

}  // namespace cool::util
