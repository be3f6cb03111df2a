// Deterministic parallel execution: a work-stealing thread pool plus the
// parallel_chunks / parallel_for helpers. They run whole units of work —
// one plan per svc batch job, campaign days and trials, LP rounding draws,
// the passive greedy's loss-scan chunks — never the per-step argmax of the
// exact greedies (DESIGN.md section 10).
//
// Design contract: parallelism must never change results. The helpers
// guarantee this by construction:
//
//   * chunk_ranges(n, grain) produces a chunk grid that depends only on the
//     iteration shape, never on the worker count — so per-chunk partial
//     results are identical at every thread count;
//   * chunk bodies receive disjoint index ranges and may only write state
//     owned by their chunk; the caller combines per-chunk results in chunk
//     order.
//
// Thread count resolution, in priority order: set_thread_count() (wired to
// --threads in the benches), the COOL_THREADS environment variable, then
// std::thread::hardware_concurrency(). A count of 1 bypasses the pool
// entirely — no worker threads are created and every helper degenerates to
// the plain serial loop, which is also the path taken for nested
// parallelism (a chunk body that itself calls parallel_for runs inline on
// its worker).
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace cool::util {

// Non-owning callable view: dispatching a batch through it never allocates,
// where std::function may heap-allocate its closure. The referenced callable
// must outlive every invocation — guaranteed here because the parallel
// helpers run the batch to completion before returning.
template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

// max(1, std::thread::hardware_concurrency()).
std::size_t hardware_threads() noexcept;

// Process-wide worker count used by the global pool. 0 restores the
// default (COOL_THREADS environment variable, else hardware_threads()).
// Takes effect on the next parallel call; do not call concurrently with
// in-flight parallel work.
void set_thread_count(std::size_t n);
std::size_t thread_count();

// Half-open index range [begin, end) owned by one chunk.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

// Fixed-shape chunk grid over [0, n): ceil(n / grain) chunks of `grain`
// indices each (last chunk may be short). Depends only on (n, grain) so
// reductions are bit-identical at every thread count. grain >= 1.
std::vector<ChunkRange> chunk_ranges(std::size_t n, std::size_t grain);

// Work-stealing pool: run() distributes tasks round-robin over per-worker
// deques; an idle worker first drains its own lane front-to-back, then
// steals from other lanes back-to-front. One run() executes at a time;
// calls from a worker thread (nested parallelism) run inline instead.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept;

  // Executes task(0) ... task(task_count - 1), blocking until all finish.
  // The first exception thrown by a task is rethrown here after the batch
  // drains. Tasks must be independent: execution order is unspecified.
  void run(std::size_t task_count, FunctionRef<void(std::size_t)> task);

  // True on a pool worker thread (used to run nested parallelism inline).
  static bool on_worker_thread() noexcept;

 private:
  struct Impl;
  Impl* impl_;
};

// The process-wide pool, sized to thread_count(); rebuilt lazily after
// set_thread_count(). With thread_count() == 1 no pool is ever created.
ThreadPool& global_pool();

// Runs body(c) for every chunk index c in [0, chunk_count). Serial (and
// pool-free) when thread_count() == 1, chunk_count <= 1, or already on a
// worker thread. Takes a FunctionRef, not std::function: dispatching a
// batch performs no allocation.
void parallel_chunks(std::size_t chunk_count,
                     FunctionRef<void(std::size_t)> body);

// Chunked loop over [0, n): body(begin, end) per chunk, chunk shape from
// chunk_ranges(n, grain).
void parallel_for(std::size_t n, std::size_t grain,
                  FunctionRef<void(std::size_t, std::size_t)> body);

}  // namespace cool::util
