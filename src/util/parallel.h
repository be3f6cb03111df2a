// Deterministic parallel execution: one process-wide pool and one helper,
// parallel_chunks. It runs whole units of work — one plan per svc batch
// job, campaign days and trials, LP rounding draws, the passive greedy's
// loss-scan chunks — never the per-step argmax of the exact greedies
// (DESIGN.md section 10).
//
// Design contract: parallelism must never change results. Callers keep it
// by construction:
//
//   * the task count and what each task covers depend only on the iteration
//     shape, never on the thread count — so per-task partial results are
//     identical at every width;
//   * a task may only write state owned by its index; the caller combines
//     per-task results in index order.
//
// A batch runs on thread_count() threads: thread_count() − 1 pool workers
// plus the calling thread, all claiming task indices from one shared atomic
// counter. Thread count resolution, in priority order: set_thread_count()
// (wired to --threads in the benches and coold), the COOL_THREADS
// environment variable, then std::thread::hardware_concurrency(). A count
// of 1 builds no pool and runs the plain serial loop, which is also the
// path taken for nested parallelism (a task that itself calls
// parallel_chunks runs the inner batch inline on its own thread).
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace cool::util {

// Non-owning callable view: dispatching a batch through it never allocates,
// where std::function may heap-allocate its closure. The referenced callable
// must outlive every invocation — guaranteed here because parallel_chunks
// runs the batch to completion before returning.
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

// Process-wide number of threads that run a batch, the caller included.
// 0 restores the default (COOL_THREADS environment variable, else
// hardware_threads()). Takes effect on the next batch, which resizes the
// pool to thread_count() − 1 workers.
void set_thread_count(std::size_t n);
std::size_t thread_count();

// Runs body(i) for every index i in [0, count), blocking until all finish.
// Serial (and pool-free) when thread_count() == 1, count <= 1, or when
// called from inside a task. Otherwise the caller and the pool's workers
// claim indices from one shared counter, so execution order is unspecified
// and tasks must be independent. One batch runs at a time; a call from
// another thread waits for the running one. The first exception thrown by
// a task is rethrown here after every task has run. Takes a FunctionRef,
// not std::function: dispatching a batch performs no allocation.
void parallel_chunks(std::size_t count, FunctionRef<void(std::size_t)> body);

}  // namespace cool::util
