// A fixed-size thread pool with one FIFO queue: the execution substrate of
// the parallel query service (exec/).
//
// Workers take tasks from the front of one mutex-guarded deque in the order
// Submit queued them. The pool's one client, ShardedBatchEvaluator::EvalAll,
// submits a round of independent shard walks from a thread outside the pool
// and waits for all of them; no task spawns nested work, so per-worker
// queues and stealing would have nothing to balance that the shared queue
// does not. A task may still Submit; its work queues behind the rest.
//
// Shutdown semantics: the destructor stops accepting new work, DRAINS every
// queued task, then joins. A task Submit accepted always runs; a Submit
// racing (or following) the destructor is rejected -- the task is dropped
// and a SubmitWithResult future reports broken_promise.
//
// Blocking caveat: a task must not block on the completion of other pool
// tasks unless the pool is known to have idle workers (classic pool
// deadlock). The sharded evaluator obeys this by waiting only on the
// SUBMITTING (non-pool) thread.

#ifndef SMOQE_COMMON_THREAD_POOL_H_
#define SMOQE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace smoqe::common {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means the hardware concurrency (at
  /// least 1).
  explicit ThreadPool(int num_threads = 0);

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task at the back of the queue. The task must not throw.
  void Submit(std::function<void()> task);

  /// Submit returning a future for the callable's result (exceptions
  /// propagate through the future).
  template <typename F>
  auto SubmitWithResult(F f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> result = task->get_future();
    Submit([task] { (*task)(); });
    return result;
  }

  /// True when called from one of this pool's worker threads (the condition
  /// under which waiting on pool futures can deadlock).
  bool OnPoolThread() const;

  /// std::thread::hardware_concurrency clamped to >= 1.
  static int HardwareThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;                // tasks_ or stop_ changed
  std::deque<std::function<void()>> tasks_;  // guarded by mu_
  bool stop_ = false;                        // guarded by mu_
  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace smoqe::common

#endif  // SMOQE_COMMON_THREAD_POOL_H_
