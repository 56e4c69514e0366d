#include "common/thread_pool.h"

namespace smoqe::common {

namespace {

// The pool the current thread works for, if any (see OnPoolThread).
thread_local const ThreadPool* tls_pool = nullptr;

}  // namespace

int ThreadPool::HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = num_threads > 0 ? num_threads : HardwareThreads();
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::OnPoolThread() const { return tls_pool == this; }

void ThreadPool::Submit(std::function<void()> task) {
  {
    // A Submit that races the destructor is rejected: the task is dropped,
    // and a SubmitWithResult future then reports broken_promise. One that
    // gets in first always runs, because workers exit only on an empty
    // queue.
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  tls_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopped and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace smoqe::common
