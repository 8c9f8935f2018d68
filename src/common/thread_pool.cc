#include "common/thread_pool.h"

#include <algorithm>

namespace pe {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  std::function<void()> task;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (task) {
        // Handed back, not destroyed here (see the header).
        spent_.push_back(std::move(task));
        task = nullptr;
      }
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

std::size_t ThreadPool::DefaultThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace pe
