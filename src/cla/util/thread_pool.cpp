#include "cla/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>

#include "cla/util/error.hpp"

namespace cla::util {

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  std::mutex mutex;
  std::condition_variable wake;  ///< workers wait here for a new job
  std::condition_variable done;  ///< the caller waits here for completion

  // Current job. `fn` is owned by the caller of parallel_for and stays
  // valid until `active` drops to zero.
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> cursor{0};
  std::size_t active = 0;        ///< workers still draining the current job
  std::uint64_t generation = 0;  ///< bumped per job so workers see new work
  std::exception_ptr error;
  bool stopping = false;
  Deadline deadline;  ///< copy installed per job; unlimited by default

  void drain(const std::function<void(std::size_t)>& job, std::size_t count) {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        deadline.check("parallel task loop");
        job(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
        cursor.store(count, std::memory_order_relaxed);  // skip the rest
        return;
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* job = nullptr;
      std::size_t count = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [&] { return stopping || generation != seen; });
        if (stopping) return;
        seen = generation;
        job = fn;
        count = n;
      }
      drain(*job, count);
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (--active == 0) done.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads <= 1) return;  // inline mode
  impl_ = new Impl;
  impl_->workers.reserve(num_threads - 1);
  for (unsigned i = 0; i + 1 < num_threads; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->wake.notify_all();
  for (auto& worker : impl_->workers) worker.join();
  delete impl_;
}

unsigned ThreadPool::size() const noexcept {
  return impl_ == nullptr
             ? 1u
             : static_cast<unsigned>(impl_->workers.size()) + 1u;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (impl_ == nullptr || n == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      deadline_.check("parallel task loop");
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->fn = &fn;
    impl_->n = n;
    impl_->cursor.store(0, std::memory_order_relaxed);
    impl_->active = impl_->workers.size();
    impl_->error = nullptr;
    impl_->deadline = deadline_;
    ++impl_->generation;
  }
  impl_->wake.notify_all();
  impl_->drain(fn, n);  // the caller participates too
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->done.wait(lock, [&] { return impl_->active == 0; });
    impl_->fn = nullptr;
    error = impl_->error;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;
  parallel_for(chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunk * grain;
    fn(begin, std::min(begin + grain, n));
  });
}

void for_each_index(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for(n, fn);
  } else {
    for (std::size_t k = 0; k < n; ++k) fn(k);
  }
}

unsigned ThreadPool::resolve_num_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

}  // namespace cla::util
