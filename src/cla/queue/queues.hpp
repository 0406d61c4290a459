// Concurrent FIFO queues over exec::Backend mutexes.
//
// Two locking disciplines, matching the paper's validation experiment
// (§V.D.3): Radiosity's/TSP's original single-lock task queue versus the
// optimized Michael & Scott two-lock queue, where the enqueue takes only a
// tail lock and the dequeue only a head lock.
//
// Thread safety: all mutation happens inside the critical sections guarded
// by the backend mutexes. On the pthread backend those are real pthread
// mutexes; on the simulator tasks are serialized, so the same discipline
// holds trivially. The two-lock queue's ends meet at one link while it
// holds only its dummy node, so its links are atomic: an enqueue publishes
// a node with a release store under the tail lock, and a dequeue reads it
// with an acquire load under the head lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "cla/exec/backend.hpp"

namespace cla::queue {

/// FIFO queue protected by one lock for both ends (the "q_lock" design the
/// paper's case studies identify as the bottleneck).
template <typename T>
class CoarseQueue {
 public:
  /// `cs_work` models the queue bookkeeping executed while holding the
  /// lock (work units per operation).
  CoarseQueue(exec::Backend& backend, std::string name, std::uint64_t cs_work = 0)
      : lock_(backend.create_mutex(name + ".qlock")), cs_work_(cs_work) {}

  void enqueue(exec::Ctx& ctx, T value) {
    exec::ScopedLock guard(ctx, lock_);
    if (cs_work_ > 0) ctx.compute(cs_work_);
    items_.push_back(std::move(value));
  }

  std::optional<T> dequeue(exec::Ctx& ctx) {
    exec::ScopedLock guard(ctx, lock_);
    if (items_.empty()) {
      // Probing an empty queue is much cheaper than unlinking a task,
      // but it still holds the lock (as in the applications the paper
      // studies) — that is what makes idle polling contend.
      if (cs_work_ > 0) ctx.compute(std::max<std::uint64_t>(1, cs_work_ / 4));
      return std::nullopt;
    }
    if (cs_work_ > 0) ctx.compute(cs_work_);
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Enqueues a whole batch under one lock acquisition (list splice);
  /// costs cs_work + item_cs per element inside the critical section.
  void enqueue_batch(exec::Ctx& ctx, std::vector<T> values,
                     std::uint64_t item_cs = 0) {
    exec::ScopedLock guard(ctx, lock_);
    if (cs_work_ > 0) ctx.compute(cs_work_);
    if (item_cs > 0) ctx.compute(item_cs * values.size());
    for (T& value : values) items_.push_back(std::move(value));
  }

  /// Dequeues up to `max_items` under one lock acquisition.
  std::vector<T> dequeue_batch(exec::Ctx& ctx, std::size_t max_items,
                               std::uint64_t item_cs = 0) {
    exec::ScopedLock guard(ctx, lock_);
    std::vector<T> out;
    if (items_.empty()) {
      if (cs_work_ > 0) ctx.compute(std::max<std::uint64_t>(1, cs_work_ / 4));
      return out;
    }
    if (cs_work_ > 0) ctx.compute(cs_work_);
    const std::size_t take = std::min(max_items, items_.size());
    if (item_cs > 0) ctx.compute(item_cs * take);
    out.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return out;
  }

  /// Unsynchronized size probe — callers may use it only as a heuristic
  /// (e.g. choosing a victim queue); never for correctness.
  std::size_t approx_size() const noexcept { return items_.size(); }

 private:
  exec::MutexHandle lock_;
  std::uint64_t cs_work_;
  std::deque<T> items_;
};

/// Michael & Scott two-lock FIFO queue: a dummy node decouples head and
/// tail so enqueue (tail lock) and dequeue (head lock) proceed in parallel.
template <typename T>
class TwoLockQueue {
 public:
  TwoLockQueue(exec::Backend& backend, std::string name, std::uint64_t cs_work = 0)
      : head_lock_(backend.create_mutex(name + ".q_head_lock")),
        tail_lock_(backend.create_mutex(name + ".q_tail_lock")),
        cs_work_(cs_work) {
    head_ = tail_ = new Node{};  // dummy
  }

  ~TwoLockQueue() {
    Node* node = head_;
    while (node != nullptr) {
      Node* next = node->next.load(std::memory_order_relaxed);
      delete node;
      node = next;
    }
  }

  TwoLockQueue(const TwoLockQueue&) = delete;
  TwoLockQueue& operator=(const TwoLockQueue&) = delete;

  void enqueue(exec::Ctx& ctx, T value) {
    Node* node = new Node{std::move(value)};
    exec::ScopedLock guard(ctx, tail_lock_);
    if (cs_work_ > 0) ctx.compute(cs_work_);
    tail_->next.store(node, std::memory_order_release);
    tail_ = node;
  }

  /// Batch enqueue: the chain is linked outside the critical section and
  /// spliced in under one tail-lock acquisition.
  void enqueue_batch(exec::Ctx& ctx, std::vector<T> values,
                     std::uint64_t item_cs = 0) {
    if (values.empty()) return;
    Node* first = nullptr;
    Node* last = nullptr;
    for (T& value : values) {
      Node* node = new Node{std::move(value)};
      if (first == nullptr) first = node;
      else last->next.store(node, std::memory_order_relaxed);
      last = node;
    }
    exec::ScopedLock guard(ctx, tail_lock_);
    if (cs_work_ > 0) ctx.compute(cs_work_);
    if (item_cs > 0) ctx.compute(item_cs * values.size());
    tail_->next.store(first, std::memory_order_release);
    tail_ = last;
  }

  /// Batch dequeue: up to `max_items` under one head-lock acquisition.
  std::vector<T> dequeue_batch(exec::Ctx& ctx, std::size_t max_items,
                               std::uint64_t item_cs = 0) {
    std::vector<T> out;
    std::vector<Node*> freed;
    {
      exec::ScopedLock guard(ctx, head_lock_);
      Node* node = head_->next.load(std::memory_order_acquire);
      if (node == nullptr) {
        if (cs_work_ > 0) ctx.compute(std::max<std::uint64_t>(1, cs_work_ / 4));
        return out;
      }
      if (cs_work_ > 0) ctx.compute(cs_work_);
      std::size_t taken = 0;
      while (taken < max_items && node != nullptr) {
        out.push_back(std::move(node->value));
        freed.push_back(head_);
        head_->next.store(nullptr, std::memory_order_relaxed);
        head_ = node;
        ++taken;
        node = head_->next.load(std::memory_order_acquire);
      }
      if (item_cs > 0) ctx.compute(item_cs * taken);
    }
    for (Node* node : freed) delete node;
    return out;
  }

  std::optional<T> dequeue(exec::Ctx& ctx) {
    Node* node = nullptr;
    std::optional<T> value;
    {
      exec::ScopedLock guard(ctx, head_lock_);
      node = head_->next.load(std::memory_order_acquire);
      if (node == nullptr) {
        if (cs_work_ > 0) ctx.compute(std::max<std::uint64_t>(1, cs_work_ / 4));
        return std::nullopt;
      }
      if (cs_work_ > 0) ctx.compute(cs_work_);
      value = std::move(node->value);
      head_->next.store(nullptr, std::memory_order_relaxed);  // old dummy
      std::swap(head_, node); // new dummy is the dequeued node
    }
    delete node;  // the old dummy, freed outside the critical section
    return value;
  }

 private:
  struct Node {
    T value{};
    std::atomic<Node*> next{nullptr};
  };

  exec::MutexHandle head_lock_;
  exec::MutexHandle tail_lock_;
  std::uint64_t cs_work_;
  Node* head_;
  Node* tail_;
};

/// Lock discipline selector for task queues.
enum class LockMode {
  Single,  ///< one lock for both ends (original applications)
  Split,   ///< two-lock queue (the paper's optimization)
};

/// A task queue that exposes both disciplines behind one interface, so a
/// workload flips a flag to run its "original" or "optimized" variant.
template <typename T>
class TaskQueue {
 public:
  TaskQueue(exec::Backend& backend, const std::string& name, LockMode mode,
            std::uint64_t cs_work = 0)
      : mode_(mode) {
    if (mode == LockMode::Single) {
      coarse_.emplace(backend, name, cs_work);
    } else {
      split_.emplace(backend, name, cs_work);
    }
  }

  void enqueue(exec::Ctx& ctx, T value) {
    if (mode_ == LockMode::Single) coarse_->enqueue(ctx, std::move(value));
    else split_->enqueue(ctx, std::move(value));
  }

  std::optional<T> dequeue(exec::Ctx& ctx) {
    return mode_ == LockMode::Single ? coarse_->dequeue(ctx)
                                     : split_->dequeue(ctx);
  }

  void enqueue_batch(exec::Ctx& ctx, std::vector<T> values,
                     std::uint64_t item_cs = 0) {
    if (mode_ == LockMode::Single)
      coarse_->enqueue_batch(ctx, std::move(values), item_cs);
    else
      split_->enqueue_batch(ctx, std::move(values), item_cs);
  }

  std::vector<T> dequeue_batch(exec::Ctx& ctx, std::size_t max_items,
                               std::uint64_t item_cs = 0) {
    return mode_ == LockMode::Single
               ? coarse_->dequeue_batch(ctx, max_items, item_cs)
               : split_->dequeue_batch(ctx, max_items, item_cs);
  }

  LockMode mode() const noexcept { return mode_; }

 private:
  LockMode mode_;
  std::optional<CoarseQueue<T>> coarse_;
  std::optional<TwoLockQueue<T>> split_;
};

}  // namespace cla::queue
