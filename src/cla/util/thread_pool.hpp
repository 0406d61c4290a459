// Small fixed-size worker pool for the analysis pipeline's fan-out stages.
//
// The pool is deliberately minimal: `parallel_for` partitions an index
// space across the workers with an atomic cursor (so uneven work items
// balance themselves) and blocks the caller until every index ran.
// Determinism contract: callers must make iteration `i` write only to
// slot `i` of pre-sized output storage (or perform commutative updates
// under a lock) — then results are independent of scheduling order and a
// pooled run is bit-identical to a sequential one.
//
// A pool of size <= 1 executes everything inline on the calling thread,
// so single-threaded behaviour is exactly the legacy sequential code path.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "cla/util/guard.hpp"

namespace cla::util {

class ThreadPool {
 public:
  /// Creates `num_threads` workers. 0 and 1 both mean "no workers":
  /// everything runs inline on the calling thread.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute work (>= 1; counts the caller when
  /// the pool has no workers).
  unsigned size() const noexcept;

  /// Runs fn(i) for every i in [0, n), distributing indices across the
  /// workers plus the calling thread. Blocks until the job finished. The
  /// first exception thrown by any fn is rethrown on the caller; indices
  /// not yet started when it was thrown are skipped.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Chunked variant for fine-grained index spaces (per-segment loops):
  /// runs fn(begin, end) over consecutive half-open ranges of at most
  /// `grain` indices, so the atomic-cursor cost amortizes over a whole
  /// chunk. Same determinism contract and exception behaviour as
  /// parallel_for; grain 0 is treated as 1.
  void parallel_for_chunks(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Installs a cooperative deadline: every subsequent parallel_for polls
  /// it between iterations and aborts the job with a ResourceLimitError
  /// (rethrown on the caller) once it expires or is cancelled. Copies
  /// share the cancellation flag with the caller's Deadline.
  void set_deadline(const Deadline& deadline) { deadline_ = deadline; }

  /// Resolves a requested thread count: 0 means "one per hardware thread".
  static unsigned resolve_num_threads(unsigned requested) noexcept;

 private:
  struct Impl;
  Impl* impl_ = nullptr;  ///< null when the pool runs inline
  Deadline deadline_;     ///< unlimited by default
};

/// pool->parallel_for(n, fn), or fn(0..n) inline when `pool` is null.
void for_each_index(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn);

}  // namespace cla::util
