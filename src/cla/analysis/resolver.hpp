// Wake-up resolution: "find_the_segment_released_me" (paper Fig. 2 line 10).
//
// For every event at which a thread resumes from a potentially blocking
// wait, the resolver answers two questions the backward walker asks:
//   - did this wait actually block?
//   - which event on which thread released / unblocked it?
//
// Resolution rules (paper §IV.B):
//   mutex   -> the release by the thread that held the lock adjacently
//              before the blocked thread (previous owner in acquisition
//              order);
//   barrier -> the arrival of the last thread to reach the barrier in the
//              same episode;
//   condvar -> the latest signal/broadcast of the same condvar inside the
//              wait window;
//   join    -> the joined thread's exit;
//   start   -> the parent's ThreadCreate.
#pragma once

#include <cstdint>

#include "cla/analysis/index.hpp"

namespace cla::analysis {

/// Resolution of one wake-up event.
struct Resolution {
  EventRef releaser;     ///< invalid when no releasing event exists
  bool blocked = false;  ///< whether the wait actually blocked
};

/// Resolves the wake-up event at (tid, idx) directly against the index,
/// reading only the event columns it needs (no per-event materialization).
/// Events that are not wake-ups resolve to {invalid, false}. This is the
/// single statement of the resolution rules: the segment-DAG builder
/// resolves every hop here.
///
/// `row_cursor` is a row of `tid`'s section table at or before the section
/// of every MutexAcquired the caller will still ask about; the mutex rule
/// steps it forward to the section of `idx`. A caller that resolves one
/// thread's wake-ups in event order keeps one cursor for all of them; one
/// that resolves a single event passes a cursor at row 0.
Resolution resolve_wakeup(const TraceIndex& index, trace::ThreadId tid,
                          std::uint32_t idx, std::uint32_t& row_cursor);

}  // namespace cla::analysis
