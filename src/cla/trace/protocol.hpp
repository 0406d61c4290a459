// One thread's synchronization protocol: the pairing rules every reader of
// a trace applies (paper §III.A, Table 2). A critical section is a
// MutexAcquire -> MutexAcquired -> MutexReleased triple on one mutex
// (recursive mutexes nest: Released closes the innermost); a barrier wait
// is an Arrive -> Leave pair on one barrier; a condvar wait is a Begin ->
// End pair on one condvar, at most one open per thread. step() says, for
// each event, which rule it breaks (the event is then ignored and the
// state is unchanged) or what it opened or closed. The validator, repair,
// the index scan, the bounded sweep and clip_trace() all pair through it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "cla/trace/event.hpp"
#include "cla/util/diagnostics.hpp"

namespace cla::trace {

/// The event that opened some protocol state.
struct Opening {
  std::uint32_t idx;  ///< position in the thread's stream
  std::uint64_t ts;
  std::uint64_t arg;
};

/// A critical section: requested at MutexAcquire, entered at MutexAcquired.
struct Section {
  Opening acquire;   ///< arg: acquisition call-stack id, if recorded
  Opening acquired;  ///< arg: bit 0 set if the request contended

  bool contended() const noexcept {
    return acquired.arg != kNoArg && (acquired.arg & 1) != 0;
  }
};

/// A barrier wait opened by BarrierArrive.
struct BarrierWait {
  Opening arrive;  ///< arg: the producer's episode, kNoArg if unknown
  /// Waits this thread completed on the barrier before this one.
  std::uint32_t ordinal;

  /// The episode the wait belongs to. The producer's episode is preferred,
  /// but it is untrusted input: an absent or absurd value (corrupt trace)
  /// falls back to the per-thread wait ordinal, which is always coherent.
  std::uint32_t episode_key() const noexcept {
    return arrive.arg <= (1u << 24) ? static_cast<std::uint32_t>(arrive.arg)
                                    : ordinal;
  }
};

/// A condition-variable wait opened by CondWaitBegin.
struct CondWait {
  ObjectId cond;
  Opening begin;
};

/// What one event did to the protocol state.
enum class Transition : std::uint8_t {
  None,       ///< not a pairing event (lifecycle, signals, phase markers)
  Violation,  ///< breaks a rule (Step::violation); ignored
  Requested,  ///< MutexAcquire opened a request
  Acquired,   ///< MutexAcquired entered a section (Step::section)
  Released,   ///< MutexReleased closed the innermost section (Step::section)
  Arrived,    ///< BarrierArrive opened a wait (Step::barrier)
  Left,       ///< BarrierLeave closed it (Step::barrier)
  WaitBegun,  ///< CondWaitBegin opened the thread's wait (Step::wait)
  WaitEnded,  ///< CondWaitEnd closed it (Step::wait)
};

struct Step {
  Transition what = Transition::None;
  /// The rule broken, when what == Violation. A CondWaitEnd on another
  /// condvar than the open wait's is CLA_W_UNPAIRED_WAIT_END.
  util::DiagCode violation = util::DiagCode::CLA_E_NO_THREADS;
  /// What was opened or closed: the member that `what` names.
  union {
    Section section{};
    BarrierWait barrier;
    CondWait wait;
  };
};

/// One thread's protocol automaton.
class ThreadProtocol {
 public:
  /// One mutex's state on this thread.
  struct Lock {
    std::optional<Opening> request;  ///< a MutexAcquire not yet Acquired
    std::vector<Section> held;       ///< open sections, outermost first
  };
  /// One barrier's state on this thread.
  struct Barrier {
    std::optional<Opening> arrival;  ///< an Arrive not yet left
    std::uint32_t completed = 0;     ///< waits completed so far
  };

  /// Applies event `e`, at position `idx` of the thread's stream.
  Step step(std::uint32_t idx, const Event& e);

  /// The open state, in object order: every mutex with a request or a
  /// held section, every barrier seen (arrival open or not), the wait.
  const std::map<ObjectId, Lock>& locks() const noexcept { return locks_; }
  const std::map<ObjectId, Barrier>& barriers() const noexcept {
    return barriers_;
  }
  const std::optional<CondWait>& wait() const noexcept { return wait_; }

  /// Sections held, over all mutexes.
  std::size_t held_count() const noexcept;

  /// Earliest timestamp at which open state began: a request, a held
  /// section's request, an arrival or a wait begin. ~0 if nothing is open.
  std::uint64_t earliest_open_ts() const noexcept;

 private:
  using Locks = std::map<ObjectId, Lock>;

  Locks::iterator open_lock(ObjectId object);

  /// Only open locks stay in the map, so lookups and the open-state scans
  /// cost O(open). A lock that goes idle leaves its node (and its held
  /// vector's capacity) here for the next one, so a section allocates
  /// nothing.
  Locks locks_;
  std::vector<Locks::node_type> spare_;
  std::map<ObjectId, Barrier> barriers_;
  std::optional<CondWait> wait_;
};

}  // namespace cla::trace
