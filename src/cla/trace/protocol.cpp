#include "cla/trace/protocol.hpp"

#include <algorithm>

namespace cla::trace {

ThreadProtocol::Locks::iterator ThreadProtocol::open_lock(ObjectId object) {
  if (spare_.empty()) return locks_.emplace(object, Lock{}).first;
  Locks::node_type node = std::move(spare_.back());
  spare_.pop_back();
  node.key() = object;
  return locks_.insert(std::move(node)).position;
}

Step ThreadProtocol::step(std::uint32_t idx, const Event& e) {
  using util::DiagCode;
  Step out;
  const auto violation = [&out](DiagCode code) {
    out.what = Transition::Violation;
    out.violation = code;
    return out;
  };
  const Opening here{idx, e.ts, e.arg};
  switch (e.type) {
    case EventType::MutexAcquire: {
      auto it = locks_.find(e.object);
      if (it == locks_.end()) {
        it = open_lock(e.object);
      } else if (it->second.request) {
        return violation(DiagCode::CLA_E_DOUBLE_ACQUIRE);
      }
      it->second.request = here;
      out.what = Transition::Requested;
      break;
    }
    case EventType::MutexAcquired: {
      const auto it = locks_.find(e.object);
      if (it == locks_.end() || !it->second.request) {
        return violation(DiagCode::CLA_E_UNPAIRED_ACQUIRED);
      }
      Lock& lock = it->second;
      out.section = Section{*lock.request, here};
      lock.request.reset();
      lock.held.push_back(out.section);
      out.what = Transition::Acquired;
      break;
    }
    case EventType::MutexReleased: {
      const auto it = locks_.find(e.object);
      if (it == locks_.end() || it->second.held.empty()) {
        return violation(DiagCode::CLA_E_UNPAIRED_UNLOCK);
      }
      out.section = it->second.held.back();
      it->second.held.pop_back();
      if (it->second.held.empty() && !it->second.request) {
        spare_.push_back(locks_.extract(it));
      }
      out.what = Transition::Released;
      break;
    }
    case EventType::BarrierArrive: {
      Barrier& barrier = barriers_[e.object];
      if (barrier.arrival) return violation(DiagCode::CLA_E_BARRIER_REENTER);
      barrier.arrival = here;
      out.barrier = BarrierWait{here, barrier.completed};
      out.what = Transition::Arrived;
      break;
    }
    case EventType::BarrierLeave: {
      const auto it = barriers_.find(e.object);
      if (it == barriers_.end() || !it->second.arrival) {
        return violation(DiagCode::CLA_E_UNPAIRED_BARRIER_LEAVE);
      }
      Barrier& barrier = it->second;
      out.barrier = BarrierWait{*barrier.arrival, barrier.completed++};
      barrier.arrival.reset();
      out.what = Transition::Left;
      break;
    }
    case EventType::CondWaitBegin:
      if (wait_) return violation(DiagCode::CLA_W_NESTED_COND_WAIT);
      wait_ = CondWait{e.object, here};
      out.wait = *wait_;
      out.what = Transition::WaitBegun;
      break;
    case EventType::CondWaitEnd:
      if (!wait_ || wait_->cond != e.object) {
        return violation(DiagCode::CLA_W_UNPAIRED_WAIT_END);
      }
      out.wait = *wait_;
      wait_.reset();
      out.what = Transition::WaitEnded;
      break;
    default:
      break;
  }
  return out;
}

std::size_t ThreadProtocol::held_count() const noexcept {
  std::size_t held = 0;
  for (const auto& [object, lock] : locks_) held += lock.held.size();
  return held;
}

std::uint64_t ThreadProtocol::earliest_open_ts() const noexcept {
  std::uint64_t earliest = ~static_cast<std::uint64_t>(0);
  for (const auto& [object, lock] : locks_) {
    if (lock.request) earliest = std::min(earliest, lock.request->ts);
    for (const Section& s : lock.held) {
      earliest = std::min(earliest, s.acquire.ts);
    }
  }
  for (const auto& [object, barrier] : barriers_) {
    if (barrier.arrival) earliest = std::min(earliest, barrier.arrival->ts);
  }
  if (wait_) earliest = std::min(earliest, wait_->begin.ts);
  return earliest;
}

}  // namespace cla::trace
