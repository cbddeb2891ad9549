#include "src/tpc/crash_controller.h"

namespace argus {

CrashController::CrashController(std::size_t workers) : registered_(workers) {
  ARGUS_CHECK(workers > 0);
}

Status CrashController::Poll() {
  if (!armed_.load(std::memory_order_acquire)) {
    return Status::Ok();
  }
  std::unique_lock<std::mutex> l(mu_);
  if (!pending_) {
    // armed_ without a pending event means a prior event failed; the storm
    // is over and every caller gets the sticky error.
    return sticky_error_;
  }
  return ParkLocked(l);
}

Status CrashController::RequestEvent(std::function<Status()> event,
                                     const std::function<void()>& on_requested) {
  ARGUS_CHECK(event != nullptr);
  std::unique_lock<std::mutex> l(mu_);
  if (!sticky_error_.ok()) {
    return sticky_error_;
  }
  if (!pending_) {
    pending_ = true;
    event_ = std::move(event);
    armed_.store(true, std::memory_order_release);
    if (on_requested) {
      // Wake threads blocked inside WaitDurable (they park via the kCrashed
      // return path). Runs under mu_; the callback only flips flags and
      // notifies other condvars, it never waits on a worker.
      on_requested();
    }
    cv_.notify_all();
  }
  // else: an event is already in flight; `event` is dropped and this thread
  // parks through the pending one like any Poll() caller.
  return ParkLocked(l);
}

void CrashController::Deregister() {
  std::lock_guard<std::mutex> l(mu_);
  ARGUS_CHECK(registered_ > 0);
  --registered_;
  // A pending event may have been waiting for this thread to park; with it
  // gone the barrier may now be complete for the remaining parked workers.
  cv_.notify_all();
}

Status CrashController::ParkLocked(std::unique_lock<std::mutex>& l) {
  const std::uint64_t gen = generation_;
  ++parked_;
  cv_.notify_all();  // the barrier may be complete now
  for (;;) {
    if (generation_ != gen) {
      // Another thread executed the event. parked_ was reset wholesale when
      // the generation turned over (NOT decremented per-thread on exit): a
      // stale waiter that has not yet woken must not be counted as parked for
      // the *next* event, or a new barrier could complete while it is about
      // to resume traffic — racing the next executor.
      return sticky_error_;
    }
    if (pending_ && parked_ == registered_ && !executing_) {
      break;  // this thread observed the complete barrier first: elected
    }
    cv_.wait(l);
  }
  executing_ = true;
  std::function<Status()> event = std::move(event_);
  event_ = nullptr;
  l.unlock();
  Status s = event();
  l.lock();
  executing_ = false;
  pending_ = false;
  ++generation_;
  parked_ = 0;
  if (s.ok()) {
    armed_.store(false, std::memory_order_release);
  } else {
    // Leave armed_ set so Poll's fast path keeps routing into the slow path,
    // where the sticky error ends every worker's loop.
    sticky_error_ = s;
  }
  cv_.notify_all();
  return sticky_error_;
}

}  // namespace argus
