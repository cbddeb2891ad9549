// Crash-coherence protocol for the concurrent workload driver.
//
// The thesis's central claim is that a guardian may crash at ANY instant and
// recover its stable state from the log (§3.4, §4.1). The serial driver has
// always injected crashes; under real OS threads the problem is harder: a
// "crash" must hit every thread of the world at one coherent instant, while
// workers are parked at known-safe preemption points — otherwise the test
// harness itself races the teardown (threads touching a FlushCoordinator or
// StableLog mid-destruction), and any failure says nothing about the
// recovery algorithms.
//
// CrashController is that instant-maker: a rendezvous barrier over the worker
// threads that runs one event at a time while every worker is parked.
//
//   - Workers call Poll() at every safe preemption point (between actions,
//     i.e. before any staging for the next one). Normally it is one relaxed
//     atomic load. When an event is pending the worker parks.
//   - A worker whose seeded rng decides on an event (the driver's are a
//     full-world crash, a partial crash and a partial recovery) calls
//     RequestEvent(): the controller flips to pending, runs the request's
//     `on_requested` callback (the driver uses it to Crash() the
//     FlushCoordinators of the guardians the event takes down, so threads
//     blocked inside WaitDurable wake with kCrashed instead of deadlocking —
//     the third preemption point), and the requester parks like everyone
//     else.
//   - When every *registered* worker is parked, exactly one parked thread is
//     elected executor and runs the event single-threadedly. The other
//     workers stay parked throughout, so the executor owns the world.
//   - The executor then releases the barrier and everyone resumes traffic.
//
// Workers that finish their action quota call Deregister() so the barrier
// does not wait for them forever; a deregistration while an event is pending
// re-evaluates the "all parked" condition, which is why election is by
// predicate (first thread to observe the complete barrier) rather than by
// arrival order.
//
// A failed event (recovery refused, reconciliation mismatch) becomes the
// controller's sticky error: the storm ends, every parked and future caller
// gets the error, and the driver surfaces it with context.

#ifndef SRC_TPC_CRASH_CONTROLLER_H_
#define SRC_TPC_CRASH_CONTROLLER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

#include "src/common/result.h"

namespace argus {

class CrashController {
 public:
  // `workers`: the number of threads that will Poll()/RequestEvent() and must
  // eventually Deregister().
  explicit CrashController(std::size_t workers);

  CrashController(const CrashController&) = delete;
  CrashController& operator=(const CrashController&) = delete;

  // Preemption-point check-in. Returns immediately when no event is pending;
  // parks through the event otherwise. Returns the storm's sticky error (Ok
  // unless an event failed).
  Status Poll();

  // The caller's rng decided on an event: runs `event` under the all-parked
  // barrier, and parks the caller through it. Same return as Poll().
  //
  // `on_requested` runs once, on the requesting thread, before it parks; it
  // must only do wakeups (no blocking on workers) and may be empty. If
  // another event is already pending, both closures are DROPPED — the caller
  // simply parks through the pending one (neither runs, so their state
  // updates never happen; safe to just retry on a later roll).
  Status RequestEvent(std::function<Status()> event,
                      const std::function<void()>& on_requested = {});

  // The calling worker is leaving the action loop for good; the barrier stops
  // counting it. A pending event proceeds once the remaining workers park.
  void Deregister();

 private:
  // Parks until the pending event completes; the first thread to observe the
  // full barrier executes it. Caller holds `l`.
  Status ParkLocked(std::unique_lock<std::mutex>& l);

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t registered_;
  std::size_t parked_ = 0;
  bool pending_ = false;    // an event was requested and has not completed
  bool executing_ = false;  // an executor is inside the event
  std::uint64_t generation_ = 0;  // bumped when an event completes
  Status sticky_error_ = Status::Ok();
  std::function<Status()> event_;  // the pending event, until its executor takes it
  // Fast path for Poll(): true iff pending_ or a sticky error is set.
  std::atomic<bool> armed_{false};
};

}  // namespace argus

#endif  // SRC_TPC_CRASH_CONTROLLER_H_
