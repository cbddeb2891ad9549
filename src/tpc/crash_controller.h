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
// threads plus a crash state machine.
//
//   - Workers call Poll() at every safe preemption point (between actions,
//     i.e. before any staging for the next one). Normally it is one relaxed
//     atomic load. When a crash is pending the worker parks.
//   - A worker whose seeded rng decides to crash the world calls
//     RequestCrash(): the controller flips to pending, runs the
//     `on_crash_requested` callback (the driver uses it to Crash() every
//     guardian's FlushCoordinator, so threads blocked inside WaitDurable wake
//     with kCrashed instead of deadlocking — the third preemption point), and
//     the requester parks like everyone else.
//   - When every *registered* worker is parked, exactly one parked thread is
//     elected executor and runs the `crash_world` callback single-threadedly:
//     stop checkpoint services, crash all guardians (discarding staged log
//     tails), restart them through full recovery, reconcile oracles. The
//     other workers stay parked throughout, so the executor owns the world.
//   - The executor then releases the barrier and everyone resumes traffic.
//
// Workers that finish their action quota call Deregister() so the barrier
// does not wait for them forever; a deregistration while a crash is pending
// re-evaluates the "all parked" condition, which is why election is by
// predicate (first thread to observe the complete barrier) rather than by
// arrival order.
//
// A failed crash_world (recovery refused, reconciliation mismatch) becomes
// the controller's sticky error: the storm ends, every parked and future
// caller gets the error, and the driver surfaces it with context.

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
  // `workers`: the number of threads that will Poll()/RequestCrash() and must
  // eventually Deregister(). `crash_world`: executed by the elected executor
  // while every registered worker is parked; brings the world down and back
  // up. `on_crash_requested`: invoked once per crash, by the requesting
  // thread, before it parks — must only do wakeups (no blocking on workers).
  CrashController(std::size_t workers, std::function<Status()> crash_world,
                  std::function<void()> on_crash_requested = {});

  CrashController(const CrashController&) = delete;
  CrashController& operator=(const CrashController&) = delete;

  // Preemption-point check-in. Returns immediately when no crash is pending;
  // parks through the crash/recovery otherwise. Returns the storm's sticky
  // error (Ok unless a crash_world failed).
  Status Poll();

  // The caller's rng decided to crash the world. Initiates a crash (or joins
  // one already pending) and parks through it. Same return as Poll().
  Status RequestCrash();

  // Generalized rendezvous: runs `event` instead of `crash_world` under the
  // same all-parked barrier — the executor owns the world while it runs. Used
  // for partial-world events (crash a guardian subset, recover it) that must
  // not race in-flight actions but should not tear the whole world down.
  //
  // `on_requested` plays the role of `on_crash_requested` for this event (e.g.
  // crash only the victims' FlushCoordinators); it may be empty. If a crash or
  // another event is already pending, `event` is DROPPED — the caller simply
  // parks through the pending one (the closure never runs, so its state
  // updates never happen; safe to just retry on a later roll).
  Status RequestEvent(std::function<Status()> event,
                      const std::function<void()>& on_requested = {});

  // The calling worker is leaving the action loop for good; the barrier stops
  // counting it. A pending crash proceeds once the remaining workers park.
  void Deregister();

  // True while a crash is pending or in progress. Checkpoint swap-crash hooks
  // return !crash_pending() so a mid-flight checkpoint abandons itself at the
  // next capture/build/swap boundary instead of racing the teardown.
  bool crash_pending() const { return armed_.load(std::memory_order_acquire); }

  // Completed world crashes so far.
  std::uint64_t crashes() const;

 private:
  // Parks until the pending crash completes; the first thread to observe the
  // full barrier executes it. Caller holds `l`.
  Status ParkLocked(std::unique_lock<std::mutex>& l);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t registered_;
  std::size_t parked_ = 0;
  bool pending_ = false;    // a crash was requested and has not completed
  bool executing_ = false;  // an executor is inside crash_world
  std::uint64_t generation_ = 0;  // bumped when a crash completes
  std::uint64_t crashes_ = 0;
  Status sticky_error_ = Status::Ok();
  std::function<Status()> crash_world_;
  std::function<void()> on_crash_requested_;
  // Set while the pending rendezvous is a custom event; the executor runs it
  // instead of crash_world_ and clears it.
  std::function<Status()> pending_event_;
  // Fast path for Poll(): true iff pending_ or a sticky error is set.
  std::atomic<bool> armed_{false};
};

}  // namespace argus

#endif  // SRC_TPC_CRASH_CONTROLLER_H_
