// The background loop shared by the maintenance services (checkpointing,
// replica repair, residency eviction): one thread that waits, runs a pass,
// and waits again for as long as the pass asks, until Stop() or until a pass
// says stop. The services keep their behaviour in their pass; this class
// owns the thread, the condition variable, the stop flag and the last error.

#ifndef SRC_COMMON_PERIODIC_SERVICE_H_
#define SRC_COMMON_PERIODIC_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "src/common/result.h"

namespace argus {

// Runs `fn` with a guardian's action path excluded: no thread may mutate the
// heap or stage log entries while `fn` executes. The owner of that lock (the
// guardian's own mutex, Guardian::mutex, or a test's scheduler) supplies it.
using ExclusiveSection = std::function<void(const std::function<void()>&)>;

class PeriodicService {
 public:
  using Clock = std::chrono::steady_clock;

  // How often a service with nothing to do looks again; also the wait before
  // the first pass.
  static constexpr std::chrono::milliseconds kPoll{1};

  // A pass returns the wait before the next pass, or nullopt to stop the loop.
  using Pass = std::function<std::optional<Clock::duration>()>;

  explicit PeriodicService(Pass pass);
  ~PeriodicService();

  PeriodicService(const PeriodicService&) = delete;
  PeriodicService& operator=(const PeriodicService&) = delete;

  // Spawns the thread. Starting a running service is a programming error.
  void Start();
  // Wakes the thread and joins it; a pass in progress finishes first. A no-op
  // when not running. The service may be started again.
  void Stop();

  // Keeps `status` as the last error when it is not Ok (passes report errors
  // here, from the thread or from inline calls).
  void RecordError(const Status& status);
  Status last_error() const;

 private:
  void Loop();

  Pass pass_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  Status last_error_ = Status::Ok();
  std::thread thread_;
};

}  // namespace argus

#endif  // SRC_COMMON_PERIODIC_SERVICE_H_
