#include "src/common/periodic_service.h"

namespace argus {

PeriodicService::PeriodicService(Pass pass) : pass_(std::move(pass)) {
  ARGUS_CHECK(pass_ != nullptr);
}

PeriodicService::~PeriodicService() { Stop(); }

void PeriodicService::Start() {
  std::lock_guard<std::mutex> l(mu_);
  ARGUS_CHECK_MSG(!started_, "service started twice");
  started_ = true;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void PeriodicService::Stop() {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (!started_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> l(mu_);
  started_ = false;
}

void PeriodicService::RecordError(const Status& status) {
  if (status.ok()) {
    return;
  }
  std::lock_guard<std::mutex> l(mu_);
  last_error_ = status;
}

Status PeriodicService::last_error() const {
  std::lock_guard<std::mutex> l(mu_);
  return last_error_;
}

void PeriodicService::Loop() {
  Clock::duration wait = kPoll;
  for (;;) {
    {
      // With a predicate, wait_for returns before `wait` has passed only on
      // Stop().
      std::unique_lock<std::mutex> l(mu_);
      cv_.wait_for(l, wait, [this] { return stop_; });
      if (stop_) {
        return;
      }
    }
    std::optional<Clock::duration> next = pass_();
    if (!next.has_value()) {
      return;
    }
    wait = *next;
  }
}

}  // namespace argus
