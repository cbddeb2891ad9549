#include "src/recovery/online_checkpoint.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace argus {

namespace {

// Checkpoint-phase telemetry. The histograms are the registry view of
// CheckpointPauseStats (per-checkpointer stats stay on the instance); the
// counter is the forward-progress signal the checkpoint-race property test
// asserts on.
struct CkptObs {
  obs::Counter* checkpoints;
  obs::Histogram* capture_ns;
  obs::Histogram* build_ns;
  obs::Histogram* swap_ns;
  obs::Histogram* pause_ns;

  static const CkptObs& Get() {
    static const CkptObs m{
        obs::GetCounter("checkpoint.count"),
        obs::GetHistogram("checkpoint.capture_ns"),
        obs::GetHistogram("checkpoint.build_ns"),
        obs::GetHistogram("checkpoint.swap_ns"),
        obs::GetHistogram("checkpoint.pause_ns"),
    };
    return m;
  }

  void RecordPhases(std::uint64_t capture_ns_v, std::uint64_t build_ns_v,
                    std::uint64_t swap_ns_v, std::uint64_t pause_ns_v) const {
    checkpoints->Increment();
    capture_ns->Record(capture_ns_v);
    build_ns->Record(build_ns_v);
    swap_ns->Record(swap_ns_v);
    pause_ns->Record(pause_ns_v);
  }
};

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

}  // namespace

OnlineCheckpointer::OnlineCheckpointer(RecoverySystem* rs, ExclusiveSection exclusive,
                                       CheckpointMode mode)
    : rs_(rs), exclusive_(std::move(exclusive)), mode_(mode) {
  ARGUS_CHECK(rs_ != nullptr);
  ARGUS_CHECK(exclusive_ != nullptr);
}

Status OnlineCheckpointer::RunOnce(HousekeepingMethod method) {
  std::uint64_t capture_ns = 0;
  std::uint64_t build_ns = 0;
  std::uint64_t swap_ns = 0;
  Status status = Status::Ok();

  if (mode_ == CheckpointMode::kStopTheWorld) {
    // The thesis behaviour: everything inside one pause.
    const auto pause_start = std::chrono::steady_clock::now();
    obs::TraceSpan span("ckpt.stw");
    exclusive_([&] {
      auto t0 = std::chrono::steady_clock::now();
      Result<CheckpointCapture> capture = rs_->CaptureCheckpoint(method);
      capture_ns = ElapsedNs(t0);
      if (!capture.ok()) {
        status = capture.status();
        return;
      }
      t0 = std::chrono::steady_clock::now();
      Result<std::unique_ptr<CheckpointBuilder>> builder =
          rs_->BuildCheckpoint(std::move(capture.value()));
      build_ns = ElapsedNs(t0);
      if (!builder.ok()) {
        status = builder.status();
        return;
      }
      t0 = std::chrono::steady_clock::now();
      status = rs_->CompleteCheckpointSwap(std::move(builder.value()));
      swap_ns = ElapsedNs(t0);
    });
    if (!status.ok()) {
      return status;
    }
    const std::uint64_t pause_ns = ElapsedNs(pause_start);
    CkptObs::Get().RecordPhases(capture_ns, build_ns, swap_ns, pause_ns);
    std::lock_guard<std::mutex> l(stats_mu_);
    ++stats_.checkpoints;
    stats_.capture_ns_total += capture_ns;
    stats_.capture_ns_max = std::max(stats_.capture_ns_max, capture_ns);
    stats_.build_ns_total += build_ns;
    stats_.build_ns_max = std::max(stats_.build_ns_max, build_ns);
    stats_.swap_ns_total += swap_ns;
    stats_.swap_ns_max = std::max(stats_.swap_ns_max, swap_ns);
    stats_.pause_ns_total += pause_ns;
    stats_.pause_ns_max = std::max(stats_.pause_ns_max, pause_ns);
    return Status::Ok();
  }

  // Online: phase 1 under exclusion, phase 2 concurrent, phase 3 under
  // exclusion again.
  Result<CheckpointCapture> capture = Status::Unavailable("capture did not run");
  exclusive_([&] {
    obs::TraceSpan span("ckpt.capture");
    const auto t0 = std::chrono::steady_clock::now();
    capture = rs_->CaptureCheckpoint(method);
    capture_ns = ElapsedNs(t0);
  });
  if (!capture.ok()) {
    return capture.status();
  }

  obs::EmitBegin("ckpt.build");
  const auto build_start = std::chrono::steady_clock::now();
  Result<std::unique_ptr<CheckpointBuilder>> builder =
      rs_->BuildCheckpoint(std::move(capture.value()));
  if (!builder.ok()) {
    build_ns = ElapsedNs(build_start);
    obs::EmitEnd("ckpt.build", 0);
    return builder.status();
  }
  // Carry over (and force) the suffix that accumulated during the build,
  // still concurrently — the barrier below then handles only the residue.
  Status caught_up = builder.value()->CatchUp();
  build_ns = ElapsedNs(build_start);
  obs::EmitEnd("ckpt.build", caught_up.ok() ? 1 : 0);
  if (!caught_up.ok()) {
    return caught_up;
  }

  exclusive_([&] {
    obs::TraceSpan span("ckpt.swap");
    const auto t0 = std::chrono::steady_clock::now();
    status = rs_->CompleteCheckpointSwap(std::move(builder.value()));
    swap_ns = ElapsedNs(t0);
  });
  if (!status.ok()) {
    return status;
  }

  CkptObs::Get().RecordPhases(capture_ns, build_ns, swap_ns, std::max(capture_ns, swap_ns));
  std::lock_guard<std::mutex> l(stats_mu_);
  ++stats_.checkpoints;
  stats_.capture_ns_total += capture_ns;
  stats_.capture_ns_max = std::max(stats_.capture_ns_max, capture_ns);
  stats_.build_ns_total += build_ns;
  stats_.build_ns_max = std::max(stats_.build_ns_max, build_ns);
  stats_.swap_ns_total += swap_ns;
  stats_.swap_ns_max = std::max(stats_.swap_ns_max, swap_ns);
  stats_.pause_ns_total += capture_ns + swap_ns;
  stats_.pause_ns_max = std::max(stats_.pause_ns_max, std::max(capture_ns, swap_ns));
  return Status::Ok();
}

CheckpointPauseStats OnlineCheckpointer::StatsSnapshot() const {
  std::lock_guard<std::mutex> l(stats_mu_);
  return stats_;
}

CheckpointService::CheckpointService(RecoverySystem* rs, CheckpointPolicy* policy,
                                     OnlineCheckpointer::ExclusiveSection exclusive,
                                     CheckpointServiceConfig config)
    : rs_(rs),
      policy_(policy),
      config_(config),
      checkpointer_(rs, std::move(exclusive), config.mode) {
  ARGUS_CHECK(policy_ != nullptr);
}

CheckpointService::~CheckpointService() { Stop(); }

void CheckpointService::Start() {
  std::lock_guard<std::mutex> l(mu_);
  ARGUS_CHECK_MSG(!started_, "checkpoint service started twice");
  started_ = true;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void CheckpointService::Stop() {
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

Status CheckpointService::last_error() const {
  std::lock_guard<std::mutex> l(mu_);
  return last_error_;
}

void CheckpointService::Loop() {
  // The fairness floor (min_checkpoint_gap) is measured from the END of the
  // last successful checkpoint, so the commit path is guaranteed a gap-sized
  // window of uncontended guardian mutex no matter how eager the policy or
  // how long checkpoints take.
  bool have_last = false;
  std::chrono::steady_clock::time_point last_end{};
  for (;;) {
    std::chrono::steady_clock::duration wait = config_.poll_interval;
    if (have_last && config_.min_checkpoint_gap.count() > 0) {
      const auto next_allowed = last_end + config_.min_checkpoint_gap;
      const auto now = std::chrono::steady_clock::now();
      if (next_allowed > now) {
        wait = std::max<std::chrono::steady_clock::duration>(wait, next_allowed - now);
      }
    }
    {
      // With a predicate, wait_for returns before `wait` has passed only on
      // Stop(), so no poll ever lands inside the gap.
      std::unique_lock<std::mutex> l(mu_);
      cv_.wait_for(l, wait, [this] { return stop_; });
      if (stop_) {
        return;
      }
    }
    // Polling the log's counters is safe without the guardian exclusion:
    // durable_size() and StatsSnapshot() lock internally, and only this
    // thread ever swaps the log pointer.
    if (!policy_->ShouldHousekeep(*rs_)) {
      continue;
    }
    Status s = checkpointer_.RunOnce(policy_->method());
    if (!s.ok()) {
      std::lock_guard<std::mutex> l(mu_);
      last_error_ = s;
      return;
    }
    policy_->NoteCheckpointTaken(*rs_);
    have_last = true;
    last_end = std::chrono::steady_clock::now();
  }
}

}  // namespace argus
