#include "src/recovery/online_checkpoint.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace argus {

namespace {

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

obs::Scope ScopeOf(const RecoverySystem* rs) {
  ARGUS_CHECK(rs != nullptr);
  return obs::Scope{.guardian = rs->guardian().value};
}

}  // namespace

// checkpoint.count is the forward-progress signal the checkpoint-race
// property test asserts on.
OnlineCheckpointer::Metrics::Metrics(const obs::Scope& scope)
    : checkpoints(scope.GetCounter("checkpoint.count")),
      capture_ns(scope.GetHistogram("checkpoint.capture_ns")),
      build_ns(scope.GetHistogram("checkpoint.build_ns")),
      swap_ns(scope.GetHistogram("checkpoint.swap_ns")),
      pause_ns(scope.GetHistogram("checkpoint.pause_ns")) {}

OnlineCheckpointer::OnlineCheckpointer(RecoverySystem* rs, ExclusiveSection exclusive,
                                       CheckpointMode mode)
    : rs_(rs), exclusive_(std::move(exclusive)), mode_(mode), metrics_(ScopeOf(rs)) {
  ARGUS_CHECK(exclusive_ != nullptr);
}

void OnlineCheckpointer::RecordPhases(std::uint64_t capture_ns, std::uint64_t build_ns,
                                      std::uint64_t swap_ns, std::uint64_t pause_ns) const {
  metrics_.checkpoints->Increment();
  metrics_.capture_ns->Record(capture_ns);
  metrics_.build_ns->Record(build_ns);
  metrics_.swap_ns->Record(swap_ns);
  metrics_.pause_ns->Record(pause_ns);
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
    RecordPhases(capture_ns, build_ns, swap_ns, ElapsedNs(pause_start));
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

  RecordPhases(capture_ns, build_ns, swap_ns, std::max(capture_ns, swap_ns));
  return Status::Ok();
}

CheckpointService::CheckpointService(RecoverySystem* rs, CheckpointPolicy* policy,
                                     ExclusiveSection exclusive, CheckpointMode mode)
    : rs_(rs),
      policy_(policy),
      checkpointer_(rs, std::move(exclusive), mode),
      loop_([this] { return Pass(); }) {
  ARGUS_CHECK(policy_ != nullptr);
}

std::optional<PeriodicService::Clock::duration> CheckpointService::Pass() {
  // Polling the log's counts is safe without the guardian exclusion:
  // durable_size() and entries_written() lock internally, and only this
  // thread ever swaps the log pointer.
  if (!policy_->ShouldHousekeep(*rs_)) {
    return PeriodicService::kPoll;
  }
  Status s = checkpointer_.RunOnce(policy_->method());
  if (!s.ok()) {
    loop_.RecordError(s);
    return std::nullopt;
  }
  policy_->NoteCheckpointTaken(*rs_);
  // The gap runs from the end of this checkpoint, so the commit path gets a
  // gap-sized window of uncontended guardian mutex however eager the policy
  // or however long checkpoints take.
  return kMinCheckpointGap;
}

}  // namespace argus
