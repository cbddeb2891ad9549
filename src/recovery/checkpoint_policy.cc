#include "src/recovery/checkpoint_policy.h"

namespace argus {

bool CheckpointPolicy::ShouldHousekeep(const RecoverySystem& rs) const {
  const StableLog& log = rs.log();
  if (config_.log_growth_bytes > 0) {
    std::uint64_t size = log.durable_size();
    if (size >= baseline_bytes_ && size - baseline_bytes_ >= config_.log_growth_bytes) {
      return true;
    }
    if (size < baseline_bytes_) {
      return false;  // stale baseline (log was swapped); caller should Rearm
    }
  }
  if (config_.entries_since_checkpoint > 0) {
    std::uint64_t entries = log.entries_written();
    if (entries >= baseline_entries_ &&
        entries - baseline_entries_ >= config_.entries_since_checkpoint) {
      return true;
    }
  }
  return false;
}

Result<bool> CheckpointPolicy::MaybeHousekeep(RecoverySystem& rs) {
  if (!ShouldHousekeep(rs)) {
    return false;
  }
  Status s = rs.Housekeep(config_.method);
  if (!s.ok()) {
    return s;
  }
  ++checkpoints_;
  Rearm(rs);
  return true;
}

void CheckpointPolicy::Rearm(const RecoverySystem& rs) {
  baseline_bytes_ = rs.log().durable_size();
  baseline_entries_ = rs.log().entries_written();
}

}  // namespace argus
