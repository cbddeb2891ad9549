// Shared helpers for the test suite.

#ifndef TESTS_TEST_SUPPORT_H_
#define TESTS_TEST_SUPPORT_H_

#include <cstdio>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "src/object/action_context.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/recovery/recovery_system.h"
#include "src/stable/stable_medium.h"

namespace argus {

// Dumps every thread's flight recorder to stderr if the enclosing test has
// failed by the time this guard is destroyed. Property tests with seeded
// randomness put one at the top of the test body: a failing seed then ships
// its last few hundred events with the failure output.
class ScopedFlightRecorderDumpOnFailure {
 public:
  ScopedFlightRecorderDumpOnFailure() = default;
  ~ScopedFlightRecorderDumpOnFailure() {
    if (testing::Test::HasFailure()) {
      std::fputs("test failed; dumping flight recorders\n", stderr);
      obs::DumpFlightRecordersTo(stderr);
    }
  }

  ScopedFlightRecorderDumpOnFailure(const ScopedFlightRecorderDumpOnFailure&) = delete;
  ScopedFlightRecorderDumpOnFailure& operator=(const ScopedFlightRecorderDumpOnFailure&) = delete;
};

inline ActionId Aid(std::uint64_t sequence, std::uint32_t coordinator = 0) {
  return ActionId{GuardianId{coordinator}, sequence};
}

inline std::unique_ptr<StableLog> MakeMemLog(const obs::Scope& scope = {}) {
  return std::make_unique<StableLog>(std::make_unique<InMemoryStableMedium>(), scope);
}

// The registry counter `name` as `scope` counts it: the labelled entry, or
// the unlabelled process total for an unscoped Scope. Values are cumulative
// for the process, so a test compares two reads around the work it checks.
inline std::uint64_t CounterValue(std::string_view name, const obs::Scope& scope = {}) {
  return scope.GetCounter(name)->Value();
}

// Entries a backward walk from the log's top finds, or the walk's error.
inline Result<std::uint64_t> CountEntriesBackward(const StableLog& log) {
  StableLog::BackwardCursor cursor = log.ReadBackwardFromTop();
  std::uint64_t count = 0;
  while (true) {
    auto next = cursor.Next();
    if (!next.ok()) {
      return next.status();
    }
    if (!next.value().has_value()) {
      return count;
    }
    ++count;
  }
}

inline RecoverySystemConfig MemConfig(LogMode mode) {
  RecoverySystemConfig config;
  config.mode = mode;
  config.medium_factory = [] { return std::make_unique<InMemoryStableMedium>(); };
  return config;
}

// A single guardian's storage stack without the network: heap + recovery
// system, with crash/restart support for recovery-algorithm tests.
class StorageHarness {
 public:
  explicit StorageHarness(LogMode mode) : StorageHarness(MemConfig(mode)) {}

  // Full-config variant (duplexed media, group commit, ...); the same config
  // rebuilds the stack after CrashAndRecover().
  explicit StorageHarness(RecoverySystemConfig config) : config_(std::move(config)) {
    heap_ = std::make_unique<VolatileHeap>();
    rs_ = std::make_unique<RecoverySystem>(config_, heap_.get());
  }

  VolatileHeap& heap() { return *heap_; }
  RecoverySystem& rs() { return *rs_; }

  ActionContext& ctx(ActionId aid) {
    auto it = contexts_.find(aid);
    if (it == contexts_.end()) {
      it = contexts_.emplace(aid, ActionContext(aid)).first;
    }
    return it->second;
  }

  // Participant-style full commit: prepare + commit, volatile install.
  Status PrepareAndCommit(ActionId aid) {
    Status s = rs_->Prepare(aid, ctx(aid).TakeMos());
    if (!s.ok()) {
      return s;
    }
    s = rs_->Commit(aid);
    if (!s.ok()) {
      return s;
    }
    ctx(aid).CommitVolatile(*heap_);
    contexts_.erase(aid);
    return Status::Ok();
  }

  Status PrepareOnly(ActionId aid) { return rs_->Prepare(aid, ctx(aid).TakeMos()); }

  Status AbortPrepared(ActionId aid) {
    Status s = rs_->Abort(aid);
    if (!s.ok()) {
      return s;
    }
    ctx(aid).AbortVolatile(*heap_);
    contexts_.erase(aid);
    return Status::Ok();
  }

  // Destroys all volatile state and recovers from the surviving log(s).
  Result<RecoveryInfo> CrashAndRecover() {
    RecoverySystem::SurvivingState surviving = rs_->TakeSurvivingState();
    rs_.reset();
    heap_.reset();
    contexts_.clear();
    heap_ = std::make_unique<VolatileHeap>();
    rs_ = std::make_unique<RecoverySystem>(config_, heap_.get(), std::move(surviving));
    return rs_->Recover();
  }

  // The committed value of stable variable `name`, or nullptr.
  RecoverableObject* StableVar(const std::string& name) {
    const Value& root = heap_->root()->base_version();
    if (!root.is_record()) {
      return nullptr;
    }
    auto it = root.as_record().find(name);
    if (it == root.as_record().end() || !it->second.is_ref()) {
      return nullptr;
    }
    return it->second.as_ref();
  }

  // Binds stable variable `name` to `obj` within action `aid`.
  Status BindStable(ActionId aid, const std::string& name, RecoverableObject* obj) {
    return ctx(aid).UpdateObject(heap_->root(), [&](Value& record) {
      record.as_record()[name] = Value::Ref(obj);
    });
  }

 private:
  RecoverySystemConfig config_;
  std::unique_ptr<VolatileHeap> heap_;
  std::unique_ptr<RecoverySystem> rs_;
  std::map<ActionId, ActionContext> contexts_;
};

}  // namespace argus

#endif  // TESTS_TEST_SUPPORT_H_
