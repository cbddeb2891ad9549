// Property-based tests: random action histories with random crash points.
// Invariant (thesis ch. 6): after recovery, every atomic object's state is
// what running the COMMITTED actions in order would produce, and every mutex
// object holds its last PREPARED version.

#include <gtest/gtest.h>

#include <map>
#include <type_traits>

#include "src/common/rng.h"
#include "src/recovery/validate.h"
#include "tests/test_support.h"

namespace argus {
namespace {

// gtest prints this struct's bytes into the test listing that ctest names its
// tests by, so it has no padding, whose bytes would differ between builds.
struct Params {
  LogMode mode;
  std::uint32_t reserved = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<Params>);

std::string ParamName(const testing::TestParamInfo<Params>& info) {
  return std::string(info.param.mode == LogMode::kSimple ? "simple" : "hybrid") + "_seed" +
         std::to_string(info.param.seed);
}

class RandomHistoryTest : public testing::TestWithParam<Params> {};

INSTANTIATE_TEST_SUITE_P(Sweep, RandomHistoryTest,
                         testing::Values(Params{LogMode::kSimple, 0, 1},
                                         Params{LogMode::kSimple, 0, 2},
                                         Params{LogMode::kSimple, 0, 3},
                                         Params{LogMode::kHybrid, 0, 1},
                                         Params{LogMode::kHybrid, 0, 2},
                                         Params{LogMode::kHybrid, 0, 3},
                                         Params{LogMode::kHybrid, 0, 4},
                                         Params{LogMode::kHybrid, 0, 5}),
                         ParamName);

constexpr int kAtomicVars = 6;
constexpr int kMutexVars = 3;

std::string AtomicName(int i) { return "a" + std::to_string(i); }
std::string MutexName(int i) { return "m" + std::to_string(i); }

TEST_P(RandomHistoryTest, RecoveredStateMatchesCommittedModel) {
  const Params params = GetParam();
  Rng rng(params.seed * 7919);
  StorageHarness h(params.mode);

  // Model: committed value per atomic var; last-prepared value per mutex var.
  std::map<std::string, std::int64_t> model_atomic;
  std::map<std::string, std::int64_t> model_mutex;

  // Seed the stable state.
  {
    ActionId t0 = Aid(1);
    for (int i = 0; i < kAtomicVars; ++i) {
      RecoverableObject* obj = h.ctx(t0).CreateAtomic(h.heap(), Value::Int(0));
      ASSERT_TRUE(h.BindStable(t0, AtomicName(i), obj).ok());
      model_atomic[AtomicName(i)] = 0;
    }
    for (int i = 0; i < kMutexVars; ++i) {
      RecoverableObject* obj = h.ctx(t0).CreateMutex(h.heap(), Value::Int(0));
      ASSERT_TRUE(h.BindStable(t0, MutexName(i), obj).ok());
      model_mutex[MutexName(i)] = 0;
    }
    ASSERT_TRUE(h.PrepareAndCommit(t0).ok());
  }

  std::uint64_t next_seq = 2;
  for (int step = 0; step < 120; ++step) {
    ActionId aid = Aid(next_seq++);
    std::map<std::string, std::int64_t> staged_atomic;
    std::map<std::string, std::int64_t> staged_mutex;

    // Touch 1-3 atomic vars and 0-1 mutex vars.
    int k = static_cast<int>(rng.NextInRange(1, 3));
    bool blocked = false;
    for (int j = 0; j < k; ++j) {
      std::string name = AtomicName(static_cast<int>(rng.NextBelow(kAtomicVars)));
      std::int64_t v = static_cast<std::int64_t>(rng.NextBelow(1000));
      Status s = h.ctx(aid).WriteObject(h.StableVar(name), Value::Int(v));
      if (!s.ok()) {
        blocked = true;  // lock conflict with a still-prepared action
        break;
      }
      staged_atomic[name] = v;
    }
    if (!blocked && rng.NextBool(0.4)) {
      std::string name = MutexName(static_cast<int>(rng.NextBelow(kMutexVars)));
      std::int64_t v = static_cast<std::int64_t>(rng.NextBelow(1000));
      Status s = h.ctx(aid).MutateMutex(h.StableVar(name), [&](Value& mv) {
        mv = Value::Int(v);
      });
      if (s.ok()) {
        staged_mutex[name] = v;
      }
    }
    if (blocked) {
      ASSERT_TRUE(h.AbortPrepared(aid).ok());  // releases whatever was taken
      continue;
    }

    // Occasionally early-prepare part of the work (hybrid exercise).
    if (params.mode == LogMode::kHybrid && rng.NextBool(0.3)) {
      Result<ModifiedObjectsSet> leftover = h.rs().WriteEntry(aid, h.ctx(aid).TakeMos());
      ASSERT_TRUE(leftover.ok());
      h.ctx(aid).AddToMos(leftover.value());
    }

    double dice = rng.NextDouble();
    if (dice < 0.15) {
      // Abort before prepare: no durable trace.
      ASSERT_TRUE(h.AbortPrepared(aid).ok());
      continue;
    }
    ASSERT_TRUE(h.PrepareOnly(aid).ok());
    // Once prepared, mutex writes are durable whatever happens next.
    for (const auto& [name, v] : staged_mutex) {
      model_mutex[name] = v;
    }
    if (dice < 0.30) {
      // Prepared then aborted.
      ASSERT_TRUE(h.AbortPrepared(aid).ok());
      continue;
    }
    if (dice < 0.40) {
      // Prepared, undecided at crash time: resolved by abort after recovery.
      continue;
    }
    ASSERT_TRUE(h.rs().Commit(aid).ok());
    h.ctx(aid).CommitVolatile(h.heap());
    for (const auto& [name, v] : staged_atomic) {
      model_atomic[name] = v;
    }

    // Occasional housekeeping (hybrid only).
    if (params.mode == LogMode::kHybrid && rng.NextBool(0.05)) {
      HousekeepingMethod method = rng.NextBool(0.5) ? HousekeepingMethod::kCompaction
                                                    : HousekeepingMethod::kSnapshot;
      ASSERT_TRUE(h.rs().Housekeep(method).ok()) << "step " << step;
    }

    // Occasional crash + recovery mid-history.
    if (rng.NextBool(0.08)) {
      Result<RecoveryInfo> info = h.CrashAndRecover();
      ASSERT_TRUE(info.ok()) << "step " << step << ": " << info.status().ToString();
      // Resolve all still-prepared actions by aborting them.
      for (const auto& [paid, state] : info.value().pt) {
        if (state == ParticipantState::kPrepared) {
          ASSERT_TRUE(h.rs().Abort(paid).ok());
          for (const auto& [uid, entry] : info.value().ot) {
            if (entry.object->is_atomic()) {
              entry.object->AbortAction(paid);
            }
          }
        }
      }
      for (const auto& [name, v] : model_atomic) {
        ASSERT_EQ(h.StableVar(name)->base_version(), Value::Int(v))
            << name << " at step " << step;
      }
      for (const auto& [name, v] : model_mutex) {
        ASSERT_EQ(h.StableVar(name)->mutex_value(), Value::Int(v))
            << name << " at step " << step;
      }
    }
  }

  // Final crash: full check.
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // Global structural invariants of the recovered heap (V1-V6).
  ValidationReport structural = ValidateRecoveredState(h.heap(), info.value());
  EXPECT_TRUE(structural.clean()) << structural.ToString();
  for (const auto& [name, v] : model_atomic) {
    EXPECT_EQ(h.StableVar(name)->base_version(), Value::Int(v)) << name;
  }
  for (const auto& [name, v] : model_mutex) {
    EXPECT_EQ(h.StableVar(name)->mutex_value(), Value::Int(v)) << name;
  }

  // Structural invariants.
  const AccessibilitySet& as = h.rs().writer().accessibility_set();
  for (Uid uid : h.heap().ComputeAccessibleUids()) {
    EXPECT_TRUE(as.contains(uid)) << "AS must cover reachable " << to_string(uid);
  }
}

TEST(RandomizedGraphs, RandomObjectGraphsSurviveCrash) {
  // Random nested value graphs with cross-references: flatten/unflatten and
  // reference resolution must reproduce them exactly.
  Rng rng(424242);
  StorageHarness h(LogMode::kHybrid);
  ActionId t0 = Aid(1);
  std::vector<RecoverableObject*> objs;
  for (int i = 0; i < 20; ++i) {
    // Build a random value possibly referencing earlier objects.
    Value v;
    switch (rng.NextBelow(4)) {
      case 0:
        v = Value::Int(static_cast<std::int64_t>(rng.NextBelow(100)));
        break;
      case 1:
        v = Value::Str(std::string(rng.NextBelow(20), 'x'));
        break;
      case 2: {
        Value::List list;
        for (std::uint64_t j = 0; j < rng.NextBelow(4); ++j) {
          list.push_back(Value::Int(static_cast<std::int64_t>(j)));
        }
        if (!objs.empty() && rng.NextBool(0.7)) {
          list.push_back(Value::Ref(objs[rng.NextBelow(objs.size())]));
        }
        v = Value::OfList(std::move(list));
        break;
      }
      default: {
        Value::Record rec;
        rec["n"] = Value::Int(static_cast<std::int64_t>(i));
        if (!objs.empty() && rng.NextBool(0.7)) {
          rec["ref"] = Value::Ref(objs[rng.NextBelow(objs.size())]);
        }
        v = Value::OfRecord(std::move(rec));
        break;
      }
    }
    objs.push_back(h.ctx(t0).CreateAtomic(h.heap(), std::move(v)));
    ASSERT_TRUE(h.BindStable(t0, "o" + std::to_string(i), objs.back()).ok());
  }
  // Remember flattened images keyed by variable name.
  std::map<std::string, std::vector<std::byte>> images;
  for (int i = 0; i < 20; ++i) {
    images["o" + std::to_string(i)] =
        FlattenValue(objs[static_cast<std::size_t>(i)]->current_version(), nullptr);
  }
  ASSERT_TRUE(h.PrepareAndCommit(t0).ok());
  ASSERT_TRUE(h.CrashAndRecover().ok());
  for (const auto& [name, image] : images) {
    RecoverableObject* obj = h.StableVar(name);
    ASSERT_NE(obj, nullptr) << name;
    EXPECT_EQ(FlattenValue(obj->base_version(), nullptr), image) << name;
  }
}

}  // namespace
}  // namespace argus
