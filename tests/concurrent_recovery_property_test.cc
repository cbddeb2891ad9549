// Property test for group-commit recovery: many actions advance CONCURRENTLY
// through write → stage-prepare → stage-outcome → wait-durable, interleaved
// by a seeded scheduler, and the history crashes at a random tick. The
// stage/force split means the log's staged tail can hold a whole batch of
// undecided work when the crash hits.
//
// Invariant: recovery must reconstruct exactly the durable prefix — the
// recovered atomic state equals a serial oracle replay of the actions whose
// commit entry made it to the medium (in stage order), mutex objects hold
// the last durably-PREPARED value, and the recovered PT lists precisely the
// durably-prepared-but-undecided actions.
//
// This extends randomized_property_test.cc, which drives the same invariant
// through the serial (force-per-operation) API.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/recovery/validate.h"
#include "tests/test_support.h"

namespace argus {
namespace {

constexpr int kAtomicVars = 5;
constexpr int kMutexVars = 2;
constexpr std::size_t kConcurrentActions = 4;  // scheduler slots
constexpr std::size_t kActionBudget = 40;

std::string AtomicName(int i) { return "a" + std::to_string(i); }
std::string MutexName(int i) { return "m" + std::to_string(i); }

struct Params {
  LogMode mode;
  std::uint64_t seed;
};

std::string Name(const Params& params) {
  return std::string(params.mode == LogMode::kSimple ? "simple" : "hybrid") + "_seed" +
         std::to_string(params.seed);
}

// gtest prints the parameter into the test listing that ctest names its tests
// by; a byte dump would carry padding bytes that differ between builds.
void PrintTo(const Params& params, std::ostream* os) { *os << Name(params); }

std::string ParamName(const testing::TestParamInfo<Params>& info) { return Name(info.param); }

class ConcurrentRecoveryTest : public testing::TestWithParam<Params> {};

INSTANTIATE_TEST_SUITE_P(Sweep, ConcurrentRecoveryTest,
                         testing::Values(Params{LogMode::kSimple, 1},
                                         Params{LogMode::kSimple, 2},
                                         Params{LogMode::kSimple, 3},
                                         Params{LogMode::kSimple, 4},
                                         Params{LogMode::kHybrid, 1},
                                         Params{LogMode::kHybrid, 2},
                                         Params{LogMode::kHybrid, 3},
                                         Params{LogMode::kHybrid, 4},
                                         Params{LogMode::kHybrid, 5},
                                         Params{LogMode::kHybrid, 6}),
                         ParamName);

// One in-flight action, advanced micro-step by micro-step by the scheduler.
struct Machine {
  enum class Phase { kStart, kWritten, kPrepared, kOutcomeStaged, kDone };
  ActionId aid;
  Phase phase = Phase::kStart;
  std::map<std::string, std::int64_t> atomic_writes;
  std::map<std::string, std::int64_t> mutex_writes;
  LogAddress prepare_address = LogAddress::Null();
  LogAddress outcome_address = LogAddress::Null();
  std::uint64_t stage_epoch = 0;  // durability epoch at outcome-stage time
  bool committed = false;         // valid in kOutcomeStaged/kDone
};

TEST_P(ConcurrentRecoveryTest, RecoveredStateEqualsSerialOracleOfDurablePrefix) {
  const Params params = GetParam();
  Rng rng(params.seed * 131 + 7);
  StorageHarness h(params.mode);

  // Durable baseline.
  {
    ActionId t0 = Aid(1);
    for (int i = 0; i < kAtomicVars; ++i) {
      RecoverableObject* obj = h.ctx(t0).CreateAtomic(h.heap(), Value::Int(0));
      ASSERT_TRUE(h.BindStable(t0, AtomicName(i), obj).ok());
    }
    for (int i = 0; i < kMutexVars; ++i) {
      RecoverableObject* obj = h.ctx(t0).CreateMutex(h.heap(), Value::Int(0));
      ASSERT_TRUE(h.BindStable(t0, MutexName(i), obj).ok());
    }
    ASSERT_TRUE(h.PrepareAndCommit(t0).ok());
  }

  // Oracle inputs, recorded at STAGE time (the log's serialization order).
  std::vector<Machine> commit_order;    // snapshot when the commit entry staged
  std::vector<Machine> prepare_order;   // snapshot when the prepared entry staged
  std::vector<Machine> live(kConcurrentActions);
  std::map<ActionId, Machine> all;      // every action that staged a prepare

  std::uint64_t next_seq = 10;
  std::size_t started = 0;
  const std::uint64_t crash_tick = 10 + rng.NextBelow(220);

  auto start_machine = [&](Machine& m) {
    m = Machine{};
    m.aid = Aid(next_seq++);
    ++started;
  };
  for (Machine& m : live) {
    start_machine(m);
  }

  // The seeded scheduler: each tick advances one randomly chosen action by
  // one micro-step; the crash interrupts wherever the tick counter lands.
  bool crashed = false;
  for (std::uint64_t tick = 0; !crashed; ++tick) {
    if (tick >= crash_tick) {
      crashed = true;
      break;
    }
    // Pick a live, unfinished machine.
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].phase != Machine::Phase::kDone) {
        candidates.push_back(i);
      }
    }
    if (candidates.empty()) {
      break;  // budget exhausted with no crash: still a valid (boring) history
    }
    Machine& m = live[candidates[rng.NextBelow(candidates.size())]];

    switch (m.phase) {
      case Machine::Phase::kStart: {
        int k = static_cast<int>(rng.NextInRange(1, 2));
        bool blocked = false;
        for (int j = 0; j < k; ++j) {
          std::string name = AtomicName(static_cast<int>(rng.NextBelow(kAtomicVars)));
          std::int64_t v = static_cast<std::int64_t>(rng.NextBelow(1000));
          Status s = h.ctx(m.aid).WriteObject(h.StableVar(name), Value::Int(v));
          if (!s.ok()) {
            blocked = true;  // conflict with a concurrent undecided action
            break;
          }
          m.atomic_writes[name] = v;
        }
        if (!blocked && rng.NextBool(0.4)) {
          std::string name = MutexName(static_cast<int>(rng.NextBelow(kMutexVars)));
          std::int64_t v = static_cast<std::int64_t>(rng.NextBelow(1000));
          if (h.ctx(m.aid).MutateMutex(h.StableVar(name), [&](Value& mv) {
                 mv = Value::Int(v);
               }).ok()) {
            m.mutex_writes[name] = v;
          }
        }
        if (blocked) {
          h.ctx(m.aid).AbortVolatile(h.heap());
          m.phase = Machine::Phase::kDone;
        } else {
          m.phase = Machine::Phase::kWritten;
        }
        break;
      }
      case Machine::Phase::kWritten: {
        if (rng.NextBool(0.15)) {
          // Abort before prepare: no durable trace allowed.
          Result<std::optional<LogAddress>> staged = h.rs().StageAbort(m.aid);
          ASSERT_TRUE(staged.ok());
          EXPECT_FALSE(staged.value().has_value());
          h.ctx(m.aid).AbortVolatile(h.heap());
          m.phase = Machine::Phase::kDone;
          break;
        }
        if (params.mode == LogMode::kHybrid && rng.NextBool(0.25)) {
          // Early prepare: stage data entries ahead of the prepared entry.
          Result<ModifiedObjectsSet> leftover = h.rs().WriteEntry(m.aid, h.ctx(m.aid).TakeMos());
          ASSERT_TRUE(leftover.ok());
          h.ctx(m.aid).AddToMos(leftover.value());
        }
        Result<LogAddress> prepared = h.rs().StagePrepare(m.aid, h.ctx(m.aid).TakeMos());
        ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
        m.prepare_address = prepared.value();
        m.phase = Machine::Phase::kPrepared;
        prepare_order.push_back(m);
        all[m.aid] = m;
        break;
      }
      case Machine::Phase::kPrepared: {
        if (rng.NextBool(0.2)) {
          Result<std::optional<LogAddress>> staged = h.rs().StageAbort(m.aid);
          ASSERT_TRUE(staged.ok());
          ASSERT_TRUE(staged.value().has_value());
          m.outcome_address = *staged.value();
          m.committed = false;
          h.ctx(m.aid).AbortVolatile(h.heap());
        } else {
          Result<LogAddress> committed = h.rs().StageCommit(m.aid);
          ASSERT_TRUE(committed.ok());
          m.outcome_address = committed.value();
          m.committed = true;
          h.ctx(m.aid).CommitVolatile(h.heap());
          commit_order.push_back(m);
        }
        m.stage_epoch = h.rs().durability_epoch();
        all[m.aid] = m;
        m.phase = Machine::Phase::kOutcomeStaged;
        break;
      }
      case Machine::Phase::kOutcomeStaged: {
        // Sometimes the force happens (covering every older staged entry);
        // sometimes the action finishes "in the window" and the crash decides.
        if (rng.NextBool(0.7)) {
          ASSERT_TRUE(h.rs().WaitDurable(m.outcome_address, m.stage_epoch).ok());
        }
        m.phase = Machine::Phase::kDone;
        if (started < kActionBudget) {
          start_machine(m);
        }
        break;
      }
      case Machine::Phase::kDone:
        break;
    }
  }

  // Crash: only the durable prefix survives; the staged tail is lost.
  const std::uint64_t durable = h.rs().log().durable_size();
  Result<RecoveryInfo> info = h.CrashAndRecover();
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  // Serial oracle replay of the durable committed prefix, in stage order.
  std::map<std::string, std::int64_t> oracle_atomic;
  std::map<std::string, std::int64_t> oracle_mutex;
  for (int i = 0; i < kAtomicVars; ++i) {
    oracle_atomic[AtomicName(i)] = 0;
  }
  for (int i = 0; i < kMutexVars; ++i) {
    oracle_mutex[MutexName(i)] = 0;
  }
  for (const Machine& m : commit_order) {
    if (m.outcome_address.offset < durable) {
      for (const auto& [name, v] : m.atomic_writes) {
        oracle_atomic[name] = v;
      }
    }
  }
  for (const Machine& m : prepare_order) {
    if (m.prepare_address.offset < durable) {
      for (const auto& [name, v] : m.mutex_writes) {
        oracle_mutex[name] = v;
      }
    }
  }

  // The recovered PT must list exactly the durably-prepared, undecided
  // actions.
  std::set<ActionId> expected_prepared;
  for (const auto& [aid, m] : all) {
    bool prepared_durable = m.prepare_address.offset < durable;
    bool outcome_durable =
        m.outcome_address != LogAddress::Null() && m.outcome_address.offset < durable;
    if (prepared_durable && !outcome_durable) {
      expected_prepared.insert(aid);
    }
  }
  std::set<ActionId> recovered_prepared;
  for (const auto& [aid, state] : info.value().pt) {
    if (state == ParticipantState::kPrepared) {
      recovered_prepared.insert(aid);
    }
  }
  EXPECT_EQ(recovered_prepared, expected_prepared);

  // Structural invariants before resolving the stragglers.
  ValidationReport structural = ValidateRecoveredState(h.heap(), info.value());
  EXPECT_TRUE(structural.clean()) << structural.ToString();

  // Resolve the undecided prepared actions by aborting them (the participant
  // would learn the outcome from its coordinator; absent one, abort).
  for (ActionId aid : recovered_prepared) {
    ASSERT_TRUE(h.rs().Abort(aid).ok());
    for (const auto& [uid, entry] : info.value().ot) {
      if (entry.object->is_atomic()) {
        entry.object->AbortAction(aid);
      }
    }
  }

  for (const auto& [name, v] : oracle_atomic) {
    EXPECT_EQ(h.StableVar(name)->base_version(), Value::Int(v))
        << name << " (durable=" << durable << ", crash_tick=" << crash_tick << ")";
  }
  for (const auto& [name, v] : oracle_mutex) {
    EXPECT_EQ(h.StableVar(name)->mutex_value(), Value::Int(v))
        << name << " (durable=" << durable << ", crash_tick=" << crash_tick << ")";
  }
}

}  // namespace
}  // namespace argus
