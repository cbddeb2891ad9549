// Replays of the thesis's log-scenario figures, built entry by entry exactly
// as drawn, then recovered; the final PT/CT/OT contents are asserted against
// the tables the thesis prints at "algorithm's end".
//
//   Figure 3-7: simple log, atomic objects (scenario 1)
//   Figure 3-8: simple log, mutex objects (scenario 2)
//   Figure 3-9: simple log, newly accessible objects (scenario 3, fig. 3-5)
//   Figure 3-10: coordinator's log (scenario 4)
//   Figure 4-2: hybrid log after a prepare
//   Figure 4-3: hybrid log with early-prepare interleaving (§4.4)

#include <gtest/gtest.h>

#include "src/object/flatten.h"
#include "src/recovery/recovery_algorithms.h"
#include "tests/test_support.h"

namespace argus {
namespace {

std::vector<std::byte> Flat(const Value& v) { return FlattenValue(v, nullptr); }

// Builds a raw log, maintaining the hybrid backward chain when asked to.
class LogBuilder {
 public:
  explicit LogBuilder(bool chain) : chain_(chain), log_(MakeMemLog()) {}

  LogAddress Data(Uid uid, ObjectKind kind, Value v, ActionId aid) {
    DataEntry e;
    if (!chain_) {
      e.uid = uid;
      e.aid = aid;
    }
    e.kind = kind;
    e.value = Flat(v);
    return log_->Write(LogEntry(std::move(e)));
  }

  LogAddress Outcome(LogEntry entry) {
    if (chain_) {
      std::visit(
          [this](auto& e) {
            using T = std::decay_t<decltype(e)>;
            if constexpr (!std::is_same_v<T, DataEntry>) {
              e.prev = last_;
            }
          },
          entry);
    }
    LogAddress addr = log_->Write(entry);
    last_ = addr;
    return addr;
  }

  StableLog& Finish() {
    Status s = log_->Force();
    ARGUS_CHECK(s.ok());
    return *log_;
  }

 private:
  bool chain_;
  std::unique_ptr<StableLog> log_;
  LogAddress last_ = LogAddress::Null();
};

TEST(Figure3_7, AtomicObjectsScenario) {
  ActionId t1 = Aid(1);
  ActionId t2 = Aid(2);
  Uid o1{1};
  Uid o2{2};

  LogBuilder b(/*chain=*/false);
  b.Outcome(LogEntry(BaseCommittedEntry{o1, Flat(Value::Int(10))}));
  b.Outcome(LogEntry(BaseCommittedEntry{o2, Flat(Value::Int(20))}));
  b.Data(o2, ObjectKind::kAtomic, Value::Int(21), t1);
  b.Outcome(LogEntry(PreparedEntry{t1, {}}));
  b.Outcome(LogEntry(CommittedEntry{t1}));
  b.Data(o1, ObjectKind::kAtomic, Value::Int(11), t2);
  b.Outcome(LogEntry(PreparedEntry{t2, {}}));

  VolatileHeap heap;
  Result<RecoveryResult> r = RecoverSimpleLog(b.Finish(), heap);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // PT: T1 committed, T2 prepared.
  EXPECT_EQ(r.value().pt.at(t1), ParticipantState::kCommitted);
  EXPECT_EQ(r.value().pt.at(t2), ParticipantState::kPrepared);

  // OT: both restored with volatile addresses.
  ASSERT_EQ(r.value().ot.size(), 2u);
  EXPECT_EQ(r.value().ot.at(o1).state, ObjectRecoveryState::kRestored);
  EXPECT_EQ(r.value().ot.at(o2).state, ObjectRecoveryState::kRestored);

  // O1: base V1, current V2 write-locked by the prepared T2 (step 2/7).
  RecoverableObject* obj1 = r.value().ot.at(o1).object;
  EXPECT_EQ(obj1->base_version(), Value::Int(10));
  EXPECT_EQ(obj1->current_version(), Value::Int(11));
  EXPECT_TRUE(obj1->HoldsWriteLock(t2));
  // O2: the committed current version became the base (step 5).
  RecoverableObject* obj2 = r.value().ot.at(o2).object;
  EXPECT_EQ(obj2->base_version(), Value::Int(21));
  EXPECT_FALSE(obj2->has_current());
  // Stable counter resumes past O2 (step 8).
  EXPECT_GE(heap.next_uid(), 3u);
}

TEST(Figure3_8, MutexObjectsScenario) {
  ActionId t1 = Aid(1);
  ActionId t2 = Aid(2);
  Uid o1{1};
  Uid o2{2};

  LogBuilder b(/*chain=*/false);
  b.Data(o1, ObjectKind::kMutex, Value::Int(101), t1);
  b.Data(o2, ObjectKind::kMutex, Value::Int(201), t1);
  b.Outcome(LogEntry(PreparedEntry{t1, {}}));
  b.Outcome(LogEntry(CommittedEntry{t1}));
  b.Data(o1, ObjectKind::kMutex, Value::Int(102), t2);
  b.Outcome(LogEntry(PreparedEntry{t2, {}}));
  b.Outcome(LogEntry(AbortedEntry{t2}));

  VolatileHeap heap;
  Result<RecoveryResult> r = RecoverSimpleLog(b.Finish(), heap);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_EQ(r.value().pt.at(t1), ParticipantState::kCommitted);
  EXPECT_EQ(r.value().pt.at(t2), ParticipantState::kAborted);

  // O1: the PREPARED T2's version holds even though T2 aborted (step 3).
  EXPECT_EQ(r.value().ot.at(o1).state, ObjectRecoveryState::kRestored);
  EXPECT_EQ(r.value().ot.at(o1).object->mutex_value(), Value::Int(102));
  // O2: T1's committed version.
  EXPECT_EQ(r.value().ot.at(o2).object->mutex_value(), Value::Int(201));
}

TEST(Figure3_9, NewlyAccessibleObjectsScenario) {
  // The log that results from the Figure 3-5 history: T1 committed; T2
  // modified O1 and newly-created O3, prepared, aborted; T3 modified O2 to
  // reference O3, prepared, committed.
  ActionId t1 = Aid(1);
  ActionId t2 = Aid(2);
  ActionId t3 = Aid(3);
  Uid o1{1};
  Uid o2{2};
  Uid o3{3};

  LogBuilder b(/*chain=*/false);
  b.Outcome(LogEntry(BaseCommittedEntry{o1, Flat(Value::Int(10))}));
  b.Outcome(LogEntry(BaseCommittedEntry{o2, Flat(Value::Int(20))}));
  b.Outcome(LogEntry(PreparedEntry{t1, {}}));
  b.Outcome(LogEntry(CommittedEntry{t1}));
  // T2 prepares: current of O1 (→O3), base of newly accessible O3, current
  // of O3.
  b.Data(o1, ObjectKind::kAtomic, Value::OfUid(o3), t2);
  b.Outcome(LogEntry(BaseCommittedEntry{o3, Flat(Value::Int(30))}));
  b.Data(o3, ObjectKind::kAtomic, Value::Int(33), t2);
  b.Outcome(LogEntry(PreparedEntry{t2, {}}));
  // T3 prepares: current of O2 (→O3).
  b.Data(o2, ObjectKind::kAtomic, Value::OfUid(o3), t3);
  b.Outcome(LogEntry(PreparedEntry{t3, {}}));
  b.Outcome(LogEntry(AbortedEntry{t2}));
  b.Outcome(LogEntry(CommittedEntry{t3}));

  VolatileHeap heap;
  Result<RecoveryResult> r = RecoverSimpleLog(b.Finish(), heap);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // PT: T1 committed, T2 aborted, T3 committed.
  EXPECT_EQ(r.value().pt.at(t1), ParticipantState::kCommitted);
  EXPECT_EQ(r.value().pt.at(t2), ParticipantState::kAborted);
  EXPECT_EQ(r.value().pt.at(t3), ParticipantState::kCommitted);

  // OT: all three restored.
  ASSERT_EQ(r.value().ot.size(), 3u);
  for (Uid uid : {o1, o2, o3}) {
    EXPECT_EQ(r.value().ot.at(uid).state, ObjectRecoveryState::kRestored) << to_string(uid);
  }
  // O1: T2 aborted, so its base V1 stands (step 12).
  EXPECT_EQ(r.value().ot.at(o1).object->base_version(), Value::Int(10));
  // O3: the BASE survives (needed by T3) even though T2 aborted; T2's
  // current (33) is discarded — the point of the example.
  EXPECT_EQ(r.value().ot.at(o3).object->base_version(), Value::Int(30));
  EXPECT_FALSE(r.value().ot.at(o3).object->has_current());
  // O2: committed version references O3, patched to a real pointer.
  const Value& o2_val = r.value().ot.at(o2).object->base_version();
  ASSERT_TRUE(o2_val.is_ref());
  EXPECT_EQ(o2_val.as_ref(), r.value().ot.at(o3).object);
  // Stable counter reset to past O3 (step 13).
  EXPECT_GE(heap.next_uid(), 4u);
}

TEST(Figure3_10, CoordinatorLogScenario) {
  ActionId t1 = Aid(1);
  ActionId t2 = Aid(2);
  Uid o1{1};
  Uid o2{2};
  std::vector<GuardianId> gids = {GuardianId{1}, GuardianId{2}, GuardianId{3}};

  LogBuilder b(/*chain=*/false);
  b.Outcome(LogEntry(BaseCommittedEntry{o1, Flat(Value::Int(10))}));
  b.Data(o1, ObjectKind::kAtomic, Value::Int(11), t1);
  b.Outcome(LogEntry(BaseCommittedEntry{o2, Flat(Value::Int(20))}));
  b.Outcome(LogEntry(PreparedEntry{t1, {}}));
  b.Outcome(LogEntry(CommittedEntry{t1}));
  b.Data(o2, ObjectKind::kAtomic, Value::Int(21), t2);
  b.Outcome(LogEntry(PreparedEntry{t2, {}}));
  b.Outcome(LogEntry(CommittingEntry{t2, gids}));
  b.Outcome(LogEntry(CommittedEntry{t2}));
  b.Outcome(LogEntry(DoneEntry{t2}));

  VolatileHeap heap;
  Result<RecoveryResult> r = RecoverSimpleLog(b.Finish(), heap);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // PT: both committed. CT: T2 done — "no coordinator needs to be restarted".
  EXPECT_EQ(r.value().pt.at(t1), ParticipantState::kCommitted);
  EXPECT_EQ(r.value().pt.at(t2), ParticipantState::kCommitted);
  ASSERT_EQ(r.value().ct.size(), 1u);
  EXPECT_EQ(r.value().ct.at(t2).phase, CoordinatorPhase::kDone);

  EXPECT_EQ(r.value().ot.at(o1).object->base_version(), Value::Int(11));
  EXPECT_EQ(r.value().ot.at(o2).object->base_version(), Value::Int(21));
}

TEST(Figure4_2, HybridLogAfterPrepareScenario) {
  // O1 atomic, O2 mutex; T1 prepared+committed, T2 prepared (undecided).
  ActionId t1 = Aid(1);
  ActionId t2 = Aid(2);
  Uid o1{1};
  Uid o2{2};

  LogBuilder b(/*chain=*/true);
  b.Outcome(LogEntry(BaseCommittedEntry{o1, Flat(Value::Int(10))}));
  LogAddress l1 = b.Data(o1, ObjectKind::kAtomic, Value::Int(11), t1);
  LogAddress l2 = b.Data(o2, ObjectKind::kMutex, Value::Int(21), t1);
  b.Outcome(LogEntry(PreparedEntry{t1, {{o1, l1}, {o2, l2}}}));
  b.Outcome(LogEntry(CommittedEntry{t1}));
  LogAddress l1b = b.Data(o1, ObjectKind::kAtomic, Value::Int(12), t2);
  LogAddress l2b = b.Data(o2, ObjectKind::kMutex, Value::Int(22), t2);
  b.Outcome(LogEntry(PreparedEntry{t2, {{o1, l1b}, {o2, l2b}}}));

  VolatileHeap heap;
  Result<RecoveryResult> r = RecoverHybridLog(b.Finish(), heap);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Tables exactly as printed: O1/O2 restored; T1 committed, T2 prepared.
  EXPECT_EQ(r.value().pt.at(t1), ParticipantState::kCommitted);
  EXPECT_EQ(r.value().pt.at(t2), ParticipantState::kPrepared);
  ASSERT_EQ(r.value().ot.size(), 2u);
  EXPECT_EQ(r.value().ot.at(o1).state, ObjectRecoveryState::kRestored);
  EXPECT_EQ(r.value().ot.at(o2).state, ObjectRecoveryState::kRestored);

  // O1: current = T2's tentative (write-locked), base = T1's committed value.
  RecoverableObject* obj1 = r.value().ot.at(o1).object;
  EXPECT_EQ(obj1->current_version(), Value::Int(12));
  EXPECT_EQ(obj1->base_version(), Value::Int(11));
  EXPECT_TRUE(obj1->HoldsWriteLock(t2));
  // O2: the latest prepared mutex version.
  EXPECT_EQ(r.value().ot.at(o2).object->mutex_value(), Value::Int(22));
}

TEST(Figure4_3, EarlyPrepareInterleavingScenario) {
  // §4.4: T1 early-writes mutex O1 (L1), then T2 writes O1 (L2 > L1) and
  // prepares FIRST; T1 prepares later and commits. Without the address rule,
  // walking the chain backward would install T1's stale O1 version.
  ActionId t1 = Aid(1);
  ActionId t2 = Aid(2);
  Uid o1{1};
  Uid o2{2};
  Uid o3{3};
  Uid o4{4};

  LogBuilder b(/*chain=*/true);
  LogAddress l1 = b.Data(o1, ObjectKind::kMutex, Value::Str("T1-old"), t1);
  LogAddress l2 = b.Data(o1, ObjectKind::kMutex, Value::Str("T2-new"), t2);
  b.Outcome(LogEntry(BaseCommittedEntry{o2, Flat(Value::Int(20))}));
  b.Outcome(LogEntry(BaseCommittedEntry{o3, Flat(Value::Int(30))}));
  LogAddress l3 = b.Data(o2, ObjectKind::kAtomic, Value::Int(21), t2);
  LogAddress l4 = b.Data(o3, ObjectKind::kAtomic, Value::Int(31), t2);
  b.Outcome(LogEntry(PreparedEntry{t2, {{o1, l2}, {o2, l3}, {o3, l4}}}));
  LogAddress l5 = b.Data(o4, ObjectKind::kAtomic, Value::Int(41), t1);
  b.Outcome(LogEntry(BaseCommittedEntry{o4, Flat(Value::Int(40))}));
  b.Outcome(LogEntry(PreparedEntry{t1, {{o1, l1}, {o4, l5}}}));
  b.Outcome(LogEntry(CommittedEntry{t1}));

  VolatileHeap heap;
  Result<RecoveryResult> r = RecoverHybridLog(b.Finish(), heap);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_EQ(r.value().pt.at(t1), ParticipantState::kCommitted);
  EXPECT_EQ(r.value().pt.at(t2), ParticipantState::kPrepared);

  // The LATEST data entry (L2, by address) wins for mutex O1, even though
  // T1's prepared entry sits later in the backward chain.
  EXPECT_EQ(r.value().ot.at(o1).object->mutex_value(), Value::Str("T2-new"));
  EXPECT_EQ(r.value().ot.at(o1).mutex_address, l2);

  // T1 committed: O4 restored to its committed current version.
  EXPECT_EQ(r.value().ot.at(o4).object->base_version(), Value::Int(41));
  // T2 undecided: O2/O3 tentative versions restored under T2's locks.
  EXPECT_TRUE(r.value().ot.at(o2).object->HoldsWriteLock(t2));
  EXPECT_EQ(r.value().ot.at(o2).object->current_version(), Value::Int(21));
  EXPECT_EQ(r.value().ot.at(o2).object->base_version(), Value::Int(20));
  EXPECT_EQ(r.value().ot.at(o3).object->current_version(), Value::Int(31));
}

TEST(Figure4_3, WithoutInterleavingOrderIsStillCorrect) {
  // Control: same history, but prepared entries in write order — both chain
  // order and address order agree, and the result is identical.
  ActionId t1 = Aid(1);
  ActionId t2 = Aid(2);
  Uid o1{1};

  LogBuilder b(/*chain=*/true);
  LogAddress l1 = b.Data(o1, ObjectKind::kMutex, Value::Str("T1-old"), t1);
  b.Outcome(LogEntry(PreparedEntry{t1, {{o1, l1}}}));
  b.Outcome(LogEntry(CommittedEntry{t1}));
  LogAddress l2 = b.Data(o1, ObjectKind::kMutex, Value::Str("T2-new"), t2);
  b.Outcome(LogEntry(PreparedEntry{t2, {{o1, l2}}}));

  VolatileHeap heap;
  Result<RecoveryResult> r = RecoverHybridLog(b.Finish(), heap);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ot.at(o1).object->mutex_value(), Value::Str("T2-new"));
}

}  // namespace
}  // namespace argus
