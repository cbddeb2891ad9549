// Recoverable objects (§2.4): the units written to stable storage.
//
// Built-in atomic objects carry a base (committed) version plus, while some
// action holds the write lock, a current (tentative) version. Commit installs
// the current version as the new base; abort discards it. Mutex objects have
// a single current version and a seize/release possession lock; their new
// state survives once the modifying action *prepares*, even if it later
// aborts (§2.4.2).
//
// Lock acquisition returns kUnavailable on conflict; the runtime decides
// whether to wait or abort. The simulation is single-threaded, so there is
// no blocking here.

#ifndef SRC_OBJECT_RECOVERABLE_OBJECT_H_
#define SRC_OBJECT_RECOVERABLE_OBJECT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/ids.h"
#include "src/common/object_kind.h"
#include "src/common/result.h"
#include "src/object/value.h"

namespace argus {

class RecoverableObject {
 public:
  RecoverableObject(ObjectKind kind, Uid uid, Value initial)
      : kind_(kind), uid_(uid), base_(std::move(initial)) {}

  ObjectKind kind() const { return kind_; }
  Uid uid() const { return uid_; }
  bool is_atomic() const { return kind_ == ObjectKind::kAtomic; }
  bool is_mutex() const { return kind_ == ObjectKind::kMutex; }

  // ---- Atomic object protocol ----

  Status AcquireReadLock(ActionId aid);
  // Creates the current version (a copy of base) on first acquisition.
  Status AcquireWriteLock(ActionId aid);
  bool HoldsReadLock(ActionId aid) const;
  bool HoldsWriteLock(ActionId aid) const { return write_locker_ == aid; }
  std::optional<ActionId> write_locker() const { return write_locker_; }
  bool locked() const { return write_locker_.has_value() || !read_lockers_.empty(); }

  // The committed version. Must be resident — callers fault evicted objects
  // back in (through the bound ResidencyPager) before dereferencing.
  const Value& base_version() const {
    ARGUS_CHECK_MSG(!evicted_, "dereferencing an evicted object's base version");
    return base_;
  }
  // The tentative version if one exists, else the base.
  const Value& current_version() const { return current_ ? *current_ : base_version(); }
  bool has_current() const { return current_.has_value(); }

  // Mutable access to the tentative version; requires the write lock.
  Value& MutableCurrent(ActionId aid);

  // Installs the tentative version (if `aid` held the write lock) and drops
  // all of `aid`'s locks.
  void CommitAction(ActionId aid);
  // Discards the tentative version (if `aid` held the write lock) and drops
  // all of `aid`'s locks.
  void AbortAction(ActionId aid);

  // ---- Mutex object protocol ----

  Status Seize(ActionId aid);
  void Release(ActionId aid);
  bool seized() const { return seizer_.has_value(); }
  // Mutable access to the single (current) version; requires possession.
  Value& MutableValue(ActionId aid);
  const Value& mutex_value() const {
    ARGUS_CHECK_MSG(!evicted_, "dereferencing an evicted mutex object's value");
    return base_;
  }

  // ---- Recovery-time restoration (bypasses locking) ----

  // Sets the committed/base version (atomic) or the current version (mutex).
  void RestoreBase(Value v);
  // Sets a tentative version and grants `aid` the write lock (atomic only),
  // reproducing the pre-crash prepared-but-undecided situation.
  void RestoreCurrentWithLock(Value v, ActionId aid);
  bool base_restored() const { return base_restored_; }
  void set_base_restored(bool restored) { base_restored_ = restored; }

  // ---- Residency (src/residency) ----
  //
  // A cold committed object can be *evicted*: its base version is replaced by
  // a compact stub <uid, stable_address_, evicted_bytes_> and rematerialized
  // on first touch by decoding the durable log frame at that address. The
  // address slots are maintained by the log writer (stage time), recovery
  // (OT priming), and CommitAction (pending → stable promotion), so the stub
  // always names a frame whose payload equals the committed base version.

  // Durable frame whose data payload equals the committed base (atomic) or
  // the live value (mutex). Null when unknown (the object was never logged,
  // or the log was swapped out from under the address).
  LogAddress stable_address() const { return stable_address_; }
  void set_stable_address(LogAddress addr) { stable_address_ = addr; }
  // Atomic only: frame holding the tentative current version. CommitAction
  // promotes it into stable_address_; AbortAction discards it.
  void set_pending_stable_address(LogAddress addr) { pending_stable_address_ = addr; }
  // Checkpoint swap retires the old log; every address into it is wiped.
  void ClearStableAddresses() {
    stable_address_ = LogAddress::Null();
    pending_stable_address_ = LogAddress::Null();
  }

  bool evicted() const { return evicted_; }
  std::size_t evicted_bytes() const { return evicted_bytes_; }
  // Uids the evicted value referenced — kept so stable-state traversal still
  // sees the object graph without rematerializing the payload.
  const std::vector<Uid>& stub_refs() const { return stub_refs_; }

  // Demotes the object: drops the base version, keeping only the stub. The
  // caller has checked eligibility (committed, unlocked, unpinned, durable
  // address known).
  void Evict(std::size_t approx_bytes, std::vector<Uid> refs);
  // Reinstalls a rematerialized base version (pointers already resolved).
  void Materialize(Value v);

  // Pin: objects touched by an in-flight action are never evicted. Saturating
  // on unpin — recovery adopts touched sets without pinning them.
  void Pin() { ++pin_count_; }
  void Unpin() {
    if (pin_count_ > 0) {
      --pin_count_;
    }
  }
  std::uint32_t pin_count() const { return pin_count_; }

  // Second-chance (clock) reference bit, set on every touch.
  void MarkReferenced() { ref_bit_ = true; }
  bool TestAndClearReferenced() {
    bool was = ref_bit_;
    ref_bit_ = false;
    return was;
  }

 private:
  friend class VolatileHeap;

  // Resident-bytes accounting (VolatileHeap::SettleResidentBytes): every
  // change to base_ or current_ puts the object on its heap's dirty list.
  void VersionChanged();
  // ApproxBytes of the versions in memory: the base unless evicted, plus the
  // tentative version.
  std::size_t VersionBytes() const;

  ObjectKind kind_;
  Uid uid_;
  Value base_;                   // atomic: committed version; mutex: the version
  std::optional<Value> current_; // atomic only: tentative version
  std::optional<ActionId> write_locker_;
  std::vector<ActionId> read_lockers_;
  std::optional<ActionId> seizer_;
  bool base_restored_ = true;    // recovery bookkeeping

  // Residency state (see the section above).
  LogAddress stable_address_ = LogAddress::Null();
  LogAddress pending_stable_address_ = LogAddress::Null();
  bool evicted_ = false;
  bool ref_bit_ = false;
  std::uint32_t pin_count_ = 0;
  std::size_t evicted_bytes_ = 0;
  std::vector<Uid> stub_refs_;

  // Resident-bytes accounting state, owned by the heap.
  std::vector<RecoverableObject*>* dirty_list_ = nullptr;
  std::size_t counted_bytes_ = 0;  // VersionBytes() when last settled
  bool dirty_ = false;
};

}  // namespace argus

#endif  // SRC_OBJECT_RECOVERABLE_OBJECT_H_
