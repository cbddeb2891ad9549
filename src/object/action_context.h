// Per-action volatile bookkeeping at one guardian.
//
// The Argus runtime (not the recovery system) tracks, for each action, which
// objects it locked or created and which it modified — the latter is the MOS
// passed to prepare/write_entry (§2.3). ActionContext also applies the
// volatile side of commit/abort: installing or discarding tentative versions
// and releasing locks.

#ifndef SRC_OBJECT_ACTION_CONTEXT_H_
#define SRC_OBJECT_ACTION_CONTEXT_H_

#include <functional>

#include "src/object/heap.h"
#include "src/object/residency_hooks.h"

namespace argus {

class ActionContext {
 public:
  explicit ActionContext(ActionId aid) : aid_(aid) {}

  ActionId aid() const { return aid_; }

  // Faults `obj` in if it was evicted, acquires a read lock and returns a
  // view of the version this action sees (the tentative version if this
  // action wrote it, else the base). Nothing is copied: the view is the
  // object's own version, so it stays valid only until this action writes
  // that object or completes. A caller that needs the value longer copies it.
  Result<const Value*> ReadObject(RecoverableObject* obj);

  // Acquires the write lock and replaces the tentative version.
  Status WriteObject(RecoverableObject* obj, Value v);

  // Acquires the write lock and edits the tentative version in place.
  Status UpdateObject(RecoverableObject* obj, const std::function<void(Value&)>& edit);

  // Seizes the mutex, applies `edit` to its value, releases. Records the
  // object in the MOS.
  Status MutateMutex(RecoverableObject* obj, const std::function<void(Value&)>& edit);

  // Creates an atomic object (creator holds a read lock, §2.4.1).
  RecoverableObject* CreateAtomic(VolatileHeap& heap, Value initial);

  // Creates a mutex object and records it as modified so it reaches the log.
  RecoverableObject* CreateMutex(VolatileHeap& heap, Value initial);

  const ModifiedObjectsSet& mos() const { return mos_; }
  ModifiedObjectsSet TakeMos() {
    ModifiedObjectsSet out = std::move(mos_);
    mos_.clear();
    return out;
  }
  // Re-adds objects (e.g. the inaccessible remainder returned by an early
  // prepare, §4.4).
  void AddToMos(const ModifiedObjectsSet& uids) { mos_.insert(uids.begin(), uids.end()); }

  // Everything this action locked or created so far.
  const std::set<Uid>& touched() const { return touched_; }

  // Subaction-abort support: retracts a write that was rolled back.
  void RemoveFromMos(Uid uid) { mos_.erase(uid); }
  bool InMos(Uid uid) const { return mos_.find(uid) != mos_.end(); }

  // Applies the volatile side of commit/abort: version install/discard plus
  // lock release on every object this action touched.
  void CommitVolatile(VolatileHeap& heap);
  void AbortVolatile(VolatileHeap& heap);

  // Restart support: re-associates an object with this action (used when a
  // recovered prepared action's write-locked objects are rediscovered from
  // the object table). Adopted objects are not pinned (they are write-locked,
  // hence never eviction-eligible); Unpin saturates at zero to match.
  void AdoptTouched(Uid uid) { touched_.insert(uid); }

  // Binds the residency pager so evicted objects fault back in on first
  // touch. Unbound contexts (the default) never meet evicted objects.
  void BindResidency(ResidencyPager* pager) { pager_ = pager; }

 private:
  // Rematerializes `obj` if it was evicted; called before any lock state is
  // created on it.
  Status FaultIfEvicted(RecoverableObject* obj);
  // First-touch bookkeeping: pin + clock reference bit.
  void Touch(RecoverableObject* obj);

  ActionId aid_;
  ModifiedObjectsSet mos_;      // modified objects (argument to prepare)
  std::set<Uid> touched_;       // everything locked or created (for release)
  ResidencyPager* pager_ = nullptr;
};

}  // namespace argus

#endif  // SRC_OBJECT_ACTION_CONTEXT_H_
