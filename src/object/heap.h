// The volatile heap of one guardian.
//
// Owns every recoverable object at the guardian, keyed by uid, plus the
// stable-variables root object: a single recoverable object with the
// predefined uid 0 whose record value maps stable variable names to object
// references (§3.3.3.2). The heap also owns the stable uid counter; after a
// crash the counter is reset to one past the largest recovered uid (§3.4.4
// step 3), which is safe because the recovery system has seen every uid that
// was ever assigned and logged.
//
// A guardian crash destroys the whole heap — that is the definition of
// volatile state.

#ifndef SRC_OBJECT_HEAP_H_
#define SRC_OBJECT_HEAP_H_

#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/object/flatten.h"
#include "src/object/recoverable_object.h"

namespace argus {

// The Modified Objects Set handed to prepare/write_entry (§2.3): the uids of
// objects modified by an action. (Newly created objects need not be listed;
// they are discovered through the newly-accessible-object mechanism,
// §3.3.3.2.)
using ModifiedObjectsSet = std::set<Uid>;

class VolatileHeap {
 public:
  // A fresh heap with an empty stable-variables root (uid 0).
  VolatileHeap();

  VolatileHeap(const VolatileHeap&) = delete;
  VolatileHeap& operator=(const VolatileHeap&) = delete;

  // Creates an atomic object; the creating action holds a read lock on it
  // (§2.4.1) so no other action can modify it before the creator completes.
  RecoverableObject* CreateAtomic(ActionId creator, Value initial);

  // Creates a mutex object.
  RecoverableObject* CreateMutex(Value initial);

  RecoverableObject* Get(Uid uid) const;
  RecoverableObject* root() const { return root_; }

  // Recovery: materializes an (empty) object shell for `uid`; versions are
  // filled in by the recovery algorithm. The shell starts with no versions
  // restored.
  RecoverableObject* InstallRecovered(Uid uid, ObjectKind kind);

  void ResetUidCounter(std::uint64_t next) { next_uid_ = next; }
  std::uint64_t next_uid() const { return next_uid_; }

  // Walks the graph from the stable variables, following both committed and
  // tentative versions, and returns every reachable recoverable object.
  std::vector<RecoverableObject*> TraverseStableState() const;

  // The uids of the objects returned by TraverseStableState.
  std::unordered_set<Uid> ComputeAccessibleUids() const;

  std::size_t object_count() const { return objects_.size(); }

  // Bytes of every version in memory (Value::ApproxBytes of each base that is
  // not evicted, plus each tentative version), kept as a running total. An
  // object joins a dirty list whenever one of its versions changes, and this
  // recounts only the objects on it, so the cost follows what changed since
  // the last call. An object with a tentative version or a seized mutex stays
  // on the list: it can still be edited through the reference that
  // MutableCurrent or MutableValue handed out.
  std::uint64_t SettleResidentBytes();

  // Iteration support (tests, snapshot).
  auto begin() const { return objects_.begin(); }
  auto end() const { return objects_.end(); }

 private:
  // Inserts a new object and puts it on the dirty list.
  RecoverableObject* Adopt(std::unique_ptr<RecoverableObject> obj);

  std::unordered_map<Uid, std::unique_ptr<RecoverableObject>> objects_;
  RecoverableObject* root_ = nullptr;
  std::uint64_t next_uid_ = 1;  // 0 is the root
  std::vector<RecoverableObject*> dirty_;
  std::uint64_t resident_bytes_ = 0;  // as of the last settle
};

}  // namespace argus

#endif  // SRC_OBJECT_HEAP_H_
