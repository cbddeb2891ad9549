// Nested subactions (§2.1: "an action called a top-level action starts at
// one guardian and can spread to other guardians, spawning subactions by
// means of handler calls").
//
// The recovery system never sees subactions: all subaction modifications are
// made to volatile copies, and only the TOP-LEVEL action's effects reach
// stable storage at two-phase commit (§2.2). A subaction therefore runs
// inside its top action's lock family and keeps a volatile undo log:
//
//  - commit: the subaction's writes simply remain in the top action's
//    tentative versions and MOS (they will commit or abort with the top);
//  - abort: the subaction's atomic writes are rolled back to the tentative
//    values that were current when it began, objects it newly created are
//    forgotten from the MOS, and — per the mutex semantics of §2.4.2 —
//    its mutex mutations are NOT undone.
//
// Subactions nest; each level keeps its own undo frame. Commit is RELATIVE
// (as in Argus): a committed inner subaction's undo records are propagated to
// the enclosing open scope, so aborting the encloser still unwinds them; only
// when the outermost scope commits do the changes become plain top-action
// tentative state.

#ifndef SRC_OBJECT_SUBACTION_H_
#define SRC_OBJECT_SUBACTION_H_

#include <optional>

#include "src/object/action_context.h"

namespace argus {

class SubactionScope {
 public:
  // Opens a subaction of the top action whose context is `parent`. For a
  // nested subaction, pass the enclosing scope so a relative commit hands its
  // undo frame upward.
  SubactionScope(ActionContext* parent, VolatileHeap* heap,
                 SubactionScope* enclosing = nullptr)
      : parent_(parent), heap_(heap), enclosing_(enclosing) {
    ARGUS_CHECK(parent != nullptr && heap != nullptr);
    if (enclosing != nullptr) {
      ARGUS_CHECK_MSG(enclosing->open_, "enclosing subaction already finished");
    }
  }

  ~SubactionScope() {
    // An un-finished scope aborts — mirrors Argus: a handler call whose
    // reply is lost aborts its subaction.
    if (open_) {
      Abort();
    }
  }

  SubactionScope(const SubactionScope&) = delete;
  SubactionScope& operator=(const SubactionScope&) = delete;

  // ---- The action operations, with undo capture ----

  // A view with ActionContext::ReadObject's lifetime: valid until the family
  // writes `obj` or the top action completes.
  Result<const Value*> ReadObject(RecoverableObject* obj) { return parent_->ReadObject(obj); }

  Status WriteObject(RecoverableObject* obj, Value v);
  Status UpdateObject(RecoverableObject* obj, const std::function<void(Value&)>& edit);
  Status MutateMutex(RecoverableObject* obj, const std::function<void(Value&)>& edit);
  RecoverableObject* CreateAtomic(Value initial);

  // Commits relative to the encloser: effects remain, but the undo frame is
  // handed to the enclosing open scope (if any), which can still unwind them.
  void Commit();

  // Rolls atomic writes back to the versions seen at Begin time; forgets
  // created objects from the MOS. Mutex mutations stand (§2.4.2).
  void Abort();

 private:
  struct UndoRecord {
    RecoverableObject* object;
    // The tentative value before this subaction's first write; nullopt means
    // the object was not in the parent's MOS before (so an abort removes it
    // from the MOS again — but the write lock stays with the family).
    std::optional<Value> previous_tentative;
    bool was_in_mos;
  };

  // Records `tentative` (the version `obj` has before this scope's first
  // write to it) for rollback.
  void CaptureUndo(RecoverableObject* obj, const Value& tentative);

  ActionContext* parent_;
  VolatileHeap* heap_;
  SubactionScope* enclosing_;
  bool open_ = true;
  std::vector<UndoRecord> undo_;           // newest last
  std::vector<RecoverableObject*> created_;
};

}  // namespace argus

#endif  // SRC_OBJECT_SUBACTION_H_
