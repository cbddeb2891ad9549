#include "src/object/subaction.h"

#include <algorithm>

namespace argus {

void SubactionScope::CaptureUndo(RecoverableObject* obj, const Value& tentative) {
  for (const UndoRecord& record : undo_) {
    if (record.object == obj) {
      return;  // first write in this scope already captured the pre-state
    }
  }
  UndoRecord record;
  record.object = obj;
  record.previous_tentative = tentative;
  record.was_in_mos = parent_->InMos(obj->uid());
  undo_.push_back(std::move(record));
}

Status SubactionScope::WriteObject(RecoverableObject* obj, Value v) {
  ARGUS_CHECK(open_);
  ARGUS_CHECK(obj != nullptr);
  if (!obj->is_atomic()) {
    return parent_->WriteObject(obj, std::move(v));
  }
  return UpdateObject(obj, [&](Value& current) { current = std::move(v); });
}

Status SubactionScope::UpdateObject(RecoverableObject* obj,
                                    const std::function<void(Value&)>& edit) {
  ARGUS_CHECK(open_);
  ARGUS_CHECK(obj != nullptr);
  if (!obj->is_atomic()) {
    return parent_->UpdateObject(obj, edit);
  }
  // The pre-state is captured inside the edit, so only once the parent has
  // faulted the object in and taken the write lock.
  return parent_->UpdateObject(obj, [&](Value& current) {
    CaptureUndo(obj, current);
    edit(current);
  });
}

Status SubactionScope::MutateMutex(RecoverableObject* obj,
                                   const std::function<void(Value&)>& edit) {
  ARGUS_CHECK(open_);
  // No undo: mutex mutations survive subaction abort (§2.4.2 semantics carry
  // down — possession, not versioning, is the mutex discipline).
  return parent_->MutateMutex(obj, edit);
}

RecoverableObject* SubactionScope::CreateAtomic(Value initial) {
  ARGUS_CHECK(open_);
  RecoverableObject* obj = parent_->CreateAtomic(*heap_, std::move(initial));
  created_.push_back(obj);
  return obj;
}

void SubactionScope::Commit() {
  ARGUS_CHECK(open_);
  open_ = false;
  if (enclosing_ != nullptr && enclosing_->open_) {
    // Relative commit: the encloser inherits this frame. For objects the
    // encloser already captured, its (older) pre-state wins; otherwise this
    // scope's record carries the right pre-state for the encloser too.
    for (UndoRecord& record : undo_) {
      bool known = false;
      for (const UndoRecord& existing : enclosing_->undo_) {
        if (existing.object == record.object) {
          known = true;
          break;
        }
      }
      if (!known) {
        enclosing_->undo_.push_back(std::move(record));
      }
    }
    enclosing_->created_.insert(enclosing_->created_.end(), created_.begin(), created_.end());
  }
  undo_.clear();
  created_.clear();
}

void SubactionScope::Abort() {
  ARGUS_CHECK(open_);
  open_ = false;
  // Newest-first so nested effects unwind in order.
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    RecoverableObject* obj = it->object;
    // The family's write lock is still held; restore the tentative value
    // that was current when this scope started.
    Status s = obj->AcquireWriteLock(parent_->aid());
    ARGUS_CHECK_MSG(s.ok(), "family lock vanished during subaction");
    obj->MutableCurrent(parent_->aid()) = std::move(*it->previous_tentative);
    if (!it->was_in_mos) {
      parent_->RemoveFromMos(obj->uid());
    }
  }
  for (RecoverableObject* obj : created_) {
    // Created objects become garbage; they must not reach the log.
    parent_->RemoveFromMos(obj->uid());
  }
  undo_.clear();
  created_.clear();
}

}  // namespace argus
