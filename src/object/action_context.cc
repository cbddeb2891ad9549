#include "src/object/action_context.h"

namespace argus {

Status ActionContext::FaultIfEvicted(RecoverableObject* obj) {
  if (obj->evicted() && pager_ != nullptr) {
    return pager_->FaultIn(obj);
  }
  return Status::Ok();
}

void ActionContext::Touch(RecoverableObject* obj) {
  if (touched_.insert(obj->uid()).second) {
    obj->Pin();
  }
  obj->MarkReferenced();
}

Result<const Value*> ActionContext::ReadObject(RecoverableObject* obj) {
  ARGUS_CHECK(obj != nullptr);
  Status fs = FaultIfEvicted(obj);
  if (!fs.ok()) {
    return fs;
  }
  Status s = obj->AcquireReadLock(aid_);
  if (!s.ok()) {
    return s;
  }
  Touch(obj);
  return &obj->current_version();
}

Status ActionContext::WriteObject(RecoverableObject* obj, Value v) {
  ARGUS_CHECK(obj != nullptr);
  Status fs = FaultIfEvicted(obj);
  if (!fs.ok()) {
    return fs;
  }
  Status s = obj->AcquireWriteLock(aid_);
  if (!s.ok()) {
    return s;
  }
  Touch(obj);
  obj->MutableCurrent(aid_) = std::move(v);
  mos_.insert(obj->uid());
  return Status::Ok();
}

Status ActionContext::UpdateObject(RecoverableObject* obj,
                                   const std::function<void(Value&)>& edit) {
  ARGUS_CHECK(obj != nullptr);
  Status fs = FaultIfEvicted(obj);
  if (!fs.ok()) {
    return fs;
  }
  Status s = obj->AcquireWriteLock(aid_);
  if (!s.ok()) {
    return s;
  }
  Touch(obj);
  edit(obj->MutableCurrent(aid_));
  mos_.insert(obj->uid());
  return Status::Ok();
}

Status ActionContext::MutateMutex(RecoverableObject* obj,
                                  const std::function<void(Value&)>& edit) {
  ARGUS_CHECK(obj != nullptr);
  Status fs = FaultIfEvicted(obj);
  if (!fs.ok()) {
    return fs;
  }
  Status s = obj->Seize(aid_);
  if (!s.ok()) {
    return s;
  }
  edit(obj->MutableValue(aid_));
  obj->Release(aid_);
  Touch(obj);
  mos_.insert(obj->uid());
  return Status::Ok();
}

RecoverableObject* ActionContext::CreateAtomic(VolatileHeap& heap, Value initial) {
  RecoverableObject* obj = heap.CreateAtomic(aid_, std::move(initial));
  Touch(obj);
  return obj;
}

RecoverableObject* ActionContext::CreateMutex(VolatileHeap& heap, Value initial) {
  RecoverableObject* obj = heap.CreateMutex(std::move(initial));
  Touch(obj);
  mos_.insert(obj->uid());
  return obj;
}

void ActionContext::CommitVolatile(VolatileHeap& heap) {
  for (Uid uid : touched_) {
    RecoverableObject* obj = heap.Get(uid);
    if (obj == nullptr) {
      continue;
    }
    if (obj->is_atomic()) {
      obj->CommitAction(aid_);
    }
    obj->Unpin();
  }
  touched_.clear();
  mos_.clear();
}

void ActionContext::AbortVolatile(VolatileHeap& heap) {
  for (Uid uid : touched_) {
    RecoverableObject* obj = heap.Get(uid);
    if (obj == nullptr) {
      continue;
    }
    if (obj->is_atomic()) {
      obj->AbortAction(aid_);
    }
    obj->Unpin();
  }
  touched_.clear();
  mos_.clear();
}

}  // namespace argus
