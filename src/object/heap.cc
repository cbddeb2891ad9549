#include "src/object/heap.h"

namespace argus {

VolatileHeap::VolatileHeap() {
  root_ = Adopt(std::make_unique<RecoverableObject>(ObjectKind::kAtomic, Uid::Root(),
                                                    Value::OfRecord({})));
}

RecoverableObject* VolatileHeap::Adopt(std::unique_ptr<RecoverableObject> obj) {
  RecoverableObject* ptr = obj.get();
  objects_.emplace(ptr->uid(), std::move(obj));
  ptr->dirty_list_ = &dirty_;
  ptr->VersionChanged();
  return ptr;
}

std::uint64_t VolatileHeap::SettleResidentBytes() {
  std::size_t kept = 0;
  for (RecoverableObject* obj : dirty_) {
    resident_bytes_ -= obj->counted_bytes_;
    obj->counted_bytes_ = obj->VersionBytes();
    resident_bytes_ += obj->counted_bytes_;
    if (obj->has_current() || (obj->is_mutex() && obj->seized())) {
      dirty_[kept++] = obj;
    } else {
      obj->dirty_ = false;
    }
  }
  dirty_.resize(kept);
  return resident_bytes_;
}

RecoverableObject* VolatileHeap::CreateAtomic(ActionId creator, Value initial) {
  RecoverableObject* ptr = Adopt(std::make_unique<RecoverableObject>(
      ObjectKind::kAtomic, Uid{next_uid_++}, std::move(initial)));
  Status s = ptr->AcquireReadLock(creator);
  ARGUS_CHECK_MSG(s.ok(), "fresh object cannot be lock-conflicted");
  return ptr;
}

RecoverableObject* VolatileHeap::CreateMutex(Value initial) {
  return Adopt(std::make_unique<RecoverableObject>(ObjectKind::kMutex, Uid{next_uid_++},
                                                   std::move(initial)));
}

RecoverableObject* VolatileHeap::Get(Uid uid) const {
  auto it = objects_.find(uid);
  if (it == objects_.end()) {
    return nullptr;
  }
  return it->second.get();
}

RecoverableObject* VolatileHeap::InstallRecovered(Uid uid, ObjectKind kind) {
  ARGUS_CHECK_MSG(objects_.find(uid) == objects_.end(), "recovered uid already present");
  auto obj = std::make_unique<RecoverableObject>(kind, uid, Value::Nil());
  obj->set_base_restored(false);
  RecoverableObject* ptr = Adopt(std::move(obj));
  if (uid == Uid::Root()) {
    root_ = ptr;
  }
  if (uid.value >= next_uid_) {
    next_uid_ = uid.value + 1;
  }
  return ptr;
}

std::vector<RecoverableObject*> VolatileHeap::TraverseStableState() const {
  std::vector<RecoverableObject*> order;
  std::unordered_set<const RecoverableObject*> seen;
  std::vector<RecoverableObject*> stack{root_};
  seen.insert(root_);
  while (!stack.empty()) {
    RecoverableObject* obj = stack.back();
    stack.pop_back();
    order.push_back(obj);
    std::vector<RecoverableObject*> refs;
    if (obj->evicted()) {
      // The payload is out on the log, but the stub remembers the uids it
      // referenced — the reachability walk does not rematerialize anything.
      for (Uid ref_uid : obj->stub_refs()) {
        if (RecoverableObject* target = Get(ref_uid); target != nullptr) {
          refs.push_back(target);
        }
      }
    } else {
      CollectRefs(obj->base_version(), refs);
    }
    if (obj->is_atomic() && obj->has_current()) {
      CollectRefs(obj->current_version(), refs);
    }
    for (RecoverableObject* ref : refs) {
      if (seen.insert(ref).second) {
        stack.push_back(ref);
      }
    }
  }
  return order;
}

std::unordered_set<Uid> VolatileHeap::ComputeAccessibleUids() const {
  std::unordered_set<Uid> uids;
  for (RecoverableObject* obj : TraverseStableState()) {
    uids.insert(obj->uid());
  }
  return uids;
}

}  // namespace argus
