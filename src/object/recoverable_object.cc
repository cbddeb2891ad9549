#include "src/object/recoverable_object.h"

#include <algorithm>

namespace argus {

Status RecoverableObject::AcquireReadLock(ActionId aid) {
  ARGUS_CHECK_MSG(is_atomic(), "read locks apply to atomic objects");
  if (write_locker_.has_value() && *write_locker_ != aid) {
    return Status::Unavailable("write-locked by another action");
  }
  if (!HoldsReadLock(aid) && write_locker_ != aid) {
    read_lockers_.push_back(aid);
  }
  return Status::Ok();
}

Status RecoverableObject::AcquireWriteLock(ActionId aid) {
  ARGUS_CHECK_MSG(is_atomic(), "write locks apply to atomic objects");
  if (write_locker_.has_value()) {
    if (*write_locker_ == aid) {
      return Status::Ok();
    }
    return Status::Unavailable("write-locked by another action");
  }
  for (ActionId reader : read_lockers_) {
    if (reader != aid) {
      return Status::Unavailable("read-locked by another action");
    }
  }
  // Upgrade: drop our own read lock, take the write lock.
  ARGUS_CHECK_MSG(!evicted_, "write-locking an evicted object (fault it in first)");
  std::erase(read_lockers_, aid);
  write_locker_ = aid;
  current_ = base_;
  VersionChanged();
  return Status::Ok();
}

bool RecoverableObject::HoldsReadLock(ActionId aid) const {
  return std::find(read_lockers_.begin(), read_lockers_.end(), aid) != read_lockers_.end();
}

Value& RecoverableObject::MutableCurrent(ActionId aid) {
  ARGUS_CHECK_MSG(HoldsWriteLock(aid), "mutating without the write lock");
  VersionChanged();
  return *current_;
}

void RecoverableObject::CommitAction(ActionId aid) {
  if (write_locker_ == aid) {
    base_ = std::move(*current_);
    current_.reset();
    write_locker_.reset();
    // The frame logged for the tentative version now describes the committed
    // base; promote it so a later eviction stubs to the right payload. When
    // the action wrote nothing new (read-modify that never logged), the
    // pending slot is Null and the stale base address is discarded with it.
    stable_address_ = pending_stable_address_;
    pending_stable_address_ = LogAddress::Null();
    VersionChanged();
  }
  std::erase(read_lockers_, aid);
}

void RecoverableObject::AbortAction(ActionId aid) {
  if (write_locker_ == aid) {
    current_.reset();
    write_locker_.reset();
    pending_stable_address_ = LogAddress::Null();
    VersionChanged();
  }
  std::erase(read_lockers_, aid);
}

Status RecoverableObject::Seize(ActionId aid) {
  ARGUS_CHECK_MSG(is_mutex(), "seize applies to mutex objects");
  if (seizer_.has_value() && *seizer_ != aid) {
    return Status::Unavailable("mutex seized by another action");
  }
  seizer_ = aid;
  return Status::Ok();
}

void RecoverableObject::Release(ActionId aid) {
  ARGUS_CHECK_MSG(is_mutex(), "release applies to mutex objects");
  if (seizer_ == aid) {
    seizer_.reset();
  }
}

Value& RecoverableObject::MutableValue(ActionId aid) {
  ARGUS_CHECK_MSG(is_mutex(), "MutableValue applies to mutex objects");
  ARGUS_CHECK_MSG(seizer_ == aid, "mutating a mutex without possession");
  ARGUS_CHECK_MSG(!evicted_, "mutating an evicted mutex (fault it in first)");
  // The in-place edit diverges from whatever frame was last logged; the
  // address becomes authoritative again when the writer logs the new value.
  stable_address_ = LogAddress::Null();
  VersionChanged();
  return base_;
}

void RecoverableObject::Evict(std::size_t approx_bytes, std::vector<Uid> refs) {
  ARGUS_CHECK_MSG(!evicted_, "double eviction");
  ARGUS_CHECK_MSG(!current_.has_value(), "evicting an object with a tentative version");
  ARGUS_CHECK_MSG(pin_count_ == 0, "evicting a pinned object");
  ARGUS_CHECK_MSG(!stable_address_.is_null(), "evicting without a stable address");
  base_ = Value::Nil();
  evicted_ = true;
  evicted_bytes_ = approx_bytes;
  stub_refs_ = std::move(refs);
  VersionChanged();
}

void RecoverableObject::Materialize(Value v) {
  ARGUS_CHECK_MSG(evicted_, "materializing a resident object");
  base_ = std::move(v);
  evicted_ = false;
  evicted_bytes_ = 0;
  stub_refs_.clear();
  stub_refs_.shrink_to_fit();
  VersionChanged();
}

void RecoverableObject::RestoreBase(Value v) {
  base_ = std::move(v);
  VersionChanged();
}

void RecoverableObject::RestoreCurrentWithLock(Value v, ActionId aid) {
  ARGUS_CHECK_MSG(is_atomic(), "current versions apply to atomic objects");
  current_ = std::move(v);
  write_locker_ = aid;
  VersionChanged();
}

void RecoverableObject::VersionChanged() {
  if (!dirty_ && dirty_list_ != nullptr) {
    dirty_ = true;
    dirty_list_->push_back(this);
  }
}

std::size_t RecoverableObject::VersionBytes() const {
  std::size_t bytes = evicted_ ? 0 : base_.ApproxBytes();
  if (current_.has_value()) {
    bytes += current_->ApproxBytes();
  }
  return bytes;
}

}  // namespace argus
