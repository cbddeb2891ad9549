#include "src/recovery/as_trimmer.h"

#include "src/object/flatten.h"

namespace argus {

void IncrementalAsTrimmer::Start() {
  running_ = true;
  stack_.clear();
  seen_.clear();
  traversed_.clear();
  visited_count_ = 0;
  RecoverableObject* root = heap_->root();
  stack_.push_back(root);
  seen_.insert(root);
}

bool IncrementalAsTrimmer::Step(std::size_t budget) {
  if (!running_) {
    return false;
  }
  while (budget > 0 && !stack_.empty()) {
    RecoverableObject* obj = stack_.back();
    stack_.pop_back();
    --budget;
    ++visited_count_;
    traversed_.insert(obj->uid());

    std::vector<RecoverableObject*> refs;
    CollectRefs(obj->base_version(), refs);
    if (obj->is_atomic() && obj->has_current()) {
      CollectRefs(obj->current_version(), refs);
    }
    for (RecoverableObject* ref : refs) {
      if (seen_.insert(ref).second) {
        stack_.push_back(ref);
      }
    }
  }
  if (!stack_.empty()) {
    return false;  // more to do; caller may interleave normal writing
  }
  // Traversal complete: AS := traversed ∩ old AS (§3.3.3.2).
  writer_->IntersectAccessibilitySet(traversed_);
  running_ = false;
  return true;
}

}  // namespace argus
