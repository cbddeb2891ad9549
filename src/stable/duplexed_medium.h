// The historical duplexed StableMedium: the N=2 configuration of
// ReplicatedStableMedium (see replicated_medium.h for the superblock layout
// and append/read protocol). Kept as a distinct type so existing call sites
// and factories read naturally; it adds nothing beyond pinning the replica
// count to the Lampson-Sturgis pair.

#ifndef SRC_STABLE_DUPLEXED_MEDIUM_H_
#define SRC_STABLE_DUPLEXED_MEDIUM_H_

#include "src/stable/replicated_medium.h"

namespace argus {

class DuplexedStableMedium final : public ReplicatedStableMedium {
 public:
  explicit DuplexedStableMedium(std::uint64_t seed = 0)
      : ReplicatedStableMedium(/*replicas=*/2, seed) {}
};

}  // namespace argus

#endif  // SRC_STABLE_DUPLEXED_MEDIUM_H_
