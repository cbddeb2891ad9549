#include "src/residency/residency_service.h"

namespace argus {

ResidencyService::ResidencyService(ResidencyManager* manager, ExclusiveSection exclusive)
    : loop_([manager, exclusive] {
        exclusive([manager] { manager->RunEvictionPass(); });
        return std::optional<PeriodicService::Clock::duration>(PeriodicService::kPoll);
      }) {
  ARGUS_CHECK(manager != nullptr && exclusive != nullptr);
}

}  // namespace argus
