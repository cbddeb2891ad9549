// Background eviction: a PeriodicService that runs one clock pass over the
// guardian's heap every poll, inside the caller-supplied exclusive section
// (the same per-guardian lock the action path holds), so memory pressure is
// shed as a maintenance activity the commit path only sees as a bounded
// pause. Evictions are counted by the manager (residency.evictions).

#ifndef SRC_RESIDENCY_RESIDENCY_SERVICE_H_
#define SRC_RESIDENCY_RESIDENCY_SERVICE_H_

#include "src/common/periodic_service.h"
#include "src/residency/residency_manager.h"

namespace argus {

class ResidencyService {
 public:
  // `manager` must outlive the service.
  ResidencyService(ResidencyManager* manager, ExclusiveSection exclusive);

  ResidencyService(const ResidencyService&) = delete;
  ResidencyService& operator=(const ResidencyService&) = delete;

  void Start() { loop_.Start(); }
  void Stop() { loop_.Stop(); }

 private:
  PeriodicService loop_;
};

}  // namespace argus

#endif  // SRC_RESIDENCY_RESIDENCY_SERVICE_H_
