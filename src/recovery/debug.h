// Human-readable renderings of the recovery tables, in the layout the thesis
// uses at each scenario's "algorithm's end" (PT / CT / OT columns).

#ifndef SRC_RECOVERY_DEBUG_H_
#define SRC_RECOVERY_DEBUG_H_

#include <string>

#include "src/recovery/recovery_system.h"

namespace argus {

std::string DumpParticipantTable(const ParticipantTable& pt);
std::string DumpCoordinatorTable(const CoordinatorTable& ct);
std::string DumpObjectTable(const ObjectTable& ot);

// All three tables plus the scan statistics.
std::string DumpRecoveryInfo(const RecoveryInfo& info);

}  // namespace argus

#endif  // SRC_RECOVERY_DEBUG_H_
