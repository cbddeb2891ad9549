#include "src/recovery/debug.h"

#include <algorithm>
#include <vector>

namespace argus {
namespace {

// Tables are unordered; sort rows for stable output.
template <typename Map, typename Render>
std::string RenderSorted(const Map& map, const char* header, Render render) {
  std::string out(header);
  out += "\n";
  std::vector<typename Map::const_iterator> rows;
  rows.reserve(map.size());
  for (auto it = map.begin(); it != map.end(); ++it) {
    rows.push_back(it);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a->first < b->first; });
  for (const auto& it : rows) {
    out += "  " + render(*it) + "\n";
  }
  if (map.empty()) {
    out += "  (empty)\n";
  }
  return out;
}

}  // namespace

std::string DumpParticipantTable(const ParticipantTable& pt) {
  return RenderSorted(pt, "PT", [](const auto& row) {
    return to_string(row.first) + "  " + ParticipantStateName(row.second);
  });
}

std::string DumpCoordinatorTable(const CoordinatorTable& ct) {
  return RenderSorted(ct, "CT", [](const auto& row) {
    std::string line = to_string(row.first) + "  " + CoordinatorPhaseName(row.second.phase);
    if (row.second.phase == CoordinatorPhase::kCommitting) {
      line += " (";
      for (std::size_t i = 0; i < row.second.participants.size(); ++i) {
        if (i > 0) {
          line += ",";
        }
        line += to_string(row.second.participants[i]);
      }
      line += ")";
    }
    return line;
  });
}

std::string DumpObjectTable(const ObjectTable& ot) {
  return RenderSorted(ot, "OT", [](const auto& row) {
    std::string line = to_string(row.first) + "  " +
                       ObjectRecoveryStateName(row.second.state) + "  " +
                       ObjectKindName(row.second.object->kind());
    if (row.second.object->evicted()) {
      // Demoted to a stub: the value lives at the stable address.
      line += "  [stub " + std::to_string(row.second.object->evicted_bytes()) + "B @" +
              to_string(row.second.object->stable_address()) + "]";
      return line;
    }
    if (row.second.object->is_atomic()) {
      line += "  base=" + row.second.object->base_version().ToString();
      if (row.second.object->has_current()) {
        line += "  current=" + row.second.object->current_version().ToString();
        if (row.second.object->write_locker().has_value()) {
          line += " [wlock " + to_string(*row.second.object->write_locker()) + "]";
        }
      }
    } else {
      line += "  value=" + row.second.object->mutex_value().ToString();
      if (!row.second.mutex_address.is_null()) {
        line += " @" + to_string(row.second.mutex_address);
      }
    }
    return line;
  });
}

std::string DumpRecoveryInfo(const RecoveryInfo& info) {
  std::string out = DumpParticipantTable(info.pt);
  out += DumpCoordinatorTable(info.ct);
  out += DumpObjectTable(info.ot);
  out += "entries examined: " + std::to_string(info.entries_examined) +
         ", data entries read: " + std::to_string(info.data_entries_read) + "\n";
  return out;
}

}  // namespace argus
