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

std::string DumpLogStats(const LogStats& stats) {
  auto rate = [](double v) {
    std::string s = std::to_string(v);
    return s.substr(0, s.find('.') + 3);  // two decimals
  };
  std::string out = "LogStats\n";
  out += "  entries_written=" + std::to_string(stats.entries_written) +
         " forces=" + std::to_string(stats.forces) +
         " bytes_forced=" + std::to_string(stats.bytes_forced) +
         " physical_bytes=" + std::to_string(stats.physical_bytes) +
         " entries_per_force=" + rate(stats.entries_per_force()) + "\n";
  out += "  force_requests=" + std::to_string(stats.force_requests) +
         " coalesced_requests=" + std::to_string(stats.coalesced_requests) +
         " max_entries_per_force=" + std::to_string(stats.max_entries_per_force) + "\n";
  out += "  entries_read=" + std::to_string(stats.entries_read) +
         " cache_hits=" + std::to_string(stats.cache_hits) +
         " cache_misses=" + std::to_string(stats.cache_misses) +
         " cache_hit_rate=" + rate(stats.cache_hit_rate()) +
         " cache_bytes_read=" + std::to_string(stats.cache_bytes_read) +
         " readahead_blocks=" + std::to_string(stats.readahead_blocks) + "\n";
  out += "  read_batches=" + std::to_string(stats.read_batches) +
         " batched_reads=" + std::to_string(stats.batched_reads) + "\n";
  return out;
}

LogStats AggregateLogStats(const std::vector<LogStats>& per_shard) {
  LogStats total;
  for (const LogStats& s : per_shard) {
    total.entries_written += s.entries_written;
    total.forces += s.forces;
    total.bytes_forced += s.bytes_forced;
    total.physical_bytes += s.physical_bytes;
    total.entries_read += s.entries_read;
    total.force_requests += s.force_requests;
    total.coalesced_requests += s.coalesced_requests;
    total.max_entries_per_force = std::max(total.max_entries_per_force, s.max_entries_per_force);
    total.total_force_wait_ns += s.total_force_wait_ns;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.cache_bytes_read += s.cache_bytes_read;
    total.readahead_blocks += s.readahead_blocks;
    total.read_batches += s.read_batches;
    total.batched_reads += s.batched_reads;
  }
  return total;
}

std::string DumpShardedLogStats(const std::vector<LogStats>& per_shard) {
  std::string out;
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    out += "shard " + std::to_string(i) + " " + DumpLogStats(per_shard[i]);
  }
  out += "rollup (" + std::to_string(per_shard.size()) + " shards) " +
         DumpLogStats(AggregateLogStats(per_shard));
  return out;
}

namespace {

std::vector<LogStats> SnapshotShards(const std::vector<StableLog*>& logs) {
  std::vector<LogStats> per_shard;
  per_shard.reserve(logs.size());
  for (const StableLog* log : logs) {
    per_shard.push_back(log->StatsSnapshot());
  }
  return per_shard;
}

}  // namespace

LogStats AggregateLogStats(const std::vector<StableLog*>& logs) {
  return AggregateLogStats(SnapshotShards(logs));
}

std::string DumpShardedLogStats(const std::vector<StableLog*>& logs) {
  return DumpShardedLogStats(SnapshotShards(logs));
}

}  // namespace argus
