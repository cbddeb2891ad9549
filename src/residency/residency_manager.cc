#include "src/residency/residency_manager.h"

#include <algorithm>
#include <chrono>

#include "src/object/flatten.h"
#include "src/obs/metrics.h"

namespace argus {
namespace {

struct ResidencyObs {
  obs::Gauge* resident_bytes;
  obs::Counter* evictions;
  obs::Counter* faults;
  obs::Counter* fault_batches;
  obs::Counter* fault_reads;
  obs::Counter* pinned_skips;
  obs::Counter* eviction_passes;
  obs::Histogram* fault_ns;

  static const ResidencyObs& Get() {
    static const ResidencyObs m{
        obs::GetGauge("residency.resident_bytes"),
        obs::GetCounter("residency.evictions"),
        obs::GetCounter("residency.faults"),
        obs::GetCounter("residency.fault_batches"),
        obs::GetCounter("residency.fault_reads"),
        obs::GetCounter("residency.pinned_skips"),
        obs::GetCounter("residency.eviction_passes"),
        obs::GetHistogram("residency.fault_ns"),
    };
    return m;
  }
};

}  // namespace

Result<Value> DecodeStubPayload(const LogEntry& entry, Uid expected) {
  if (const auto* data = std::get_if<DataEntry>(&entry)) {
    // Hybrid data entries are anonymous; simple-log ones carry the uid.
    if (data->uid != Uid::Invalid() && data->uid != expected) {
      return Status::Corruption("stub frame names a different object");
    }
    return UnflattenValue(data->value);
  }
  if (const auto* bc = std::get_if<BaseCommittedEntry>(&entry)) {
    if (bc->uid != expected) {
      return Status::Corruption("stub frame names a different object");
    }
    return UnflattenValue(bc->value);
  }
  if (const auto* pd = std::get_if<PreparedDataEntry>(&entry)) {
    if (pd->uid != expected) {
      return Status::Corruption("stub frame names a different object");
    }
    return UnflattenValue(pd->value);
  }
  return Status::Corruption("stub address points at a non-data entry");
}

ResidencyManager::ResidencyManager(VolatileHeap* heap, std::vector<StableLog*> logs,
                                   const ShardRouter* router, ResidencyConfig config)
    : heap_(heap), logs_(std::move(logs)), router_(router), config_(config) {
  ARGUS_CHECK(heap_ != nullptr && !logs_.empty());
  for (StableLog* log : logs_) {
    ARGUS_CHECK(log != nullptr);
  }
}

std::uint32_t ResidencyManager::ShardOfUid(Uid uid) const {
  if (router_ == nullptr || logs_.size() == 1) {
    return 0;
  }
  return router_->ShardOf(uid);
}

void ResidencyManager::PublishResidentBytes(std::uint64_t resident) {
  resident_bytes_.store(resident, std::memory_order_relaxed);
  stats_.resident_bytes = resident;
  ResidencyObs::Get().resident_bytes->Set(static_cast<double>(resident));
}

bool ResidencyManager::EvictionEligible(const RecoverableObject& obj,
                                        const std::vector<std::uint64_t>& durable_sizes) const {
  if (obj.uid() == Uid::Root() || obj.evicted() || !obj.base_restored()) {
    return false;
  }
  if (obj.pin_count() > 0) {
    return false;
  }
  if (obj.is_atomic() && (obj.locked() || obj.has_current())) {
    return false;
  }
  if (obj.is_mutex() && obj.seized()) {
    return false;
  }
  LogAddress addr = obj.stable_address();
  if (addr.is_null()) {
    return false;
  }
  // Forces land on frame boundaries, so an address below the durable size
  // names a wholly durable frame — readable through the cache after a crash.
  return addr.offset < durable_sizes[ShardOfUid(obj.uid())];
}

std::uint64_t ResidencyManager::RunEvictionPass() {
  if (!enabled()) {
    return 0;
  }
  const ResidencyObs& o = ResidencyObs::Get();
  std::uint64_t resident = heap_->SettleResidentBytes();
  PublishResidentBytes(resident);
  ++stats_.eviction_passes;
  o.eviction_passes->Increment();
  if (resident <= high_watermark_bytes()) {
    return 0;
  }

  std::vector<std::uint64_t> durable_sizes;
  durable_sizes.reserve(logs_.size());
  for (StableLog* log : logs_) {
    durable_sizes.push_back(log->durable_size());
  }

  if (ring_.size() + 1 != heap_->object_count()) {  // +1: the root is not on the ring
    ring_.clear();
    ring_.reserve(heap_->object_count());
    for (const auto& [uid, obj] : *heap_) {
      if (uid != Uid::Root()) {
        ring_.push_back(obj.get());
      }
    }
    std::ranges::sort(ring_, {}, &RecoverableObject::uid);
  }
  if (ring_.empty()) {
    return 0;
  }

  std::size_t pos =
      static_cast<std::size_t>(std::ranges::lower_bound(ring_, clock_hand_, {},
                                                        &RecoverableObject::uid) -
                               ring_.begin()) %
      ring_.size();
  const std::uint64_t target = low_watermark_bytes();
  const std::size_t max_steps = ring_.size() * 2;  // second chance: at most two laps
  std::uint64_t evicted_count = 0;

  for (std::size_t step = 0; step < max_steps && resident > target; ++step) {
    RecoverableObject* obj = ring_[pos];
    pos = (pos + 1) % ring_.size();
    if (obj->evicted()) {
      continue;
    }
    if (!EvictionEligible(*obj, durable_sizes)) {
      if (obj->pin_count() > 0 || (obj->is_atomic() && obj->locked()) ||
          (obj->is_mutex() && obj->seized())) {
        ++stats_.pinned_skips;
        o.pinned_skips->Increment();
      }
      continue;
    }
    if (obj->TestAndClearReferenced()) {
      continue;  // second chance: survives this lap
    }

    const std::uint64_t bytes = obj->base_version().ApproxBytes();
    std::vector<RecoverableObject*> refs;
    CollectRefs(obj->base_version(), refs);
    std::vector<Uid> ref_uids;
    ref_uids.reserve(refs.size());
    for (RecoverableObject* ref : refs) {
      ref_uids.push_back(ref->uid());
    }
    obj->Evict(bytes, std::move(ref_uids));
    resident -= std::min(resident, bytes);
    ++evicted_count;
    ++stats_.evictions;
    o.evictions->Increment();
    if (config_.max_evictions_per_pass != 0 &&
        evicted_count >= config_.max_evictions_per_pass) {
      break;
    }
  }

  clock_hand_ = ring_[pos]->uid();
  PublishResidentBytes(resident);
  return evicted_count;
}

Status ResidencyManager::FaultIn(RecoverableObject* object) {
  RecoverableObject* one[] = {object};
  return FaultInBatch(one);
}

Status ResidencyManager::FaultInBatch(std::span<RecoverableObject* const> objects) {
  std::vector<RecoverableObject*> targets;
  for (RecoverableObject* obj : objects) {
    if (obj != nullptr && obj->evicted() &&
        std::find(targets.begin(), targets.end(), obj) == targets.end()) {
      targets.push_back(obj);
    }
  }
  if (targets.empty()) {
    return Status::Ok();
  }
  const auto start = std::chrono::steady_clock::now();
  Status s = ReadAndMaterialize(targets);
  // Also on failure: the objects materialized before it count.
  PublishResidentBytes(heap_->SettleResidentBytes());
  if (s.ok()) {
    ResidencyObs::Get().fault_ns->Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             start)
            .count()));
  }
  return s;
}

Status ResidencyManager::ReadAndMaterialize(const std::vector<RecoverableObject*>& targets) {
  const ResidencyObs& o = ResidencyObs::Get();
  // Group addresses by owning shard; one ReadMany (one scatter submission on
  // a batched medium) rematerializes a shard's whole group.
  std::vector<std::vector<LogAddress>> shard_addresses(logs_.size());
  std::vector<std::vector<RecoverableObject*>> shard_targets(logs_.size());
  for (RecoverableObject* obj : targets) {
    const LogAddress addr = obj->stable_address();
    ARGUS_CHECK_MSG(!addr.is_null(), "evicted object lost its stable address");
    const std::uint32_t shard = ShardOfUid(obj->uid());
    shard_addresses[shard].push_back(addr);
    shard_targets[shard].push_back(obj);
  }

  for (std::uint32_t shard = 0; shard < logs_.size(); ++shard) {
    const std::vector<LogAddress>& addrs = shard_addresses[shard];
    if (addrs.empty()) {
      continue;
    }
    std::vector<Result<LogEntry>> entries = logs_[shard]->ReadMany(addrs);
    ++stats_.fault_batches;
    o.fault_batches->Increment();
    stats_.fault_reads += addrs.size();
    o.fault_reads->Add(addrs.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      RecoverableObject* obj = shard_targets[shard][i];
      if (!entries[i].ok()) {
        return entries[i].status();
      }
      Result<Value> decoded = DecodeStubPayload(entries[i].value(), obj->uid());
      if (!decoded.ok()) {
        return decoded.status();
      }
      Value v = std::move(decoded.value());
      Status resolved = ResolveUidRefs(v, [this](Uid uid) { return heap_->Get(uid); });
      if (!resolved.ok()) {
        return resolved;
      }
      obj->Materialize(std::move(v));
      ++stats_.faults;
      o.faults->Increment();
    }
  }
  return Status::Ok();
}

Status ResidencyManager::MaterializeAll() {
  std::vector<RecoverableObject*> evicted;
  for (const auto& [uid, obj] : *heap_) {
    if (obj->evicted()) {
      evicted.push_back(obj.get());
    }
  }
  if (evicted.empty()) {
    return Status::Ok();
  }
  return FaultInBatch(evicted);
}

void ResidencyManager::RebindLog(std::uint32_t shard, StableLog* log) {
  ARGUS_CHECK(shard < logs_.size() && log != nullptr);
  // The swap protocol materialized everything before retiring the old log,
  // so no stub can still point into it.
  for (const auto& [uid, obj] : *heap_) {
    ARGUS_CHECK_MSG(!obj->evicted() || ShardOfUid(uid) != shard,
                    "rebinding a shard with live stubs");
  }
  logs_[shard] = log;
}

}  // namespace argus
