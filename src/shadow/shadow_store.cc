#include "src/shadow/shadow_store.h"

#include <array>

#include "src/obs/metrics.h"

namespace argus {
namespace {

enum class RecordType : std::uint8_t {
  kVersion = 1,
  kMap = 2,
};

}  // namespace

ShadowStore::ShadowStore(std::unique_ptr<StableMedium> medium)
    : medium_(std::move(medium)), map_bytes_written_(obs::GetCounter("shadow.map_bytes_written")) {
  ARGUS_CHECK(medium_ != nullptr);
}

Result<std::uint64_t> ShadowStore::AppendRecord(std::span<const std::byte> payload) {
  std::uint64_t offset = medium_->durable_size();
  ByteWriter frame;
  frame.PutU32(static_cast<std::uint32_t>(payload.size()));
  frame.PutBytes(payload);
  Status s = medium_->Append(AsSpan(frame.bytes()));
  if (!s.ok()) {
    return s;
  }
  return offset;
}

Status ShadowStore::Prepare(ActionId aid,
                            const std::vector<std::pair<Uid, std::vector<std::byte>>>& versions) {
  Intent intent;
  for (const auto& [uid, bytes] : versions) {
    ByteWriter w;
    w.PutU8(static_cast<std::uint8_t>(RecordType::kVersion));
    w.PutUid(uid);
    w.PutBlob(AsSpan(bytes));
    Result<std::uint64_t> offset = AppendRecord(AsSpan(w.bytes()));
    if (!offset.ok()) {
      return offset.status();
    }
    intent.versions[uid] = offset.value();
  }
  in_doubt_[aid] = std::move(intent);
  // The prepared state must survive a crash: rewrite the map with the new
  // in-doubt entry. (This is the distribution tax of the shadowing scheme —
  // the thesis notes a log is also required once data is distributed.)
  return WriteMapAndSwitch();
}

Status ShadowStore::Commit(ActionId aid) {
  auto it = in_doubt_.find(aid);
  if (it != in_doubt_.end()) {
    for (const auto& [uid, offset] : it->second.versions) {
      map_[uid] = offset;
    }
    in_doubt_.erase(it);
  }
  return WriteMapAndSwitch();
}

Status ShadowStore::Abort(ActionId aid) {
  if (in_doubt_.erase(aid) == 0) {
    return Status::Ok();  // nothing durable to undo
  }
  return WriteMapAndSwitch();
}

Status ShadowStore::WriteMapAndSwitch() {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(RecordType::kMap));
  w.PutVarint(map_.size());
  for (const auto& [uid, offset] : map_) {
    w.PutUid(uid);
    w.PutU64(offset);
  }
  w.PutVarint(in_doubt_.size());
  for (const auto& [aid, intent] : in_doubt_) {
    w.PutActionId(aid);
    w.PutVarint(intent.versions.size());
    for (const auto& [uid, offset] : intent.versions) {
      w.PutUid(uid);
      w.PutU64(offset);
    }
  }
  map_bytes_written_->Add(w.size());
  Result<std::uint64_t> offset = AppendRecord(AsSpan(w.bytes()));
  if (!offset.ok()) {
    return offset.status();
  }
  // The atomic pointer switch: the commit point.
  map_pointer_ = offset.value();
  return Status::Ok();
}

Result<std::vector<std::byte>> ShadowStore::ReadObject(Uid uid) const {
  auto it = map_.find(uid);
  if (it == map_.end()) {
    return Status::NotFound("no such object " + to_string(uid));
  }
  std::array<std::byte, 4> header;
  Status hs = medium_->ReadInto(it->second, std::span<std::byte>(header.data(), header.size()));
  if (!hs.ok()) {
    return hs;
  }
  ByteReader hr(std::span<const std::byte>(header.data(), header.size()));
  Result<std::uint32_t> len = hr.ReadU32();
  if (!len.ok()) {
    return len.status();
  }
  std::vector<std::byte> payload(len.value());
  Status ps = medium_->ReadInto(it->second + 4,
                                std::span<std::byte>(payload.data(), payload.size()));
  if (!ps.ok()) {
    return ps;
  }
  ByteReader r(AsSpan(payload));
  Result<std::uint8_t> type = r.ReadU8();
  if (!type.ok()) {
    return type.status();
  }
  if (static_cast<RecordType>(type.value()) != RecordType::kVersion) {
    return Status::Corruption("map points at a non-version record");
  }
  Result<Uid> stored = r.ReadUid();
  if (!stored.ok()) {
    return stored.status();
  }
  if (stored.value() != uid) {
    return Status::Corruption("version record uid mismatch");
  }
  return r.ReadBlob();
}

Result<std::size_t> ShadowStore::Recover() {
  map_.clear();
  in_doubt_.clear();
  if (!map_pointer_.has_value()) {
    return std::size_t{0};  // nothing ever committed or prepared
  }
  std::array<std::byte, 4> header;
  Status hs = medium_->ReadInto(*map_pointer_, std::span<std::byte>(header.data(), header.size()));
  if (!hs.ok()) {
    return hs;
  }
  ByteReader hr(std::span<const std::byte>(header.data(), header.size()));
  Result<std::uint32_t> len = hr.ReadU32();
  if (!len.ok()) {
    return len.status();
  }
  std::vector<std::byte> payload(len.value());
  Status ps = medium_->ReadInto(*map_pointer_ + 4,
                                std::span<std::byte>(payload.data(), payload.size()));
  if (!ps.ok()) {
    return ps;
  }
  ByteReader r(AsSpan(payload));
  Result<std::uint8_t> type = r.ReadU8();
  if (!type.ok()) {
    return type.status();
  }
  if (static_cast<RecordType>(type.value()) != RecordType::kMap) {
    return Status::Corruption("map pointer does not reference a map record");
  }
  Result<std::uint64_t> count = r.ReadVarint();
  if (!count.ok()) {
    return count.status();
  }
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    Result<Uid> uid = r.ReadUid();
    if (!uid.ok()) {
      return uid.status();
    }
    Result<std::uint64_t> offset = r.ReadU64();
    if (!offset.ok()) {
      return offset.status();
    }
    map_[uid.value()] = offset.value();
  }
  Result<std::uint64_t> doubt_count = r.ReadVarint();
  if (!doubt_count.ok()) {
    return doubt_count.status();
  }
  for (std::uint64_t i = 0; i < doubt_count.value(); ++i) {
    Result<ActionId> aid = r.ReadActionId();
    if (!aid.ok()) {
      return aid.status();
    }
    Result<std::uint64_t> n = r.ReadVarint();
    if (!n.ok()) {
      return n.status();
    }
    Intent intent;
    for (std::uint64_t k = 0; k < n.value(); ++k) {
      Result<Uid> uid = r.ReadUid();
      if (!uid.ok()) {
        return uid.status();
      }
      Result<std::uint64_t> offset = r.ReadU64();
      if (!offset.ok()) {
        return offset.status();
      }
      intent.versions[uid.value()] = offset.value();
    }
    in_doubt_[aid.value()] = std::move(intent);
  }
  return map_.size();
}

std::vector<ActionId> ShadowStore::InDoubtActions() const {
  std::vector<ActionId> out;
  out.reserve(in_doubt_.size());
  for (const auto& [aid, intent] : in_doubt_) {
    out.push_back(aid);
  }
  return out;
}

}  // namespace argus
