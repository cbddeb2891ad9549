// Bounded binary encoder / decoder used for log-entry payloads and flattened
// object values. Integers are little-endian fixed width or LEB128 varints;
// every read is bounds-checked so a corrupt frame can never run off the end.

#ifndef SRC_COMMON_CODEC_H_
#define SRC_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/result.h"

namespace argus {

class ByteWriter {
 public:
  ByteWriter() = default;

  void PutU8(std::uint8_t v) { buffer_.push_back(std::byte{v}); }
  void PutU32(std::uint32_t v);
  void PutU64(std::uint64_t v);
  void PutVarint(std::uint64_t v);
  void PutBytes(std::span<const std::byte> bytes);
  // Length-prefixed byte string.
  void PutBlob(std::span<const std::byte> bytes);
  void PutString(std::string_view s);

  void PutUid(Uid uid) { PutU64(uid.value); }
  void PutActionId(ActionId aid) {
    PutU32(aid.coordinator.value);
    PutU64(aid.sequence);
  }
  void PutGuardianId(GuardianId gid) { PutU32(gid.value); }
  void PutLogAddress(LogAddress addr) { PutU64(addr.offset); }

  const std::vector<std::byte>& bytes() const { return buffer_; }
  std::vector<std::byte> TakeBytes() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  std::vector<std::byte> buffer_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  Result<std::uint8_t> ReadU8();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  Result<std::uint64_t> ReadVarint();
  Result<std::vector<std::byte>> ReadBlob();
  // Zero-copy form of ReadBlob: a subspan of the reader's underlying buffer.
  // Only valid while that buffer lives (recovery pins cached log blocks).
  Result<std::span<const std::byte>> ReadBlobView();
  Result<std::string> ReadString();

  Result<Uid> ReadUid();
  Result<ActionId> ReadActionId();
  Result<GuardianId> ReadGuardianId();
  Result<LogAddress> ReadLogAddress();

  bool at_end() const { return pos_ == data_.size(); }

 private:
  bool Have(std::size_t n) const { return data_.size() - pos_ >= n; }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

// Convenience: byte span over a vector.
inline std::span<const std::byte> AsSpan(const std::vector<std::byte>& v) {
  return std::span<const std::byte>(v.data(), v.size());
}

}  // namespace argus

#endif  // SRC_COMMON_CODEC_H_
