// A StableMedium decorator that charges a fixed wall-clock latency per read
// call, modeling a device where every media access pays a seek/rotation cost.
//
// Benchmarks use this to make recovery I/O-bound the way a real disk-backed
// restart is: with per-shard recovery, N workers overlap their device waits,
// which is exactly the effect the shard-scaling experiment (E14) measures.
// Correctness tests never use this type.

#ifndef SRC_STABLE_LATENCY_MEDIUM_H_
#define SRC_STABLE_LATENCY_MEDIUM_H_

#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "src/stable/stable_medium.h"

namespace argus {

class LatencyStableMedium final : public StableMedium {
 public:
  LatencyStableMedium(std::unique_ptr<StableMedium> inner, std::chrono::nanoseconds read_latency)
      : inner_(std::move(inner)), read_latency_(read_latency) {}

  Status Append(std::span<const std::byte> data) override { return inner_->Append(data); }

  Result<std::vector<std::byte>> Read(std::uint64_t offset, std::uint64_t len) override {
    if (read_latency_.count() > 0) {
      std::this_thread::sleep_for(read_latency_);
    }
    return inner_->Read(offset, len);
  }

  Status ReadInto(std::uint64_t offset, std::span<std::byte> out) override {
    if (read_latency_.count() > 0) {
      std::this_thread::sleep_for(read_latency_);
    }
    return inner_->ReadInto(offset, out);
  }

  // Charges once per segment — what the equivalent ReadInto sequence pays —
  // so seeded benches (E14's latency-charged shard scaling) are identical
  // whether or not the cache batches its fills.
  Status SubmitReads(std::span<ReadRequest> requests) override {
    if (read_latency_.count() > 0 && !requests.empty()) {
      std::this_thread::sleep_for(read_latency_ * static_cast<std::int64_t>(requests.size()));
    }
    return inner_->SubmitReads(requests);
  }

  std::uint64_t durable_size() const override { return inner_->durable_size(); }
  Status RecoverAfterCrash() override { return inner_->RecoverAfterCrash(); }
  Status TruncateTornTail(std::uint64_t size) override { return inner_->TruncateTornTail(size); }
  std::uint64_t physical_bytes_written() const override {
    return inner_->physical_bytes_written();
  }

 private:
  std::unique_ptr<StableMedium> inner_;
  std::chrono::nanoseconds read_latency_;
};

}  // namespace argus

#endif  // SRC_STABLE_LATENCY_MEDIUM_H_
