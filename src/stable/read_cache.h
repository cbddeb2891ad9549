// Block read cache with chain/sequential read-ahead over a StableMedium.
//
// Recovery reads the log backward (outcome chain) and forward (crash scan),
// and the duplexed medium pays a per-256-byte-page CarefulRead for every
// virtual Read call. This layer turns those into block-granular fills that
// are cached, prefetched in the direction the scan is moving, and served as
// zero-copy `std::span` views pinned by shared ownership — so a frame's bytes
// are fetched from the medium once and validated once per residence.
//
// Concurrency: the simulated media are NOT thread-safe (SimulatedDisk rolls
// its fault rng and mutates pages on decay-reads; DuplexedStableMedium tracks
// durable_length_). The cache's mutex is therefore the single funnel for ALL
// medium access — fills, and appends via AppendThrough — which is what makes
// concurrent readers of one log safe. Returned views hold shared_ptr pins
// and stay valid after eviction, refill, Clear, or cache destruction.
//
// Caching never weakens fault detection: a block fill is a plain medium read,
// so a persistently decayed page surfaces the same kCorruption CarefulRead
// would report, and StableLog clears the cache on RecoverAfterCrash so a
// restart always re-reads the medium.
//
// Sharded guardians: each log shard owns its own StableLog and therefore its
// own ReadCache INSTANCE over its own medium — the cache is strictly
// per-medium and must never be shared across shards. The mutex-as-funnel
// contract above is per-instance: it serializes access to ONE thread-unsafe
// medium. N shard recovery workers reading N media in parallel are safe
// precisely because no two workers ever touch the same cache/medium pair;
// sharing one cache across media would both break the funnel (two media
// mutated under one lock is fine, but one medium reached from two caches is
// not) and alias block offsets between unrelated logs.

#ifndef SRC_STABLE_READ_CACHE_H_
#define SRC_STABLE_READ_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/stable/stable_medium.h"

namespace argus {

class ReadCache {
 public:
  struct Config {
    bool enabled = true;
    std::uint64_t block_size = 4096;
    std::size_t max_blocks = 4096;      // 16 MiB of cache at the default block size
    std::size_t readahead_blocks = 8;   // extra blocks fetched ahead of a moving scan
  };

  struct Stats {
    std::uint64_t hits = 0;              // reads served entirely from cached blocks
    std::uint64_t misses = 0;            // reads that had to fill at least one block
    std::uint64_t bytes_from_medium = 0; // bytes fetched from the medium (incl. read-ahead)
    std::uint64_t readahead_blocks = 0;  // blocks fetched speculatively, not on demand
  };

  // Immutable bytes pinned for the caller: either a zero-copy subspan of one
  // cached block (shared ownership keeps it alive past eviction) or an owned
  // buffer for ranges stitched across blocks. Move-only.
  class View {
   public:
    View() = default;
    View(View&&) noexcept = default;
    View& operator=(View&&) noexcept = default;
    View(const View&) = delete;
    View& operator=(const View&) = delete;

    std::span<const std::byte> bytes() const { return bytes_; }

    static View FromOwned(std::vector<std::byte> owned) {
      View v;
      v.owned_ = std::move(owned);
      v.bytes_ = std::span<const std::byte>(v.owned_.data(), v.owned_.size());
      return v;
    }

   private:
    friend class ReadCache;
    std::shared_ptr<const std::vector<std::byte>> pin_;  // set for single-block hits
    std::vector<std::byte> owned_;                       // set for stitched ranges
    std::span<const std::byte> bytes_;
  };

  explicit ReadCache(StableMedium* medium) : medium_(medium) {}
  ReadCache(StableMedium* medium, Config config) : medium_(medium), config_(config) {}

  // Reads [offset, offset+len) of the medium, which must lie within
  // `durable_limit` (the caller's snapshot of the durable extent). Fills
  // missing blocks with one medium read, extended by read-ahead when the
  // request continues an ascending or descending scan.
  Result<View> Read(std::uint64_t offset, std::uint64_t len, std::uint64_t durable_limit);

  // Single-access frame probe for the log layer: returns a view starting at
  // `offset` of at least `min_len` bytes (NotFound otherwise) and up to
  // `max_len`, clamped to `durable_limit` and — when that still satisfies
  // min_len — to the end of the block containing `offset`, so the common
  // case is one mutex round yielding a zero-copy pin that covers the whole
  // frame. `*validated` reports, under the same lock that produced the view,
  // whether a MarkValidated frame starts exactly at `offset`. With the cache
  // disabled the probe degrades to a pass-through read of min_len bytes.
  Result<View> ReadProbe(std::uint64_t offset, std::uint64_t min_len, std::uint64_t max_len,
                         std::uint64_t durable_limit, bool* validated);

  // Appends through to the medium. Serialized on the cache mutex so appends
  // and fills never race on a thread-unsafe medium. Cached blocks stay valid:
  // the medium is append-only, so existing bytes never change — a partial
  // trailing block is simply refilled when a longer read needs it. On failure
  // the cache is cleared (the medium may hold a torn suffix).
  Status AppendThrough(std::span<const std::byte> data);

  // Frame-validation memo: lets the log layer CRC-check a frame once per
  // cache residence. Memo entries live inside the block that holds the frame
  // (MarkValidated only records frames whose view is a still-current single-
  // block pin, so a memoized frame never spans blocks); a refill or eviction
  // replaces/drops the block and its memo together, so a memo hit always
  // refers to the exact bytes that were validated. Stitched views are simply
  // re-validated on their (rare) repeat reads.
  bool IsValidated(std::uint64_t frame_offset) const;
  void MarkValidated(std::uint64_t frame_offset, std::uint64_t frame_len, const View& view);

  // Toggling drops all cached blocks and memo entries; `false` degrades Read
  // to a pass-through (used by benchmarks to measure the uncached path).
  void SetEnabled(bool enabled);
  bool enabled() const;

  // Drops all cached blocks and memo entries. Outstanding views stay valid.
  void Clear();

  Stats StatsSnapshot() const;

 private:
  struct Block {
    std::shared_ptr<const std::vector<std::byte>> data;  // size may be < block_size at tail
    std::list<std::uint64_t>::iterator lru_it;
    // Start offsets of frames validated against `data` (a few dozen per
    // block; linear scans beat a global ordered map). Reset on refill.
    std::vector<std::uint64_t> validated_frames;
  };

  // All private helpers require mu_ held.
  Result<View> ReadRangeLocked(std::uint64_t offset, std::uint64_t len,
                               std::uint64_t durable_limit);
  Status FillRangeLocked(std::uint64_t first_block, std::uint64_t last_block,
                         std::uint64_t durable_limit, std::uint64_t demand_first,
                         std::uint64_t demand_last);
  bool IsValidatedLocked(std::uint64_t frame_offset) const;
  void TouchLocked(Block& block, std::uint64_t index);
  void EvictLocked();
  void ClearLocked();

  StableMedium* medium_;
  Config config_;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Block> blocks_;
  std::list<std::uint64_t> lru_;  // front = most recently used block index
  // Last filled block run, for scan-direction detection.
  bool have_last_fill_ = false;
  std::uint64_t last_fill_first_ = 0;
  std::uint64_t last_fill_last_ = 0;
  Stats stats_;
};

}  // namespace argus

#endif  // SRC_STABLE_READ_CACHE_H_
