// The stable log abstraction of §3.1.
//
// Operations (after [Raible 83] as quoted in the thesis):
//   write        — stage an entry; it may not be durable yet
//   force_write  — stage an entry and durably flush it *and every older
//                  staged entry*
//   read         — fetch the entry at a log address
//   read_backward— iterate entries backward from an address
//   get_top      — address of the last entry that was forced
//
// Entries are framed [len u32][payload][crc u32][len u32]; the trailing
// length makes backward physical iteration possible, and the CRC rejects torn
// frames on media that are not inherently atomic (plain files).
//
// A crash (Guardian restart) discards the staged tail — exactly the
// volatility the outcome-entry protocol is designed around. After a crash,
// RecoverAfterCrash() re-derives the durable top by scanning frames forward.
//
// Thread-safety: every public operation is internally synchronized by one
// coarse mutex, so N actions may stage and read concurrently. Force() holds
// the mutex across the medium append — concurrent writers briefly block
// during a physical flush, which is what makes "force one entry ⇒ every
// older staged entry is durable" trivially true under concurrency. Callers
// who want their forces *coalesced* (one physical append serving many
// concurrent force_writes) go through the FlushCoordinator in
// src/log/flush_coordinator.h rather than calling Force() from every thread.
// RecoverAfterCrash() and the accessors returning references still assume a
// quiescent log (recovery and housekeeping are single-threaded phases).
//
// Reads of durable bytes go through a block ReadCache (src/stable/read_cache)
// whose mutex is the single funnel for all medium access; ReadFrameView /
// ReadMany serve concurrent readers (residency faults, the writer's mutex
// dereferences) without holding the log mutex for the medium fetch, CRC
// check, or decode.

#ifndef SRC_LOG_STABLE_LOG_H_
#define SRC_LOG_STABLE_LOG_H_

#include <memory>
#include <mutex>
#include <optional>

#include "src/log/entry_codec.h"
#include "src/log/log_entry.h"
#include "src/stable/read_cache.h"
#include "src/stable/stable_medium.h"

namespace argus {

struct LogStats {
  std::uint64_t entries_written = 0;
  std::uint64_t forces = 0;               // physical medium appends
  std::uint64_t bytes_forced = 0;
  std::uint64_t physical_bytes = 0;       // bytes the medium physically wrote,
                                          // summed over all N replicas (merged
                                          // in by StatsSnapshot; write
                                          // amplification = physical_bytes /
                                          // bytes_forced)
  std::uint64_t entries_read = 0;

  // Group-commit accounting (fed by StableLog::Force and by the
  // FlushCoordinator when one is layered on top).
  std::uint64_t force_requests = 0;       // logical force calls by actions
  std::uint64_t coalesced_requests = 0;   // requests served by another
                                          // thread's physical flush
  std::uint64_t max_entries_per_force = 0;
  std::uint64_t total_force_wait_ns = 0;  // time actions spent waiting for
                                          // their entry to become durable

  // Read-side accounting. The cache counters are merged in by
  // StatsSnapshot() from the ReadCache.
  std::uint64_t cache_hits = 0;           // reads served from cached blocks
  std::uint64_t cache_misses = 0;         // reads that touched the medium
  std::uint64_t cache_bytes_read = 0;     // bytes fetched from the medium
  std::uint64_t readahead_blocks = 0;     // blocks fetched ahead of a scan
  std::uint64_t read_batches = 0;         // ReadMany calls
  std::uint64_t batched_reads = 0;        // entries fetched via ReadMany

  double entries_per_force() const {
    return forces == 0 ? 0.0
                       : static_cast<double>(entries_written) / static_cast<double>(forces);
  }
  double cache_hit_rate() const {
    std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
  }
};

class StableLog {
 public:
  explicit StableLog(std::unique_ptr<StableMedium> medium,
                     ReadCache::Config cache_config = ReadCache::Config());

  StableLog(const StableLog&) = delete;
  StableLog& operator=(const StableLog&) = delete;

  // Stages `entry` and returns its (future) address. The entry becomes
  // durable at the next Force()/ForceWrite().
  LogAddress Write(const LogEntry& entry);

  // Stages `entry` then durably flushes the whole staged tail.
  Result<LogAddress> ForceWrite(const LogEntry& entry);

  // Durably flushes the staged tail (group commit).
  Status Force();

  // Reads the entry at `address`. Staged (not yet forced) entries are
  // readable too — housekeeping reads behind the writer within one run.
  Result<LogEntry> Read(LogAddress address) const;

  // A validated frame's payload pinned in the read cache: repeat reads of a
  // cached frame are zero-copy, and recovery decodes straight out of the
  // pinned bytes (DecodeDataEntryView) instead of per-entry heap copies.
  // Valid past eviction, Clear, and log destruction.
  class FrameView {
   public:
    FrameView() = default;
    std::span<const std::byte> payload() const { return payload_; }

   private:
    friend class StableLog;
    ReadCache::View view_;
    std::span<const std::byte> payload_;
  };

  // Reads the frame at `address` as a pinned view. Safe to call from many
  // threads concurrently: durable frames go through the read cache without
  // holding the log mutex, frames touching the staged tail fall back to a
  // locked stitched read.
  Result<FrameView> ReadFrameView(LogAddress address) const;

  // As above, additionally reporting whether the frame was served from an
  // already-validated cache residence (a repeat read that skipped the medium
  // and the CRC check). Steady-state table dereferences use this as their
  // cache-hit signal; staged-tail and pass-through reads report false.
  Result<FrameView> ReadFrameView(LogAddress address, bool* cache_validated) const;

  // Batched form of Read (residency faults, the writer's mutex reads):
  // fetches every address, processing them in ascending offset order for
  // cache-fill locality, and returns results in input order.
  std::vector<Result<LogEntry>> ReadMany(std::span<const LogAddress> addresses) const;

  // Address of the last *forced* entry, or nullopt if the log is empty.
  // Monotone under concurrency: forces only ever advance the top.
  std::optional<LogAddress> GetTop() const;

  // Walks entries backward: Read(address), then step to the physically
  // preceding entry. Next() yields entries until the beginning of the log.
  class BackwardCursor {
   public:
    BackwardCursor(const StableLog* log, std::optional<LogAddress> start)
        : log_(log), next_(start) {}

    // nullopt at the beginning of the log; a Status on a broken frame.
    Result<std::optional<std::pair<LogAddress, LogEntry>>> Next();

   private:
    const StableLog* log_;
    std::optional<LogAddress> next_;
  };

  BackwardCursor ReadBackwardFrom(LogAddress address) const {
    return BackwardCursor(this, address);
  }
  BackwardCursor ReadBackwardFromTop() const { return BackwardCursor(this, GetTop()); }

  // Walks entries forward from a byte offset (used by housekeeping stage 2 to
  // copy activity that arrived after the housekeeping marker). Iterates
  // through staged (unforced) entries as well.
  class ForwardCursor {
   public:
    ForwardCursor(const StableLog* log, std::uint64_t offset) : log_(log), next_(offset) {}

    // nullopt at the end of the log.
    Result<std::optional<std::pair<LogAddress, LogEntry>>> Next();

    // The offset the next Next() will read from. After Next() returns
    // nullopt this is the end of the log as of that call — a later cursor
    // started here resumes cleanly past everything already read (stage 2's
    // incremental catch-up passes rely on this).
    std::uint64_t offset() const { return next_; }

   private:
    const StableLog* log_;
    std::uint64_t next_;
  };

  ForwardCursor ReadForwardFrom(std::uint64_t offset) const { return ForwardCursor(this, offset); }

  // End offset of everything written so far (forced or staged).
  std::uint64_t end_offset() const;

  // Bytes / entries staged but not yet forced.
  std::uint64_t staged_bytes() const;
  std::uint64_t staged_entries() const;

  // Discards the staged tail (what a crash does to volatile state) and
  // re-derives the durable top from the medium. Returns the number of durable
  // entries found.
  Result<std::uint64_t> RecoverAfterCrash();

  // True if nothing has ever been forced.
  bool empty() const;

  std::uint64_t durable_size() const;

  // Reference accessor for single-threaded phases (tests, recovery); use
  // StatsSnapshot() when other threads may be writing.
  const LogStats& stats() const { return stats_; }
  LogStats StatsSnapshot() const;

  // Group-commit bookkeeping hook for the FlushCoordinator: one logical force
  // request finished after `wait_ns`; `coalesced` when it was satisfied by a
  // flush some other thread led.
  void RecordForceRequest(bool coalesced, std::uint64_t wait_ns);

  StableMedium& medium() { return *medium_; }

  // The block cache under every durable read. Benchmarks toggle it to
  // measure the uncached path; recovery clears it on RecoverAfterCrash so a
  // restart never trusts pre-crash bytes.
  ReadCache& read_cache() const { return cache_; }

 private:
  static constexpr std::uint64_t kFrameOverhead = 12;  // len + crc + len
  // ReadFrameViewAt's single-probe size: covers the header plus the whole
  // frame for typical entries, so a frame read is usually one cache access.
  static constexpr std::uint64_t kFrameProbeLen = 256;

  LogAddress WriteLocked(const LogEntry& entry);
  Status ForceLocked();

  // Reads the raw frame that starts at `offset`; also returns the offset of
  // the frame that physically precedes it (nullopt if first) and/or the
  // offset just past this frame. Caller holds mu_ (durable bytes still go
  // through the cache; mu_ -> cache mutex is the fixed lock order).
  Result<LogEntry> ReadFrameAt(std::uint64_t offset, std::optional<std::uint64_t>* prev,
                               std::uint64_t* next = nullptr) const;

  // Locked frame read for the cursors (also ticks entries_read).
  Result<LogEntry> ReadFrameForCursor(std::uint64_t offset, std::optional<std::uint64_t>* prev,
                                      std::uint64_t* next) const;

  // Lock-free frame read against a consistent (durable, total) snapshot;
  // the workhorse of ReadFrameView. Validates trailer + CRC once per cache
  // residence (ReadCache's frame memo).
  Result<FrameView> ReadFrameViewAt(std::uint64_t offset, std::uint64_t durable,
                                    std::uint64_t total, bool* cache_validated = nullptr) const;

  mutable std::mutex mu_;
  std::unique_ptr<StableMedium> medium_;
  mutable ReadCache cache_;                // all durable reads + appends funnel here
  std::vector<std::byte> staged_;          // encoded frames not yet forced
  std::uint64_t staged_entry_count_ = 0;
  std::optional<LogAddress> last_forced_;  // top
  std::optional<LogAddress> last_staged_;  // last written (forced or not)
  mutable LogStats stats_;                 // read counters tick in const reads
};

}  // namespace argus

#endif  // SRC_LOG_STABLE_LOG_H_
