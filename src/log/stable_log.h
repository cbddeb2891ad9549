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
// frames on media that are not inherently atomic (plain files). A force
// appends whole frames, so no frame ever straddles the durable/staged
// boundary.
//
// Constructing a log reads nothing from its medium. A log over a non-empty
// medium (a reopened file, a surviving medium) has no top and refuses to
// force until RecoverAfterCrash() has scanned it. A crash (Guardian restart)
// discards the staged tail — exactly the volatility the outcome-entry
// protocol is designed around — and RecoverAfterCrash() re-derives the
// durable top. That scan is the log's only one. It checks framing only
// (length, trailer, CRC, a non-empty payload) and decodes nothing: a frame
// whose payload does not decode is reported by the reader that reaches it.
// A frame that fails its check ends the log only where a torn force can
// leave one: at the tail of a medium whose appends are not atomic, with no
// whole frame after it. The scan then cuts those bytes off
// (StableMedium::TruncateTornTail). Every other bad frame is damage: the scan
// returns Corruption and changes no byte.
//
// Thread-safety: every public operation is internally synchronized, so N
// actions may stage and read concurrently. A force is pipelined: under the
// log mutex it moves the whole staged tail into an in-flight buffer, appends
// that buffer with the log mutex released, and takes the mutex again to
// publish the new durable size and top. Stagers therefore keep staging into
// the next batch while the device writes this one. A force mutex, taken
// before the log mutex, lets one append run at a time, in staging order, so
// "force one entry ⇒ every older staged entry is durable" still holds, and a
// Force() that finds nothing staged still waits for an append in flight. The
// log owns its durable size: it asks the medium only when it is built and in
// RecoverAfterCrash(), because the medium's count moves during an append that
// runs outside the log mutex. Callers who want their forces *coalesced* (one
// physical append serving many concurrent force_writes) go through the
// FlushCoordinator in src/log/flush_coordinator.h rather than calling Force()
// from every thread. RecoverAfterCrash() waits for an append in flight; it
// and the accessors returning references still assume no concurrent stager
// or reader (recovery and housekeeping are single-threaded phases).
//
// Every frame read — Read, ReadFrameView, ReadMany, both cursors and the
// recovery scan — goes through one reader. A frame past the durable size is
// copied out of the in-flight or the staged buffer under the same mutex
// acquisition that reads the boundary; a force appends whole frames, so no
// frame straddles the two buffers. A durable frame is read through a block
// ReadCache (src/stable/read_cache) whose mutex is the single funnel for all
// medium access, without holding the log mutex for the medium fetch, CRC
// check, or decode, and its framing is checked once per cache residence. The
// append runs under that cache mutex too, so a read that must fetch a durable
// frame from the medium still waits out an append.

#ifndef SRC_LOG_STABLE_LOG_H_
#define SRC_LOG_STABLE_LOG_H_

#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "src/log/entry_codec.h"
#include "src/log/log_entry.h"
#include "src/obs/metrics.h"
#include "src/stable/read_cache.h"
#include "src/stable/stable_medium.h"

namespace argus {

class StableLog {
 public:
  // Wraps `medium` without reading it (see the header comment). The log and
  // its read cache count into the registry under `scope` (a guardian's shard;
  // unscoped by default).
  explicit StableLog(std::unique_ptr<StableMedium> medium, obs::Scope scope = {});

  StableLog(const StableLog&) = delete;
  StableLog& operator=(const StableLog&) = delete;

  // Stages `entry` and returns its (future) address. The entry becomes
  // durable at the next Force()/ForceWrite().
  LogAddress Write(const LogEntry& entry);

  // Stages `entry` then durably flushes the whole staged tail (Write then
  // Force; the force may carry entries other threads staged in between).
  Result<LogAddress> ForceWrite(const LogEntry& entry);

  // Durably flushes everything staged before the call (group commit). Waits
  // for an append in flight, then appends the whole staged tail. On failure
  // every frame stays staged at its address, so a retry appends all of them.
  // Unavailable on a log opened over a non-empty medium until
  // RecoverAfterCrash() has run.
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
  // holding the log mutex; a staged frame is copied out under it. A non-null
  // `cache_validated` reports whether the frame was served from an
  // already-validated cache residence (a repeat read that skipped the medium
  // and the CRC check). Steady-state table dereferences use this as their
  // cache-hit signal; staged-tail and pass-through reads report false.
  Result<FrameView> ReadFrameView(LogAddress address, bool* cache_validated = nullptr) const;

  // Batched form of Read (residency faults, the writer's mutex reads):
  // fetches every address, processing them in ascending offset order for
  // cache-fill locality, and returns results in input order.
  std::vector<Result<LogEntry>> ReadMany(std::span<const LogAddress> addresses) const;

  // Address of the last *forced* entry, or nullopt if the log is empty.
  // Monotone under concurrency: forces only ever advance the top.
  std::optional<LogAddress> GetTop() const;

  // Walks entries backward: Read(address), then step to the physically
  // preceding entry, whose offset the 4-byte trailer in front of the current
  // frame gives. Next() yields entries until the beginning of the log.
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

  // Walks entries forward from a byte offset, stepping by each frame's length
  // (used by housekeeping stage 2 to copy activity that arrived after the
  // housekeeping marker). Iterates through staged (unforced) entries as well.
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

  // Bytes / entries staged but not yet durable (in-flight ones included).
  std::uint64_t staged_bytes() const;
  std::uint64_t staged_entries() const;

  // Discards the staged tail (what a crash does to volatile state) and
  // re-derives the durable top with the log's only scan, which cuts a torn
  // force off or reports damage (see the header comment). Each frame it
  // checks stays in the read cache's frame memo, so the chain walk that
  // follows does not check it again.
  Status RecoverAfterCrash();

  // True if no forced entry is known (nothing forced, or not yet scanned).
  bool empty() const;

  std::uint64_t durable_size() const;

  // Entries written (staged) through this log object since it was built. A
  // plain count the checkpoint policy reads: behaviour never reads a metric.
  std::uint64_t entries_written() const;

  // The registry scope this log counts under; a checkpoint's new log and the
  // shard's FlushCoordinator take it.
  const obs::Scope& scope() const { return scope_; }

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

  // The buffer that holds the not-yet-durable byte at `offset` (at or past
  // durable_size_) — the in-flight batch or the staged tail — and the byte's
  // position in it. Requires mu_.
  std::pair<std::span<const std::byte>, std::uint64_t> VolatileBytesLocked(
      std::uint64_t offset) const;

  // Reads the durable frame at `offset` against a snapshot `durable` of the
  // durable extent, without mu_ (a caller may hold it: mu_ -> cache mutex is
  // the fixed lock order). Checks the framing once per cache residence
  // (ReadCache's frame memo).
  Result<FrameView> ReadFrameViewAt(std::uint64_t offset, std::uint64_t durable,
                                    bool* cache_validated) const;

  // Offset of the frame that ends where the frame at `offset` starts, from
  // the 4-byte trailer in front of it; nullopt at the start of the log.
  Result<std::optional<std::uint64_t>> PreviousFrameOffset(std::uint64_t offset) const;

  struct Metrics {
    explicit Metrics(const obs::Scope& scope);
    obs::Counter* entries_staged;
    obs::Counter* forces;
    obs::Counter* bytes_forced;
    obs::Counter* entries_read;
    obs::Histogram* batch_entries;
  };

  const obs::Scope scope_;
  const Metrics metrics_;
  // Lock order: force_mu_ -> mu_ -> the cache's mutex. mu_ is never held
  // across an append.
  std::mutex force_mu_;  // one append at a time, in staging order
  mutable std::mutex mu_;
  std::unique_ptr<StableMedium> medium_;
  mutable ReadCache cache_;                // all durable reads + appends funnel here
  std::uint64_t durable_size_ = 0;         // the log's own count of durable bytes
  // The batch a force is appending with mu_ released: written only under
  // force_mu_ and mu_ together, so the appending force reads it under
  // force_mu_ alone. Empty whenever force_mu_ is free.
  std::vector<std::byte> inflight_;
  std::uint64_t inflight_entry_count_ = 0;
  std::vector<std::byte> staged_;          // encoded frames behind the in-flight batch
  std::uint64_t staged_entry_count_ = 0;
  std::optional<LogAddress> last_forced_;  // top
  std::optional<LogAddress> last_staged_;  // last written (forced or not)
  bool needs_scan_ = false;                // medium bytes RecoverAfterCrash has not scanned
  std::uint64_t entries_written_ = 0;
};

}  // namespace argus

#endif  // SRC_LOG_STABLE_LOG_H_
