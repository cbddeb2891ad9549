#include "src/stable/replicated_store.h"

#include <algorithm>

#include "src/common/codec.h"
#include "src/obs/metrics.h"

namespace argus {

namespace {

struct ReplicatedObs {
  obs::Counter* repaired_pages;   // copies healed by crash-time Repair()
  obs::Counter* fallback_reads;   // quorum reads that fell past replica 0

  static const ReplicatedObs& Get() {
    static const ReplicatedObs m{
        obs::GetCounter("stable.replicated.repaired_pages"),
        obs::GetCounter("stable.replicated.fallback_reads"),
    };
    return m;
  }
};

// The store's online-repair counts. A store does not know its guardian, so
// these are process totals; the service's own counts are scoped.
struct RepairObs {
  obs::Counter* pages_repaired;   // corrupt/unreadable copies healed online
  obs::Counter* divergent_found;  // intact-but-stale copies overwritten
  obs::Counter* resilver_pages;   // blank copies filled on a silvering replica
  obs::Counter* pages_lost;       // pages CRC-bad on every replica (scrub skips)

  static const RepairObs& Get() {
    static const RepairObs m{
        obs::GetCounter("stable.repair.pages_repaired"),
        obs::GetCounter("stable.repair.divergent_found"),
        obs::GetCounter("stable.repair.resilver_pages"),
        obs::GetCounter("stable.repair.pages_lost"),
    };
    return m;
  }
};

}  // namespace

ReplicatedStore::ReplicatedStore(std::size_t page_count, std::uint32_t replicas,
                                 std::uint64_t seed)
    : page_count_(page_count), seed_(seed) {
  ARGUS_CHECK_MSG(replicas >= 1, "a replicated store needs at least one replica");
  replicas_.reserve(replicas);
  for (std::uint32_t i = 0; i < replicas; ++i) {
    Replica r;
    r.disk = std::make_unique<SimulatedDisk>(page_count, seed * 2 + 1 + i);
    r.careful = std::make_unique<CarefulDisk>(r.disk.get());
    replicas_.push_back(std::move(r));
  }
}

std::size_t ReplicatedStore::page_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_count_;
}

std::uint32_t ReplicatedStore::replica_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::uint32_t>(replicas_.size());
}

void ReplicatedStore::EnsurePageCount(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (page_count_ < n) {
    page_count_ = n;
    for (Replica& r : replicas_) {
      r.disk->EnsurePageCount(n);
    }
  }
}

Status ReplicatedStore::AtomicWrite(std::size_t page_index, std::span<const std::byte> data) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    Status s = replicas_[i].careful->CarefulWrite(page_index, data);
    if (!s.ok()) {
      // A crash mid-chain leaves replicas [0, i) holding the new value and
      // [i, N) the old one — the quorum read's fixed probe order makes the
      // prefix win, so the logical page is the new value iff i > 0, the old
      // value iff i == 0, never garbage. Report the crash upward.
      return s;
    }
  }
  return Status::Ok();
}

Result<std::vector<std::byte>> ReplicatedStore::AtomicRead(std::size_t page_index) {
  std::lock_guard<std::mutex> lock(mu_);
  bool any_non_notfound = false;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    Result<std::vector<std::byte>> r = replicas_[i].careful->CarefulRead(page_index);
    if (r.ok()) {
      if (i > 0) {
        ReplicatedObs::Get().fallback_reads->Increment();
        // Some replica ahead of the winner is behind or broken: queue the
        // page for the online repair loop.
        dirty_.insert(page_index);
      }
      return r;
    }
    if (r.status().code() != ErrorCode::kNotFound) {
      any_non_notfound = true;
    }
  }
  if (!any_non_notfound) {
    return Status::NotFound("page never written");
  }
  dirty_.insert(page_index);
  return Status::Corruption("all replicas unreadable");
}

Status ReplicatedStore::AtomicReadInto(std::size_t page_index, std::span<std::byte> out) {
  std::lock_guard<std::mutex> lock(mu_);
  bool any_non_notfound = false;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    Status s = replicas_[i].careful->CarefulReadInto(page_index, out);
    if (s.ok()) {
      if (i > 0) {
        ReplicatedObs::Get().fallback_reads->Increment();
        dirty_.insert(page_index);
      }
      return s;
    }
    if (s.code() != ErrorCode::kNotFound) {
      any_non_notfound = true;
    }
  }
  if (!any_non_notfound) {
    return Status::NotFound("page never written");
  }
  dirty_.insert(page_index);
  return Status::Corruption("all replicas unreadable");
}

Result<std::size_t> ReplicatedStore::Repair() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t repaired = 0;
  std::vector<Result<std::vector<std::byte>>> reads;
  for (std::size_t page = 0; page < page_count_; ++page) {
    reads.clear();
    for (Replica& r : replicas_) {
      reads.push_back(r.careful->CarefulRead(page));
    }
    std::size_t winner = replicas_.size();
    for (std::size_t i = 0; i < reads.size(); ++i) {
      if (reads[i].ok()) {
        winner = i;
        break;
      }
    }
    if (winner == replicas_.size()) {
      bool all_corrupt = true;
      for (const Result<std::vector<std::byte>>& r : reads) {
        if (r.status().code() != ErrorCode::kCorruption) {
          all_corrupt = false;
          break;
        }
      }
      if (all_corrupt) {
        return Status::Corruption("page lost on all replicas");
      }
      // Never written everywhere, or still transiently unreadable somewhere:
      // nothing this pass can decide. (Matches the historical duplexed
      // behaviour — only confirmed decay on every replica is fatal.)
      continue;
    }
    const std::vector<std::byte>& value = reads[winner].value();
    for (std::size_t j = 0; j < reads.size(); ++j) {
      if (j == winner) {
        continue;
      }
      bool heal = false;
      if (reads[j].ok()) {
        heal = !std::equal(value.begin(), value.end(), reads[j].value().begin());
      } else if (reads[j].status().code() == ErrorCode::kCorruption) {
        heal = true;
      }
      // kNotFound (write chain never reached replica j) and kIoError
      // (transient) are left for the online pass — exactly what the duplexed
      // store's crash-time repair did.
      if (heal) {
        Status s = replicas_[j].careful->CarefulWrite(page, AsSpan(value));
        if (!s.ok()) {
          return s;
        }
        ++repaired;
      }
    }
  }
  ReplicatedObs::Get().repaired_pages->Add(repaired);
  return repaired;
}

Result<std::size_t> ReplicatedStore::RepairPage(std::size_t page_index) {
  std::lock_guard<std::mutex> lock(mu_);
  return RepairPageLocked(page_index);
}

Result<std::size_t> ReplicatedStore::RepairPageLocked(std::size_t page_index) {
  std::vector<Result<std::vector<std::byte>>> reads;
  reads.reserve(replicas_.size());
  for (Replica& r : replicas_) {
    reads.push_back(r.careful->CarefulRead(page_index));
  }
  std::size_t winner = replicas_.size();
  for (std::size_t i = 0; i < reads.size(); ++i) {
    if (reads[i].ok()) {
      winner = i;
      break;
    }
  }
  if (winner == replicas_.size()) {
    bool all_notfound = true;
    bool any_transient = false;
    for (const Result<std::vector<std::byte>>& r : reads) {
      if (r.status().code() != ErrorCode::kNotFound) {
        all_notfound = false;
      }
      if (r.status().code() == ErrorCode::kIoError) {
        any_transient = true;
      }
    }
    if (all_notfound) {
      return static_cast<std::size_t>(0);  // never written: converged by vacuity
    }
    if (any_transient) {
      // A transient storm may be hiding an intact copy; report it so the
      // repair service retries the page on a later pass instead of declaring
      // it lost.
      return Status::IoError("replicas transiently unreadable");
    }
    return Status::Corruption("page lost on all replicas");
  }

  const std::vector<std::byte>& value = reads[winner].value();
  const RepairObs& obs = RepairObs::Get();
  std::size_t healed = 0;
  for (std::size_t j = 0; j < reads.size(); ++j) {
    if (j == winner) {
      continue;
    }
    bool heal = false;
    if (reads[j].ok()) {
      if (!std::equal(value.begin(), value.end(), reads[j].value().begin())) {
        obs.divergent_found->Increment();
        heal = true;
      }
    } else if (reads[j].status().code() == ErrorCode::kNotFound) {
      // Unlike the crash-time pass, the online pass fills never-written
      // copies: this is the re-silver path for a blank replacement replica,
      // and the catch-up path for a write chain torn before reaching j.
      heal = true;
    } else {
      // kCorruption (confirmed decay) and kIoError (retries exhausted): both
      // get rewritten from the winner.
      heal = true;
    }
    if (!heal) {
      continue;
    }
    Status s = replicas_[j].careful->CarefulWrite(page_index, AsSpan(value));
    if (!s.ok()) {
      // Partial heal: re-queue the page so a later pass finishes the job.
      dirty_.insert(page_index);
      return s;
    }
    ++healed;
    if (!reads[j].ok() && reads[j].status().code() == ErrorCode::kNotFound &&
        replicas_[j].silvering) {
      obs.resilver_pages->Increment();
    } else {
      obs.pages_repaired->Increment();
    }
  }
  return healed;
}

Result<std::size_t> ReplicatedStore::ScrubRange(std::size_t begin, std::size_t end) {
  std::size_t healed = 0;
  Status first_error = Status::Ok();
  for (std::size_t page = begin; page < end; ++page) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (page >= page_count_) {
        break;
      }
      Result<std::size_t> r = RepairPageLocked(page);
      if (r.ok()) {
        healed += r.value();
      } else {
        if (r.status().code() == ErrorCode::kCorruption) {
          RepairObs::Get().pages_lost->Increment();
        }
        if (first_error.ok()) {
          first_error = r.status();
        }
      }
    }
    // Mutex released between pages: commits and quorum reads interleave with
    // a long scrub at page granularity.
  }
  if (!first_error.ok()) {
    return first_error;
  }
  return healed;
}

std::vector<std::size_t> ReplicatedStore::TakeDirtyPages() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::size_t> out(dirty_.begin(), dirty_.end());
  dirty_.clear();
  return out;
}

std::size_t ReplicatedStore::dirty_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dirty_.size();
}

void ReplicatedStore::ReplaceReplica(std::uint32_t replica, std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  ARGUS_CHECK(replica < replicas_.size());
  Replica& r = replicas_[replica];
  r.disk = std::make_unique<SimulatedDisk>(page_count_, seed);
  r.careful = std::make_unique<CarefulDisk>(r.disk.get());
  r.silvering = true;
  resilver_pending_ = true;
}

std::uint32_t ReplicatedStore::AttachReplica(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  Replica r;
  r.disk = std::make_unique<SimulatedDisk>(page_count_, seed);
  r.careful = std::make_unique<CarefulDisk>(r.disk.get());
  r.silvering = true;
  replicas_.push_back(std::move(r));
  resilver_pending_ = true;
  return static_cast<std::uint32_t>(replicas_.size() - 1);
}

bool ReplicatedStore::resilver_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resilver_pending_;
}

void ReplicatedStore::FinishResilver() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Replica& r : replicas_) {
    r.silvering = false;
  }
  resilver_pending_ = false;
}

void ReplicatedStore::SetReplicaFaultPlan(std::uint32_t replica, const DiskFaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  ARGUS_CHECK(replica < replicas_.size());
  replicas_[replica].disk->set_fault_plan(plan);
}

Result<std::size_t> ReplicatedStore::VerifyConverged() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t page = 0; page < page_count_; ++page) {
    const DiskPage* reference = nullptr;
    std::size_t holders = 0;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      const DiskPage& p = replicas_[i].disk->PeekPage(page);
      if (!p.ever_written) {
        continue;
      }
      ++holders;
      if (!p.IntactCrc()) {
        return Status::Corruption("replica " + std::to_string(i) + " page " +
                                  std::to_string(page) + " crc-bad after repair");
      }
      if (reference == nullptr) {
        reference = &p;
      } else if (!std::equal(reference->data.begin(), reference->data.end(), p.data.begin())) {
        return Status::Corruption("replica " + std::to_string(i) + " diverges on page " +
                                  std::to_string(page));
      }
    }
    if (!resilver_pending_ && holders != 0 && holders != replicas_.size()) {
      return Status::Corruption("page " + std::to_string(page) + " held by " +
                                std::to_string(holders) + "/" +
                                std::to_string(replicas_.size()) + " replicas");
    }
  }
  return page_count_;
}

SimulatedDisk& ReplicatedStore::disk(std::uint32_t replica) {
  std::lock_guard<std::mutex> lock(mu_);
  ARGUS_CHECK(replica < replicas_.size());
  return *replicas_[replica].disk;
}

std::uint64_t ReplicatedStore::physical_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const Replica& r : replicas_) {
    total += r.disk->writes();
  }
  return total;
}

// ---------------------------------------------------------------------------
// ReplicaRepairService
// ---------------------------------------------------------------------------

ReplicaRepairService::Metrics::Metrics(const obs::Scope& scope)
    : scans(scope.GetCounter("stable.repair.scans")),
      dirty_drained(scope.GetCounter("stable.repair.dirty_drained")),
      resilvers(scope.GetCounter("stable.repair.resilvers")),
      pass_ns(scope.GetHistogram("stable.repair.pass_ns")) {}

ReplicaRepairService::ReplicaRepairService(ReplicatedStore* store, ReplicaRepairConfig config,
                                           const obs::Scope& scope)
    : store_(store), config_(config), metrics_(scope), loop_([this] {
        // Errors are retained (RunPass records them) but never stop the loop:
        // a page lost this pass may be healable next pass (transient storm),
        // and the rest of the range still deserves scrubbing either way.
        RunPass();
        return std::optional<PeriodicService::Clock::duration>(PeriodicService::kPoll);
      }) {
  ARGUS_CHECK(store != nullptr);
}

Status ReplicaRepairService::RunPass() {
  const RepairObs& obs = RepairObs::Get();
  metrics_.scans->Increment();
  auto started = std::chrono::steady_clock::now();
  Status pass_error = Status::Ok();

  // 1. Drain the dirty queue fed by quorum-read fallbacks: pages known to
  //    have a lagging or broken replica get healed first.
  std::vector<std::size_t> dirty = store_->TakeDirtyPages();
  for (std::size_t page : dirty) {
    Result<std::size_t> r = store_->RepairPage(page);
    if (!r.ok()) {
      if (r.status().code() == ErrorCode::kCorruption) {
        obs.pages_lost->Increment();
      }
      if (pass_error.ok()) {
        pass_error = r.status();
      }
    }
  }

  // 2. Advance either the re-silver scan (priority: a blank replica is one
  //    whole-disk failure away from data loss) or the rolling background
  //    scrub. Both are windows of the same ScrubRange machinery.
  std::uint64_t resilvers_done = 0;
  if (config_.scrub_pages_per_pass > 0) {
    std::size_t pages = store_->page_count();
    if (store_->resilver_pending()) {
      std::size_t begin;
      {
        std::lock_guard<std::mutex> lock(mu_);
        begin = resilver_cursor_;
      }
      std::size_t end = std::min(pages, begin + config_.scrub_pages_per_pass);
      Result<std::size_t> r = store_->ScrubRange(begin, end);
      if (!r.ok() && pass_error.ok()) {
        pass_error = r.status();
      }
      std::lock_guard<std::mutex> lock(mu_);
      resilver_cursor_ = end;
      if (end >= pages) {
        // Full range covered with the silvering replica attached: every page
        // the peers held has been copied (writes that landed meanwhile went
        // to all replicas directly).
        store_->FinishResilver();
        resilver_cursor_ = 0;
        ++resilvers_done;
      }
    } else {
      std::size_t begin;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (scrub_cursor_ >= pages) {
          scrub_cursor_ = 0;
        }
        begin = scrub_cursor_;
      }
      std::size_t end = std::min(pages, begin + config_.scrub_pages_per_pass);
      Result<std::size_t> r = store_->ScrubRange(begin, end);
      if (!r.ok() && pass_error.ok()) {
        pass_error = r.status();
      }
      std::lock_guard<std::mutex> lock(mu_);
      scrub_cursor_ = end >= pages ? 0 : end;
    }
  }

  auto elapsed = std::chrono::steady_clock::now() - started;
  metrics_.pass_ns->Record(
      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  metrics_.dirty_drained->Add(dirty.size());
  metrics_.resilvers->Add(resilvers_done);
  loop_.RecordError(pass_error);
  return pass_error;
}

}  // namespace argus
