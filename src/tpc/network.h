// Deterministic simulated network.
//
// Messages enqueue with a logical delivery time and are delivered one at a
// time by the driver loop (SimWorld::Pump). Fault injection:
//  - per-message drop probability;
//  - partitions, node-level (a partitioned guardian neither sends nor
//    receives — both edges are cut) or per directed edge;
//  - per-edge delay storms: messages on a stormed edge are held for a seeded
//    number of delivery ticks, so later traffic overtakes them (a delayed
//    prepare can arrive after the commit that followed it).
// All randomness comes from a seeded Rng, so any failure is replayable.
//
// Time is a logical tick counter: each successful delivery advances it by
// one, and when every queued message is still held by a delay the clock
// skips forward to the earliest release — the network never stalls idle.

#ifndef SRC_TPC_NETWORK_H_
#define SRC_TPC_NETWORK_H_

#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/tpc/messages.h"

namespace argus {

class SimNetwork {
 public:
  explicit SimNetwork(std::uint64_t seed = 0) : rng_(seed) {}

  void Send(const Message& message);

  // Pops the next deliverable message; nullopt when the queue is empty.
  // Delivery order is (release tick, send order); a message whose endpoint is
  // partitioned at delivery time is dropped.
  std::optional<Message> NextDelivery();

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t now() const { return now_; }

  void set_drop_probability(double p) { drop_probability_ = p; }
  // When enabled, NextDelivery picks a uniformly random *released* queued
  // message instead of the oldest — models arbitrary network reordering.
  void set_reorder(bool reorder) { reorder_ = reorder; }

  // Probability that a sent message is enqueued twice (at-least-once
  // delivery); receivers must be idempotent.
  void set_duplicate_probability(double p) { duplicate_probability_ = p; }

  // Deterministic-exploration hook: pops the index-th queued message in send
  // order, ignoring delays (for the exhaustive interleaving tests). nullopt
  // if out of range.
  std::optional<Message> DeliverAt(std::size_t index);

  // ---- Partitions ----

  // Node partition: cuts BOTH edges — the guardian neither sends nor
  // receives, and messages already in flight toward or from it are dropped
  // at delivery time.
  void Partition(GuardianId gid) { partitioned_.insert(gid); }
  void Heal(GuardianId gid) { partitioned_.erase(gid); }
  bool IsPartitioned(GuardianId gid) const {
    return partitioned_.find(gid) != partitioned_.end();
  }

  // Directed-edge partition: only from→to traffic is cut.
  void PartitionEdge(GuardianId from, GuardianId to) {
    partitioned_edges_.insert(EdgeKey(from, to));
  }
  void HealEdge(GuardianId from, GuardianId to) {
    partitioned_edges_.erase(EdgeKey(from, to));
  }
  // Lifts every node and edge partition.
  void HealAll() {
    partitioned_.clear();
    partitioned_edges_.clear();
  }

  // True when a from→to message would be cut by any active partition.
  // Loopback is exempt: a partition cuts the wire, not the guardian's own
  // message queue — a partitioned coordinator can still deliver its
  // self-addressed abort and release its local locks.
  bool Blocked(GuardianId from, GuardianId to) const {
    if (from == to) {
      return false;
    }
    return IsPartitioned(from) || IsPartitioned(to) ||
           partitioned_edges_.find(EdgeKey(from, to)) != partitioned_edges_.end();
  }

  // ---- Delay storms ----

  // Every message sent on from→to is held for a seeded delay in
  // [min_delay, max_delay] ticks. Overrides the global delay range.
  void SetEdgeDelay(GuardianId from, GuardianId to, std::uint64_t min_delay,
                    std::uint64_t max_delay);
  // Delay applied to every edge without a per-edge override.
  void SetGlobalDelay(std::uint64_t min_delay, std::uint64_t max_delay) {
    global_delay_ = DelayRange{min_delay, max_delay};
  }
  void ClearDelays() {
    edge_delays_.clear();
    global_delay_ = DelayRange{};
  }

 private:
  struct DelayRange {
    std::uint64_t min_delay = 0;
    std::uint64_t max_delay = 0;
  };
  struct Envelope {
    Message message;
    std::uint64_t release_at = 0;  // logical tick the message becomes ripe
    std::uint64_t seq = 0;         // send order, the FIFO tie-break
  };

  static std::uint64_t EdgeKey(GuardianId from, GuardianId to) {
    return (static_cast<std::uint64_t>(from.value) << 32) | to.value;
  }

  std::uint64_t SampleDelay(const Message& message);
  void Enqueue(const Message& message);
  void DropAtDelivery(const Message& m);

  std::deque<Envelope> queue_;
  std::unordered_set<GuardianId> partitioned_;
  std::unordered_set<std::uint64_t> partitioned_edges_;
  std::unordered_map<std::uint64_t, DelayRange> edge_delays_;
  DelayRange global_delay_;
  double drop_probability_ = 0.0;
  double duplicate_probability_ = 0.0;
  bool reorder_ = false;
  std::uint64_t now_ = 0;
  std::uint64_t next_seq_ = 0;
  Rng rng_;
};

}  // namespace argus

#endif  // SRC_TPC_NETWORK_H_
