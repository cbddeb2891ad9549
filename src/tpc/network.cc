#include "src/tpc/network.h"

#include <algorithm>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace argus {

namespace {

// All networks aggregated. A network joins every guardian of a world, so it
// counts process totals.
struct NetObs {
  obs::Counter* sent;
  obs::Counter* delivered;
  obs::Counter* dropped;
  obs::Counter* delayed;  // enqueued with a future delivery tick

  static const NetObs& Get() {
    static const NetObs m{
        obs::GetCounter("tpc.net.sent"),
        obs::GetCounter("tpc.net.delivered"),
        obs::GetCounter("tpc.net.dropped"),
        obs::GetCounter("tpc.net.delayed"),
    };
    return m;
  }
};

// Trace payload: (from, to, message type) — enough to read a 2PC hop
// sequence off a flight-recorder dump.
std::uint64_t TraceHop(const Message& m) {
  return (static_cast<std::uint64_t>(m.from.value) << 32) | m.to.value;
}

}  // namespace

void SimNetwork::SetEdgeDelay(GuardianId from, GuardianId to, std::uint64_t min_delay,
                              std::uint64_t max_delay) {
  edge_delays_[EdgeKey(from, to)] = DelayRange{min_delay, std::max(min_delay, max_delay)};
}

std::uint64_t SimNetwork::SampleDelay(const Message& message) {
  const DelayRange* range = &global_delay_;
  auto it = edge_delays_.find(EdgeKey(message.from, message.to));
  if (it != edge_delays_.end()) {
    range = &it->second;
  }
  if (range->max_delay == 0) {
    return 0;
  }
  return range->min_delay + rng_.NextBelow(range->max_delay - range->min_delay + 1);
}

void SimNetwork::Enqueue(const Message& message) {
  std::uint64_t delay = SampleDelay(message);
  if (delay > 0) {
    NetObs::Get().delayed->Increment();
    obs::Emit("tpc.net.delay", TraceHop(message), static_cast<std::uint64_t>(message.type),
              delay);
  }
  queue_.push_back(Envelope{message, now_ + delay, next_seq_++});
}

void SimNetwork::Send(const Message& message) {
  NetObs::Get().sent->Increment();
  obs::Emit("tpc.send", TraceHop(message), static_cast<std::uint64_t>(message.type),
            message.aid.sequence);
  if (Blocked(message.from, message.to)) {
    NetObs::Get().dropped->Increment();
    obs::Emit("tpc.drop", TraceHop(message), static_cast<std::uint64_t>(message.type),
              message.aid.sequence);
    return;
  }
  if (rng_.NextBool(drop_probability_)) {
    NetObs::Get().dropped->Increment();
    obs::Emit("tpc.drop", TraceHop(message), static_cast<std::uint64_t>(message.type),
              message.aid.sequence);
    return;
  }
  Enqueue(message);
  if (rng_.NextBool(duplicate_probability_)) {
    Enqueue(message);
  }
}

void SimNetwork::DropAtDelivery(const Message& m) {
  NetObs::Get().dropped->Increment();
  obs::Emit("tpc.drop", TraceHop(m), static_cast<std::uint64_t>(m.type), m.aid.sequence);
}

std::optional<Message> SimNetwork::DeliverAt(std::size_t index) {
  if (index >= queue_.size()) {
    return std::nullopt;
  }
  // The deque is in send order (append-only, order-preserving erase); delays
  // are ignored — the exhaustive interleaving tests pick arrival orders
  // explicitly, so a held message is fair game.
  Message m = queue_[index].message;
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  if (Blocked(m.from, m.to)) {
    DropAtDelivery(m);
    return std::nullopt;
  }
  NetObs::Get().delivered->Increment();
  obs::Emit("tpc.deliver", TraceHop(m), static_cast<std::uint64_t>(m.type), m.aid.sequence);
  return m;
}

std::optional<Message> SimNetwork::NextDelivery() {
  while (!queue_.empty()) {
    // Release tick first, send order second: undelayed traffic stays FIFO,
    // and a held message is overtaken by everything sent while it sleeps.
    std::size_t pick = 0;
    std::uint64_t earliest = queue_[0].release_at;
    for (std::size_t i = 1; i < queue_.size(); ++i) {
      const Envelope& e = queue_[i];
      if (e.release_at < earliest ||
          (e.release_at == earliest && e.seq < queue_[pick].seq)) {
        pick = i;
        earliest = e.release_at;
      }
    }
    if (earliest > now_) {
      // Everything still held: the clock skips to the earliest release so an
      // otherwise-idle network never wedges behind a delay storm.
      now_ = earliest;
    }
    if (reorder_) {
      // Uniform pick among the released messages.
      std::vector<std::size_t> ripe;
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (queue_[i].release_at <= now_) {
          ripe.push_back(i);
        }
      }
      pick = ripe[rng_.NextBelow(ripe.size())];
    }
    Message m = queue_[pick].message;
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
    ++now_;
    if (Blocked(m.from, m.to)) {
      DropAtDelivery(m);
      continue;  // an endpoint is unreachable at delivery time
    }
    NetObs::Get().delivered->Increment();
    obs::Emit("tpc.deliver", TraceHop(m), static_cast<std::uint64_t>(m.type), m.aid.sequence);
    return m;
  }
  return std::nullopt;
}

}  // namespace argus
