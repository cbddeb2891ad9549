// Tests for the simulated network: FIFO delivery, drops, partitions, stats.

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/tpc/network.h"

namespace argus {
namespace {

// A network counts into the unlabelled tpc.net.* totals; a test reads one as
// the growth since the counter object was made.
class NetCount {
 public:
  explicit NetCount(const char* name)
      : counter_(obs::GetCounter(name)), base_(counter_->Value()) {}
  std::uint64_t operator()() const { return counter_->Value() - base_; }

 private:
  const obs::Counter* counter_;
  std::uint64_t base_;
};

Message Msg(std::uint32_t from, std::uint32_t to, MessageType type = MessageType::kPrepare) {
  Message m;
  m.from = GuardianId{from};
  m.to = GuardianId{to};
  m.type = type;
  m.aid = ActionId{GuardianId{from}, 1};
  return m;
}

TEST(SimNetwork, FifoDelivery) {
  SimNetwork net(1);
  net.Send(Msg(0, 1, MessageType::kPrepare));
  net.Send(Msg(0, 1, MessageType::kCommit));
  auto first = net.NextDelivery();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, MessageType::kPrepare);
  auto second = net.NextDelivery();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, MessageType::kCommit);
  EXPECT_FALSE(net.NextDelivery().has_value());
  EXPECT_TRUE(net.idle());
}

TEST(SimNetwork, DropProbabilityOneDropsEverything) {
  SimNetwork net(1);
  NetCount dropped("tpc.net.dropped");
  NetCount sent("tpc.net.sent");
  net.set_drop_probability(1.0);
  for (int i = 0; i < 10; ++i) {
    net.Send(Msg(0, 1));
  }
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(dropped(), 10u);
  EXPECT_EQ(sent(), 10u);
}

TEST(SimNetwork, PartitionedSenderDrops) {
  SimNetwork net(1);
  NetCount dropped("tpc.net.dropped");
  net.Partition(GuardianId{0});
  net.Send(Msg(0, 1));
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(dropped(), 1u);
}

TEST(SimNetwork, PartitionedReceiverDropsAtDeliveryTime) {
  SimNetwork net(1);
  NetCount dropped("tpc.net.dropped");
  net.Send(Msg(0, 1));
  net.Partition(GuardianId{1});  // partition AFTER the send
  EXPECT_FALSE(net.NextDelivery().has_value());
  EXPECT_EQ(dropped(), 1u);
}

TEST(SimNetwork, HealRestoresDelivery) {
  SimNetwork net(1);
  NetCount delivered("tpc.net.delivered");
  net.Partition(GuardianId{1});
  net.Heal(GuardianId{1});
  net.Send(Msg(0, 1));
  EXPECT_TRUE(net.NextDelivery().has_value());
  EXPECT_EQ(delivered(), 1u);
}

TEST(SimNetwork, DeterministicDropsAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    SimNetwork net(seed);
    net.set_drop_probability(0.5);
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      net.Send(Msg(0, 1));
      pattern += net.idle() ? 'd' : 'q';
      while (net.NextDelivery().has_value()) {
      }
    }
    return pattern;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(SimNetwork, PartitionDropsEveryTwoPhaseMessageType) {
  // A node partition must be symmetric per message type: the same kPrepare /
  // kPrepareAck / kCommit / kCommitAck / kAbort / kQuery / kQueryReply that a
  // healthy wire carries is cut in BOTH directions while the node is out.
  for (MessageType type : {MessageType::kPrepare, MessageType::kPrepareAck, MessageType::kCommit,
                           MessageType::kCommitAck, MessageType::kAbort, MessageType::kQuery,
                           MessageType::kQueryReply}) {
    SCOPED_TRACE(MessageTypeName(type));
    SimNetwork net(1);
    NetCount delivered("tpc.net.delivered");
    NetCount dropped("tpc.net.dropped");
    net.Partition(GuardianId{1});
    net.Send(Msg(0, 1, type));  // toward the island
    net.Send(Msg(1, 0, type));  // from the island
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(dropped(), 2u);
    net.Heal(GuardianId{1});
    net.Send(Msg(0, 1, type));
    net.Send(Msg(1, 0, type));
    EXPECT_TRUE(net.NextDelivery().has_value());
    EXPECT_TRUE(net.NextDelivery().has_value());
    EXPECT_EQ(delivered(), 2u);
  }
}

TEST(SimNetwork, LoopbackIsExemptFromPartition) {
  // A partition cuts the wire, not the guardian's own queue: the coordinator
  // it isolates must still deliver its self-addressed messages (e.g. the
  // abort that releases its local locks).
  SimNetwork net(1);
  NetCount dropped("tpc.net.dropped");
  net.Partition(GuardianId{0});
  net.Send(Msg(0, 0, MessageType::kAbort));
  auto m = net.NextDelivery();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, MessageType::kAbort);
  EXPECT_EQ(dropped(), 0u);
}

TEST(SimNetwork, DirectedEdgePartitionCutsOneDirectionOnly) {
  SimNetwork net(1);
  NetCount dropped("tpc.net.dropped");
  net.PartitionEdge(GuardianId{0}, GuardianId{1});
  net.Send(Msg(0, 1, MessageType::kPrepare));   // cut
  net.Send(Msg(1, 0, MessageType::kPrepareAck));  // reverse edge flows
  auto m = net.NextDelivery();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, MessageType::kPrepareAck);
  EXPECT_FALSE(net.NextDelivery().has_value());
  EXPECT_EQ(dropped(), 1u);

  net.HealEdge(GuardianId{0}, GuardianId{1});
  net.Send(Msg(0, 1, MessageType::kPrepare));
  EXPECT_TRUE(net.NextDelivery().has_value());
}

TEST(SimNetwork, HealAllLiftsNodesAndEdges) {
  SimNetwork net(1);
  net.Partition(GuardianId{0});
  net.PartitionEdge(GuardianId{1}, GuardianId{2});
  ASSERT_TRUE(net.Blocked(GuardianId{0}, GuardianId{1}));
  ASSERT_TRUE(net.Blocked(GuardianId{1}, GuardianId{2}));
  net.HealAll();
  EXPECT_FALSE(net.Blocked(GuardianId{0}, GuardianId{1}));
  EXPECT_FALSE(net.Blocked(GuardianId{1}, GuardianId{2}));
}

TEST(SimNetwork, EdgeDelayHoldsMessagesSoLaterTrafficOvertakes) {
  // A delay storm on 0→1 holds the prepare; the undelayed 2→1 commit sent
  // AFTER it is delivered FIRST — the reordering 2PC must tolerate.
  SimNetwork net(1);
  NetCount delayed("tpc.net.delayed");
  net.SetEdgeDelay(GuardianId{0}, GuardianId{1}, 5, 5);
  net.Send(Msg(0, 1, MessageType::kPrepare));
  net.Send(Msg(2, 1, MessageType::kCommit));
  EXPECT_EQ(delayed(), 1u);
  auto first = net.NextDelivery();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, MessageType::kCommit);
  // Only the held message remains; the clock skips to its release instead of
  // stalling, so the very next call delivers it.
  auto second = net.NextDelivery();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, MessageType::kPrepare);
  EXPECT_GE(net.now(), 5u);
}

TEST(SimNetwork, ClearDelaysStopsTheStorm) {
  SimNetwork net(1);
  net.SetGlobalDelay(3, 3);
  net.Send(Msg(0, 1));
  net.ClearDelays();
  net.Send(Msg(0, 2));
  // The first message is still held under its sampled delay; the second is
  // immediate and overtakes it.
  auto m = net.NextDelivery();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->to, GuardianId{2});
}

TEST(SimNetwork, EdgeDelayOverridesGlobalDelay) {
  SimNetwork net(1);
  NetCount delayed("tpc.net.delayed");
  net.SetGlobalDelay(10, 10);
  net.SetEdgeDelay(GuardianId{0}, GuardianId{1}, 0, 0);  // exempt this edge
  net.Send(Msg(0, 1));
  EXPECT_EQ(delayed(), 0u);
  EXPECT_TRUE(net.NextDelivery().has_value());
}

TEST(SimNetwork, DeliverAtIgnoresDelaysInSendOrder) {
  // The exhaustive-interleaving hook addresses the queue by send order and
  // bypasses the delay machinery entirely.
  SimNetwork net(1);
  net.SetEdgeDelay(GuardianId{0}, GuardianId{1}, 100, 100);
  net.Send(Msg(0, 1, MessageType::kPrepare));
  net.Send(Msg(0, 2, MessageType::kCommit));
  auto held = net.DeliverAt(0);
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->type, MessageType::kPrepare);
  EXPECT_FALSE(net.DeliverAt(5).has_value());
}

TEST(SimNetwork, DeterministicDelaysAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    SimNetwork net(seed);
    net.SetGlobalDelay(0, 4);
    std::string order;
    for (std::uint32_t i = 0; i < 16; ++i) {
      net.Send(Msg(0, 1 + (i % 3)));
    }
    while (auto m = net.NextDelivery()) {
      order += static_cast<char>('0' + m->to.value);
    }
    return order;
  };
  EXPECT_EQ(run(9), run(9));
}

TEST(Messages, ToStringRendersAllTypes) {
  EXPECT_EQ(Msg(0, 1, MessageType::kPrepare).ToString(), "prepare(T1@G0) G0->G1");
  Message ack = Msg(1, 0, MessageType::kPrepareAck);
  ack.positive = true;
  EXPECT_EQ(ack.ToString(), "prepare_ack(T1@G1) G1->G0 [yes]");
  Message reply = Msg(0, 1, MessageType::kQueryReply);
  EXPECT_EQ(reply.ToString(), "query_reply(T1@G0) G0->G1 [no]");
  for (MessageType type : {MessageType::kCommit, MessageType::kCommitAck, MessageType::kAbort,
                           MessageType::kQuery}) {
    EXPECT_FALSE(std::string(MessageTypeName(type)).empty());
  }
}

}  // namespace
}  // namespace argus
