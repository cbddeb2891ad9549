// The simulation driver: a set of guardians on one deterministic network.
//
// SimWorld owns the guardians and pumps the network. Handler calls that
// spread an action to another guardian are modeled by RunAt, which creates
// the per-guardian action context and enlists the participant with the
// coordinator. A full top-level action — begin, body, two-phase commit — is
// RunTopAction.

#ifndef SRC_TPC_SIM_WORLD_H_
#define SRC_TPC_SIM_WORLD_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/stable/duplexed_medium.h"
#include "src/tpc/guardian.h"

namespace argus {

enum class MediumKind {
  kInMemory,    // fast; used for algorithm-level tests and benches
  kDuplexed,    // full Lampson-Sturgis stack, 2x write amplification
  kReplicated,  // N-way replicated careful storage (SimWorldConfig::replicas)
};

struct SimWorldConfig {
  std::size_t guardian_count = 1;
  LogMode mode = LogMode::kHybrid;
  MediumKind medium = MediumKind::kInMemory;
  std::uint64_t seed = 1;
  // When set, every guardian's recovery system runs a group-commit flush
  // coordinator with this configuration.
  std::optional<FlushCoordinatorConfig> group_commit;
  // Protocol timeouts applied to every guardian (0 = disabled). Timeouts only
  // fire under PumpWithTime, which ticks guardians between deliveries.
  GuardianTimeoutConfig timeouts;
  // Log shards per guardian (hybrid mode only; 1 = classic single log). The
  // routing salt is derived from the world seed so distinct worlds exercise
  // distinct uid→shard placements.
  std::uint32_t log_shards = 1;
  // Replica count for MediumKind::kReplicated (kDuplexed is pinned at 2).
  std::uint32_t replicas = 3;
  // When set, every guardian runs a ReplicaRepairService per replicated log
  // medium, healing decay concurrently with commits (see replicated_store.h).
  std::optional<ReplicaRepairConfig> repair;
  // Per-guardian memory budget for the residency subsystem (0 = unlimited,
  // residency disabled). When set, cold committed objects are demoted to
  // log-address stubs once resident bytes cross the high watermark.
  std::uint64_t mem_budget_bytes = 0;
};

class SimWorld {
 public:
  explicit SimWorld(const SimWorldConfig& config);

  Guardian& guardian(GuardianId gid) { return *guardians_.at(gid.value); }
  Guardian& guardian(std::uint32_t index) { return *guardians_.at(index); }
  std::size_t guardian_count() const { return guardians_.size(); }
  SimNetwork& network() { return network_; }

  // Delivers one message; false when the network is idle.
  bool Step();

  // Delivers messages until the network is idle (or `max_steps` deliveries).
  // Returns the number delivered.
  std::size_t Pump(std::size_t max_steps = 100000);

  // One timeout round: pumps the network dry, then advances the protocol
  // clock one tick and fires every live guardian's due timeouts.
  void Tick();

  // Pumps with timeouts: alternates Pump and Tick until neither the network
  // nor any guardian's timeout machinery has work left (or `max_ticks`
  // rounds — a bound against a permanently partitioned in-doubt participant
  // re-querying forever). Returns total messages delivered.
  std::size_t PumpWithTime(std::size_t max_ticks = 64);

  // Runs `body` at `target` within action `aid` and enlists the target with
  // the coordinator.
  Status RunAt(ActionId aid, GuardianId target,
               const std::function<Status(Guardian&, ActionContext&)>& body);

  // Begins a top action at `coordinator`, runs `body`, requests commit, and
  // pumps to completion. Returns the coordinator's view of the fate.
  Result<Guardian::ActionFate> RunTopAction(
      GuardianId coordinator,
      const std::function<Status(SimWorld&, ActionId)>& body);

 private:
  SimNetwork network_;
  std::vector<std::unique_ptr<Guardian>> guardians_;
  std::uint64_t clock_ = 0;  // protocol ticks (Tick calls), not deliveries
};

// Builds a medium factory for the given kind; `seed` feeds fault simulation
// and `replicas` only applies to MediumKind::kReplicated.
std::function<std::unique_ptr<StableMedium>()> MakeMediumFactory(MediumKind kind,
                                                                 std::uint64_t seed,
                                                                 std::uint32_t replicas = 2);

}  // namespace argus

#endif  // SRC_TPC_SIM_WORLD_H_
