#include "src/tpc/sim_world.h"

namespace argus {

std::function<std::unique_ptr<StableMedium>()> MakeMediumFactory(MediumKind kind,
                                                                 std::uint64_t seed,
                                                                 std::uint32_t replicas) {
  switch (kind) {
    case MediumKind::kInMemory:
      return [] { return std::make_unique<InMemoryStableMedium>(); };
    case MediumKind::kDuplexed:
      return [seed] { return std::make_unique<DuplexedStableMedium>(seed); };
    case MediumKind::kReplicated:
      return [seed, replicas] {
        return std::make_unique<ReplicatedStableMedium>(replicas, seed);
      };
  }
  ARGUS_CHECK_MSG(false, "unknown medium kind");
  return {};
}

SimWorld::SimWorld(const SimWorldConfig& config) : network_(config.seed) {
  guardians_.reserve(config.guardian_count);
  for (std::uint32_t i = 0; i < config.guardian_count; ++i) {
    RecoverySystemConfig rs_config;
    rs_config.mode = config.mode;
    std::uint32_t replicas = config.medium == MediumKind::kReplicated ? config.replicas : 2;
    rs_config.medium_factory = MakeMediumFactory(config.medium, config.seed + i, replicas);
    rs_config.group_commit = config.group_commit;
    rs_config.log_shards = config.log_shards;
    rs_config.shard_salt = config.seed * 0x9e3779b97f4a7c15ull + i;
    rs_config.repair = config.repair;
    rs_config.residency.mem_budget_bytes = config.mem_budget_bytes;
    guardians_.push_back(std::make_unique<Guardian>(GuardianId{i}, rs_config, &network_));
    guardians_.back()->ConfigureTimeouts(config.timeouts);
  }
}

bool SimWorld::Step() {
  std::optional<Message> m = network_.NextDelivery();
  if (!m.has_value()) {
    return false;
  }
  guardian(m->to).HandleMessage(*m);
  return true;
}

std::size_t SimWorld::Pump(std::size_t max_steps) {
  std::size_t delivered = 0;
  while (delivered < max_steps && Step()) {
    ++delivered;
  }
  return delivered;
}

void SimWorld::Tick() {
  Pump();
  ++clock_;
  for (auto& g : guardians_) {
    if (!g->crashed()) {
      g->OnTick(clock_);
    }
  }
}

std::size_t SimWorld::PumpWithTime(std::size_t max_ticks) {
  std::size_t delivered = Pump();
  for (std::size_t round = 0; round < max_ticks; ++round) {
    bool timeout_work = false;
    for (auto& g : guardians_) {
      if (!g->crashed() && g->HasTimeoutWork()) {
        timeout_work = true;
        break;
      }
    }
    if (network_.idle() && !timeout_work) {
      break;
    }
    Tick();
    delivered += Pump();
  }
  return delivered;
}

Status SimWorld::RunAt(ActionId aid, GuardianId target,
                       const std::function<Status(Guardian&, ActionContext&)>& body) {
  Guardian& g = guardian(target);
  if (g.crashed()) {
    return Status::Unavailable("guardian " + to_string(target) + " is down");
  }
  ActionContext& ctx = g.ContextFor(aid);
  Status s = body(g, ctx);
  if (!s.ok()) {
    return s;
  }
  guardian(aid.coordinator).EnlistParticipant(aid, target);
  return Status::Ok();
}

Result<Guardian::ActionFate> SimWorld::RunTopAction(
    GuardianId coordinator, const std::function<Status(SimWorld&, ActionId)>& body) {
  Guardian& g = guardian(coordinator);
  ActionId aid = g.BeginTopAction();
  Status s = body(*this, aid);
  if (!s.ok()) {
    g.AbortTopAction(aid);
    Pump();
    return Guardian::ActionFate::kAborted;
  }
  s = g.RequestCommit(aid);
  if (!s.ok()) {
    return s;
  }
  Pump();
  return g.FateOf(aid);
}

}  // namespace argus
