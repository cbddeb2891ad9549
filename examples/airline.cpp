// Airline reservations: atomic seat objects, a mutex audit ledger, early
// prepare, and periodic housekeeping.
//
// One reservations guardian holds a seat map (atomic objects — bookings roll
// back if the action aborts) and an append-style audit ledger (a MUTEX object:
// once an action has prepared, its ledger writes survive even an abort,
// §2.4.2 — exactly what an audit trail wants). Bookings use early prepare to
// shorten the prepare phase. Every 25 actions the guardian takes a snapshot
// checkpoint. At the end we crash and recover.
//
// Build & run:  ./build/examples/airline

#include <cstdio>

#include "src/common/rng.h"
#include "src/tpc/sim_world.h"

using namespace argus;

namespace {

constexpr int kRows = 10;
constexpr int kSeatsPerRow = 4;

std::string SeatName(int row, int seat) {
  return "seat_" + std::to_string(row) + "_" + std::string(1, static_cast<char>('A' + seat));
}

void SetUpFlight(SimWorld& world) {
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        return w.RunAt(aid, GuardianId{0}, [&](Guardian& g, ActionContext& ctx) -> Status {
          for (int row = 0; row < kRows; ++row) {
            for (int seat = 0; seat < kSeatsPerRow; ++seat) {
              RecoverableObject* obj = ctx.CreateAtomic(
                  g.heap(), Value::OfRecord({{"passenger", Value::Nil()}}));
              Status s = g.SetStableVariable(aid, SeatName(row, seat), obj);
              if (!s.ok()) {
                return s;
              }
            }
          }
          RecoverableObject* ledger = ctx.CreateMutex(g.heap(), Value::OfList({}));
          return g.SetStableVariable(aid, "audit_ledger", ledger);
        });
      });
  ARGUS_CHECK(fate.ok() && fate.value() == Guardian::ActionFate::kCommitted);
}

// Books a seat for `passenger`; also writes an audit record. Returns the fate.
Guardian::ActionFate Book(SimWorld& world, int row, int seat, const std::string& passenger,
                          bool use_early_prepare) {
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        Status s = w.RunAt(aid, GuardianId{0}, [&](Guardian& g, ActionContext& ctx) -> Status {
          Result<RecoverableObject*> obj = g.GetStableVariable(aid, SeatName(row, seat));
          if (!obj.ok()) {
            return obj.status();
          }
          Result<const Value*> current = ctx.ReadObject(obj.value());
          if (!current.ok()) {
            return current.status();
          }
          if (!current.value()->as_record().at("passenger").is_nil()) {
            return Status::Unavailable("seat already taken");
          }
          Status w_s = ctx.UpdateObject(obj.value(), [&](Value& v) {
            v.as_record()["passenger"] = Value::Str(passenger);
          });
          if (!w_s.ok()) {
            return w_s;
          }
          Result<RecoverableObject*> ledger = g.GetStableVariable(aid, "audit_ledger");
          if (!ledger.ok()) {
            return ledger.status();
          }
          w_s = ctx.MutateMutex(ledger.value(), [&](Value& v) {
            v.as_list().push_back(Value::Str(passenger + " -> " + SeatName(row, seat)));
          });
          if (!w_s.ok()) {
            return w_s;
          }
          if (use_early_prepare) {
            // The guardian has "free time" before the prepare arrives.
            return g.EarlyPrepare(aid);
          }
          return Status::Ok();
        });
        return s;
      });
  ARGUS_CHECK(fate.ok());
  return fate.value();
}

int BookedSeats(SimWorld& world) {
  int booked = 0;
  for (int row = 0; row < kRows; ++row) {
    for (int seat = 0; seat < kSeatsPerRow; ++seat) {
      RecoverableObject* obj =
          world.guardian(0).CommittedStableVariable(SeatName(row, seat));
      if (obj != nullptr && !obj->base_version().as_record().at("passenger").is_nil()) {
        ++booked;
      }
    }
  }
  return booked;
}

std::size_t LedgerLength(SimWorld& world) {
  RecoverableObject* ledger = world.guardian(0).CommittedStableVariable("audit_ledger");
  ARGUS_CHECK(ledger != nullptr);
  return ledger->mutex_value().as_list().size();
}

}  // namespace

int main() {
  SimWorldConfig config;
  config.guardian_count = 1;
  config.mode = LogMode::kHybrid;
  config.seed = 99;
  SimWorld world(config);
  Rng rng(99);

  SetUpFlight(world);
  std::printf("flight configured: %d seats\n", kRows * kSeatsPerRow);

  int committed = 0;
  int refused = 0;
  for (int i = 0; i < 60; ++i) {
    int row = static_cast<int>(rng.NextBelow(kRows));
    int seat = static_cast<int>(rng.NextBelow(kSeatsPerRow));
    Guardian::ActionFate fate =
        Book(world, row, seat, "pax" + std::to_string(i), /*use_early_prepare=*/i % 2 == 0);
    if (fate == Guardian::ActionFate::kCommitted) {
      ++committed;
    } else {
      ++refused;  // double-booking attempts abort
    }
    if ((i + 1) % 25 == 0) {
      Status s = world.guardian(0).Housekeep(HousekeepingMethod::kSnapshot);
      ARGUS_CHECK(s.ok());
      std::printf("  snapshot checkpoint: log now %llu bytes\n",
                  static_cast<unsigned long long>(
                      world.guardian(0).recovery().log().durable_size()));
    }
  }
  std::printf("%d bookings committed, %d refused (seat conflicts)\n", committed, refused);
  std::printf("seats booked: %d, ledger entries: %zu\n", BookedSeats(world),
              LedgerLength(world));

  int booked_before = BookedSeats(world);
  std::size_t ledger_before = LedgerLength(world);

  world.guardian(0).Crash();
  Result<RecoveryInfo> info = world.guardian(0).Restart();
  ARGUS_CHECK(info.ok());
  std::printf("crash + recovery: examined %llu entries, dereferenced %llu data entries\n",
              static_cast<unsigned long long>(info.value().entries_examined),
              static_cast<unsigned long long>(info.value().data_entries_read));

  bool intact = BookedSeats(world) == booked_before && LedgerLength(world) == ledger_before;
  std::printf("after recovery: %d seats booked, %zu ledger entries -> %s\n",
              BookedSeats(world), LedgerLength(world),
              intact ? "STATE INTACT" : "STATE LOST — BUG");
  return intact ? 0 : 1;
}
