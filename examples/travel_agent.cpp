// Travel agent: nested subactions inside one atomic booking.
//
// A trip books a flight seat AND a hotel room atomically. Each attempt to
// book a specific hotel runs as a SUBACTION: if the hotel is full, only the
// subaction aborts (its tentative writes unwind) and the agent tries the next
// hotel — the flight reservation made earlier in the same top action is
// untouched. The whole trip then commits (or aborts) as one atomic action,
// and a crash proves the committed trips are durable.
//
// Build & run:  ./build/examples/travel_agent

#include <cstdio>

#include "src/object/subaction.h"
#include "src/tpc/sim_world.h"

using namespace argus;

namespace {

constexpr int kFlightSeats = 6;
constexpr int kRoomsPerHotel = 2;
const char* kHotels[] = {"grand", "plaza", "budget"};

void SetUp(SimWorld& world) {
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        return w.RunAt(aid, GuardianId{0}, [&](Guardian& g, ActionContext& ctx) -> Status {
          RecoverableObject* flight = ctx.CreateAtomic(
              g.heap(), Value::OfRecord({{"free", Value::Int(kFlightSeats)},
                                         {"passengers", Value::OfList({})}}));
          Status s = g.SetStableVariable(aid, "flight", flight);
          if (!s.ok()) {
            return s;
          }
          for (const char* hotel : kHotels) {
            RecoverableObject* obj = ctx.CreateAtomic(
                g.heap(), Value::OfRecord({{"free", Value::Int(kRoomsPerHotel)},
                                           {"guests", Value::OfList({})}}));
            s = g.SetStableVariable(aid, std::string("hotel_") + hotel, obj);
            if (!s.ok()) {
              return s;
            }
          }
          return Status::Ok();
        });
      });
  ARGUS_CHECK(fate.ok() && fate.value() == Guardian::ActionFate::kCommitted);
}

// Tries to take one unit of capacity; fails if full.
Status TakeCapacity(SubactionScope& sub, RecoverableObject* obj, const std::string& name) {
  Result<const Value*> current = sub.ReadObject(obj);
  if (!current.ok()) {
    return current.status();
  }
  const Value::Record& record = current.value()->as_record();
  if (record.at("free").as_int() <= 0) {
    return Status::Unavailable("full");
  }
  // Decided before the write below, which ends the view.
  const char* roster = record.contains("passengers") ? "passengers" : "guests";
  return sub.UpdateObject(obj, [&](Value& v) {
    Value& free = v.as_record()["free"];
    free = Value::Int(free.as_int() - 1);
    v.as_record()[roster].as_list().push_back(Value::Str(name));
  });
}

// One customer's trip: flight + first hotel with space, all-or-nothing.
Guardian::ActionFate BookTrip(SimWorld& world, const std::string& customer,
                              std::string* hotel_used) {
  Result<Guardian::ActionFate> fate =
      world.RunTopAction(GuardianId{0}, [&](SimWorld& w, ActionId aid) -> Status {
        return w.RunAt(aid, GuardianId{0}, [&](Guardian& g, ActionContext& ctx) -> Status {
          // Step 1: flight seat, inside a subaction so a later total failure
          // leaves clean state (the top-level abort would too; the subaction
          // keeps the example honest about scoping).
          SubactionScope trip(&ctx, &g.heap());
          Result<RecoverableObject*> flight = g.GetStableVariable(aid, "flight");
          if (!flight.ok()) {
            return flight.status();
          }
          Status s = TakeCapacity(trip, flight.value(), customer);
          if (!s.ok()) {
            trip.Abort();
            return s;  // no flight seat: the whole trip aborts
          }
          // Step 2: try hotels, each attempt in its own nested subaction.
          for (const char* hotel : kHotels) {
            Result<RecoverableObject*> rooms =
                g.GetStableVariable(aid, std::string("hotel_") + hotel);
            if (!rooms.ok()) {
              return rooms.status();
            }
            SubactionScope attempt(&ctx, &g.heap(), &trip);
            s = TakeCapacity(attempt, rooms.value(), customer);
            if (s.ok()) {
              attempt.Commit();
              trip.Commit();
              *hotel_used = hotel;
              return Status::Ok();
            }
            attempt.Abort();  // this hotel is full; tentative writes unwind
          }
          trip.Abort();  // no hotel anywhere: flight seat released too
          return Status::Unavailable("no hotel available");
        });
      });
  ARGUS_CHECK(fate.ok());
  return fate.value();
}

std::int64_t FreeOf(SimWorld& world, const std::string& var) {
  RecoverableObject* obj = world.guardian(0).CommittedStableVariable(var);
  ARGUS_CHECK(obj != nullptr);
  return obj->base_version().as_record().at("free").as_int();
}

}  // namespace

int main() {
  SimWorldConfig config;
  config.guardian_count = 1;
  config.mode = LogMode::kHybrid;
  config.seed = 7;
  SimWorld world(config);
  SetUp(world);
  std::printf("inventory: %d flight seats, %d hotels x %d rooms\n", kFlightSeats, 3,
              kRoomsPerHotel);

  int booked = 0;
  int refused = 0;
  for (int i = 0; i < 9; ++i) {
    std::string hotel;
    Guardian::ActionFate fate = BookTrip(world, "traveler" + std::to_string(i), &hotel);
    if (fate == Guardian::ActionFate::kCommitted) {
      ++booked;
      std::printf("  traveler%d: flight + hotel '%s'\n", i, hotel.c_str());
    } else {
      ++refused;
      std::printf("  traveler%d: refused (sold out) — nothing was charged\n", i);
    }
  }

  std::printf("booked %d trips, refused %d\n", booked, refused);
  std::printf("remaining: flight %lld, grand %lld, plaza %lld, budget %lld\n",
              static_cast<long long>(FreeOf(world, "flight")),
              static_cast<long long>(FreeOf(world, "hotel_grand")),
              static_cast<long long>(FreeOf(world, "hotel_plaza")),
              static_cast<long long>(FreeOf(world, "hotel_budget")));

  // Durability proof.
  world.guardian(0).Crash();
  ARGUS_CHECK(world.guardian(0).Restart().ok());
  world.Pump();
  bool consistent = FreeOf(world, "flight") == kFlightSeats - booked &&
                    (FreeOf(world, "hotel_grand") + FreeOf(world, "hotel_plaza") +
                     FreeOf(world, "hotel_budget")) == 3 * kRoomsPerHotel - booked;
  std::printf("after crash+recovery: %s\n",
              consistent ? "BOOKINGS CONSISTENT" : "INCONSISTENT — BUG");
  return consistent ? 0 : 1;
}
