// Quickstart: one guardian's reliable object storage in ~60 lines.
//
//  1. Create a guardian storage stack (heap + recovery system over a log).
//  2. Run an action that creates an atomic object and binds it to a stable
//     variable; push it through prepare/commit.
//  3. Crash (throw away all volatile state).
//  4. Recover from the log and read the object back.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "src/object/action_context.h"
#include "src/recovery/recovery_system.h"

using namespace argus;

int main() {
  RecoverySystemConfig config;
  config.mode = LogMode::kHybrid;
  config.medium_factory = [] { return std::make_unique<InMemoryStableMedium>(); };

  // -- A fresh guardian --------------------------------------------------
  auto heap = std::make_unique<VolatileHeap>();
  auto rs = std::make_unique<RecoverySystem>(config, heap.get());

  // -- One committed action ----------------------------------------------
  ActionId t1{GuardianId{0}, 1};
  ActionContext ctx(t1);
  RecoverableObject* greeting = ctx.CreateAtomic(
      *heap, Value::OfRecord({{"text", Value::Str("hello, stable storage")},
                              {"revision", Value::Int(1)}}));
  Status s = ctx.UpdateObject(heap->root(), [&](Value& root) {
    root.as_record()["greeting"] = Value::Ref(greeting);
  });
  ARGUS_CHECK(s.ok());

  s = rs->Prepare(t1, ctx.TakeMos());  // data entries + prepared record forced
  ARGUS_CHECK(s.ok());
  s = rs->Commit(t1);                  // committed record forced
  ARGUS_CHECK(s.ok());
  ctx.CommitVolatile(*heap);

  std::printf("committed: %s\n", greeting->base_version().ToString().c_str());
  std::printf("log: %llu bytes, %llu forces\n",
              static_cast<unsigned long long>(rs->log().durable_size()),
              static_cast<unsigned long long>(
                  rs->log().scope().GetCounter("log.forces")->Value()));

  // -- Crash ---------------------------------------------------------------
  std::unique_ptr<StableLog> surviving_log = rs->TakeLog();
  rs.reset();
  heap.reset();  // every volatile object is gone
  std::printf("crash!\n");

  // -- Recover ---------------------------------------------------------------
  heap = std::make_unique<VolatileHeap>();
  rs = std::make_unique<RecoverySystem>(config, heap.get(), std::move(surviving_log));
  Result<RecoveryInfo> info = rs->Recover();
  ARGUS_CHECK(info.ok());
  std::printf("recovered %zu objects, examined %llu log entries\n",
              info.value().ot.size(),
              static_cast<unsigned long long>(info.value().entries_examined));

  const Value& root = heap->root()->base_version();
  RecoverableObject* restored = root.as_record().at("greeting").as_ref();
  std::printf("restored:  %s\n", restored->base_version().ToString().c_str());
  return 0;
}
