// Log inspector: renders every entry of a stable log, plus the backward
// outcome chain a hybrid recovery would walk.
//
// With a path argument it opens a file-backed log read-only: it never runs
// the restart scan, which would cut a torn tail off the file, and reports a
// damaged frame where the forward dump stops. With no argument it builds a
// small in-memory demo history (including an abort and an early prepare) and
// dumps that.
//
// Build & run:  ./build/examples/log_inspector [path/to/logfile]

#include <unistd.h>

#include <cstdio>
#include <optional>

#include "src/object/action_context.h"
#include "src/recovery/recovery_system.h"
#include "src/stable/file_medium.h"

using namespace argus;

namespace {

// Dumps every entry from offset 0 and returns the address of the last one
// read: the top, or the last entry before a damaged frame.
std::optional<LogAddress> DumpForward(const StableLog& log) {
  std::printf("-- physical order (oldest first) --\n");
  StableLog::ForwardCursor cursor = log.ReadForwardFrom(0);
  std::optional<LogAddress> last;
  while (true) {
    auto next = cursor.Next();
    if (!next.ok()) {
      std::printf("  !! %8llu  %s\n", static_cast<unsigned long long>(cursor.offset()),
                  next.status().ToString().c_str());
      return last;
    }
    if (!next.value().has_value()) {
      return last;
    }
    const auto& [addr, entry] = *next.value();
    std::printf("  %8llu  %s\n", static_cast<unsigned long long>(addr.offset),
                DescribeEntry(entry).c_str());
    last = addr;
  }
}

void DumpChain(const StableLog& log, std::optional<LogAddress> top) {
  std::printf("-- backward outcome chain (what hybrid recovery walks) --\n");
  if (!top.has_value()) {
    return;
  }
  // Find the chain head: last outcome entry.
  StableLog::BackwardCursor scan = log.ReadBackwardFrom(*top);
  LogAddress head = LogAddress::Null();
  while (true) {
    auto next = scan.Next();
    if (!next.ok() || !next.value().has_value()) {
      break;
    }
    if (IsOutcomeEntry(next.value()->second)) {
      head = next.value()->first;
      break;
    }
  }
  LogAddress addr = head;
  while (!addr.is_null()) {
    Result<LogEntry> entry = log.Read(addr);
    if (!entry.ok()) {
      std::printf("  !! %s\n", entry.status().ToString().c_str());
      return;
    }
    std::printf("  %8llu  %s\n", static_cast<unsigned long long>(addr.offset),
                DescribeEntry(entry.value()).c_str());
    addr = PrevPointer(entry.value());
  }
}

std::unique_ptr<StableLog> BuildDemoLog() {
  RecoverySystemConfig config;
  config.mode = LogMode::kHybrid;
  config.medium_factory = [] { return std::make_unique<InMemoryStableMedium>(); };
  auto heap = std::make_unique<VolatileHeap>();
  auto rs = std::make_unique<RecoverySystem>(config, heap.get());

  // A committed action creating two objects.
  ActionId t1{GuardianId{0}, 1};
  {
    ActionContext ctx(t1);
    RecoverableObject* a = ctx.CreateAtomic(*heap, Value::Int(100));
    RecoverableObject* m = ctx.CreateMutex(*heap, Value::Str("ledger"));
    ARGUS_CHECK(ctx.UpdateObject(heap->root(), [&](Value& r) {
      r.as_record()["a"] = Value::Ref(a);
      r.as_record()["m"] = Value::Ref(m);
    }).ok());
    ARGUS_CHECK(rs->Prepare(t1, ctx.TakeMos()).ok());
    ARGUS_CHECK(rs->Commit(t1).ok());
    ctx.CommitVolatile(*heap);
  }
  // A prepared-then-aborted action.
  ActionId t2{GuardianId{0}, 2};
  {
    ActionContext ctx(t2);
    RecoverableObject* a =
        heap->root()->base_version().as_record().at("a").as_ref();
    ARGUS_CHECK(ctx.WriteObject(a, Value::Int(200)).ok());
    ARGUS_CHECK(rs->Prepare(t2, ctx.TakeMos()).ok());
    ARGUS_CHECK(rs->Abort(t2).ok());
    ctx.AbortVolatile(*heap);
  }
  // An early-prepared, committed action, plus coordinator records.
  ActionId t3{GuardianId{0}, 3};
  {
    ActionContext ctx(t3);
    RecoverableObject* a =
        heap->root()->base_version().as_record().at("a").as_ref();
    ARGUS_CHECK(ctx.WriteObject(a, Value::Int(300)).ok());
    Result<ModifiedObjectsSet> leftover = rs->WriteEntry(t3, ctx.TakeMos());
    ARGUS_CHECK(leftover.ok());
    ARGUS_CHECK(rs->Prepare(t3, {}).ok());
    ARGUS_CHECK(rs->WaitDurable(rs->StageCommitting(t3, {GuardianId{0}})).ok());
    ARGUS_CHECK(rs->Commit(t3).ok());
    // Done is only staged; force it so the inspected log shows it.
    ARGUS_CHECK(rs->WaitDurable(rs->StageDone(t3)).ok());
    ctx.CommitVolatile(*heap);
  }
  return rs->TakeLog();
}

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<StableLog> log;
  if (argc > 1) {
    // Open would create a missing file; an inspector only reads.
    if (::access(argv[1], R_OK) != 0) {
      std::fprintf(stderr, "cannot read %s\n", argv[1]);
      return 1;
    }
    Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(argv[1]);
    if (!medium.ok()) {
      std::fprintf(stderr, "cannot open %s: %s\n", argv[1],
                   medium.status().ToString().c_str());
      return 1;
    }
    log = std::make_unique<StableLog>(std::move(medium).value());
  } else {
    std::printf("(no log file given; dumping a built-in demo history)\n");
    log = BuildDemoLog();
  }

  std::printf("log: %llu durable bytes\n",
              static_cast<unsigned long long>(log->durable_size()));
  DumpChain(*log, DumpForward(*log));
  return 0;
}
