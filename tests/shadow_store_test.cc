// Tests for the pure-shadowing baseline (§1.2.1).

#include <gtest/gtest.h>

#include "src/shadow/shadow_store.h"
#include "tests/test_support.h"

namespace argus {
namespace {

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> out;
  for (char c : s) {
    out.push_back(std::byte{static_cast<unsigned char>(c)});
  }
  return out;
}

ShadowStore MakeStore() {
  return ShadowStore(std::make_unique<InMemoryStableMedium>());
}

TEST(ShadowStore, PrepareCommitReadBack) {
  ShadowStore store = MakeStore();
  ActionId t1 = Aid(1);
  ASSERT_TRUE(store.Prepare(t1, {{Uid{1}, Bytes("v1")}, {Uid{2}, Bytes("v2")}}).ok());
  ASSERT_TRUE(store.Commit(t1).ok());
  EXPECT_EQ(store.ReadObject(Uid{1}).value(), Bytes("v1"));
  EXPECT_EQ(store.ReadObject(Uid{2}).value(), Bytes("v2"));
  EXPECT_EQ(store.object_count(), 2u);
}

TEST(ShadowStore, UncommittedVersionsInvisible) {
  ShadowStore store = MakeStore();
  ActionId t1 = Aid(1);
  ASSERT_TRUE(store.Prepare(t1, {{Uid{1}, Bytes("old")}}).ok());
  ASSERT_TRUE(store.Commit(t1).ok());
  ActionId t2 = Aid(2);
  ASSERT_TRUE(store.Prepare(t2, {{Uid{1}, Bytes("new")}}).ok());
  // Prepared but not committed: the map still points at the old version.
  EXPECT_EQ(store.ReadObject(Uid{1}).value(), Bytes("old"));
  ASSERT_TRUE(store.Commit(t2).ok());
  EXPECT_EQ(store.ReadObject(Uid{1}).value(), Bytes("new"));
}

TEST(ShadowStore, AbortDiscardsIntentions) {
  ShadowStore store = MakeStore();
  ActionId t1 = Aid(1);
  ASSERT_TRUE(store.Prepare(t1, {{Uid{1}, Bytes("keep")}}).ok());
  ASSERT_TRUE(store.Commit(t1).ok());
  ActionId t2 = Aid(2);
  ASSERT_TRUE(store.Prepare(t2, {{Uid{1}, Bytes("drop")}}).ok());
  ASSERT_TRUE(store.Abort(t2).ok());
  EXPECT_EQ(store.ReadObject(Uid{1}).value(), Bytes("keep"));
  EXPECT_TRUE(store.InDoubtActions().empty());
}

TEST(ShadowStore, RecoverRestoresMapAndInDoubt) {
  ShadowStore store = MakeStore();
  ActionId t1 = Aid(1);
  ActionId t2 = Aid(2);
  ASSERT_TRUE(store.Prepare(t1, {{Uid{1}, Bytes("a")}}).ok());
  ASSERT_TRUE(store.Commit(t1).ok());
  ASSERT_TRUE(store.Prepare(t2, {{Uid{2}, Bytes("b")}}).ok());

  // Crash: volatile mirrors are rebuilt from the durable map pointer.
  Result<std::size_t> recovered = store.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value(), 1u);
  EXPECT_EQ(store.ReadObject(Uid{1}).value(), Bytes("a"));
  // t2 is in doubt (prepared, undecided).
  ASSERT_EQ(store.InDoubtActions().size(), 1u);
  EXPECT_EQ(store.InDoubtActions()[0], t2);
  // Its version is not installed.
  EXPECT_FALSE(store.ReadObject(Uid{2}).ok());
  // A post-recovery commit installs it.
  ASSERT_TRUE(store.Commit(t2).ok());
  EXPECT_EQ(store.ReadObject(Uid{2}).value(), Bytes("b"));
}

TEST(ShadowStore, CommitRewritesWholeMap) {
  // The thesis's core cost claim about shadowing: every commit rewrites the
  // map, so map bytes grow with the TOTAL object count, not the write size.
  ShadowStore store = MakeStore();
  for (std::uint64_t i = 0; i < 100; ++i) {
    ActionId t = Aid(i + 1);
    ASSERT_TRUE(store.Prepare(t, {{Uid{i}, Bytes("x")}}).ok());
    ASSERT_TRUE(store.Commit(t).ok());
  }
  std::uint64_t map_bytes_before = CounterValue("shadow.map_bytes_written");
  ActionId t = Aid(1000);
  ASSERT_TRUE(store.Prepare(t, {{Uid{0}, Bytes("y")}}).ok());
  ASSERT_TRUE(store.Commit(t).ok());
  std::uint64_t delta = CounterValue("shadow.map_bytes_written") - map_bytes_before;
  // The single-object commit rewrote a map of ~100 entries (16 B each).
  EXPECT_GT(delta, 100u * 16u);
}

TEST(ShadowStore, ReadUnknownObjectFails) {
  ShadowStore store = MakeStore();
  EXPECT_EQ(store.ReadObject(Uid{42}).status().code(), ErrorCode::kNotFound);
}

TEST(ShadowStore, RecoverOnEmptyStore) {
  ShadowStore store = MakeStore();
  Result<std::size_t> recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), 0u);
}

TEST(ShadowStore, ManyObjectsSurviveRecovery) {
  ShadowStore store = MakeStore();
  for (std::uint64_t i = 0; i < 50; ++i) {
    ActionId t = Aid(i + 1);
    ASSERT_TRUE(store.Prepare(t, {{Uid{i}, Bytes(std::to_string(i))}}).ok());
    ASSERT_TRUE(store.Commit(t).ok());
  }
  ASSERT_TRUE(store.Recover().ok());
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(store.ReadObject(Uid{i}).value(), Bytes(std::to_string(i)));
  }
}

TEST(ShadowStore, MultiObjectActionIsAtomic) {
  ShadowStore store = MakeStore();
  ActionId t1 = Aid(1);
  ASSERT_TRUE(store.Prepare(t1, {{Uid{1}, Bytes("x1")}, {Uid{2}, Bytes("x2")}}).ok());
  ASSERT_TRUE(store.Commit(t1).ok());
  ActionId t2 = Aid(2);
  ASSERT_TRUE(store.Prepare(t2, {{Uid{1}, Bytes("y1")}, {Uid{2}, Bytes("y2")}}).ok());
  // Crash before commit: recovery must see both old values.
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_EQ(store.ReadObject(Uid{1}).value(), Bytes("x1"));
  EXPECT_EQ(store.ReadObject(Uid{2}).value(), Bytes("x2"));
  // Commit after recovery: both new values appear together.
  ASSERT_TRUE(store.Commit(t2).ok());
  EXPECT_EQ(store.ReadObject(Uid{1}).value(), Bytes("y1"));
  EXPECT_EQ(store.ReadObject(Uid{2}).value(), Bytes("y2"));
}

}  // namespace
}  // namespace argus
