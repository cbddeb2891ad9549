// The pure shadowing baseline of §1.2.1.
//
// Storage is a pointer to a map associating object uids with the stable
// addresses of their current versions. An action's new versions are written
// without overwriting the shadowed versions; commit writes a NEW COPY OF THE
// WHOLE MAP and switches the map pointer in one atomic step. Because the map
// is rewritten at every commit, writing cost grows with the total number of
// objects — the disadvantage the thesis cites — while recovery only reads the
// map and the versions it points at, which is why recovery is fast.
//
// Distribution support (two-phase commit) adds the intentions records the
// thesis describes: prepare appends the new versions plus an intentions
// record; the map carries the list of in-doubt actions so a restarted
// participant still knows it is prepared.
//
// Object versions are opaque byte strings here: the baseline is compared with
// the log organizations at the storage layer, where both move flattened
// bytes.

#ifndef SRC_SHADOW_SHADOW_STORE_H_
#define SRC_SHADOW_SHADOW_STORE_H_

#include <map>
#include <memory>
#include <optional>

#include "src/common/codec.h"
#include "src/common/ids.h"
#include "src/obs/metrics.h"
#include "src/stable/stable_medium.h"

namespace argus {

class ShadowStore {
 public:
  // Counts the bytes of every map it rewrites (shadow.map_bytes_written).
  explicit ShadowStore(std::unique_ptr<StableMedium> medium);

  // Writes the new versions and an intentions record, durably. After this
  // returns the participant is prepared for `aid`.
  Status Prepare(ActionId aid,
                 const std::vector<std::pair<Uid, std::vector<std::byte>>>& versions);

  // Installs `aid`'s intentions into the map, rewrites the whole map, and
  // atomically switches the map pointer (the commit point).
  Status Commit(ActionId aid);

  // Discards `aid`'s intentions (also a map rewrite, to clear the in-doubt
  // entry).
  Status Abort(ActionId aid);

  // Reads the current version of an object through the map.
  Result<std::vector<std::byte>> ReadObject(Uid uid) const;

  // Restores the map and in-doubt set after a crash. Returns the number of
  // objects in the map. Everything not reachable from the map pointer is
  // garbage.
  Result<std::size_t> Recover();

  // In-doubt (prepared, undecided) actions.
  std::vector<ActionId> InDoubtActions() const;

  std::size_t object_count() const { return map_.size(); }

 private:
  struct Intent {
    std::map<Uid, std::uint64_t> versions;  // uid → version record offset
  };

  Status WriteMapAndSwitch();
  Result<std::uint64_t> AppendRecord(std::span<const std::byte> payload);

  std::unique_ptr<StableMedium> medium_;
  // The volatile mirror of the durable map (rebuilt by Recover()).
  std::map<Uid, std::uint64_t> map_;
  std::map<ActionId, Intent> in_doubt_;
  // Simulates the atomically updatable stable map pointer. In a real system
  // this is one duplexed cell; a crash never tears it.
  std::optional<std::uint64_t> map_pointer_;
  obs::Counter* map_bytes_written_;
};

}  // namespace argus

#endif  // SRC_SHADOW_SHADOW_STORE_H_
