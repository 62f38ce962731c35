// Live membership reconfiguration via committed policy blocks.
//
// Savanna-style `finalizer_policy` generations: the active signer set is
// a versioned policy {generation, [(node, weight)...]}. A policy change
// (join / leave / re-weight) rides the ordered log as a tagged command;
// when the block carrying it commits, every replica flips its active set
// at that same commit boundary — so certificate verification, leader
// rotation and quorum tallies switch generations deterministically.
// Certificates are tagged with the generation whose signers backed them;
// a short history window keeps recent generations verifiable across the
// handoff (in-flight certs, state transfer to joiners).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/ids.hpp"

namespace eesmr::smr {

/// Leading u16 marking a membership-policy command in the ordered log
/// (the same tagged-command dispatch as client requests' kRequestTag).
constexpr std::uint16_t kPolicyTag = 0xEE57;

struct PolicyEntry {
  NodeId node = kNoNode;
  std::uint32_t weight = 1;

  [[nodiscard]] bool operator==(const PolicyEntry& o) const {
    return node == o.node && weight == o.weight;
  }
};

/// One full next-generation signer set. Always carries the complete set
/// (not a delta), so applying it is idempotent and order-independent
/// within a block.
struct MembershipPolicy {
  std::uint64_t generation = 0;
  std::vector<PolicyEntry> signers;  ///< strictly ascending node ids

  [[nodiscard]] Bytes encode() const;
  /// Strict decode; throws SerdeError on malformed input.
  static MembershipPolicy decode(BytesView bytes);
  /// Command-dispatch decode: nullopt unless `bytes` leads with
  /// kPolicyTag; throws SerdeError if tagged but malformed.
  static std::optional<MembershipPolicy> decode_command(BytesView bytes);

  /// Structurally well-formed: non-empty, strictly ascending node ids,
  /// all weights >= 1.
  [[nodiscard]] bool well_formed() const;

  [[nodiscard]] bool operator==(const MembershipPolicy& o) const {
    return generation == o.generation && signers == o.signers;
  }
};

/// Per-replica view of the policy history. Generation 0 is the genesis
/// set {0..initial_n-1} at weight 1; apply() advances one generation at
/// a time at commit boundaries. A bounded window of past generations
/// stays queryable so generation-tagged certificates formed just before
/// a flip still verify.
class MembershipState {
 public:
  explicit MembershipState(std::size_t initial_n);

  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Apply `p` iff it is well-formed and the direct successor of the
  /// current generation. Returns whether it was applied.
  bool apply(const MembershipPolicy& p);

  /// apply() at a commit boundary among `replicas` nodes with vote quorum
  /// `quorum`: `p` must also name only replicas (ids below `replicas`)
  /// and keep at least `quorum` signers. Duplicates and stale
  /// re-proposals are no-ops, so every correct replica flips at the same
  /// deterministic log position.
  bool apply_committed(const MembershipPolicy& p, std::size_t replicas,
                       std::size_t quorum);

  /// Is `gen` still inside the queryable history window?
  [[nodiscard]] bool known(std::uint64_t gen) const;

  /// Is `id` a signer of the current generation or of an earlier one
  /// still in the window? Gates vote-class traffic once membership is
  /// enforced: a departed member's votes stop counting, modulo
  /// certificates still in flight from just before the flip.
  [[nodiscard]] bool recent_signer(NodeId id) const;
  /// Whether the signer gate is live among `replicas` nodes: after any
  /// policy flip, or from genesis when spares exist (fewer genesis
  /// signers than replicas — a spare's votes must not count before a
  /// policy admits it).
  [[nodiscard]] bool enforced(std::size_t replicas) const {
    return generation_ > 0 || active_count() < replicas;
  }
  /// Whether `id` may sign vote-class traffic and checkpoint attestations
  /// among `replicas` nodes: anyone while the gate is off, else only a
  /// recent signer.
  [[nodiscard]] bool admits(NodeId id, std::size_t replicas) const {
    return !enforced(replicas) || recent_signer(id);
  }
  /// Latest known generation whose signer set contains every node in
  /// `ids`, else the current generation: the tag for an aggregate
  /// certificate folded from these signers' shares.
  [[nodiscard]] std::uint64_t generation_for_signers(
      const std::vector<NodeId>& ids) const;

  [[nodiscard]] const std::vector<PolicyEntry>& signers(
      std::uint64_t gen) const;
  [[nodiscard]] bool is_signer(NodeId id, std::uint64_t gen) const;
  [[nodiscard]] std::uint32_t weight(NodeId id, std::uint64_t gen) const;

  /// Active signer count of the current generation.
  [[nodiscard]] std::size_t active_count() const;

  /// Round-robin leader over the *current* generation's signer list.
  [[nodiscard]] NodeId leader_at(std::uint64_t view) const;

  /// Past generations kept queryable (certificate verification across
  /// the handoff; state transfer to joiners).
  static constexpr std::uint64_t kHistoryWindow = 8;

 private:
  std::uint64_t generation_ = 0;
  std::uint64_t oldest_ = 0;
  std::deque<std::vector<PolicyEntry>> history_;  ///< [oldest_ .. generation_]
};

}  // namespace eesmr::smr
