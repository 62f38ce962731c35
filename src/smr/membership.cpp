#include "src/smr/membership.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/common/serde.hpp"

namespace eesmr::smr {

Bytes MembershipPolicy::encode() const {
  Writer w;
  w.u16(kPolicyTag);
  w.u64(generation);
  w.u32(static_cast<std::uint32_t>(signers.size()));
  for (const PolicyEntry& e : signers) {
    w.u32(e.node);
    w.u32(e.weight);
  }
  return w.take();
}

MembershipPolicy MembershipPolicy::decode(BytesView bytes) {
  Reader r(bytes);
  if (r.u16() != kPolicyTag) {
    throw SerdeError("MembershipPolicy: bad tag");
  }
  MembershipPolicy p;
  p.generation = r.u64();
  const std::uint32_t n = r.u32();
  p.signers.reserve(std::min<std::size_t>(n, r.remaining() / 8 + 1));
  for (std::uint32_t i = 0; i < n; ++i) {
    PolicyEntry e;
    e.node = r.u32();
    e.weight = r.u32();
    p.signers.push_back(e);
  }
  r.expect_done();
  if (!p.well_formed()) {
    throw SerdeError("MembershipPolicy: not well-formed");
  }
  return p;
}

std::optional<MembershipPolicy> MembershipPolicy::decode_command(
    BytesView bytes) {
  if (bytes.size() < 2 ||
      (static_cast<std::uint16_t>(bytes[0]) |
       (static_cast<std::uint16_t>(bytes[1]) << 8)) != kPolicyTag) {
    return std::nullopt;
  }
  return decode(bytes);
}

bool MembershipPolicy::well_formed() const {
  if (signers.empty()) return false;
  NodeId prev = kNoNode;
  for (const PolicyEntry& e : signers) {
    if (e.weight == 0) return false;
    if (prev != kNoNode && e.node <= prev) return false;
    prev = e.node;
  }
  return true;
}

MembershipState::MembershipState(std::size_t initial_n) {
  std::vector<PolicyEntry> genesis;
  genesis.reserve(initial_n);
  for (NodeId id = 0; id < initial_n; ++id) {
    genesis.push_back(PolicyEntry{id, 1});
  }
  history_.push_back(std::move(genesis));
}

bool MembershipState::apply(const MembershipPolicy& p) {
  if (!p.well_formed()) return false;
  if (p.generation != generation_ + 1) return false;
  history_.push_back(p.signers);
  generation_ = p.generation;
  while (history_.size() > kHistoryWindow + 1) {
    history_.pop_front();
    ++oldest_;
  }
  return true;
}

bool MembershipState::apply_committed(const MembershipPolicy& p,
                                      std::size_t replicas,
                                      std::size_t quorum) {
  const bool in_range =
      std::all_of(p.signers.begin(), p.signers.end(),
                  [&](const PolicyEntry& e) { return e.node < replicas; });
  return in_range && p.signers.size() >= quorum && apply(p);
}

bool MembershipState::known(std::uint64_t gen) const {
  return gen >= oldest_ && gen <= generation_;
}

bool MembershipState::recent_signer(NodeId id) const {
  // The current generation, then the bounded window of earlier ones:
  // certificates and votes formed just before a flip are still in flight.
  for (std::uint64_t g = generation_;; --g) {
    if (is_signer(id, g)) return true;
    if (g == 0 || !known(g - 1)) return false;
  }
}

std::uint64_t MembershipState::generation_for_signers(
    const std::vector<NodeId>& ids) const {
  for (std::uint64_t g = generation_;; --g) {
    if (known(g) && std::all_of(ids.begin(), ids.end(), [&](NodeId id) {
          return is_signer(id, g);
        })) {
      return g;
    }
    if (g == 0) return generation_;
  }
}

const std::vector<PolicyEntry>& MembershipState::signers(
    std::uint64_t gen) const {
  if (!known(gen)) {
    throw std::out_of_range("MembershipState::signers: unknown generation");
  }
  return history_[gen - oldest_];
}

bool MembershipState::is_signer(NodeId id, std::uint64_t gen) const {
  if (!known(gen)) return false;
  for (const PolicyEntry& e : history_[gen - oldest_]) {
    if (e.node == id) return true;
  }
  return false;
}

std::uint32_t MembershipState::weight(NodeId id, std::uint64_t gen) const {
  if (!known(gen)) return 0;
  for (const PolicyEntry& e : history_[gen - oldest_]) {
    if (e.node == id) return e.weight;
  }
  return 0;
}

std::size_t MembershipState::active_count() const {
  return history_.back().size();
}

NodeId MembershipState::leader_at(std::uint64_t view) const {
  const auto& cur = history_.back();
  return cur[view % cur.size()].node;
}

}  // namespace eesmr::smr
