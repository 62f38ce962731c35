// Client request/reply wire format — the client-facing half of the §3
// SMR definition ("clients submit commands ... wait to receive f+1
// identical acknowledgments with execution results").
//
// A client request travels inside an ordinary Command payload: a 2-byte
// tag marks it, (client, req_id) names it globally, `op` is the
// application command, and `sig` is the client's signature over the
// request itself. The signature rides INSIDE the command so replicas can
// re-verify at commit time: a Byzantine leader can put arbitrary bytes
// in a block, but it cannot forge a request a client never signed.
// Untagged commands (synthetic workload, tests) are unaffected. Replies
// ride Msg::data of a kReply message authored and signed by the replica;
// the answered client's id sits under that signature so acknowledgments
// cannot be replayed to a different client with a colliding req_id.
#pragma once

#include <cstdint>
#include <optional>

#include "src/common/bytes.hpp"
#include "src/common/ids.hpp"
#include "src/crypto/agg.hpp"
#include "src/crypto/signer.hpp"

namespace eesmr::smr {

/// Leading u16 of a Command payload that marks a tagged client request.
constexpr std::uint16_t kRequestTag = 0xC11E;

struct ClientRequest {
  NodeId client = kNoNode;   ///< hypergraph node id of the submitter
  std::uint64_t req_id = 0;  ///< client-local sequence number
  Bytes op;                  ///< application payload (KvStore text, ...)
  Bytes sig;                 ///< client signature over preimage()

  /// Bytes the client signature covers (tag + ids + op).
  [[nodiscard]] Bytes preimage() const;
  /// True when `sig` is `client`'s signature over preimage().
  [[nodiscard]] bool verify(const crypto::Keyring& keyring) const;

  /// Encode as a Command payload (preimage fields + sig).
  [[nodiscard]] Bytes encode() const;
  /// Decode a Command payload; nullopt when it is not a tagged request.
  static std::optional<ClientRequest> decode(BytesView data);
};

/// One replica's execution acknowledgment; the author and signature live
/// on the enclosing kReply Msg, whose signed data includes `client`.
struct ClientReply {
  NodeId client = kNoNode;  ///< the client this acknowledgment answers
  std::uint64_t req_id = 0;
  Bytes result;
  /// Leader hint: the replying replica's current leader. Clients under a
  /// TargetedSubset submission policy steer their next submissions there
  /// instead of blindly rotating (the hint rides under the reply
  /// signature, so only f Byzantine repliers can lie — and a stale or
  /// false hint costs one failover, never safety). kNoNode when the
  /// replier does not expose one.
  NodeId leader = kNoNode;

  [[nodiscard]] Bytes encode() const;
  static std::optional<ClientReply> decode(BytesView data);
};

/// Domain-tagged preimage an aggregate-scheme reply signature covers:
/// (tag, client, req_id, result) — deliberately excluding view/round so
/// any f+1 repliers' shares over the same result fold into one
/// transferable acceptance certificate.
Bytes acceptance_preimage(NodeId client, std::uint64_t req_id,
                          const Bytes& result);

/// O(1) transferable proof of acceptance under the aggregate scheme:
/// f+1 replicas executed (client, req_id) with `result`. The client
/// folds it from the matching repliers' shares; anyone holding the agg
/// directory can re-verify it later (audit, cross-shard hand-off).
struct AcceptanceCert {
  NodeId client = kNoNode;
  std::uint64_t req_id = 0;
  Bytes result;
  std::uint64_t gen = 0;         ///< membership generation of the signers
  crypto::SignerBitset signers;  ///< replicas whose shares were folded
  Bytes agg_sig;

  [[nodiscard]] Bytes encode() const;
  /// encode().size(), without encoding.
  [[nodiscard]] std::size_t encoded_size() const {
    return 4 + 8 + 4 + result.size() + 8 + signers.encoded_size() + 4 +
           agg_sig.size();
  }
  static AcceptanceCert decode(BytesView data);

  /// Aggregate verifies over acceptance_preimage() and count >= quorum.
  [[nodiscard]] bool verify(const crypto::AggKeyring& agg,
                            std::size_t quorum) const;
};

}  // namespace eesmr::smr
