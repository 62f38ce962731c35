// Protocol messages and quorum certificates (Algorithm 1).
//
// Every message carries (type, view, round, author, data, signature).
// The signature covers the preimage (type || view || round || data) under
// the author's key — one signature per message. (The paper splits this
// into viewSig/dataSig; a single signature over both is equivalent for
// our QC uses and matches what the evaluated implementation charges: one
// sign per message.) f+1 matching messages combine into a QuorumCert.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/ids.hpp"
#include "src/common/serde.hpp"
#include "src/crypto/agg.hpp"
#include "src/energy/meter.hpp"

namespace eesmr::smr {

/// How certificates (vote QCs, checkpoint certs, reply acceptance) carry
/// their signatures on the wire.
enum class CertScheme : std::uint8_t {
  kIndividual = 0,  ///< f+1 (author, signature) pairs — O(n · siglen).
  kAggregate = 1,   ///< signer bitset + one 48-byte aggregate — O(1).
};

const char* cert_scheme_name(CertScheme s);

/// Sentinel in the QC signature-count slot marking the aggregate wire
/// form. Individual certificates can never carry this count (the decoder
/// clamp alone caps plausible counts orders of magnitude lower), so old
/// encodings remain valid and byte-identical.
constexpr std::uint32_t kAggCertSentinel = 0xFFFFFFFFu;

enum class MsgType : std::uint8_t {
  // Steady state.
  kPropose = 1,
  // View change (Algorithm 2, lines 216-277).
  kBlame = 2,
  kBlameQC = 3,
  kCommitUpdate = 4,
  kCertify = 5,
  kCommitQC = 6,
  kStatus = 7,           // commitQC sent to the new leader (line 265)
  kNewViewProposal = 8,
  kVoteMsg = 9,
  // Sync HotStuff / OptSync vocabulary.
  kVote = 10,
  // Chain synchronization (§3.2 "Note on chain synchronization").
  kSyncRequest = 11,
  kSyncResponse = 12,
  // Trusted-baseline protocol.
  kSubmit = 13,
  kOrdered = 14,
  /// Transferable equivocation proof: two conflicting leader-signed
  /// proposals for the same (view, round). Carried separately from kBlame
  /// so that blame messages stay aggregatable into one QC.
  kEquivProof = 15,
  // Client request/reply path (§3's client-centric SMR interface).
  kRequest = 16,
  kReply = 17,
  // Checkpointing & state transfer (src/checkpoint/): signed stable
  // checkpoints form f+1-identical state-digest certificates (the §3
  // stability rule applied to state, as in NxBFT), which gate log
  // truncation and let lagging replicas catch up from a snapshot.
  kCheckpoint = 18,
  kStateRequest = 19,
  kStateResponse = 20,
  // PBFT / MinBFT vocabulary (src/baselines/pbft, src/baselines/minbft).
  // kPropose doubles as pre-prepare / UI-attested prepare; these carry
  // the agreement rounds and the view-change protocol.
  kPrepare = 21,
  kCommit = 22,
  kViewChange = 23,
  kNewView = 24,
  /// Aggregate-scheme stable-checkpoint certificate: the rotating
  /// collector that folded f+1 share attestations floods the O(1)
  /// {bitset, aggregate} certificate instead of every replica flooding
  /// its own attestation (see ReplicaBase::maybe_checkpoint).
  kCheckpointCert = 25,
};

const char* msg_type_name(MsgType t);

/// True for message types whose signatures later reappear inside
/// certificates (votes and view-change evidence): the types the
/// verified-signature cache remembers, and — under CertScheme::
/// kAggregate — the ones signed with 48-byte aggregate shares instead
/// of directory signatures.
[[nodiscard]] bool certificate_bound(MsgType t);

/// Channel class (energy attribution stream) a message type travels on.
/// The replica's typed channels are opened per stream; every message is
/// routed through the channel of its type's stream.
energy::Stream stream_of(MsgType t);
/// Profiler call-site tag for the crypto work on a message type
/// ("proposal", "vote", "view_change", ...; "other" for the rest).
[[nodiscard]] const char* crypto_site(MsgType t);

struct Msg {
  MsgType type = MsgType::kPropose;
  std::uint64_t view = 0;
  std::uint64_t round = 0;
  NodeId author = kNoNode;
  Bytes data;
  Bytes sig;

  /// Bytes the signature covers.
  [[nodiscard]] Bytes preimage() const;
  /// Append preimage() to `w`: into a reused Writer, a preimage costs no
  /// allocation.
  void preimage_into(Writer& w) const;
  /// preimage().size(), without encoding.
  [[nodiscard]] std::size_t preimage_size() const {
    return 1 + 8 + 8 + 4 + data.size();
  }
  [[nodiscard]] Bytes encode() const;
  /// Append the wire encoding to `w` — the zero-allocation variant for
  /// hot paths that reuse a cleared Writer across encodes.
  void encode_into(Writer& w) const;
  static Msg decode(BytesView bytes);
  /// Exact wire size, computed arithmetically (no encode-and-discard).
  [[nodiscard]] std::size_t wire_size() const {
    return preimage_size() + 4 + 4 + sig.size();
  }
};

/// The signatures a certificate carries, in either wire form
/// (CertScheme): (author, signature) pairs, or {membership generation,
/// signer bitset, one aggregate signature}, which stays O(1)-size
/// regardless of quorum. QuorumCert and CheckpointCert add what the
/// signatures cover.
struct CertSignatures {
  std::vector<std::pair<NodeId, Bytes>> sigs;  ///< (author, signature)

  CertScheme scheme = CertScheme::kIndividual;
  // Aggregate form only:
  std::uint64_t gen = 0;         ///< membership generation of the signers
  crypto::SignerBitset signers;  ///< who contributed shares
  Bytes agg_sig;                 ///< XOR-fold of the members' shares

  /// Append the wire tail: the u32 pair count and the pairs, or
  /// kAggCertSentinel and {gen, bitset, aggregate}.
  void encode_sigs(Writer& w) const;
  /// Read the tail encode_sigs() writes. Throws SerdeError on a malformed
  /// tail or an aggregate of the wrong size.
  void decode_sigs(Reader& r);
  /// Size of the tail encode_sigs() writes, without encoding.
  [[nodiscard]] std::size_t sigs_size() const;

  /// Signer count, across both forms.
  [[nodiscard]] std::size_t signer_count() const;
  /// Signer node-ids, across both forms.
  [[nodiscard]] std::vector<NodeId> signer_list() const;

  /// Fold the (share-signed) pairs into the aggregate form over a
  /// `universe`-wide bitset tagged with `generation`; the pairs are
  /// dropped. Throws std::invalid_argument on a duplicate signer or a
  /// non-share signature size, std::out_of_range on a signer outside
  /// the universe.
  void fold(std::size_t universe, std::uint64_t generation);
};

/// f+1 signatures on the same (type, view, round, data) — the paper's QC
/// function (Algorithm 1, line 114).
struct QuorumCert : CertSignatures {
  MsgType type = MsgType::kBlame;
  std::uint64_t view = 0;
  std::uint64_t round = 0;
  Bytes data;

  [[nodiscard]] Bytes encode() const;
  static QuorumCert decode(BytesView bytes);
  /// decode(), with nullopt for a malformed frame instead of SerdeError.
  static std::optional<QuorumCert> try_decode(BytesView bytes) {
    return eesmr::try_decode<QuorumCert>(bytes);
  }

  /// The preimage each contained signature covers (a Msg preimage with
  /// this cert's type/view/round/data). Exposed so verifiers can check
  /// signatures individually — against a cache or as a batch — without
  /// rebuilding a probe Msg.
  [[nodiscard]] Bytes preimage() const;
  /// Append preimage() to `w` (encode() starts with it).
  void preimage_into(Writer& w) const;
  /// preimage().size(), without encoding.
  [[nodiscard]] std::size_t preimage_size() const {
    return 1 + 8 + 8 + 4 + data.size();
  }
  /// encode().size(), without encoding.
  [[nodiscard]] std::size_t encoded_size() const {
    return preimage_size() + sigs_size();
  }

  /// Assemble from verified messages sharing (type, view, round, data).
  /// Throws std::invalid_argument if the messages do not match.
  static QuorumCert combine(const std::vector<Msg>& msgs);
};

/// MatchingMsg (Algorithm 1, line 112).
inline bool matching_msg(const Msg& m, MsgType type, std::uint64_t view) {
  return m.type == type && m.view == view;
}

/// MatchingQC (Algorithm 1, line 119).
inline bool matching_qc(const QuorumCert& qc, MsgType type,
                        std::uint64_t view) {
  return qc.type == type && qc.view == view;
}

}  // namespace eesmr::smr
