#include "src/smr/message.hpp"

#include <set>
#include <stdexcept>

#include "src/common/serde.hpp"

namespace eesmr::smr {

const char* cert_scheme_name(CertScheme s) {
  switch (s) {
    case CertScheme::kIndividual:
      return "individual";
    case CertScheme::kAggregate:
      return "aggregate";
  }
  return "?";
}

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kPropose:
      return "Propose";
    case MsgType::kBlame:
      return "Blame";
    case MsgType::kBlameQC:
      return "BlameQC";
    case MsgType::kCommitUpdate:
      return "CommitUpdate";
    case MsgType::kCertify:
      return "Certify";
    case MsgType::kCommitQC:
      return "CommitQC";
    case MsgType::kStatus:
      return "Status";
    case MsgType::kNewViewProposal:
      return "NewViewProposal";
    case MsgType::kVoteMsg:
      return "VoteMsg";
    case MsgType::kVote:
      return "Vote";
    case MsgType::kSyncRequest:
      return "SyncRequest";
    case MsgType::kSyncResponse:
      return "SyncResponse";
    case MsgType::kSubmit:
      return "Submit";
    case MsgType::kOrdered:
      return "Ordered";
    case MsgType::kEquivProof:
      return "EquivProof";
    case MsgType::kRequest:
      return "Request";
    case MsgType::kReply:
      return "Reply";
    case MsgType::kCheckpoint:
      return "Checkpoint";
    case MsgType::kCheckpointCert:
      return "CheckpointCert";
    case MsgType::kStateRequest:
      return "StateRequest";
    case MsgType::kStateResponse:
      return "StateResponse";
    case MsgType::kPrepare:
      return "Prepare";
    case MsgType::kCommit:
      return "Commit";
    case MsgType::kViewChange:
      return "ViewChange";
    case MsgType::kNewView:
      return "NewView";
  }
  return "?";
}

bool certificate_bound(MsgType t) {
  switch (t) {
    // Votes: quorum certificates collect their signatures.
    case MsgType::kVote:
    case MsgType::kVoteMsg:
    case MsgType::kCertify:
    case MsgType::kPrepare:
    case MsgType::kCommit:
    // View-change evidence: blame QCs and new-view justifications.
    case MsgType::kBlame:
    case MsgType::kBlameQC:
    case MsgType::kCommitUpdate:
    case MsgType::kCommitQC:
    case MsgType::kStatus:
    case MsgType::kViewChange:
    case MsgType::kNewView:
      return true;
    default:
      return false;
  }
}

energy::Stream stream_of(MsgType t) {
  switch (t) {
    case MsgType::kPropose:
    case MsgType::kNewViewProposal:
    case MsgType::kOrdered:  // the trusted controller's ordering decision
      return energy::Stream::kProposal;
    case MsgType::kVote:
    case MsgType::kVoteMsg:
    case MsgType::kCertify:
    case MsgType::kPrepare:
    case MsgType::kCommit:
      return energy::Stream::kVote;
    case MsgType::kBlame:
    case MsgType::kBlameQC:
    case MsgType::kCommitUpdate:
    case MsgType::kCommitQC:
    case MsgType::kStatus:
    case MsgType::kEquivProof:
    case MsgType::kViewChange:
    case MsgType::kNewView:
      return energy::Stream::kControl;
    case MsgType::kSyncRequest:
    case MsgType::kSyncResponse:
      return energy::Stream::kSync;
    case MsgType::kSubmit:  // a CPS node submitting a command for ordering
    case MsgType::kRequest:
      return energy::Stream::kRequest;
    case MsgType::kReply:
      return energy::Stream::kReply;
    case MsgType::kCheckpoint:
    case MsgType::kCheckpointCert:
      return energy::Stream::kCheckpoint;
    case MsgType::kStateRequest:
    case MsgType::kStateResponse:
      return energy::Stream::kStateTransfer;
  }
  return energy::Stream::kOther;
}

const char* crypto_site(MsgType t) {
  switch (t) {
    case MsgType::kPropose:
    case MsgType::kNewViewProposal:
      return "proposal";
    case MsgType::kVote:
    case MsgType::kVoteMsg:
    case MsgType::kCertify:
    case MsgType::kPrepare:
    case MsgType::kCommit:
      return "vote";
    case MsgType::kBlame:
    case MsgType::kBlameQC:
    case MsgType::kCommitUpdate:
    case MsgType::kCommitQC:
    case MsgType::kStatus:
    case MsgType::kViewChange:
    case MsgType::kNewView:
      return "view_change";
    case MsgType::kSyncRequest:
    case MsgType::kSyncResponse:
      return "sync";
    case MsgType::kRequest:
      return "request";
    case MsgType::kReply:
      return "reply";
    case MsgType::kCheckpoint:
      return "checkpoint";
    case MsgType::kStateRequest:
    case MsgType::kStateResponse:
      return "state_transfer";
    default:
      return "other";
  }
}

Bytes Msg::preimage() const {
  Writer w(preimage_size());
  preimage_into(w);
  return w.take();
}

void Msg::preimage_into(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(view);
  w.u64(round);
  w.bytes(data);
}

Bytes Msg::encode() const {
  Writer w(wire_size());
  encode_into(w);
  return w.take();
}

void Msg::encode_into(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(view);
  w.u64(round);
  w.u32(author);
  w.bytes(data);
  w.bytes(sig);
}

Msg Msg::decode(BytesView bytes) {
  Reader r(bytes);
  Msg m;
  m.type = static_cast<MsgType>(r.u8());
  m.view = r.u64();
  m.round = r.u64();
  m.author = r.u32();
  m.data = r.bytes();
  m.sig = r.bytes();
  r.expect_done();
  return m;
}

void CertSignatures::encode_sigs(Writer& w) const {
  if (scheme == CertScheme::kAggregate) {
    w.u32(kAggCertSentinel);
    w.u64(gen);
    signers.encode_into(w);
    w.bytes(agg_sig);
    return;
  }
  w.u32(static_cast<std::uint32_t>(sigs.size()));
  for (const auto& [author, sig] : sigs) {
    w.u32(author);
    w.bytes(sig);
  }
}

void CertSignatures::decode_sigs(Reader& r) {
  const std::uint32_t n = r.u32();
  if (n == kAggCertSentinel) {
    scheme = CertScheme::kAggregate;
    gen = r.u64();
    signers = crypto::SignerBitset::decode_from(r);
    agg_sig = r.bytes();
    if (agg_sig.size() != crypto::kAggSignatureBytes) {
      throw SerdeError("certificate: bad aggregate signature size");
    }
    return;
  }
  // Clamp against hostile counts (see Block::decode).
  sigs.reserve(std::min<std::size_t>(n, r.remaining() / 8 + 1));
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId author = r.u32();
    sigs.emplace_back(author, r.bytes());
  }
}

std::size_t CertSignatures::sigs_size() const {
  if (scheme == CertScheme::kAggregate) {
    return 4 + 8 + signers.encoded_size() + 4 + agg_sig.size();
  }
  std::size_t size = 4;
  for (const auto& [author, sig] : sigs) size += 4 + 4 + sig.size();
  return size;
}

std::size_t CertSignatures::signer_count() const {
  return scheme == CertScheme::kAggregate ? signers.count() : sigs.size();
}

std::vector<NodeId> CertSignatures::signer_list() const {
  if (scheme == CertScheme::kAggregate) return signers.members();
  std::vector<NodeId> out;
  out.reserve(sigs.size());
  for (const auto& [author, sig] : sigs) out.push_back(author);
  return out;
}

void CertSignatures::fold(std::size_t universe, std::uint64_t generation) {
  scheme = CertScheme::kAggregate;
  gen = generation;
  signers = crypto::SignerBitset(universe);
  agg_sig = crypto::AggKeyring::empty_aggregate();
  for (const auto& [author, sig] : sigs) {
    if (signers.test(author)) {
      throw std::invalid_argument("CertSignatures::fold: duplicate signer");
    }
    signers.set(author);
    crypto::AggKeyring::fold_into(agg_sig, sig);
  }
  sigs.clear();
}

Bytes QuorumCert::encode() const {
  Writer w(encoded_size());
  preimage_into(w);
  encode_sigs(w);
  return w.take();
}

QuorumCert QuorumCert::decode(BytesView bytes) {
  Reader r(bytes);
  QuorumCert qc;
  qc.type = static_cast<MsgType>(r.u8());
  qc.view = r.u64();
  qc.round = r.u64();
  qc.data = r.bytes();
  qc.decode_sigs(r);
  r.expect_done();
  return qc;
}

Bytes QuorumCert::preimage() const {
  Writer w(preimage_size());
  preimage_into(w);
  return w.take();
}

void QuorumCert::preimage_into(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(view);
  w.u64(round);
  w.bytes(data);
}

QuorumCert QuorumCert::combine(const std::vector<Msg>& msgs) {
  if (msgs.empty()) {
    throw std::invalid_argument("QuorumCert::combine: no messages");
  }
  QuorumCert qc;
  qc.type = msgs.front().type;
  qc.view = msgs.front().view;
  qc.round = msgs.front().round;
  qc.data = msgs.front().data;
  std::set<NodeId> authors;
  for (const Msg& m : msgs) {
    if (m.type != qc.type || m.view != qc.view || m.round != qc.round ||
        m.data != qc.data) {
      throw std::invalid_argument("QuorumCert::combine: mismatched messages");
    }
    if (authors.insert(m.author).second) {
      qc.sigs.emplace_back(m.author, m.sig);
    }
  }
  return qc;
}

}  // namespace eesmr::smr
