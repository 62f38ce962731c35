#include "src/smr/request.hpp"

#include "src/common/serde.hpp"

namespace eesmr::smr {

namespace {
/// ClientRequest::preimage().size(): tag, client, req_id and the
/// length-prefixed op.
std::size_t preimage_size(const ClientRequest& req) {
  return 2 + 4 + 8 + 4 + req.op.size();
}

void preimage_into(const ClientRequest& req, Writer& w) {
  w.u16(kRequestTag);
  w.u32(req.client);
  w.u64(req.req_id);
  w.bytes(req.op);
}
}  // namespace

Bytes ClientRequest::preimage() const {
  Writer w(preimage_size(*this));
  preimage_into(*this, w);
  return w.take();
}

bool ClientRequest::verify(const crypto::Keyring& keyring) const {
  if (client >= keyring.size()) return false;
  return keyring.verify(client, preimage(), sig);
}

Bytes ClientRequest::encode() const {
  Writer w(preimage_size(*this) + 4 + sig.size());
  preimage_into(*this, w);
  w.bytes(sig);
  return w.take();
}

std::optional<ClientRequest> ClientRequest::decode(BytesView data) {
  try {
    Reader r(data);
    if (r.u16() != kRequestTag) return std::nullopt;
    ClientRequest req;
    req.client = r.u32();
    req.req_id = r.u64();
    req.op = r.bytes();
    req.sig = r.bytes();
    r.expect_done();
    return req;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

Bytes ClientReply::encode() const {
  Writer w(4 + 8 + 4 + result.size() + 4);
  w.u32(client);
  w.u64(req_id);
  w.bytes(result);
  w.u32(leader);
  return w.take();
}

std::optional<ClientReply> ClientReply::decode(BytesView data) {
  try {
    Reader r(data);
    ClientReply rep;
    rep.client = r.u32();
    rep.req_id = r.u64();
    rep.result = r.bytes();
    rep.leader = r.u32();
    r.expect_done();
    return rep;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

namespace {
/// Domain tag separating acceptance preimages from requests (0xC11E),
/// checkpoints (0xC4E0) and policy commands (0xEE57).
constexpr std::uint16_t kAcceptTag = 0xACC1;
}  // namespace

Bytes acceptance_preimage(NodeId client, std::uint64_t req_id,
                          const Bytes& result) {
  Writer w;
  w.u16(kAcceptTag);
  w.u32(client);
  w.u64(req_id);
  w.bytes(result);
  return w.take();
}

Bytes AcceptanceCert::encode() const {
  Writer w(encoded_size());
  w.u32(client);
  w.u64(req_id);
  w.bytes(result);
  w.u64(gen);
  signers.encode_into(w);
  w.bytes(agg_sig);
  return w.take();
}

AcceptanceCert AcceptanceCert::decode(BytesView data) {
  Reader r(data);
  AcceptanceCert c;
  c.client = r.u32();
  c.req_id = r.u64();
  c.result = r.bytes();
  c.gen = r.u64();
  c.signers = crypto::SignerBitset::decode_from(r);
  c.agg_sig = r.bytes();
  if (c.agg_sig.size() != crypto::kAggSignatureBytes) {
    throw SerdeError("AcceptanceCert: bad aggregate signature size");
  }
  r.expect_done();
  return c;
}

bool AcceptanceCert::verify(const crypto::AggKeyring& agg,
                            std::size_t quorum) const {
  if (signers.count() < quorum) return false;
  return agg.verify_aggregate(signers,
                              acceptance_preimage(client, req_id, result),
                              agg_sig);
}

}  // namespace eesmr::smr
