#include "src/trusted/trusted.hpp"

#include <stdexcept>
#include <utility>

#include "src/common/serde.hpp"

namespace eesmr::trusted {

Bytes Attestation::preimage() const {
  Writer w;
  w.u8('U');
  w.u8('I');
  w.u32(node);
  w.u64(counter);
  w.bytes(digest);
  return w.take();
}

Bytes Attestation::encode() const {
  Writer w;
  w.u32(node);
  w.u64(counter);
  w.bytes(digest);
  w.bytes(sig);
  return w.take();
}

Attestation Attestation::decode(BytesView bytes) {
  Reader r(bytes);
  Attestation a;
  a.node = r.u32();
  a.counter = r.u64();
  a.digest = r.bytes();
  a.sig = r.bytes();
  r.expect_done();
  return a;
}

TrustedCounter::TrustedCounter(std::shared_ptr<const crypto::Keyring> keyring,
                               NodeId node, energy::Meter* meter,
                               prof::Profiler* profiler)
    : keyring_(std::move(keyring)), node_(node), meter_(meter),
      prof_(profiler) {
  if (!keyring_) {
    throw std::invalid_argument("TrustedCounter: keyring required");
  }
  if (node_ >= keyring_->size()) {
    throw std::invalid_argument("TrustedCounter: node outside keyring");
  }
}

Attestation TrustedCounter::attest(BytesView digest) {
  Attestation a;
  a.node = node_;
  a.counter = ++counter_;  // increment-then-sign: no value signs twice
  a.digest = Bytes(digest.begin(), digest.end());
  a.sig = keyring_->signer(node_).sign(a.preimage());
  if (meter_ != nullptr) {
    meter_->charge(energy::Category::kAttest,
                   energy::attest_energy_mj(keyring_->scheme()));
  }
  if (prof_ != nullptr) prof_->count_crypto("trusted", "attest", "attest");
  return a;
}

SealedCounter TrustedCounter::seal() const {
  return SealedCounter{node_, counter_};
}

void TrustedCounter::unseal(const SealedCounter& sealed) {
  if (sealed.node != node_) {
    throw std::invalid_argument("TrustedCounter::unseal: wrong node");
  }
  // Monotonic adoption: a stale sealed blob can never roll the counter
  // back and free already-used values.
  if (sealed.counter > counter_) counter_ = sealed.counter;
}

bool verify_attestation(const crypto::Keyring& keyring, const Attestation& att,
                        energy::Meter* meter, prof::Profiler* profiler,
                        const char* site) {
  if (att.node >= keyring.size() || att.counter == 0) return false;
  if (meter != nullptr) {
    meter->charge(energy::Category::kAttest,
                  energy::verify_attest_energy_mj(keyring.scheme()));
  }
  if (profiler != nullptr) profiler->count_crypto("trusted", "verify", site);
  return keyring.verify(att.node, att.preimage(), att.sig);
}

AttestationTracker::Verdict AttestationTracker::observe(
    const Attestation& att) {
  PerSender& s = senders_[att.node];
  if (att.counter > s.last && s.rebase_pending) {
    s.rebase_pending = false;
    s.last = att.counter;
    s.digests.emplace(att.counter, att.digest);
    return Verdict::kAccept;
  }
  if (att.counter == s.last + 1 ||
      (max_gap_ != 0 && att.counter > s.last + max_gap_)) {
    s.last = att.counter;
    s.digests.emplace(att.counter, att.digest);
    return Verdict::kAccept;
  }
  if (att.counter > s.last) return Verdict::kHold;
  const auto it = s.digests.find(att.counter);
  if (it != s.digests.end() && it->second != att.digest) {
    ++reuse_;
    return Verdict::kReuse;
  }
  // Either a byte-identical redelivery or a value whose digest memory was
  // already GC'd (at that point the value is final and below every
  // correct receiver's frontier — safe to treat as a dupe).
  ++replays_;
  return Verdict::kReplay;
}

void AttestationTracker::rebase(NodeId node) {
  senders_[node].rebase_pending = true;
}

void AttestationTracker::skip_to(NodeId node, std::uint64_t counter) {
  if (counter == 0) return;
  PerSender& s = senders_[node];
  if (counter - 1 <= s.last) return;  // never move the frontier backwards
  s.last = counter - 1;
  ++gap_skips_;
}

std::uint64_t AttestationTracker::last(NodeId node) const {
  const auto it = senders_.find(node);
  return it == senders_.end() ? 0 : it->second.last;
}

void AttestationTracker::forget_window(std::uint64_t keep) {
  for (auto& [node, s] : senders_) {
    (void)node;
    if (s.last <= keep) continue;
    s.digests.erase(s.digests.begin(), s.digests.upper_bound(s.last - keep));
  }
}

}  // namespace eesmr::trusted
