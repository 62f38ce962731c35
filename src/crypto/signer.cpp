#include "src/crypto/signer.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "src/crypto/ecdsa.hpp"
#include "src/crypto/hmac.hpp"
#include "src/crypto/rsa.hpp"
#include "src/sim/rng.hpp"

namespace eesmr::crypto {

namespace {

constexpr std::array<SchemeInfo, 11> kSchemeInfo = {{
    {"HMAC-SHA256", 32, true},
    {"ECDSA-BP160R1", 40, false},
    {"ECDSA-BP256R1", 64, false},
    {"ECDSA-SECP192R1", 48, false},
    {"ECDSA-SECP192K1", 48, false},
    {"ECDSA-SECP224R1", 56, false},
    {"ECDSA-SECP256R1", 64, false},
    {"ECDSA-SECP256K1", 64, false},
    {"RSA-1024", 128, false},
    {"RSA-1260", 158, false},
    {"RSA-2048", 256, false},
}};

CurveId curve_of(SchemeId id) {
  switch (id) {
    case SchemeId::kEcdsaBp160r1:
      return CurveId::kBrainpoolP160r1;
    case SchemeId::kEcdsaBp256r1:
      return CurveId::kBrainpoolP256r1;
    case SchemeId::kEcdsaSecp192r1:
      return CurveId::kSecp192r1;
    case SchemeId::kEcdsaSecp192k1:
      return CurveId::kSecp192k1;
    case SchemeId::kEcdsaSecp224r1:
      return CurveId::kSecp224r1;
    case SchemeId::kEcdsaSecp256r1:
      return CurveId::kSecp256r1;
    case SchemeId::kEcdsaSecp256k1:
      return CurveId::kSecp256k1;
    default:
      throw std::invalid_argument("not an ECDSA scheme");
  }
}

std::size_t rsa_bits_of(SchemeId id) {
  switch (id) {
    case SchemeId::kRsa1024:
      return 1024;
    case SchemeId::kRsa1260:
      return 1260;
    case SchemeId::kRsa2048:
      return 2048;
    default:
      throw std::invalid_argument("not an RSA scheme");
  }
}

// ---------------------------------------------------------------------------

class HmacSigner final : public Signer {
 public:
  explicit HmacSigner(BytesView key) : key_(key) {}
  Bytes sign(BytesView msg) const override {
    const Sha256Digest mac = key_.mac(msg);
    return Bytes(mac.begin(), mac.end());
  }
  SchemeId scheme() const override { return SchemeId::kHmacSha256; }

 private:
  HmacSha256Key key_;
};

class HmacVerifier final : public Verifier {
 public:
  explicit HmacVerifier(BytesView key) : key_(key) {}
  bool verify(BytesView msg, BytesView sig) const override {
    return mac_equal(key_.mac(msg), sig);
  }
  SchemeId scheme() const override { return SchemeId::kHmacSha256; }

 private:
  HmacSha256Key key_;
};

class RsaSignerImpl final : public Signer {
 public:
  RsaSignerImpl(SchemeId id, RsaPrivateKey key)
      : id_(id), key_(std::move(key)) {}
  Bytes sign(BytesView msg) const override { return rsa_sign(key_, msg); }
  SchemeId scheme() const override { return id_; }

 private:
  SchemeId id_;
  RsaPrivateKey key_;
};

class RsaVerifierImpl final : public Verifier {
 public:
  RsaVerifierImpl(SchemeId id, RsaPublicKey key)
      : id_(id), key_(std::move(key)) {}
  bool verify(BytesView msg, BytesView sig) const override {
    return rsa_verify(key_, msg, sig);
  }
  SchemeId scheme() const override { return id_; }

 private:
  SchemeId id_;
  RsaPublicKey key_;
};

class EcdsaSignerImpl final : public Signer {
 public:
  EcdsaSignerImpl(SchemeId id, EcdsaPrivateKey key)
      : id_(id), key_(std::move(key)) {}
  Bytes sign(BytesView msg) const override { return ecdsa_sign(key_, msg); }
  SchemeId scheme() const override { return id_; }

 private:
  SchemeId id_;
  EcdsaPrivateKey key_;
};

class EcdsaVerifierImpl final : public Verifier {
 public:
  EcdsaVerifierImpl(SchemeId id, EcdsaPublicKey key)
      : id_(id), key_(std::move(key)) {}
  bool verify(BytesView msg, BytesView sig) const override {
    return ecdsa_verify(key_, msg, sig);
  }
  SchemeId scheme() const override { return id_; }

 private:
  SchemeId id_;
  EcdsaPublicKey key_;
};

// Keyed-hash stand-in: sign = HMAC(secret, msg) truncated/padded with
// 0xee to the emulated scheme's wire size. Secure inside one trusted
// process because only honest simulation code can reach another node's
// secret.
Bytes sim_tag(const HmacSha256Key& key, BytesView msg, std::size_t width) {
  const Sha256Digest mac = key.mac(msg);
  Bytes tag(width, 0xee);
  std::copy_n(mac.begin(), std::min(width, mac.size()), tag.begin());
  return tag;
}

class SimSigner final : public Signer {
 public:
  SimSigner(SchemeId emulated, BytesView secret)
      : emulated_(emulated), key_(secret) {}
  Bytes sign(BytesView msg) const override {
    return sim_tag(key_, msg, scheme_info(emulated_).signature_bytes);
  }
  SchemeId scheme() const override { return emulated_; }

 private:
  SchemeId emulated_;
  HmacSha256Key key_;
};

class SimVerifier final : public Verifier {
 public:
  SimVerifier(SchemeId emulated, BytesView secret)
      : emulated_(emulated), key_(secret) {}
  bool verify(BytesView msg, BytesView sig) const override {
    if (sig.size() != scheme_info(emulated_).signature_bytes) return false;
    return mac_equal(sim_tag(key_, msg, sig.size()), sig);
  }
  SchemeId scheme() const override { return emulated_; }

 private:
  SchemeId emulated_;
  HmacSha256Key key_;
};

Bytes node_secret(std::uint64_t seed, NodeId id) {
  Bytes material(16, 0);
  for (int i = 0; i < 8; ++i) {
    material[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(seed >> (8 * i));
    material[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(id) >> (8 * i));
  }
  return sha256(material);
}

}  // namespace

const SchemeInfo& scheme_info(SchemeId id) {
  return kSchemeInfo[static_cast<std::size_t>(id)];
}

std::vector<SchemeId> all_schemes() {
  std::vector<SchemeId> out;
  for (std::size_t i = 0; i < kSchemeInfo.size(); ++i) {
    out.push_back(static_cast<SchemeId>(i));
  }
  return out;
}

std::shared_ptr<Keyring> Keyring::generate(SchemeId scheme, std::size_t n,
                                           std::uint64_t seed) {
  auto ring = std::shared_ptr<Keyring>(new Keyring());
  ring->scheme_ = scheme;
  sim::Rng rng(seed ^ 0x4b455952494e47ull);  // "KEYRING"
  for (NodeId i = 0; i < n; ++i) {
    switch (scheme) {
      case SchemeId::kHmacSha256: {
        // One shared MAC key per node pair is the faithful model; the
        // paper's energy analysis only needs per-op costs, so a single
        // per-node key (verifiable by all) keeps the directory small.
        Bytes key = node_secret(seed, i);
        ring->signers_.push_back(std::make_unique<HmacSigner>(key));
        ring->verifiers_.push_back(std::make_unique<HmacVerifier>(key));
        break;
      }
      case SchemeId::kRsa1024:
      case SchemeId::kRsa1260:
      case SchemeId::kRsa2048: {
        RsaKeyPair kp = rsa_generate(rsa_bits_of(scheme), rng);
        ring->signers_.push_back(
            std::make_unique<RsaSignerImpl>(scheme, kp.priv));
        ring->verifiers_.push_back(
            std::make_unique<RsaVerifierImpl>(scheme, kp.pub));
        break;
      }
      default: {
        EcdsaKeyPair kp = ecdsa_generate(curve_of(scheme), rng);
        ring->signers_.push_back(
            std::make_unique<EcdsaSignerImpl>(scheme, kp.priv));
        ring->verifiers_.push_back(
            std::make_unique<EcdsaVerifierImpl>(scheme, kp.pub));
        break;
      }
    }
  }
  return ring;
}

std::shared_ptr<Keyring> Keyring::simulated(SchemeId scheme, std::size_t n,
                                            std::uint64_t seed) {
  auto ring = std::shared_ptr<Keyring>(new Keyring());
  ring->scheme_ = scheme;
  ring->simulated_ = true;
  for (NodeId i = 0; i < n; ++i) {
    Bytes secret = node_secret(seed, i);
    ring->signers_.push_back(std::make_unique<SimSigner>(scheme, secret));
    ring->verifiers_.push_back(std::make_unique<SimVerifier>(scheme, secret));
  }
  return ring;
}

const Signer& Keyring::signer(NodeId id) const {
  if (id >= signers_.size()) throw std::out_of_range("Keyring::signer");
  return *signers_[id];
}

bool Keyring::verify(NodeId claimed, BytesView msg, BytesView sig) const {
  if (claimed >= verifiers_.size()) return false;
  return verifiers_[claimed]->verify(msg, sig);
}

}  // namespace eesmr::crypto
