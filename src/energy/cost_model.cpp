#include "src/energy/cost_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace eesmr::energy {

namespace {

// Table 1 sample points (message size in bytes -> mJ). The model
// interpolates linearly between points and extrapolates the last segment,
// so the bench reproduces Table 1 exactly at the measured sizes.
constexpr std::array<double, 4> kSizes = {256, 512, 1024, 2048};

struct MediumTable {
  std::array<double, 4> send;
  std::array<double, 4> recv;
  std::array<double, 4> multicast;
};

constexpr MediumTable kBleTable = {
    {0.73, 1.31, 2.93, 5.91},
    {0.55, 1.11, 2.64, 5.23},
    {0.58, 1.17, 2.35, 4.70},
};
constexpr MediumTable k4gTable = {
    {494.84, 989.68, 1979.36, 3958.72},
    {69.54, 139.08, 278.17, 556.35},
    {494.84, 989.68, 1979.36, 3958.72},  // no cellular multicast: = send
};
constexpr MediumTable kWifiTable = {
    {81.2, 153.98, 310.54, 610.55},
    {66.66, 123.23, 231.52, 423.58},
    {81.2, 153.98, 310.54, 610.55},  // treated as send
};

const MediumTable& table_for(Medium m) {
  switch (m) {
    case Medium::kBle:
      return kBleTable;
    case Medium::k4gLte:
      return k4gTable;
    case Medium::kWifi:
      return kWifiTable;
  }
  throw std::invalid_argument("unknown medium");
}

double interpolate(const std::array<double, 4>& y, double bytes) {
  if (bytes <= kSizes.front()) {
    // Scale down proportionally below the first sample (through origin).
    return y.front() * bytes / kSizes.front();
  }
  for (std::size_t i = 1; i < kSizes.size(); ++i) {
    if (bytes <= kSizes[i]) {
      const double t = (bytes - kSizes[i - 1]) / (kSizes[i] - kSizes[i - 1]);
      return y[i - 1] + t * (y[i] - y[i - 1]);
    }
  }
  // Extrapolate the final segment's slope.
  const double slope =
      (y[3] - y[2]) / (kSizes[3] - kSizes[2]);
  return y[3] + slope * (bytes - kSizes[3]);
}

// Table 2 (Joules). Indexed by SchemeId order in signer.hpp.
struct SigCost {
  double sign_j;
  double verify_j;
};
constexpr std::array<SigCost, 11> kSigCosts = {{
    {0.19, 0.19},    // HMAC-SHA256
    {5.80, 11.03},   // ECDSA BP160R1
    {13.88, 27.34},  // ECDSA BP256R1
    {0.84, 1.50},    // ECDSA SECP192R1
    {1.16, 2.24},    // ECDSA SECP192K1
    {1.10, 2.14},    // ECDSA SECP224R1
    {1.60, 3.04},    // ECDSA SECP256R1
    {1.72, 3.35},    // ECDSA SECP256K1
    {0.40, 0.02},    // RSA-1024
    {0.79, 0.03},    // RSA-1260
    {2.41, 0.06},    // RSA-2048
}};

// One SHA-256 compression on the Cortex-M4: Table 2's 0.19 J HMAC over a
// short message is ~4 compressions -> 47.5 mJ per 64-byte block.
constexpr double kHashBlockMj = 47.5;

std::size_t sha256_blocks(std::size_t bytes) {
  // Message + 9 padding/length bytes, rounded up to 64-byte blocks.
  return (bytes + 9 + 63) / 64;
}

}  // namespace

const char* medium_name(Medium m) {
  switch (m) {
    case Medium::kBle:
      return "BLE";
    case Medium::k4gLte:
      return "4G LTE";
    case Medium::kWifi:
      return "WiFi";
  }
  return "?";
}

double send_energy_mj(Medium m, std::size_t bytes) {
  return interpolate(table_for(m).send, static_cast<double>(bytes));
}

double recv_energy_mj(Medium m, std::size_t bytes) {
  return interpolate(table_for(m).recv, static_cast<double>(bytes));
}

double multicast_energy_mj(Medium m, std::size_t bytes) {
  return interpolate(table_for(m).multicast, static_cast<double>(bytes));
}

double sign_energy_mj(crypto::SchemeId scheme) {
  return kSigCosts[static_cast<std::size_t>(scheme)].sign_j * 1e3;
}

double verify_energy_mj(crypto::SchemeId scheme) {
  return kSigCosts[static_cast<std::size_t>(scheme)].verify_j * 1e3;
}

// BLS12-381 on a Cortex-M-class device, scaled to the Table-2 envelope:
// one G1 scalar multiplication (share), one pairing, one G1/G2 addition.
constexpr double kAggShareMj = 2100.0;   // ~1.3x an ECDSA-P256 sign
constexpr double kAggPairingMj = 4300.0; // per pairing; verify needs two
constexpr double kAggPointAddMj = 2.1;   // pubkey / share aggregation step

double agg_sign_energy_mj() { return kAggShareMj; }

double agg_verify_energy_mj(std::size_t signers) {
  if (signers == 0) return 0.0;
  return 2.0 * kAggPairingMj +
         kAggPointAddMj * static_cast<double>(signers - 1);
}

double agg_combine_energy_mj(std::size_t shares) {
  if (shares <= 1) return 0.0;
  return kAggPointAddMj * static_cast<double>(shares - 1);
}

double hash_energy_mj(std::size_t bytes) {
  return kHashBlockMj * static_cast<double>(sha256_blocks(bytes));
}

double mac_energy_mj(std::size_t bytes) {
  // HMAC = 2 extra compressions (ipad/opad) + inner message blocks + the
  // outer 32-byte digest block.
  return kHashBlockMj *
         static_cast<double>(sha256_blocks(bytes) + 3);
}

double attest_energy_mj(crypto::SchemeId scheme) {
  // Counter increment + signature inside the enclave, plus the boundary
  // crossing. The signature dominates; the increment rides on the call
  // overhead constant.
  return sign_energy_mj(scheme) + kAttestCallOverheadMj;
}

double verify_attest_energy_mj(crypto::SchemeId scheme) {
  return verify_energy_mj(scheme) + kAttestCallOverheadMj;
}

std::size_t ble_adv_packets(std::size_t bytes) {
  return std::max<std::size_t>(1, (bytes + kBleAdvPayload - 1) / kBleAdvPayload);
}

double kcast_success_probability(std::size_t bytes, std::size_t k,
                                 std::size_t redundancy) {
  if (k == 0 || redundancy == 0) return 0.0;
  // Receiver misses a packet only if it misses all `redundancy` copies.
  const double miss = std::pow(kBleAdvLossProb, static_cast<double>(redundancy));
  const double per_packet_all_k = std::pow(1.0 - miss, static_cast<double>(k));
  return std::pow(per_packet_all_k,
                  static_cast<double>(ble_adv_packets(bytes)));
}

std::size_t kcast_redundancy_for(std::size_t bytes, std::size_t k,
                                 double reliability) {
  for (std::size_t r = 1; r <= 64; ++r) {
    if (kcast_success_probability(bytes, k, r) >= reliability) return r;
  }
  throw std::runtime_error("kcast_redundancy_for: unreachable reliability");
}

double kcast_send_energy_mj(std::size_t bytes, std::size_t redundancy) {
  return kBleAdvTxMj * static_cast<double>(ble_adv_packets(bytes)) *
         static_cast<double>(redundancy);
}

double kcast_recv_energy_mj(std::size_t bytes, std::size_t redundancy) {
  return kBleAdvRxMj * static_cast<double>(ble_adv_packets(bytes)) *
         static_cast<double>(redundancy);
}

double gatt_send_energy_mj(std::size_t bytes) {
  return kGattTxOverheadMj + kGattTxPerByteMj * static_cast<double>(bytes);
}

double gatt_recv_energy_mj(std::size_t bytes) {
  return kGattRxOverheadMj + kGattRxPerByteMj * static_cast<double>(bytes);
}

}  // namespace eesmr::energy
