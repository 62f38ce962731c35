// Calibrated energy-cost models for communication media and cryptographic
// primitives. Every constant is taken from (or fitted to) the paper's
// Tables 1 and 2 and the Fig. 2a/2b BLE characterization; see the .cpp
// for the calibration notes.
#pragma once

#include <cstddef>
#include <vector>

#include "src/crypto/signer.hpp"

namespace eesmr::energy {

/// Communication media evaluated in Table 1.
enum class Medium : std::uint8_t {
  kBle,     ///< Bluetooth Low Energy (GATT unicast / advertisements)
  k4gLte,   ///< cellular uplink to e.g. a trusted control node
  kWifi,    ///< 802.11 infrastructure
};

const char* medium_name(Medium m);

/// Energy (mJ) to *send* a `bytes`-byte message over medium `m`
/// (piecewise-linear through the Table-1 sample points).
double send_energy_mj(Medium m, std::size_t bytes);

/// Energy (mJ) to *receive* a `bytes`-byte message over medium `m`.
double recv_energy_mj(Medium m, std::size_t bytes);

/// Energy (mJ) for a link-layer multicast transmission of `bytes` over
/// medium `m` (Table 1's Multicast column; only BLE differs from send).
double multicast_energy_mj(Medium m, std::size_t bytes);

// -- Crypto costs (Table 2) --------------------------------------------------

/// Energy (mJ) to produce one signature under `scheme`.
double sign_energy_mj(crypto::SchemeId scheme);

/// Energy (mJ) to verify one signature under `scheme`.
double verify_energy_mj(crypto::SchemeId scheme);

// -- Aggregate (BLS-style) certificate costs (src/crypto/agg) ----------------
// Pairing-based aggregates trade CPU for radio: a G1 share costs about a
// scalar multiplication, verifying an aggregate costs two pairings plus a
// public-key aggregation linear in the signer count, and combining shares
// is a handful of point additions. The constants below are fitted to
// published BLS12-381 Cortex-M-class measurements, scaled onto the same
// device envelope as Table 2 (they sit roughly an order of magnitude
// above ECDSA-P256, as the literature reports).

/// Energy (mJ) to produce one 48-byte aggregate-scheme share.
double agg_sign_energy_mj();

/// Energy (mJ) to verify one aggregate covering `signers` shares (two
/// pairings + (signers-1) pubkey additions). signers == 0 costs nothing.
double agg_verify_energy_mj(std::size_t signers);

/// Energy (mJ) to fold `shares` shares into one aggregate (point adds).
double agg_combine_energy_mj(std::size_t shares);

/// Energy (mJ) to hash a `bytes`-byte message with SHA-256
/// (linear in the number of compression-function invocations, matching
/// the paper's "cost of hashing increased linearly with message size").
double hash_energy_mj(std::size_t bytes);

/// Energy (mJ) for HMAC-SHA256 over `bytes` with a 64-byte key
/// (Table 2 reports 0.19 J for short messages).
double mac_energy_mj(std::size_t bytes);

// -- Trusted-component costs (src/trusted) -----------------------------------
// A simulated enclave attestation (monotonic-counter UI, UNIQUE/USIG style)
// costs one counter increment plus one signature inside the trusted
// component; verifying one costs a signature verification plus the
// fixed-format counter check. The enclave boundary crossing adds a small
// constant on top of the raw crypto.

/// Fixed enclave-call overhead (mJ) added to every attestation / check.
constexpr double kAttestCallOverheadMj = 0.05;

/// Energy (mJ) to produce one attestation under `scheme`.
double attest_energy_mj(crypto::SchemeId scheme);

/// Energy (mJ) to verify one attestation under `scheme`.
double verify_attest_energy_mj(crypto::SchemeId scheme);

// -- BLE advertisement (k-cast) model (§5.4, Fig 2a/2b) ----------------------

/// BLE GAP advertisement payload limit the paper measured (25 bytes).
constexpr std::size_t kBleAdvPayload = 25;

/// Per-transmission energies and loss rate; calibrated so that
/// redundancy 10 yields the paper's 99.99 %-reliable k = 7 k-cast at
/// 5.3 mJ (sender) / 9.98 mJ (receiver) per 25-byte message.
constexpr double kBleAdvTxMj = 0.53;    ///< sender, per packet transmission
constexpr double kBleAdvRxMj = 0.998;   ///< receiver listen, per transmission
constexpr double kBleAdvLossProb = 0.32;  ///< per-packet per-receiver loss

/// Number of advertisement packets needed for a payload.
std::size_t ble_adv_packets(std::size_t bytes);

/// Probability that a k-cast of `bytes` with `redundancy` retransmissions
/// per packet reaches *all* k receivers (a k-cast succeeds only if every
/// receiver gets every fragment).
double kcast_success_probability(std::size_t bytes, std::size_t k,
                                 std::size_t redundancy);

/// Smallest redundancy achieving at least `reliability` for a k-cast.
std::size_t kcast_redundancy_for(std::size_t bytes, std::size_t k,
                                 double reliability);

/// Sender / per-receiver energy of one k-cast at a given redundancy.
double kcast_send_energy_mj(std::size_t bytes, std::size_t redundancy);
double kcast_recv_energy_mj(std::size_t bytes, std::size_t redundancy);

// -- BLE GATT unicast model (Fig 2b) -----------------------------------------
// GATT is connection-based and reliable; it pays a fixed connection /
// protocol overhead per message plus a per-byte cost. Constants fitted to
// reproduce Fig 2b's ordering: unicast wins for d_out = 1 and large
// payloads; k-casts win as k grows.
constexpr double kGattTxOverheadMj = 12.0;
constexpr double kGattTxPerByteMj = 0.020;
constexpr double kGattRxOverheadMj = 8.0;
constexpr double kGattRxPerByteMj = 0.015;

double gatt_send_energy_mj(std::size_t bytes);
double gatt_recv_energy_mj(std::size_t bytes);

// -- Device baseline (§5.6) ---------------------------------------------------
/// NUCLEO sleep and active power draw; used for idle-subtraction
/// discussions (protocol meters exclude idle, as the paper does).
constexpr double kSleepPowerMw = 0.3;
constexpr double kActivePowerMw = 1.0;

}  // namespace eesmr::energy
