// Table 2: energy for signature generation and verification across the
// ECDSA curves, RSA moduli and HMAC the paper measured on the
// NUCLEO-F401RE. The calibrated model reproduces the table; pass
// --host-timing to add wall-clock columns cross-checking the *ordering*
// with this repository's from-scratch implementations (host timing is
// inherently nondeterministic, so it is opt-in and breaks the engine's
// byte-identical-output contract only when explicitly requested; see
// bench/micro_crypto for the loop-based micro version).
#include <chrono>
#include <functional>

#include "src/crypto/ecdsa.hpp"
#include "src/crypto/hmac.hpp"
#include "src/crypto/rsa.hpp"
#include "src/energy/cost_model.hpp"
#include "src/exp/experiment.hpp"
#include "src/sim/rng.hpp"

using namespace eesmr;
using namespace eesmr::crypto;

namespace {

double ms_of(const std::function<void()>& fn, int iters) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count() /
         iters;
}

/// Wall-clock sign/verify of this repo's from-scratch implementation.
std::pair<double, double> impl_ms(SchemeId scheme, const Bytes& msg,
                                  sim::Rng& rng) {
  switch (scheme) {
    case SchemeId::kHmacSha256: {
      const Bytes key(64, 0x42);
      const double ms = ms_of([&] { (void)hmac(key, msg); }, 200);
      return {ms, ms};
    }
    case SchemeId::kRsa1024:
    case SchemeId::kRsa1260:
    case SchemeId::kRsa2048: {
      const std::size_t bits = scheme == SchemeId::kRsa1024   ? 1024
                               : scheme == SchemeId::kRsa1260 ? 1260
                                                              : 2048;
      const RsaKeyPair kp = rsa_generate(bits, rng);
      Bytes sig;
      const double sign_ms = ms_of([&] { sig = rsa_sign(kp.priv, msg); }, 3);
      const double verify_ms =
          ms_of([&] { (void)rsa_verify(kp.pub, msg, sig); }, 20);
      return {sign_ms, verify_ms};
    }
    default: {
      const CurveId curve =
          scheme == SchemeId::kEcdsaBp160r1     ? CurveId::kBrainpoolP160r1
          : scheme == SchemeId::kEcdsaBp256r1   ? CurveId::kBrainpoolP256r1
          : scheme == SchemeId::kEcdsaSecp192r1 ? CurveId::kSecp192r1
          : scheme == SchemeId::kEcdsaSecp192k1 ? CurveId::kSecp192k1
          : scheme == SchemeId::kEcdsaSecp224r1 ? CurveId::kSecp224r1
          : scheme == SchemeId::kEcdsaSecp256r1 ? CurveId::kSecp256r1
                                                : CurveId::kSecp256k1;
      const EcdsaKeyPair kp = ecdsa_generate(curve, rng);
      Bytes sig;
      const double sign_ms = ms_of([&] { sig = ecdsa_sign(kp.priv, msg); }, 3);
      const double verify_ms =
          ms_of([&] { (void)ecdsa_verify(kp.pub, msg, sig); }, 3);
      return {sign_ms, verify_ms};
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  exp::Experiment ex("table2_crypto",
                     "Table 2 (§5.5, public key primitives)", argc, argv,
                     /*default_seed=*/2024);
  const bool host_timing = ex.flag("--host-timing");
  if (host_timing) {
    ex.force_serial("--host-timing loops must not contend for cores");
  }

  const std::vector<SchemeId> schemes = all_schemes();
  std::vector<std::string> labels;
  labels.reserve(schemes.size());
  for (const SchemeId s : schemes) labels.emplace_back(scheme_info(s).name);

  exp::Grid grid;
  grid.axis("scheme", labels);

  exp::Report& rep = ex.run("sign_verify_energy", grid,
                            [&](const exp::RunContext& c) {
    const SchemeId scheme = schemes[c.at("scheme")];
    exp::MetricRow row;
    row.set("sign_j", energy::sign_energy_mj(scheme) / 1000.0);
    row.set("verify_j", energy::verify_energy_mj(scheme) / 1000.0);
    if (host_timing) {
      const Bytes msg = to_bytes(std::string("Table-2 measurement payload"));
      sim::Rng rng(c.seed);
      const auto [sign_ms, verify_ms] = impl_ms(scheme, msg, rng);
      row.set("impl_sign_ms", sign_ms);
      row.set("impl_verify_ms", verify_ms);
    }
    return row;
  });
  rep.print_table(3);

  ex.note("expected shape: RSA verification is orders of magnitude "
          "cheaper than any ECDSA verification (the paper's reason for "
          "choosing RSA-1024: leader signs once, n replicas verify)");
  if (host_timing) {
    ex.note("the wall-clock columns use this repo's from-scratch bigint/EC "
            "code on the host CPU; the J columns are the paper's Cortex-M4 "
            "calibration used by the simulator");
  } else {
    ex.note("pass --host-timing to cross-check the ordering against this "
            "repo's from-scratch implementations (nondeterministic output)");
  }
  return ex.finish();
}
