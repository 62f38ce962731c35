// Micro-benchmarks for the from-scratch cryptographic primitives: the
// host-CPU counterpart of Table 2, confirming the relative ordering the
// paper exploits (RSA verify << RSA sign, RSA verify << ECDSA verify,
// HMAC cheapest). Runs on the experiment engine like every other bench;
// the default output reports deterministic operation counts and the
// calibrated energy model, and --host-timing adds measured wall-clock
// columns (opt-in because host timing is inherently nondeterministic).
// This replaces the earlier google-benchmark harness, dropping the
// optional external dependency.
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "src/crypto/bigint.hpp"
#include "src/crypto/ecdsa.hpp"
#include "src/crypto/hmac.hpp"
#include "src/crypto/rsa.hpp"
#include "src/crypto/sha256.hpp"
#include "src/energy/cost_model.hpp"
#include "src/exp/experiment.hpp"
#include "src/sim/rng.hpp"

using namespace eesmr;
using namespace eesmr::crypto;

namespace {

struct Primitive {
  std::string name;
  double model_mj;  ///< calibrated Cortex-M4 energy (0 = not modeled)
  int iters;        ///< timing-loop iterations under --host-timing
  std::function<void(sim::Rng&)> op;
};

const Bytes& message() {
  static const Bytes msg = to_bytes(std::string(64, 'm'));
  return msg;
}

std::vector<Primitive> primitives() {
  std::vector<Primitive> ps;
  ps.push_back({"sha256_64B", energy::hash_energy_mj(64), 2000,
                [](sim::Rng&) { (void)sha256(message()); }});
  ps.push_back({"sha256_4KiB", energy::hash_energy_mj(4096), 500,
                [](sim::Rng&) {
                  // Hoisted out of the timed operation: --host-timing
                  // must measure the hash, not the allocation.
                  static const Bytes big(4096, 0x77);
                  (void)sha256(big);
                }});
  ps.push_back({"hmac_sha256", energy::mac_energy_mj(64), 1000,
                [](sim::Rng&) {
                  const Bytes key(64, 0x42);
                  (void)hmac(key, message());
                }});
  ps.push_back({"rsa1024_sign", energy::sign_energy_mj(SchemeId::kRsa1024), 3,
                [](sim::Rng& rng) {
                  static const RsaKeyPair kp = [&] {
                    sim::Rng r(1);
                    return rsa_generate(1024, r);
                  }();
                  (void)rng;
                  (void)rsa_sign(kp.priv, message());
                }});
  ps.push_back({"rsa1024_verify",
                energy::verify_energy_mj(SchemeId::kRsa1024), 50,
                [](sim::Rng& rng) {
                  static const RsaKeyPair kp = [&] {
                    sim::Rng r(1);
                    return rsa_generate(1024, r);
                  }();
                  static const Bytes sig = rsa_sign(kp.priv, message());
                  (void)rng;
                  (void)rsa_verify(kp.pub, message(), sig);
                }});
  ps.push_back({"ecdsa_p256_sign",
                energy::sign_energy_mj(SchemeId::kEcdsaSecp256r1), 3,
                [](sim::Rng& rng) {
                  static const EcdsaKeyPair kp = [&] {
                    sim::Rng r(2);
                    return ecdsa_generate(CurveId::kSecp256r1, r);
                  }();
                  (void)rng;
                  (void)ecdsa_sign(kp.priv, message());
                }});
  ps.push_back({"ecdsa_p256_verify",
                energy::verify_energy_mj(SchemeId::kEcdsaSecp256r1), 3,
                [](sim::Rng& rng) {
                  static const EcdsaKeyPair kp = [&] {
                    sim::Rng r(2);
                    return ecdsa_generate(CurveId::kSecp256r1, r);
                  }();
                  static const Bytes sig = ecdsa_sign(kp.priv, message());
                  (void)rng;
                  (void)ecdsa_verify(kp.pub, message(), sig);
                }});
  ps.push_back({"bigint_modexp_2048", 0.0, 20, [](sim::Rng& rng) {
                  static const BigInt m = [] {
                    sim::Rng r(3);
                    return BigInt::random_bits(r, 2048);
                  }();
                  static const BigInt b = [] {
                    sim::Rng r(4);
                    return BigInt::random_below(r, m);
                  }();
                  (void)rng;
                  (void)BigInt::mod_exp(b, BigInt(65537), m);
                }});
  return ps;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Experiment ex("micro_crypto",
                     "Table 2 cross-check: from-scratch crypto primitives",
                     argc, argv, /*default_seed=*/7);
  const bool host_timing = ex.flag("--host-timing");
  if (host_timing) {
    ex.force_serial("--host-timing loops must not contend for cores");
  }

  const std::vector<Primitive> prims = primitives();
  std::vector<std::string> names;
  names.reserve(prims.size());
  for (const Primitive& p : prims) names.push_back(p.name);

  exp::Grid grid;
  grid.axis("primitive", names);

  exp::Report& rep = ex.run("primitives", grid,
                            [&](const exp::RunContext& c) {
    const Primitive& p = prims[c.at("primitive")];
    exp::MetricRow row;
    if (p.model_mj > 0) {
      row.set("model_mj", p.model_mj);
    } else {
      row.skip("model_mj");
    }
    if (host_timing) {
      sim::Rng rng(c.seed);
      const int iters = ex.smoke() ? std::max(1, p.iters / 10) : p.iters;
      p.op(rng);  // warm up static keys outside the timed loop
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < iters; ++i) p.op(rng);
      const auto end = std::chrono::steady_clock::now();
      row.set("host_ms",
              std::chrono::duration<double, std::milli>(end - start).count() /
                  iters);
      row.set("iters", iters);
    }
    return row;
  });
  rep.print_table(4);

  ex.note("model_mj is the paper's Cortex-M4 calibration (what the "
          "simulator charges); --host-timing adds this machine's "
          "wall-clock per op for the ordering cross-check");
  return ex.finish();
}
