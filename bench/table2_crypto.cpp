// Table 2: energy for signature generation and verification across the
// ECDSA curves, RSA moduli and HMAC the paper measured on the
// NUCLEO-F401RE. The simulator charges exactly these calibrated values.
#include "src/energy/cost_model.hpp"
#include "src/exp/experiment.hpp"

using namespace eesmr;
using namespace eesmr::crypto;

int main(int argc, char** argv) {
  exp::Experiment ex("table2_crypto",
                     "Table 2 (§5.5, public key primitives)", argc, argv,
                     /*default_seed=*/2024);

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
    return row;
  });
  rep.print_table(3);

  ex.note("expected shape: RSA verification is orders of magnitude "
          "cheaper than any ECDSA verification (the paper's reason for "
          "choosing RSA-1024: leader signs once, n replicas verify)");
  return ex.finish();
}
