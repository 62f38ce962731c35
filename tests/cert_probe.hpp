// A do-nothing replica that exposes ReplicaBase's certificate checks, so
// tests verify quorum and checkpoint certificates by the rules replicas
// run: replica-range and distinct signers, the verified-signature cache,
// and, under the aggregate scheme, the signer-bitset width and the
// membership-generation gate. It also exposes the block intake, commit
// and request-flow hooks, so tests can drive the chain without a
// protocol.
#pragma once

#include <memory>
#include <utility>

#include "src/crypto/agg.hpp"
#include "src/crypto/signer.hpp"
#include "src/net/hypergraph.hpp"
#include "src/net/network.hpp"
#include "src/sim/scheduler.hpp"
#include "src/smr/replica.hpp"

namespace eesmr::smr {

class QcProbe final : public ReplicaBase {
 public:
  using ReplicaBase::ReplicaBase;
  using ReplicaBase::commit_chain;
  using ReplicaBase::integrate_block;
  using ReplicaBase::prof_flow_block;
  using ReplicaBase::verify_checkpoint_cert;
  using ReplicaBase::verify_qc;
  void start() override {}

 protected:
  void handle(NodeId, const Msg&) override {}
};

/// Replica 0 of `n` with fault budget `f` (checkpoint quorum f+1). A
/// non-null `agg` selects the aggregate certificate scheme.
inline ReplicaConfig probe_config(std::size_t n, std::size_t f,
                                  std::shared_ptr<crypto::Keyring> keyring,
                                  std::shared_ptr<crypto::AggKeyring> agg =
                                      nullptr) {
  ReplicaConfig cfg;
  cfg.id = 0;
  cfg.n = n;
  cfg.f = f;
  cfg.keyring = std::move(keyring);
  if (agg != nullptr) {
    cfg.cert_scheme = CertScheme::kAggregate;
    cfg.agg = std::move(agg);
  }
  return cfg;
}

/// A QcProbe on its own scheduler and full-mesh network.
struct ProbeNode {
  explicit ProbeNode(const ReplicaConfig& cfg)
      : net(sched, net::Hypergraph::full_mesh(cfg.n), {}, nullptr),
        replica(net, cfg, nullptr) {}

  sim::Scheduler sched;
  net::Network net;
  QcProbe replica;
};

}  // namespace eesmr::smr
