#include "src/smr/request_intake.hpp"

namespace eesmr::smr {

RequestIntake::Screen RequestIntake::screen(NodeId client,
                                            std::size_t pending) {
  if (cap_ > 0 && pending >= cap_) {
    ++cap_drops_;
    return Screen::kCapDrop;
  }
  const auto bs = bad_sigs_.find(client);
  if (bs != bad_sigs_.end() && bs->second >= kBadSigThreshold &&
      ++flood_seen_[client] % kBadSigRecheck != 0) {
    ++early_drops_;
    return Screen::kEarlyDrop;
  }
  return Screen::kAdmit;
}

void RequestIntake::verified(NodeId client, bool ok) {
  if (ok) {
    bad_sigs_.erase(client);
  } else {
    ++bad_sigs_[client];
  }
}

void RequestIntake::remember_verified(BytesView cmd, std::uint64_t height) {
  verified_.emplace(crypto::Sha256::hash(cmd), height);
}

bool RequestIntake::take_verified(BytesView cmd) {
  if (verified_.erase(crypto::Sha256::hash(cmd)) == 0) return false;
  ++verified_hits_;
  return true;
}

void RequestIntake::gc_verified(std::uint64_t height) {
  std::erase_if(verified_,
                [height](const auto& kv) { return kv.second <= height; });
}

}  // namespace eesmr::smr
