#include "src/smr/request_intake.hpp"

#include <algorithm>

#include "src/crypto/fingerprint.hpp"

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

namespace {
/// The entry of `map` (fingerprint `fp`) holding exactly `cmd`, or end().
template <typename Map>
auto find_exact(Map& map, std::uint64_t fp, BytesView cmd) {
  auto [it, end] = map.equal_range(fp);
  while (it != end && !std::ranges::equal(it->second.cmd, cmd)) ++it;
  return it != end ? it : map.end();
}
}  // namespace

void RequestIntake::remember_verified(BytesView cmd, std::uint64_t height) {
  const std::uint64_t fp = crypto::fingerprint(cmd);
  if (find_exact(verified_, fp, cmd) != verified_.end()) return;
  verified_.emplace(fp, Verified{to_bytes(cmd), height});
}

bool RequestIntake::take_verified(BytesView cmd) {
  const auto it = find_exact(verified_, crypto::fingerprint(cmd), cmd);
  if (it == verified_.end()) return false;
  verified_.erase(it);
  ++verified_hits_;
  return true;
}

void RequestIntake::gc_verified(std::uint64_t height) {
  std::erase_if(verified_, [height](const auto& kv) {
    return kv.second.height <= height;
  });
}

}  // namespace eesmr::smr
