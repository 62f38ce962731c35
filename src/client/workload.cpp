#include "src/client/workload.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace eesmr::client {

ZipfSampler::ZipfSampler(std::size_t n, double theta) {
  if (n == 0) n = 1;
  cdf_.resize(n);
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::sample(sim::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

namespace {

/// Opaque fixed-size payloads; a stamped counter keeps them distinct.
class SyntheticGen final : public CommandGen {
 public:
  explicit SyntheticGen(std::size_t bytes)
      : bytes_(std::max<std::size_t>(bytes, 1)) {}

  Bytes next() override {
    // The configured size is honored exactly; the counter stamp is
    // truncated for tiny payloads (uniqueness comes from (client,
    // req_id) anyway).
    Bytes data(bytes_, 0xc5);
    stamp_counter_le(data, counter_++);
    return data;
  }

 private:
  std::size_t bytes_;
  std::uint64_t counter_ = 0;
};

/// KvStore text ops with key skew and a read/write mix.
class KvGen final : public CommandGen {
 public:
  KvGen(const GenSpec& spec, std::uint64_t seed)
      : spec_(spec), rng_(seed), zipf_(spec.kv_keys, spec.kv_zipf) {}

  Bytes next() override {
    // Appended rather than `"k" + std::to_string(...)`, which draws a
    // GCC 12 -O3 -Wrestrict false positive.
    std::string key = "k";
    key += std::to_string(zipf_.sample(rng_));
    if (rng_.uniform() < spec_.kv_read_fraction) {
      return to_bytes("get " + key);
    }
    if (rng_.chance(0.5)) {
      return to_bytes("inc " + key);
    }
    const std::string value(std::max<std::size_t>(spec_.kv_value_bytes, 1),
                            static_cast<char>('a' + rng_.below(26)));
    return to_bytes("set " + key + " " + value);
  }

 private:
  GenSpec spec_;
  sim::Rng rng_;
  ZipfSampler zipf_;
};

}  // namespace

std::unique_ptr<CommandGen> make_generator(const GenSpec& spec,
                                           std::uint64_t seed) {
  switch (spec.kind) {
    case GenSpec::Kind::kSynthetic:
      return std::make_unique<SyntheticGen>(spec.synthetic_bytes);
    case GenSpec::Kind::kKv:
      return std::make_unique<KvGen>(spec, seed);
  }
  return std::make_unique<SyntheticGen>(spec.synthetic_bytes);
}

}  // namespace eesmr::client
