// Prometheus-style metric registry: labeled counter / gauge / histogram
// families with deterministic text exposition.
//
// This is the uniform metric surface over the simulator's existing
// meters: harness::RunResult registers everything it measures here
// (RunResult::to_registry), and any bench run can expose the whole
// registry as Prometheus text (`--prom-out`). The run-level and
// footprint families are named by the same field walks
// (harness::RunSummary::visit, harness::ReplicaFootprint::visit) that
// write the BENCH_*.json record, so one list of metrics feeds both.
//
// Determinism contract (the same one the experiment engine holds):
// families expose in registration order, samples in registration order,
// labels in declaration order, and all numbers print through
// exp::json_number — so two registries built by the same deterministic
// run render byte-identical text at any --threads N.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace eesmr::obs {

/// Ordered label set: {key, value} pairs in declaration order.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };
const char* kind_name(MetricKind k);

/// Prometheus metric-name rule: [a-zA-Z_:][a-zA-Z0-9_:]*.
[[nodiscard]] bool valid_metric_name(const std::string& name);
/// Prometheus label-name rule: [a-zA-Z_][a-zA-Z0-9_]*.
[[nodiscard]] bool valid_label_name(const std::string& name);
/// Escape a label value for text exposition (backslash, quote, newline).
[[nodiscard]] std::string escape_label_value(const std::string& v);
/// Escape a HELP string (backslash, newline).
[[nodiscard]] std::string escape_help(const std::string& v);

/// Fixed-bucket histogram with an implicit +Inf overflow bucket. Value
/// type: usable standalone (client::LatencyHistogram is backed by one)
/// and as the sample payload of a histogram family.
class Histogram {
 public:
  Histogram() = default;
  /// `bounds` are the inclusive bucket upper bounds (`le`), strictly
  /// ascending; the +Inf bucket is implicit. Throws std::invalid_argument
  /// on unsorted bounds.
  explicit Histogram(std::vector<double> bounds);

  /// The bucket layout the client latency histogram uses (milliseconds).
  static const std::vector<double>& default_latency_buckets_ms();

  void observe(double v);
  /// Elementwise merge; throws std::invalid_argument on a bucket-layout
  /// mismatch (merging histograms of different shape is always a bug).
  void merge(const Histogram& other);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size bounds().size() + 1, the
  /// last entry being the +Inf overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const {
    return counts_;
  }
  /// Cumulative count of observations <= bounds()[i] (the `le` series).
  [[nodiscard]] std::uint64_t cumulative(std::size_t i) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size() + 1 (+Inf last)
  double sum_ = 0;
  std::uint64_t count_ = 0;
};

/// One (labels -> value) child of a family.
struct Sample {
  Labels labels;
  double value = 0;  ///< counter / gauge payload
  Histogram hist;    ///< histogram payload
};

/// A named metric family: all samples share the name, help and kind.
struct Family {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kGauge;
  std::vector<Sample> samples;

  /// Find-or-create the child with exactly these labels (order-sensitive,
  /// matching the deterministic-registration contract).
  Sample& with(const Labels& labels);
  [[nodiscard]] const Sample* find(const Labels& labels) const;
};

class Registry {
 public:
  /// Register a sample holding an already-measured value, overwriting
  /// the sample with the same labels. Throws std::invalid_argument on an
  /// invalid metric/label name, a reserved `le` label, a negative counter
  /// total, or when `name` is already registered with a different kind or
  /// help string.
  void set_counter(const std::string& name, const std::string& help,
                   const Labels& labels, double total);
  void set_gauge(const std::string& name, const std::string& help,
                 const Labels& labels, double v);
  void set_histogram(const std::string& name, const std::string& help,
                     const Labels& labels, const Histogram& h);

  [[nodiscard]] const Family* find(const std::string& name) const;
  /// Value of a counter/gauge sample; throws std::out_of_range when the
  /// family or the exact label set is absent.
  [[nodiscard]] double value(const std::string& name,
                             const Labels& labels = {}) const;

  /// Append every family/sample of `other`, prepending `extra` labels to
  /// each sample (how per-run registries merge into one bench-level
  /// exposition, labeled {section, run}).
  void merge(const Registry& other, const Labels& extra = {});

  // -- exposition --------------------------------------------------------------
  /// Prometheus text exposition format (# HELP / # TYPE / samples, the
  /// `le`-cumulative histogram series with the +Inf bucket, _sum and
  /// _count). Deterministic: a pure function of registration order.
  [[nodiscard]] std::string text() const;

 private:
  Family& family(const std::string& name, const std::string& help,
                 MetricKind kind);
  std::vector<Family> families_;
};

}  // namespace eesmr::obs
