#include "src/obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/exp/json.hpp"

namespace eesmr::obs {

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "gauge";
}

namespace {

bool name_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool name_rest(char c) { return name_start(c) || (c >= '0' && c <= '9'); }

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  if (!name_start(name[0]) && name[0] != ':') return false;
  for (char c : name)
    if (!name_rest(c) && c != ':') return false;
  return true;
}

bool valid_label_name(const std::string& name) {
  if (name.empty() || !name_start(name[0])) return false;
  return std::all_of(name.begin(), name.end(), name_rest);
}

std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string escape_help(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i - 1] < bounds_[i]))
      throw std::invalid_argument("obs: histogram bounds must be ascending");
  counts_.assign(bounds_.size() + 1, 0);
}

const std::vector<double>& Histogram::default_latency_buckets_ms() {
  // Roughly-exponential layout spanning one hop delay to a stalled view:
  // fine-grained below 100ms where the commit-latency benches live.
  static const std::vector<double> kBuckets = {
      0.5,  1,    2,    5,    10,    20,    50,    100,    200,
      500,  1000, 2000, 5000, 10000, 30000, 60000, 120000,
  };
  return kBuckets;
}

void Histogram::observe(double v) {
  if (counts_.empty()) counts_.assign(bounds_.size() + 1, 0);
  // First bucket whose upper bound admits v; the +Inf bucket otherwise.
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++counts_[i];
  sum_ += v;
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0 && other.bounds_.empty()) return;
  if (count_ == 0 && bounds_.empty() && counts_.empty()) {
    *this = other;
    return;
  }
  if (bounds_ != other.bounds_)
    throw std::invalid_argument("obs: merging histograms of different shape");
  if (counts_.empty()) counts_.assign(bounds_.size() + 1, 0);
  for (std::size_t i = 0; i < counts_.size() && i < other.counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  sum_ += other.sum_;
  count_ += other.count_;
}

std::uint64_t Histogram::cumulative(std::size_t i) const {
  std::uint64_t c = 0;
  for (std::size_t j = 0; j <= i && j < counts_.size(); ++j) c += counts_[j];
  return c;
}

// ---------------------------------------------------------------------------
// Family

Sample& Family::with(const Labels& labels) {
  for (auto& s : samples)
    if (s.labels == labels) return s;
  samples.push_back(Sample{labels, 0, Histogram{}});
  return samples.back();
}

const Sample* Family::find(const Labels& labels) const {
  for (const auto& s : samples)
    if (s.labels == labels) return &s;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Registry

Family& Registry::family(const std::string& name, const std::string& help,
                         MetricKind kind) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("obs: invalid metric name '" + name + "'");
  for (auto& f : families_) {
    if (f.name != name) continue;
    if (f.kind != kind)
      throw std::invalid_argument("obs: metric '" + name +
                                  "' re-registered with a different kind");
    if (f.help != help)
      throw std::invalid_argument("obs: metric '" + name +
                                  "' re-registered with different help");
    return f;
  }
  families_.push_back(Family{name, help, kind, {}});
  return families_.back();
}

namespace {
void check_labels(const Labels& labels) {
  for (const auto& [k, v] : labels) {
    (void)v;
    if (!valid_label_name(k))
      throw std::invalid_argument("obs: invalid label name '" + k + "'");
    if (k == "le")
      throw std::invalid_argument("obs: label 'le' is reserved for buckets");
  }
}
}  // namespace

void Registry::set_counter(const std::string& name, const std::string& help,
                           const Labels& labels, double total) {
  if (total < 0)
    throw std::invalid_argument("obs: counter '" + name + "' must be >= 0");
  check_labels(labels);
  family(name, help, MetricKind::kCounter).with(labels).value = total;
}

void Registry::set_gauge(const std::string& name, const std::string& help,
                         const Labels& labels, double v) {
  check_labels(labels);
  family(name, help, MetricKind::kGauge).with(labels).value = v;
}

void Registry::set_histogram(const std::string& name, const std::string& help,
                             const Labels& labels, const Histogram& h) {
  check_labels(labels);
  family(name, help, MetricKind::kHistogram).with(labels).hist = h;
}

const Family* Registry::find(const std::string& name) const {
  for (const auto& f : families_)
    if (f.name == name) return &f;
  return nullptr;
}

double Registry::value(const std::string& name, const Labels& labels) const {
  const Family* f = find(name);
  if (!f) throw std::out_of_range("obs: no metric family '" + name + "'");
  const Sample* s = f->find(labels);
  if (!s)
    throw std::out_of_range("obs: no sample with given labels in '" + name +
                            "'");
  return s->value;
}

void Registry::merge(const Registry& other, const Labels& extra) {
  check_labels(extra);
  for (const auto& of : other.families_) {
    Family& f = family(of.name, of.help, of.kind);
    for (const auto& os : of.samples) {
      Labels labels = extra;
      labels.insert(labels.end(), os.labels.begin(), os.labels.end());
      Sample& s = f.with(labels);
      s.value = os.value;
      s.hist = os.hist;
    }
  }
}

// ---------------------------------------------------------------------------
// Text exposition

namespace {

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += "\"";
  }
  out += "}";
  return out;
}

std::string render_labels_with(const Labels& labels, const std::string& key,
                               const std::string& value) {
  Labels all = labels;
  all.emplace_back(key, value);
  return render_labels(all);
}

}  // namespace

std::string Registry::text() const {
  std::string out;
  for (const auto& f : families_) {
    out += "# HELP " + f.name + " " + escape_help(f.help) + "\n";
    out += "# TYPE " + f.name + " ";
    out += kind_name(f.kind);
    out += "\n";
    for (const auto& s : f.samples) {
      if (f.kind == MetricKind::kHistogram) {
        const Histogram& h = s.hist;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          out += f.name + "_bucket" +
                 render_labels_with(s.labels, "le",
                                    exp::json_number(h.bounds()[i])) +
                 " " + std::to_string(h.cumulative(i)) + "\n";
        }
        out += f.name + "_bucket" +
               render_labels_with(s.labels, "le", "+Inf") + " " +
               std::to_string(h.count()) + "\n";
        out += f.name + "_sum" + render_labels(s.labels) + " " +
               exp::json_number(h.sum()) + "\n";
        out += f.name + "_count" + render_labels(s.labels) + " " +
               std::to_string(h.count()) + "\n";
      } else {
        out += f.name + render_labels(s.labels) + " " +
               exp::json_number(s.value) + "\n";
      }
    }
  }
  return out;
}

}  // namespace eesmr::obs
