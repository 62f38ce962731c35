#include "src/exp/experiment.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace eesmr::exp {

namespace {

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  try {
    // stoull would silently wrap "-3" to 2^64-3; digits only.
    if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument(text);
    }
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad value for " + flag + ": '" + text + "'");
  }
}

}  // namespace

Options parse_cli(int argc, char** argv, std::uint64_t default_seed) {
  Options o;
  o.seed = default_seed;
  const auto need_value = [&](int& i, const std::string& flag) {
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    return std::string(argv[++i]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      o.threads = static_cast<std::size_t>(parse_u64(arg, need_value(i, arg)));
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--seed") {
      o.seed = parse_u64(arg, need_value(i, arg));
    } else if (arg == "--json-out") {
      o.json_out = need_value(i, arg);
    } else if (arg == "--csv-out") {
      o.csv_out = need_value(i, arg);
    } else if (arg == "--prom-out") {
      o.prom_out = need_value(i, arg);
    } else if (arg == "--trace-out") {
      o.trace_out = need_value(i, arg);
    } else if (arg == "--trace-requests") {
      o.trace_requests =
          static_cast<std::size_t>(parse_u64(arg, need_value(i, arg)));
    } else if (arg == "--no-json") {
      o.write_json = false;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--threads N] [--smoke] [--seed S]\n"
          "          [--json-out PATH] [--csv-out PATH] [--no-json]\n"
          "          [--prom-out PATH] [--trace-out PATH]\n"
          "          [--trace-requests K]\n",
          argc > 0 ? argv[0] : "bench");
      std::exit(0);
    } else {
      o.extra.push_back(arg);
    }
  }
  return o;
}

Experiment::Experiment(std::string name, std::string paper_ref, int argc,
                       char** argv, std::uint64_t default_seed)
    : name_(std::move(name)), paper_ref_(std::move(paper_ref)) {
  try {
    opts_ = parse_cli(argc, argv, default_seed);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "[%s] ERROR: %s\n", name_.c_str(), e.what());
    std::exit(2);
  }
  std::printf("\n================================================================\n");
  std::printf("%s\n", name_.c_str());
  std::printf("reproduces: %s\n", paper_ref_.c_str());
  if (opts_.smoke) std::printf("mode: smoke (trimmed grids)\n");
  std::printf("================================================================\n");
  // Thread count is execution detail, not data: stderr only, so stdout
  // stays byte-identical across --threads values.
  std::fprintf(stderr, "[%s] threads=%zu seed=%llu\n", name_.c_str(),
               threads(), static_cast<unsigned long long>(opts_.seed));
}

std::size_t Experiment::threads() const {
  return opts_.threads == 0 ? default_threads() : opts_.threads;
}

bool Experiment::report_unknown_args() const {
  for (const std::string& e : opts_.extra) {
    std::fprintf(stderr, "[%s] ERROR: unrecognized argument '%s'\n",
                 name_.c_str(), e.c_str());
  }
  return !opts_.extra.empty();
}

Report& Experiment::run(std::string section, const Grid& grid,
                        const RunFn& fn) {
  // Abort before burning cycles on a configuration nobody asked for.
  if (report_unknown_args()) std::exit(2);

  RunnerOptions ro;
  ro.threads = threads();
  ro.seed = opts_.seed;
  ro.smoke = opts_.smoke;
  ro.trace_requests = opts_.trace_requests;
  SectionArtifacts sa;
  sa.section = section;
  const bool collect = !opts_.prom_out.empty() || !opts_.trace_out.empty();
  if (collect) {
    ro.artifacts = &sa.slots;
    ro.collect_registry = !opts_.prom_out.empty();
    ro.collect_trace = !opts_.trace_out.empty();
  }
  auto report = std::make_unique<Report>();
  report->name = std::move(section);
  report->grid = grid;
  report->rows = run_matrix(grid, fn, ro);
  if (collect) artifacts_.push_back(std::move(sa));
  sections_.push_back(std::move(report));
  return *sections_.back();
}

Report& Experiment::add_section(Report report) {
  sections_.push_back(std::make_unique<Report>(std::move(report)));
  return *sections_.back();
}

void Experiment::note(const std::string& text) {
  std::printf("-- %s\n", text.c_str());
  if (!sections_.empty()) sections_.back()->notes.push_back(text);
}

int Experiment::finish() {
  // run() already aborts on unknown arguments; this catches benches
  // that never ran a grid.
  if (report_unknown_args()) return 2;

  Json doc = Json::object();
  doc.set("bench", name_);
  doc.set("paper_ref", paper_ref_);
  doc.set("seed", opts_.seed);
  doc.set("smoke", Json(opts_.smoke));
  Json sections = Json::array();
  for (const auto& s : sections_) sections.push_back(s->to_json());
  doc.set("sections", std::move(sections));

  int rc = 0;
  if (opts_.write_json) {
    const std::string path =
        opts_.json_out.empty() ? "BENCH_" + name_ + ".json" : opts_.json_out;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << doc.pretty();
    if (!out) {
      std::fprintf(stderr, "[%s] FAILED to write %s\n", name_.c_str(),
                   path.c_str());
      rc = 1;
    } else {
      std::fprintf(stderr, "[%s] metrics -> %s\n", name_.c_str(),
                   path.c_str());
    }
  }
  if (!opts_.csv_out.empty()) {
    std::ofstream csv(opts_.csv_out, std::ios::binary | std::ios::trunc);
    for (const auto& s : sections_) csv << s->to_csv();
    if (!csv) {
      std::fprintf(stderr, "[%s] FAILED to write %s\n", name_.c_str(),
                   opts_.csv_out.c_str());
      rc = 1;
    }
  }
  if (!opts_.prom_out.empty()) {
    // One exposition for the whole bench: each run's registry merged in
    // section-then-grid order under {section, run} labels, so the text
    // is a pure function of the (deterministic) run results.
    obs::Registry merged;
    for (const SectionArtifacts& sa : artifacts_) {
      for (std::size_t i = 0; i < sa.slots.size(); ++i) {
        merged.merge(sa.slots[i].registry,
                     {{"section", sa.section}, {"run", std::to_string(i)}});
      }
    }
    std::ofstream prom(opts_.prom_out, std::ios::binary | std::ios::trunc);
    prom << merged.text();
    if (!prom) {
      std::fprintf(stderr, "[%s] FAILED to write %s\n", name_.c_str(),
                   opts_.prom_out.c_str());
      rc = 1;
    } else {
      std::fprintf(stderr, "[%s] metrics exposition -> %s\n", name_.c_str(),
                   opts_.prom_out.c_str());
    }
  }
  if (!opts_.trace_out.empty()) {
    // One Chrome trace document: each traced run becomes its own group
    // of processes (one per cluster epoch), pids assigned sequentially
    // in section-then-grid order.
    Json events = Json::array();
    int pid = 1;
    for (const SectionArtifacts& sa : artifacts_) {
      for (std::size_t i = 0; i < sa.slots.size(); ++i) {
        const obs::Tracer& tr = sa.slots[i].tracer;
        if (tr.empty()) continue;  // analytic run: no ghost processes
        pid = tr.append_chrome(
            events, pid, sa.section + "/run" + std::to_string(i) + " ");
      }
    }
    std::ofstream trace(opts_.trace_out, std::ios::binary | std::ios::trunc);
    trace << obs::Tracer::chrome_document(std::move(events)).pretty();
    if (!trace) {
      std::fprintf(stderr, "[%s] FAILED to write %s\n", name_.c_str(),
                   opts_.trace_out.c_str());
      rc = 1;
    } else {
      std::fprintf(stderr, "[%s] trace -> %s\n", name_.c_str(),
                   opts_.trace_out.c_str());
    }
  }
  return rc;
}

}  // namespace eesmr::exp
