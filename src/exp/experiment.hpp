// Experiment facade: the shared CLI and lifecycle of every bench binary.
//
//   exp::Experiment ex("fig3_eesmr_vs_synchs", "Fig. 3 (§5.7)", argc, argv);
//   exp::Grid grid; grid.axis_of("f", fs);
//   exp::Report& rep = ex.run("main", grid, [&](const exp::RunContext& c) {
//     ...build a ClusterConfig from c, run it...
//     exp::MetricRow row; row.set("mJ_per_block", ...); return row;
//   });
//   rep.print_table();
//   return ex.finish();   // writes BENCH_<name>.json (+ optional CSV)
//
// Shared flags (every bench accepts them):
//   --threads N    worker threads for the run matrix (default: min(8, cores))
//   --smoke        trimmed-down grids/durations for CI smoke runs
//   --seed S       base seed; each run derives its own via sim::derive_seed
//   --json-out P   metrics file path (default: BENCH_<name>.json in cwd)
//   --csv-out P    additionally write flat CSV
//   --no-json      skip the metrics file (stdout only)
//   --prom-out P   Prometheus text exposition of every run's registry,
//                  samples labeled {section, run}
//   --trace-out P  Chrome trace-event JSON of every run's commit-path
//                  event stream (open in Perfetto / chrome://tracing)
//   --trace-requests K
//                  sample K client requests per run and stitch their
//                  submit→commit→reply lifecycle into the trace as
//                  Chrome flow events (needs --trace-out to be visible)
//
// Determinism contract: with a fixed seed, stdout and the JSON/CSV/
// Prometheus/trace files are byte-identical at any --threads value.
// Everything thread- or wall-clock-dependent goes to stderr.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/exp/grid.hpp"
#include "src/exp/metrics.hpp"
#include "src/exp/runner.hpp"

namespace eesmr::exp {

struct Options {
  std::size_t threads = 0;  ///< 0 = default_threads()
  bool smoke = false;
  std::uint64_t seed = 1;
  std::string json_out;     ///< empty = BENCH_<name>.json
  std::string csv_out;      ///< empty = no CSV
  std::string prom_out;     ///< empty = no Prometheus exposition
  std::string trace_out;    ///< empty = no Chrome trace
  std::size_t trace_requests = 0;  ///< sampled requests per run (flows)
  bool write_json = true;
  std::vector<std::string> extra;  ///< unknown args (Experiment rejects them)
};

/// Parse the shared CLI. Unknown arguments land in Options::extra.
/// Throws std::invalid_argument on a malformed value.
Options parse_cli(int argc, char** argv, std::uint64_t default_seed);

class Experiment {
 public:
  /// Parses the CLI, prints the header (name + paper reference) to
  /// stdout and the runner configuration to stderr. `default_seed` is
  /// the per-bench seed used when --seed is absent, so each figure
  /// keeps its historical default randomness.
  Experiment(std::string name, std::string paper_ref, int argc, char** argv,
             std::uint64_t default_seed = 1);

  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] bool smoke() const { return opts_.smoke; }
  [[nodiscard]] std::uint64_t seed() const { return opts_.seed; }
  [[nodiscard]] std::size_t threads() const;

  /// Run one section's grid through the parallel runner; the returned
  /// Report lives until finish() and may be post-processed (derived
  /// columns, extra rows) before printing/serialization.
  Report& run(std::string section, const Grid& grid, const RunFn& fn);

  /// Add an already-assembled section (analytic post-passes).
  Report& add_section(Report report);

  /// Print `text` to stdout and record it in the current section's
  /// notes (it ends up in the JSON, so the expected-shape commentary
  /// travels with the data).
  void note(const std::string& text);

  /// Write BENCH_<name>.json (+ CSV when requested). Returns the
  /// process exit code: 0 on success, 1 when writing failed, 2 when
  /// the command line carried an unknown argument.
  int finish();

 private:
  std::string name_;
  std::string paper_ref_;
  Options opts_;
  /// True (after printing an ERROR per offender) when the command line
  /// carried arguments the shared CLI does not know. No bench takes a
  /// flag of its own, so every one is a typo (--smoek, --thread) that
  /// would otherwise silently change the run's configuration.
  [[nodiscard]] bool report_unknown_args() const;

  std::vector<std::unique_ptr<Report>> sections_;

  /// Per-section observability artifacts (one slot per grid point),
  /// collected only when --prom-out / --trace-out asked for them and
  /// assembled into the output files by finish().
  struct SectionArtifacts {
    std::string section;
    std::vector<RunArtifacts> slots;
  };
  std::vector<SectionArtifacts> artifacts_;
};

}  // namespace eesmr::exp
