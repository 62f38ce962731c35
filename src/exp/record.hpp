// Serialization of harness run measurements into exp::Json — the bridge
// between the simulator's RunResult and the structured BENCH_*.json /
// CSV output of the experiment engine.
#pragma once

#include "src/exp/json.hpp"
#include "src/exp/metrics.hpp"
#include "src/harness/metrics.hpp"

namespace eesmr::exp {

/// Flat summary record (harness::RunSummary) as an ordered JSON object.
Json summary_json(const harness::RunSummary& s);

/// Per-stream radio breakdown over correct nodes (clients included):
/// {"proposal": {"send_mj": ..., "recv_mj": ..., "tx": ...,
///  "bytes_sent": ..., "bytes_received": ...}, ...}. Streams with no
/// traffic are omitted.
Json stream_json(const harness::RunResult& r);

/// Full serialized RunResult: {"summary": ..., "streams": ...,
/// "node_energy_mj": [...], "footprints": [...]}. Round-trippable
/// through Json::parse (see tests/exp_test.cpp). Every section is read
/// back out of one obs::Registry snapshot (RunResult::to_registry) — the
/// registry is the single source the record derives from.
Json run_result_json(const harness::RunResult& r);

}  // namespace eesmr::exp
