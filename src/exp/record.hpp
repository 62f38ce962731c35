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

/// Full serialized RunResult: {"summary": ..., "streams": ...,
/// "node_energy_mj": [...], "footprints": [...]}. Round-trippable
/// through Json::parse (see tests/exp_test.cpp). The summary and
/// footprint keys come from the same field walks (RunSummary::visit,
/// ReplicaFootprint::visit) that name RunResult::to_registry's families,
/// so the record and the registry list one set of metrics.
Json run_result_json(const harness::RunResult& r);

}  // namespace eesmr::exp
