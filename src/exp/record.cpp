#include "src/exp/record.hpp"

namespace eesmr::exp {

Json summary_json(const harness::RunSummary& s) {
  Json j = Json::object();
  s.visit([&](const char* key, const char*, obs::MetricKind,
              const auto& value) { j.set(key, value); });
  return j;
}

Json run_result_json(const harness::RunResult& r) {
  Json doc = Json::object();
  doc.set("summary", summary_json(r.summarize()));

  // Per-stream radio breakdown over correct nodes, clients included.
  Json streams = Json::object();
  for (std::size_t s = 0; s < energy::kNumStreams; ++s) {
    const auto stream = static_cast<energy::Stream>(s);
    const energy::StreamStats st = r.stream_totals_all(stream);
    if (st.idle()) continue;
    Json one = Json::object();
    one.set("send_mj", st.send_mj);
    one.set("recv_mj", st.recv_mj);
    one.set("tx", st.transmissions);
    one.set("bytes_sent", st.bytes_sent);
    one.set("bytes_received", st.bytes_received);
    streams.set(energy::stream_name(stream), std::move(one));
  }
  doc.set("streams", std::move(streams));

  Json node_mj = Json::array();
  for (const energy::Meter& m : r.meters) {
    node_mj.push_back(m.total_millijoules());
  }
  doc.set("node_energy_mj", std::move(node_mj));

  if (!r.footprints.empty()) {
    Json fps = Json::array();
    for (const harness::ReplicaFootprint& fp : r.footprints) {
      Json one = Json::object();
      fp.visit([&](const char* key, const char*,
                   const auto& value) { one.set(key, value); },
               /*with_flood_tail=*/false);
      fps.push_back(std::move(one));
    }
    doc.set("footprints", std::move(fps));
  }
  return doc;
}

}  // namespace eesmr::exp
