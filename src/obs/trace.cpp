#include "src/obs/trace.hpp"

#include <string>

namespace eesmr::obs {

std::uint32_t Tracer::open_epoch(const std::string& label) {
  // Epoch 0 is the implicit default; claim it on the first explicit open
  // instead of leaving an empty ghost process in the trace.
  if (!epoch0_claimed_) {
    epoch0_claimed_ = true;
    epoch_labels_[0] = label;
    return 0;
  }
  epoch_labels_.push_back(label);
  epoch_ = static_cast<std::uint32_t>(epoch_labels_.size() - 1);
  return epoch_;
}

void Tracer::instant(sim::SimTime ts, std::int64_t node, const char* cat,
                     std::string name, Args args) {
  events_.push_back(TraceEvent{ts, node, epoch_, 'i', 0, 0, std::move(name),
                               cat, std::move(args)});
}

void Tracer::async_begin(sim::SimTime ts, std::int64_t node, const char* cat,
                         std::string name, std::uint64_t id, Args args) {
  events_.push_back(TraceEvent{ts, node, epoch_, 'b', id, 0, std::move(name),
                               cat, std::move(args)});
}

void Tracer::async_end(sim::SimTime ts, std::int64_t node, const char* cat,
                       std::string name, std::uint64_t id, Args args) {
  events_.push_back(TraceEvent{ts, node, epoch_, 'e', id, 0, std::move(name),
                               cat, std::move(args)});
}

void Tracer::complete(sim::SimTime ts, std::int64_t node, const char* cat,
                      std::string name, sim::SimTime dur, Args args) {
  events_.push_back(TraceEvent{ts, node, epoch_, 'X', 0, dur, std::move(name),
                               cat, std::move(args)});
}

void Tracer::counter(sim::SimTime ts, std::int64_t node, const char* cat,
                     std::string name, Args args) {
  events_.push_back(TraceEvent{ts, node, epoch_, 'C', 0, 0, std::move(name),
                               cat, std::move(args)});
}

void Tracer::flow_begin(sim::SimTime ts, std::int64_t node, const char* cat,
                        std::string name, std::uint64_t id, Args args) {
  events_.push_back(TraceEvent{ts, node, epoch_, 's', id, 0, std::move(name),
                               cat, std::move(args)});
}

void Tracer::flow_step(sim::SimTime ts, std::int64_t node, const char* cat,
                       std::string name, std::uint64_t id, Args args) {
  events_.push_back(TraceEvent{ts, node, epoch_, 't', id, 0, std::move(name),
                               cat, std::move(args)});
}

void Tracer::flow_end(sim::SimTime ts, std::int64_t node, const char* cat,
                      std::string name, std::uint64_t id, Args args) {
  events_.push_back(TraceEvent{ts, node, epoch_, 'f', id, 0, std::move(name),
                               cat, std::move(args)});
}

void Tracer::clear() {
  events_.clear();
  epoch_labels_.assign(1, "");
  epoch_ = 0;
  epoch0_claimed_ = false;
}

int Tracer::append_chrome(exp::Json& trace_events, int first_pid,
                          const std::string& prefix) const {
  for (std::size_t e = 0; e < epoch_labels_.size(); ++e) {
    exp::Json meta = exp::Json::object();
    meta.set("name", "process_name");
    meta.set("ph", "M");
    meta.set("pid", first_pid + static_cast<int>(e));
    exp::Json margs = exp::Json::object();
    margs.set("name", prefix + epoch_labels_[e]);
    meta.set("args", std::move(margs));
    trace_events.push_back(std::move(meta));
  }
  for (const auto& ev : events_) {
    exp::Json j = exp::Json::object();
    j.set("name", ev.name);
    j.set("cat", ev.cat);
    j.set("ph", std::string(1, ev.ph));
    j.set("ts", static_cast<long long>(ev.ts));
    j.set("pid", first_pid + static_cast<int>(ev.epoch));
    j.set("tid", static_cast<long long>(ev.node < 0 ? 0 : ev.node));
    if (ev.ph == 'i') {
      j.set("s", "t");  // instant scope: thread
    } else if (ev.ph == 'X') {
      j.set("dur", static_cast<long long>(ev.dur));
    } else if (ev.ph == 's' || ev.ph == 't' || ev.ph == 'f') {
      j.set("id", static_cast<unsigned long long>(ev.id));
      // Bind flow termination to the enclosing slice, not the next one.
      if (ev.ph == 'f') j.set("bp", "e");
    } else if (ev.ph != 'C') {
      // Async spans are per node, and every node of an epoch shares its
      // pid: scope the id by node so Chrome pairs each node's begin with
      // its own end, not with another node's span of the same height.
      j.set("id", std::to_string(ev.node) + "." + std::to_string(ev.id));
    }
    if (!ev.args.empty()) {
      exp::Json args = exp::Json::object();
      for (const auto& [k, v] : ev.args) args.set(k, v);
      j.set("args", std::move(args));
    }
    trace_events.push_back(std::move(j));
  }
  return first_pid + static_cast<int>(epoch_labels_.size());
}

exp::Json Tracer::chrome_document(exp::Json trace_events) {
  exp::Json doc = exp::Json::object();
  doc.set("traceEvents", std::move(trace_events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

}  // namespace eesmr::obs
