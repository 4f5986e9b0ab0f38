#include "sched/trace.hpp"

#include <algorithm>
#include <sstream>

#include "arch/composition.hpp"
#include "cdfg/cdfg.hpp"
#include "support/assert.hpp"

namespace cgra {

const char* traceEventName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::PhaseBegin: return "phase";
    case TraceEventKind::PhaseEnd: return "phase-end";
    case TraceEventKind::StepBegin: return "step";
    case TraceEventKind::CandidateSelected: return "candidate";
    case TraceEventKind::PlacementRejected: return "reject";
    case TraceEventKind::NodePlaced: return "place";
    case TraceEventKind::CopyInserted: return "copy";
    case TraceEventKind::ConstInserted: return "const";
    case TraceEventKind::WriteFused: return "fuse";
    case TraceEventKind::CBoxSlotAllocated: return "cbox-slot";
    case TraceEventKind::LoopOpened: return "loop-open";
    case TraceEventKind::LoopClosed: return "loop-close";
    case TraceEventKind::BranchPlaced: return "branch";
    case TraceEventKind::Failure: return "failure";
  }
  CGRA_UNREACHABLE("bad TraceEventKind");
}

const char* traceRejectName(TraceReject reject) {
  switch (reject) {
    case TraceReject::None: return "none";
    case TraceReject::Incompatible: return "incompatible";
    case TraceReject::PeBusy: return "pe-busy";
    case TraceReject::CBoxWritePortBusy: return "cbox-write-port-busy";
    case TraceReject::PredUnavailable: return "pred-unavailable";
    case TraceReject::OperandUnroutable: return "operand-unroutable";
  }
  CGRA_UNREACHABLE("bad TraceReject");
}

Trace::Trace(const TraceOptions& opts)
    : capacity_(std::max<std::size_t>(1, opts.capacity)) {
  ring_.reserve(capacity_);
}

void Trace::emit(TraceEvent e) {
  e.seq = static_cast<std::uint32_t>(totalEmitted_);
  ++totalEmitted_;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
    return;
  }
  ring_[head_] = e;
  head_ = (head_ + 1) % capacity_;
}

const TraceEvent& Trace::event(std::size_t i) const {
  CGRA_ASSERT(i < ring_.size());
  return ring_[(head_ + i) % ring_.size()];
}

namespace {

/// Kind-specific args object for the Chrome trace viewer.
json::Object eventArgs(const TraceEvent& e) {
  json::Object args;
  args["cycle"] = static_cast<std::int64_t>(e.cycle);
  if (e.node >= 0) args["node"] = static_cast<std::int64_t>(e.node);
  if (e.pe >= 0) args["pe"] = static_cast<std::int64_t>(e.pe);
  if (e.a != 0) args["a"] = e.a;
  if (e.b != 0) args["b"] = e.b;
  if (e.reject != TraceReject::None)
    args["reject"] = traceRejectName(e.reject);
  if (e.detail.str[0] != '\0') args["detail"] = e.detail.str;
  return args;
}

}  // namespace

json::Value Trace::toChromeJson(const std::string& label) const {
  json::Array events;

  // Process metadata so the viewer names the track after the job.
  json::Object meta;
  meta["name"] = "process_name";
  meta["ph"] = "M";
  meta["pid"] = 0;
  meta["tid"] = 0;
  json::Object metaArgs;
  metaArgs["name"] = label;
  meta["args"] = std::move(metaArgs);
  events.emplace_back(std::move(meta));

  for (std::size_t i = 0; i < size(); ++i) {
    const TraceEvent& e = event(i);
    json::Object o;
    switch (e.kind) {
      case TraceEventKind::PhaseBegin:
      case TraceEventKind::PhaseEnd:
        o["name"] = e.detail.str;
        o["ph"] = e.kind == TraceEventKind::PhaseBegin ? "B" : "E";
        break;
      default:
        o["name"] = traceEventName(e.kind);
        o["ph"] = "i";
        o["s"] = "t";  // thread-scoped instant
        break;
    }
    // Logical time: the event sequence number. Deterministic across runs
    // and thread counts (never wall clock), monotone, and readable as
    // "decision index" in the viewer's microsecond axis.
    o["ts"] = static_cast<std::int64_t>(e.seq);
    o["pid"] = 0;
    o["tid"] = 0;
    o["args"] = eventArgs(e);
    events.emplace_back(std::move(o));
  }

  json::Object top;
  top["traceEvents"] = std::move(events);
  top["displayTimeUnit"] = "ms";
  json::Object other;
  other["label"] = label;
  other["eventsEmitted"] = totalEmitted();
  other["eventsDropped"] = droppedEvents();
  top["otherData"] = std::move(other);
  return top;
}

namespace {

std::string nodeName(std::int32_t node, const Cdfg* g) {
  if (node < 0) return "-";
  std::string out = "node" + std::to_string(node);
  if (g != nullptr && static_cast<NodeId>(node) < g->numNodes()) {
    const Node& n = g->node(static_cast<NodeId>(node));
    if (n.isPWrite()) {
      out += "(pWRITE ";
      out += g->variable(n.var).name;
    } else {
      out += "(";
      out += opName(n.op);
    }
    out += ")";
  }
  return out;
}

}  // namespace

std::string Trace::explain(const Cdfg* graph, const Composition* comp) const {
  std::ostringstream os;
  if (comp != nullptr) os << "composition: " << comp->name() << "\n";
  os << "events: " << totalEmitted();
  if (droppedEvents() > 0)
    os << " (" << droppedEvents() << " oldest dropped by the ring buffer)";
  os << "\n";

  for (std::size_t i = 0; i < size(); ++i) {
    const TraceEvent& e = event(i);
    os << "[t=" << e.cycle << "] ";
    switch (e.kind) {
      case TraceEventKind::PhaseBegin:
        os << "-- phase " << e.detail.str << " --";
        break;
      case TraceEventKind::PhaseEnd:
        os << "-- end " << e.detail.str << " --";
        break;
      case TraceEventKind::StepBegin:
        os << "step: context " << e.cycle << " opened";
        break;
      case TraceEventKind::CandidateSelected:
        os << "candidate " << nodeName(e.node, graph) << " weight "
           << static_cast<double>(e.a) / 1000.0;
        break;
      case TraceEventKind::PlacementRejected:
        os << "  reject " << nodeName(e.node, graph) << " on PE" << e.pe
           << ": " << traceRejectName(e.reject);
        if (e.detail.str[0] != '\0') os << " (" << e.detail.str << ")";
        break;
      case TraceEventKind::NodePlaced:
        os << "place " << nodeName(e.node, graph) << " on PE" << e.pe
           << " for " << e.a << " cycle(s)";
        break;
      case TraceEventKind::CopyInserted:
        os << "copy: MOVE PE" << e.a << " -> PE" << e.pe << " at cycle "
           << e.cycle << " (vreg " << e.b << ", " << e.detail.str << ")";
        break;
      case TraceEventKind::ConstInserted:
        os << "const " << e.a << " materialized on PE" << e.pe
           << " at cycle " << e.cycle;
        break;
      case TraceEventKind::WriteFused:
        os << "fuse: " << nodeName(e.a >= 0 ? static_cast<std::int32_t>(e.a)
                                            : -1,
                                   graph)
           << " folded into producer " << nodeName(e.node, graph) << " on PE"
           << e.pe;
        break;
      case TraceEventKind::CBoxSlotAllocated:
        os << "c-box slot " << e.a << " <- condition " << e.b << " ("
           << e.detail.str << ") at cycle " << e.cycle;
        break;
      case TraceEventKind::LoopOpened:
        os << "loop " << e.a << " opened at context " << e.cycle;
        break;
      case TraceEventKind::LoopClosed:
        os << "loop " << e.a << " closed; back-branch at context " << e.b;
        break;
      case TraceEventKind::BranchPlaced:
        os << "branch at context " << e.cycle << " -> target " << e.a;
        break;
      case TraceEventKind::Failure:
        os << "FAILED: " << e.detail.str;
        if (e.node >= 0)
          os << "; final failing node " << nodeName(e.node, graph)
             << " last rejected: " << traceRejectName(e.reject);
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace cgra
