#include "artifact/artifact.hpp"

#include "ctx/serialize.hpp"
#include "sched/validate.hpp"

namespace cgra::artifact {

namespace {

using json::layout;
using json::Range;
using json::upTo;

// Each record's layout, stated once for json::FieldEncoder (toJson) and
// json::FieldDecoder (fromJson). Keys are visited in ascending byte order,
// so a document is canonical as built and needs no sort pass (tests:
// Artifact.BundledArtifactsAreBuiltCanonical and
// Artifact.BundledArtifactBytesMatchGolden).

constexpr auto kOperandSource = layout<4>([](auto& c, auto& s) {
  c.field("imm", s.imm);
  c.field("kind", s.kind, upTo(OperandSource::Kind::Imm));
  c.field("srcPE", s.srcPE);
  c.field("vreg", s.vreg);
});

constexpr auto kPred = layout<2>([](auto& c, auto& p) {
  c.field("polarity", p.polarity);
  c.field("slot", p.slot);
});

constexpr auto kOp = layout<11>([](auto& c, auto& op) {
  c.field("destVreg", op.destVreg);
  c.field("duration", op.duration);
  c.field("emitsStatus", op.emitsStatus);
  c.field("label", op.label);
  // kNoNode (the inserted-MOVE/CONST marker) is 0xffffffff, in range.
  c.field("node", op.node);
  c.field("op", op.op, Range{0, kNumOps - 1});
  c.field("pe", op.pe);
  c.optional("pred", op.pred, kPred);
  c.array("src", kOperandSource, op.src);
  c.field("start", op.start);
  c.field("writesDest", op.writesDest);
});

constexpr auto kCBoxInput = layout<3>([](auto& c, auto& in) {
  c.field("kind", in.kind, upTo(CBoxOp::Input::Kind::Stored));
  c.field("polarity", in.polarity);
  c.field("slot", in.slot);
});

constexpr auto kCBoxOp = layout<5>([](auto& c, auto& op) {
  c.field("cond", op.cond);
  c.array("inputs", kCBoxInput, op.inputs);
  c.field("logic", op.logic, upTo(CBoxOp::Logic::Or));
  c.field("time", op.time);
  c.field("writeSlot", op.writeSlot);
});

constexpr auto kBranch = layout<5>([](auto& c, auto& b) {
  c.field("conditional", b.conditional);
  c.field("loop", b.loop);
  c.field("pred", b.pred, kPred);
  c.field("target", b.target);
  c.field("time", b.time);
});

constexpr auto kLoop = layout<3>([](auto& c, auto& l) {
  c.field("end", l.end);
  c.field("loop", l.loop);
  c.field("start", l.start);
});

/// Every field of sched/schedule.hpp but the context budget. A decoded
/// schedule passes layer 1 (bounds) of verifySchedule.
constexpr auto kSchedule = layout<10>([](auto& c, auto& s) {
  const auto binding = liveBindingLayout("vreg");
  c.array("branches", kBranch, s.branches);
  c.array("cboxOps", kCBoxOp, s.cboxOps);
  c.field("cboxSlotsUsed", s.cboxSlotsUsed);
  c.field("length", s.length);
  c.array("liveIns", binding, s.liveIns);
  c.array("liveOuts", binding, s.liveOuts);
  c.array("loops", kLoop, s.loops);
  c.array("ops", kOp, s.ops);
  c.array("varHomes", binding, s.varHomes);
  c.array("vregsPerPE", json::Scalar{}, s.vregsPerPE);
  c.check([&s] { requireValidSchedule(s, "artifact: schedule"); });
});

/// A FailureReason as its name.
struct ReasonName {
  static const char* encode(FailureReason reason) {
    return failureReasonName(reason);
  }
  static FailureReason decode(const std::string& name) {
    for (std::size_t i = 0; i < kNumFailureReasons; ++i)
      if (name == failureReasonName(static_cast<FailureReason>(i)))
        return static_cast<FailureReason>(i);
    throw Error("artifact: unknown failure reason '" + name + "'");
  }
};

constexpr auto kFailure = layout<3>([](auto& c, auto& f) {
  c.field("message", f.message);
  c.field("node", f.node);
  c.field("reason", f.reason, ReasonName{});
});

/// The `"stats"` block: five facts the schedule and the metrics already
/// hold, kept in the format for its readers and checked on load.
constexpr auto kStats = layout<5>([](auto& c, auto& a) {
  c.expect("cboxSlotsUsed", a.schedule.cboxSlotsUsed);
  c.expect("constsInserted", a.metrics.constsInserted);
  c.expect("contextsUsed", a.schedule.length);
  c.expect("copiesInserted", a.metrics.copiesInserted);
  c.expect("fusedWrites", a.metrics.fusedWrites);
});

}  // namespace

template <class Coder, class Artifact>
void artifactFields(Coder& c, Artifact& a) {
  c.lookahead("ok", a.ok);  // which keys follow depends on it
  c.optional("contexts", a.contexts, kContextImagesLayout);
  if (a.ok)
    c.field("fingerprint", a.fingerprint, json::Decimal{});  // 64-bit safe
  else
    c.field("failure", a.failure, kFailure);
  c.expect("format", kArtifactFormat);
  c.field("key", a.key);
  c.field("metrics", a.metrics, kCountersLayout);
  c.field("ok", a.ok);
  if (a.ok) {
    c.field("schedule", a.schedule, kSchedule);
    c.check([&a] {
      if (a.schedule.fingerprint() != a.fingerprint)
        throw Error("artifact: fingerprint mismatch (corrupt or tampered "
                    "schedule payload)");
    });
  }
  c.field("stats", a, kStats);
}

template void artifactFields(json::FieldEncoder&, const ScheduleArtifact&);
template void artifactFields(json::FieldDecoder&, ScheduleArtifact&);

json::Value scheduleToJson(const Schedule& sched) {
  return json::encode(kSchedule, sched);
}

Schedule scheduleFromJson(const json::Value& doc) {
  Schedule sched;
  json::decode(kSchedule, doc, "artifact", sched);
  return sched;
}

json::Value ScheduleArtifact::toJson() const {
  return json::encode(kArtifactLayout, *this);
}

ScheduleArtifact ScheduleArtifact::fromJson(const json::Value& doc) {
  ScheduleArtifact a;
  json::decode(kArtifactLayout, doc, "artifact", a);
  return a;
}

ScheduleArtifact ScheduleArtifact::fromReport(std::string key,
                                              const ScheduleReport& report) {
  ScheduleArtifact a;
  static_cast<ScheduleReport&>(a) = report;
  a.key = std::move(key);
  a.metrics.clearTimings();
  a.trace = nullptr;
  if (a.ok) a.fingerprint = a.schedule.fingerprint();
  return a;
}

}  // namespace cgra::artifact
