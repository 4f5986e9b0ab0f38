#include "artifact/artifact.hpp"

#include <cstdint>

#include "ctx/serialize.hpp"
#include "sched/validate.hpp"

namespace cgra::artifact {

namespace {

// -- small field helpers ----------------------------------------------------

std::int64_t getInt(const json::Object& o, const char* key) {
  const json::Value* v = o.find(key);
  if (v == nullptr || !v->isInt())
    throw Error(std::string("artifact: missing/non-integer field '") + key +
                "'");
  return v->asInt();
}

unsigned getUnsigned(const json::Object& o, const char* key) {
  const std::int64_t v = getInt(o, key);
  if (v < 0 || v > 0xffffffffll)
    throw Error(std::string("artifact: field '") + key + "' out of range");
  return static_cast<unsigned>(v);
}

bool getBool(const json::Object& o, const char* key) {
  const json::Value* v = o.find(key);
  if (v == nullptr || !v->isBool())
    throw Error(std::string("artifact: missing/non-bool field '") + key +
                "'");
  return v->asBool();
}

const std::string& getString(const json::Object& o, const char* key) {
  const json::Value* v = o.find(key);
  if (v == nullptr || !v->isString())
    throw Error(std::string("artifact: missing/non-string field '") + key +
                "'");
  return v->asString();
}

const json::Array& getArray(const json::Object& o, const char* key) {
  const json::Value* v = o.find(key);
  if (v == nullptr || !v->isArray())
    throw Error(std::string("artifact: missing/non-array field '") + key +
                "'");
  return v->asArray();
}

// -- schedule pieces --------------------------------------------------------
//
// Every builder appends its keys in ascending byte order, the order
// json::sortKeys would produce, so a document is canonical as built and
// needs no sort pass (tests: Artifact.BundledArtifactsAreBuiltCanonical and
// Artifact.BundledArtifactBytesMatchGolden).

/// Appends a fresh object to `arr` with room for `keys` entries.
json::Object& appendObject(json::Array& arr, std::size_t keys) {
  json::Object& o = arr.emplace_back(json::Object()).asObject();
  o.reserve(keys);
  return o;
}

void appendOperandSource(json::Array& arr, const OperandSource& s) {
  json::Object& o = appendObject(arr, 4);
  o.append("imm") = static_cast<std::int64_t>(s.imm);
  o.append("kind") = static_cast<std::int64_t>(s.kind);
  o.append("srcPE") = static_cast<std::int64_t>(s.srcPE);
  o.append("vreg") = static_cast<std::int64_t>(s.vreg);
}

OperandSource operandSourceFromJson(const json::Value& v) {
  const json::Object& o = v.asObject();
  OperandSource s;
  const std::int64_t kind = getInt(o, "kind");
  if (kind < 0 || kind > static_cast<std::int64_t>(OperandSource::Kind::Imm))
    throw Error("artifact: operand source kind out of range");
  s.kind = static_cast<OperandSource::Kind>(kind);
  s.srcPE = static_cast<PEId>(getUnsigned(o, "srcPE"));
  s.vreg = getUnsigned(o, "vreg");
  const std::int64_t imm = getInt(o, "imm");
  if (imm < INT32_MIN || imm > INT32_MAX)
    throw Error("artifact: operand immediate out of range");
  s.imm = static_cast<std::int32_t>(imm);
  return s;
}

json::Value predToJson(const PredRef& p) {
  json::Object o;
  o.reserve(2);
  o.append("polarity") = p.polarity;
  o.append("slot") = static_cast<std::int64_t>(p.slot);
  return o;
}

PredRef predFromJson(const json::Value& v) {
  const json::Object& o = v.asObject();
  PredRef p;
  p.slot = getUnsigned(o, "slot");
  p.polarity = getBool(o, "polarity");
  return p;
}

json::Value bindingsToJson(const std::vector<LiveBinding>& bindings) {
  json::Array arr;
  arr.reserve(bindings.size());
  for (const LiveBinding& b : bindings) {
    json::Object& o = appendObject(arr, 3);
    o.append("pe") = static_cast<std::int64_t>(b.pe);
    o.append("var") = static_cast<std::int64_t>(b.var);
    o.append("vreg") = static_cast<std::int64_t>(b.vreg);
  }
  return arr;
}

std::vector<LiveBinding> bindingsFromJson(const json::Array& arr) {
  std::vector<LiveBinding> out;
  out.reserve(arr.size());
  for (const json::Value& v : arr) {
    const json::Object& o = v.asObject();
    LiveBinding b;
    b.var = static_cast<VarId>(getUnsigned(o, "var"));
    b.pe = static_cast<PEId>(getUnsigned(o, "pe"));
    b.vreg = getUnsigned(o, "vreg");
    out.push_back(b);
  }
  return out;
}

}  // namespace

json::Value scheduleToJson(const Schedule& sched) {
  json::Object doc;
  doc.reserve(10);

  json::Array branches;
  branches.reserve(sched.branches.size());
  for (const BranchOp& b : sched.branches) {
    json::Object& o = appendObject(branches, 5);
    o.append("conditional") = b.conditional;
    o.append("loop") = static_cast<std::int64_t>(b.loop);
    o.append("pred") = predToJson(b.pred);
    o.append("target") = static_cast<std::int64_t>(b.target);
    o.append("time") = static_cast<std::int64_t>(b.time);
  }
  doc.append("branches") = std::move(branches);

  json::Array cbox;
  cbox.reserve(sched.cboxOps.size());
  for (const CBoxOp& c : sched.cboxOps) {
    json::Object& o = appendObject(cbox, 5);
    o.append("cond") = static_cast<std::int64_t>(c.cond);
    json::Array inputs;
    inputs.reserve(c.inputs.size());
    for (const CBoxOp::Input& in : c.inputs) {
      json::Object& i = appendObject(inputs, 3);
      i.append("kind") = static_cast<std::int64_t>(in.kind);
      i.append("polarity") = in.polarity;
      i.append("slot") = static_cast<std::int64_t>(in.slot);
    }
    o.append("inputs") = std::move(inputs);
    o.append("logic") = static_cast<std::int64_t>(c.logic);
    o.append("time") = static_cast<std::int64_t>(c.time);
    o.append("writeSlot") = static_cast<std::int64_t>(c.writeSlot);
  }
  doc.append("cboxOps") = std::move(cbox);
  doc.append("cboxSlotsUsed") = static_cast<std::int64_t>(sched.cboxSlotsUsed);
  doc.append("length") = static_cast<std::int64_t>(sched.length);
  doc.append("liveIns") = bindingsToJson(sched.liveIns);
  doc.append("liveOuts") = bindingsToJson(sched.liveOuts);

  json::Array loops;
  loops.reserve(sched.loops.size());
  for (const LoopInterval& l : sched.loops) {
    json::Object& o = appendObject(loops, 3);
    o.append("end") = static_cast<std::int64_t>(l.end);
    o.append("loop") = static_cast<std::int64_t>(l.loop);
    o.append("start") = static_cast<std::int64_t>(l.start);
  }
  doc.append("loops") = std::move(loops);

  json::Array ops;
  ops.reserve(sched.ops.size());
  for (const ScheduledOp& op : sched.ops) {
    json::Object& o = appendObject(ops, 11);
    o.append("destVreg") = static_cast<std::int64_t>(op.destVreg);
    o.append("duration") = static_cast<std::int64_t>(op.duration);
    o.append("emitsStatus") = op.emitsStatus;
    o.append("label") = op.label;
    // kNoNode (the inserted-MOVE/CONST marker) is 0xffffffff; the raw
    // uint32 value round-trips through int64 unchanged.
    o.append("node") = static_cast<std::int64_t>(op.node);
    o.append("op") = static_cast<std::int64_t>(op.op);
    o.append("pe") = static_cast<std::int64_t>(op.pe);
    if (op.pred) o.append("pred") = predToJson(*op.pred);
    json::Array src;
    src.reserve(op.src.size());
    for (const OperandSource& s : op.src) appendOperandSource(src, s);
    o.append("src") = std::move(src);
    o.append("start") = static_cast<std::int64_t>(op.start);
    o.append("writesDest") = op.writesDest;
  }
  doc.append("ops") = std::move(ops);
  doc.append("varHomes") = bindingsToJson(sched.varHomes);

  json::Array vregs;
  vregs.reserve(sched.vregsPerPE.size());
  for (unsigned v : sched.vregsPerPE)
    vregs.emplace_back(static_cast<std::int64_t>(v));
  doc.append("vregsPerPE") = std::move(vregs);
  return doc;
}

Schedule scheduleFromJson(const json::Value& docValue) {
  if (!docValue.isObject()) throw Error("artifact: schedule is not an object");
  const json::Object& doc = docValue.asObject();
  Schedule sched;
  sched.length = getUnsigned(doc, "length");
  sched.cboxSlotsUsed = getUnsigned(doc, "cboxSlotsUsed");

  for (const json::Value& v : getArray(doc, "ops")) {
    const json::Object& o = v.asObject();
    ScheduledOp op;
    op.node = static_cast<NodeId>(getUnsigned(o, "node"));
    const std::int64_t opcode = getInt(o, "op");
    if (opcode < 0 || opcode >= static_cast<std::int64_t>(kNumOps))
      throw Error("artifact: opcode out of range");
    op.op = static_cast<Op>(opcode);
    op.pe = static_cast<PEId>(getUnsigned(o, "pe"));
    op.start = getUnsigned(o, "start");
    op.duration = getUnsigned(o, "duration");
    const json::Array& src = getArray(o, "src");
    if (src.size() != op.src.size())
      throw Error("artifact: op must carry exactly 3 operand sources");
    for (std::size_t i = 0; i < src.size(); ++i)
      op.src[i] = operandSourceFromJson(src[i]);
    op.writesDest = getBool(o, "writesDest");
    op.destVreg = getUnsigned(o, "destVreg");
    if (const json::Value* pred = o.find("pred"); pred != nullptr)
      op.pred = predFromJson(*pred);
    op.emitsStatus = getBool(o, "emitsStatus");
    op.label = getString(o, "label");
    sched.ops.push_back(std::move(op));
  }

  for (const json::Value& v : getArray(doc, "cboxOps")) {
    const json::Object& o = v.asObject();
    CBoxOp c;
    c.time = getUnsigned(o, "time");
    for (const json::Value& iv : getArray(o, "inputs")) {
      const json::Object& io = iv.asObject();
      CBoxOp::Input in;
      const std::int64_t kind = getInt(io, "kind");
      if (kind < 0 ||
          kind > static_cast<std::int64_t>(CBoxOp::Input::Kind::Stored))
        throw Error("artifact: C-Box input kind out of range");
      in.kind = static_cast<CBoxOp::Input::Kind>(kind);
      in.slot = getUnsigned(io, "slot");
      in.polarity = getBool(io, "polarity");
      c.inputs.push_back(in);
    }
    const std::int64_t logic = getInt(o, "logic");
    if (logic < 0 || logic > static_cast<std::int64_t>(CBoxOp::Logic::Or))
      throw Error("artifact: C-Box logic out of range");
    c.logic = static_cast<CBoxOp::Logic>(logic);
    c.writeSlot = getUnsigned(o, "writeSlot");
    c.cond = static_cast<CondId>(getUnsigned(o, "cond"));
    sched.cboxOps.push_back(std::move(c));
  }

  for (const json::Value& v : getArray(doc, "branches")) {
    const json::Object& o = v.asObject();
    BranchOp b;
    b.time = getUnsigned(o, "time");
    b.target = getUnsigned(o, "target");
    b.conditional = getBool(o, "conditional");
    const json::Value* pred = o.find("pred");
    if (pred == nullptr) throw Error("artifact: branch missing pred");
    b.pred = predFromJson(*pred);
    b.loop = static_cast<LoopId>(getUnsigned(o, "loop"));
    sched.branches.push_back(b);
  }

  for (const json::Value& v : getArray(doc, "loops")) {
    const json::Object& o = v.asObject();
    LoopInterval l;
    l.loop = static_cast<LoopId>(getUnsigned(o, "loop"));
    l.start = getUnsigned(o, "start");
    l.end = getUnsigned(o, "end");
    sched.loops.push_back(l);
  }

  sched.liveIns = bindingsFromJson(getArray(doc, "liveIns"));
  sched.liveOuts = bindingsFromJson(getArray(doc, "liveOuts"));
  sched.varHomes = bindingsFromJson(getArray(doc, "varHomes"));
  for (const json::Value& v : getArray(doc, "vregsPerPE")) {
    if (!v.isInt() || v.asInt() < 0)
      throw Error("artifact: vregsPerPE entry out of range");
    sched.vregsPerPE.push_back(static_cast<unsigned>(v.asInt()));
  }
  requireValidSchedule(sched, "artifact: schedule");
  return sched;
}

namespace {

/// The `"stats"` block: five facts the schedule and the metrics already
/// hold, kept in the format for its readers and checked on load.
json::Object statsToJson(const Schedule& s, const SchedulerMetrics& m) {
  json::Object o;
  o.reserve(5);
  o.append("cboxSlotsUsed") = static_cast<std::int64_t>(s.cboxSlotsUsed);
  o.append("constsInserted") = static_cast<std::int64_t>(m.constsInserted);
  o.append("contextsUsed") = static_cast<std::int64_t>(s.length);
  o.append("copiesInserted") = static_cast<std::int64_t>(m.copiesInserted);
  o.append("fusedWrites") = static_cast<std::int64_t>(m.fusedWrites);
  return o;
}

SchedulerMetrics metricsFromJson(const json::Value& v) {
  const json::Object& o = v.asObject();
  SchedulerMetrics m;
  auto u64 = [&o](const char* key) {
    return static_cast<std::uint64_t>(getInt(o, key));
  };
  m.nodesScheduled = u64("nodesScheduled");
  m.copiesInserted = u64("copiesInserted");
  m.constsInserted = u64("constsInserted");
  m.fusedWrites = u64("fusedWrites");
  m.cboxOps = u64("cboxOps");
  m.branches = u64("branches");
  m.steps = u64("steps");
  m.candidateIterations = u64("candidateIterations");
  m.placementAttempts = u64("placementAttempts");
  m.probeRejections = u64("probeRejections");
  m.runs = u64("runs");
  return m;
}

}  // namespace

json::Value ScheduleArtifact::toJson() const {
  // Keys in ascending order, like every builder above.
  json::Object doc;
  doc.reserve(8);
  if (contexts) doc.append("contexts") = contextImagesToJson(*contexts);
  if (ok) {
    doc.append("fingerprint") = std::to_string(fingerprint);  // 64-bit safe
  } else {
    json::Object f;
    f.reserve(3);
    f.append("message") = failure.message;
    f.append("node") = static_cast<std::int64_t>(failure.node);
    f.append("reason") = failureReasonName(failure.reason);
    doc.append("failure") = std::move(f);
  }
  doc.append("format") = kArtifactFormat;
  doc.append("key") = key;
  doc.append("metrics") = metrics.toJson(/*includeTimings=*/false);
  doc.append("ok") = ok;
  if (ok) doc.append("schedule") = scheduleToJson(schedule);
  doc.append("stats") = statsToJson(schedule, metrics);
  return doc;
}

ScheduleArtifact ScheduleArtifact::fromJson(const json::Value& docValue) {
  if (!docValue.isObject()) throw Error("artifact: document is not an object");
  const json::Object& doc = docValue.asObject();
  if (getString(doc, "format") != kArtifactFormat)
    throw Error("artifact: unknown format tag '" + getString(doc, "format") +
                "'");
  ScheduleArtifact a;
  a.key = getString(doc, "key");
  a.ok = getBool(doc, "ok");
  const json::Value* metrics = doc.find("metrics");
  if (metrics == nullptr) throw Error("artifact: missing metrics");
  a.metrics = metricsFromJson(*metrics);
  if (a.ok) {
    const json::Value* sched = doc.find("schedule");
    if (sched == nullptr) throw Error("artifact: missing schedule");
    a.schedule = scheduleFromJson(*sched);
    const std::string& fp = getString(doc, "fingerprint");
    a.fingerprint = std::stoull(fp);
    if (a.schedule.fingerprint() != a.fingerprint)
      throw Error("artifact: fingerprint mismatch (corrupt or tampered "
                  "schedule payload)");
  } else {
    const json::Value* failure = doc.find("failure");
    if (failure == nullptr) throw Error("artifact: missing failure");
    const json::Object& f = failure->asObject();
    const std::string& reason = getString(f, "reason");
    a.failure.reason = FailureReason::Internal;
    for (std::size_t i = 0; i < kNumFailureReasons; ++i)
      if (reason == failureReasonName(static_cast<FailureReason>(i)))
        a.failure.reason = static_cast<FailureReason>(i);
    a.failure.message = getString(f, "message");
    a.failure.node = static_cast<NodeId>(getUnsigned(f, "node"));
  }
  const json::Value* stats = doc.find("stats");
  if (stats == nullptr || !stats->isObject())
    throw Error("artifact: missing stats");
  for (const auto& [name, value] : statsToJson(a.schedule, a.metrics))
    if (getInt(stats->asObject(), name.c_str()) != value.asInt())
      throw Error("artifact: stats field '" + name +
                  "' disagrees with the schedule and metrics");
  if (const json::Value* ctx = doc.find("contexts"); ctx != nullptr)
    a.contexts = contextImagesFromJson(*ctx);
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
