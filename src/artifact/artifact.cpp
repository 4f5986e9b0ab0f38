#include "artifact/artifact.hpp"

#include <cstdint>

#include "ctx/serialize.hpp"

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

json::Value operandSourceToJson(const OperandSource& s) {
  json::Object o;
  o["kind"] = static_cast<std::int64_t>(s.kind);
  o["srcPE"] = static_cast<std::int64_t>(s.srcPE);
  o["vreg"] = static_cast<std::int64_t>(s.vreg);
  o["imm"] = static_cast<std::int64_t>(s.imm);
  return o;
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
  o["slot"] = static_cast<std::int64_t>(p.slot);
  o["polarity"] = p.polarity;
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
  for (const LiveBinding& b : bindings) {
    json::Object o;
    o["var"] = static_cast<std::int64_t>(b.var);
    o["pe"] = static_cast<std::int64_t>(b.pe);
    o["vreg"] = static_cast<std::int64_t>(b.vreg);
    arr.emplace_back(std::move(o));
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
  doc["length"] = static_cast<std::int64_t>(sched.length);
  doc["cboxSlotsUsed"] = static_cast<std::int64_t>(sched.cboxSlotsUsed);

  json::Array ops;
  for (const ScheduledOp& op : sched.ops) {
    json::Object o;
    // kNoNode (the inserted-MOVE/CONST marker) is 0xffffffff; the raw
    // uint32 value round-trips through int64 unchanged.
    o["node"] = static_cast<std::int64_t>(op.node);
    o["op"] = static_cast<std::int64_t>(op.op);
    o["pe"] = static_cast<std::int64_t>(op.pe);
    o["start"] = static_cast<std::int64_t>(op.start);
    o["duration"] = static_cast<std::int64_t>(op.duration);
    json::Array src;
    for (const OperandSource& s : op.src)
      src.emplace_back(operandSourceToJson(s));
    o["src"] = std::move(src);
    o["writesDest"] = op.writesDest;
    o["destVreg"] = static_cast<std::int64_t>(op.destVreg);
    if (op.pred) o["pred"] = predToJson(*op.pred);
    o["emitsStatus"] = op.emitsStatus;
    o["label"] = op.label;
    ops.emplace_back(std::move(o));
  }
  doc["ops"] = std::move(ops);

  json::Array cbox;
  for (const CBoxOp& c : sched.cboxOps) {
    json::Object o;
    o["time"] = static_cast<std::int64_t>(c.time);
    json::Array inputs;
    for (const CBoxOp::Input& in : c.inputs) {
      json::Object i;
      i["kind"] = static_cast<std::int64_t>(in.kind);
      i["slot"] = static_cast<std::int64_t>(in.slot);
      i["polarity"] = in.polarity;
      inputs.emplace_back(std::move(i));
    }
    o["inputs"] = std::move(inputs);
    o["logic"] = static_cast<std::int64_t>(c.logic);
    o["writeSlot"] = static_cast<std::int64_t>(c.writeSlot);
    o["cond"] = static_cast<std::int64_t>(c.cond);
    cbox.emplace_back(std::move(o));
  }
  doc["cboxOps"] = std::move(cbox);

  json::Array branches;
  for (const BranchOp& b : sched.branches) {
    json::Object o;
    o["time"] = static_cast<std::int64_t>(b.time);
    o["target"] = static_cast<std::int64_t>(b.target);
    o["conditional"] = b.conditional;
    o["pred"] = predToJson(b.pred);
    o["loop"] = static_cast<std::int64_t>(b.loop);
    branches.emplace_back(std::move(o));
  }
  doc["branches"] = std::move(branches);

  json::Array loops;
  for (const LoopInterval& l : sched.loops) {
    json::Object o;
    o["loop"] = static_cast<std::int64_t>(l.loop);
    o["start"] = static_cast<std::int64_t>(l.start);
    o["end"] = static_cast<std::int64_t>(l.end);
    loops.emplace_back(std::move(o));
  }
  doc["loops"] = std::move(loops);

  doc["liveIns"] = bindingsToJson(sched.liveIns);
  doc["liveOuts"] = bindingsToJson(sched.liveOuts);
  doc["varHomes"] = bindingsToJson(sched.varHomes);
  json::Array vregs;
  for (unsigned v : sched.vregsPerPE)
    vregs.emplace_back(static_cast<std::int64_t>(v));
  doc["vregsPerPE"] = std::move(vregs);
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
  return sched;
}

namespace {

json::Value statsToJson(const ScheduleStats& s) {
  json::Object o;
  o["contextsUsed"] = static_cast<std::int64_t>(s.contextsUsed);
  o["cboxSlotsUsed"] = static_cast<std::int64_t>(s.cboxSlotsUsed);
  o["copiesInserted"] = static_cast<std::int64_t>(s.copiesInserted);
  o["constsInserted"] = static_cast<std::int64_t>(s.constsInserted);
  o["fusedWrites"] = static_cast<std::int64_t>(s.fusedWrites);
  return o;
}

ScheduleStats statsFromJson(const json::Value& v) {
  const json::Object& o = v.asObject();
  ScheduleStats s;
  s.contextsUsed = getUnsigned(o, "contextsUsed");
  s.cboxSlotsUsed = getUnsigned(o, "cboxSlotsUsed");
  s.copiesInserted = getUnsigned(o, "copiesInserted");
  s.constsInserted = getUnsigned(o, "constsInserted");
  s.fusedWrites = getUnsigned(o, "fusedWrites");
  return s;
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
  json::Object doc;
  doc["format"] = kArtifactFormat;
  doc["key"] = key;
  doc["ok"] = ok;
  if (ok) {
    doc["schedule"] = scheduleToJson(schedule);
    doc["fingerprint"] = std::to_string(fingerprint);  // 64-bit safe
  } else {
    json::Object f;
    f["reason"] = failureReasonName(failure.reason);
    f["message"] = failure.message;
    f["node"] = static_cast<std::int64_t>(failure.node);
    doc["failure"] = std::move(f);
  }
  doc["stats"] = statsToJson(stats);
  doc["metrics"] = metrics.toJson(/*includeTimings=*/false);
  if (contexts) doc["contexts"] = contextImagesToJson(*contexts);
  return json::sortKeys(json::Value(std::move(doc)));
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
  const json::Value* stats = doc.find("stats");
  if (stats == nullptr) throw Error("artifact: missing stats");
  a.stats = statsFromJson(*stats);
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
  if (const json::Value* ctx = doc.find("contexts"); ctx != nullptr)
    a.contexts = contextImagesFromJson(*ctx);
  return a;
}

ScheduleArtifact ScheduleArtifact::fromReport(std::string key,
                                              const ScheduleReport& report) {
  ScheduleArtifact a;
  a.key = std::move(key);
  a.ok = report.ok;
  a.stats = report.stats;
  a.metrics = report.metrics;
  a.metrics.clearTimings();
  if (report.ok) {
    a.schedule = report.schedule;
    a.fingerprint = report.schedule.fingerprint();
  } else {
    a.failure = report.failure;
  }
  return a;
}

}  // namespace cgra::artifact
