// Persistent schedule artifacts + content-addressed store (DESIGN.md §10):
// bit-exact round trips, equivalence of deserialized schedules (validator +
// simulator), cache-key sensitivity and salting, store hit/miss/evict/LRU
// behavior through `resolve`, corruption detection, negative caching,
// warm-vs-cold cached sweeps, single-flight `resolve` (one compute per key,
// errors reach every waiter), and two stores' 8 threads hammering one cache
// directory (run under tsan by the thread-sanitize preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "artifact/artifact.hpp"
#include "artifact/store.hpp"
#include "artifact/sweep_cache.hpp"
#include "ctx/contexts.hpp"
#include "ctx/serialize.hpp"
#include "kir/interp.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/parser.hpp"
#include "kir/passes/pipeline.hpp"
#include "sched/job_key.hpp"
#include "sched/validate.hpp"
#include "sim/simulator.hpp"
#include "support/sha256.hpp"
#include "temp_dir.hpp"

namespace cgra {
namespace {

namespace sfs = std::filesystem;

#ifndef CGRA_KERNEL_DIR
#error "CGRA_KERNEL_DIR must point at examples/kernels"
#endif
#ifndef CGRA_GOLDEN_DIR
#error "CGRA_GOLDEN_DIR must point at tests/golden"
#endif

ScheduleReport scheduleKernel(const Composition& comp, const Cdfg& graph,
                              SchedulerOptions opts = {}) {
  return Scheduler(comp, opts).schedule(ScheduleRequest(graph));
}

TEST(Artifact, ScheduleRoundTripIsBitExact) {
  // The adpcm kernel exercises every schedule feature: loops, predication,
  // C-Box combines, branches, DMA and live bindings.
  const Composition comp = makeMesh(9);
  const Cdfg graph = kir::lowerToCdfg(apps::makeAdpcm(8, 1).fn).graph;
  const ScheduleReport report = scheduleKernel(comp, graph);
  ASSERT_TRUE(report.ok);

  const json::Value doc = artifact::scheduleToJson(report.schedule);
  const Schedule back =
      artifact::scheduleFromJson(json::parse(doc.dump()));
  EXPECT_EQ(back.fingerprint(), report.schedule.fingerprint());
  EXPECT_EQ(back.toString(comp), report.schedule.toString(comp));
  // Serialization is canonical: a round-tripped schedule re-serializes to
  // the same bytes.
  EXPECT_EQ(artifact::scheduleToJson(back).dump(), doc.dump());
}

TEST(Artifact, SuccessfulArtifactRoundTrips) {
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(12, 18).fn).graph;
  const ScheduleReport report = scheduleKernel(comp, graph);
  ASSERT_TRUE(report.ok);
  const std::string key = scheduleJobKey(comp, graph, SchedulerOptions{});

  const artifact::ScheduleArtifact art =
      artifact::ScheduleArtifact::fromReport(key, report);
  EXPECT_EQ(art.metrics.totalMs, 0.0) << "volatile field must be zeroed";

  const std::string bytes = art.toJson().dump();
  const artifact::ScheduleArtifact back =
      artifact::ScheduleArtifact::fromJson(json::parse(bytes));
  EXPECT_EQ(back.key, key);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.fingerprint, report.schedule.fingerprint());
  EXPECT_EQ(back.schedule.fingerprint(), report.schedule.fingerprint());
  EXPECT_EQ(back.schedule.length, report.schedule.length);
  EXPECT_EQ(back.metrics.copiesInserted, report.metrics.copiesInserted);
  EXPECT_EQ(back.metrics.nodesScheduled, report.metrics.nodesScheduled);
  EXPECT_EQ(back.metrics.probeRejections, report.metrics.probeRejections);
  // Memory and disk tiers serve the same metrics, timings included.
  EXPECT_EQ(back.metrics.toJson(true).dump(), art.metrics.toJson(true).dump());
  // Content-determinism: re-serializing the parsed artifact is byte-exact.
  EXPECT_EQ(back.toJson().dump(), bytes);
}

TEST(Artifact, DeserializedScheduleValidatesAndSimulatesIdentically) {
  const apps::Workload w = apps::makeAdpcm(12, 1);
  const Cdfg graph = kir::lowerToCdfg(w.fn).graph;
  const Composition comp = makeMesh(9);
  const ScheduleReport report = scheduleKernel(comp, graph);
  ASSERT_TRUE(report.ok);

  const Schedule restored = artifact::scheduleFromJson(
      json::parse(artifact::scheduleToJson(report.schedule).dump()));

  // Same verdict from the validator...
  EXPECT_EQ(verifySchedule(restored, &comp, &graph),
            std::vector<std::string>{});

  // ...and the same memory state out of the simulator, matching the golden
  // interpreter, from both the fresh and the deserialized schedule.
  HostMemory goldenHeap = w.heap;
  kir::Interpreter interp;
  interp.run(w.fn, w.initialLocals, goldenHeap);

  for (const Schedule* sched : {&report.schedule, &restored}) {
    std::map<VarId, std::int32_t> liveIns;
    for (const LiveBinding& lb : sched->liveIns)
      liveIns[lb.var] = w.initialLocals[lb.var];
    HostMemory heap = w.heap;
    Simulator(comp, *sched).run(liveIns, heap);
    EXPECT_TRUE(heap == goldenHeap);
  }
}

TEST(Artifact, FailureArtifactRoundTripsTypedReason) {
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(546, 2394).fn).graph;
  SchedulerOptions opts;
  opts.maxContexts = 4;  // gcd does not fit in 4 contexts
  const ScheduleReport report = scheduleKernel(comp, graph, opts);
  ASSERT_FALSE(report.ok);
  ASSERT_EQ(report.failure.reason, FailureReason::ContextBudget);

  const artifact::ScheduleArtifact art =
      artifact::ScheduleArtifact::fromReport("k-fail", report);
  const artifact::ScheduleArtifact back =
      artifact::ScheduleArtifact::fromJson(
          json::parse(art.toJson().dump()));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.failure.reason, FailureReason::ContextBudget);
  EXPECT_EQ(back.failure.message, report.failure.message);
}

TEST(Artifact, TamperedScheduleIsRejectedByFingerprint) {
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const ScheduleReport report = scheduleKernel(comp, graph);
  ASSERT_TRUE(report.ok);
  const artifact::ScheduleArtifact art =
      artifact::ScheduleArtifact::fromReport("k", report);

  // Flip one scheduled op's PE in the document: the recomputed fingerprint
  // no longer matches the stored one.
  json::Value doc = json::parse(art.toJson().dump());
  json::Object& sched =
      doc.asObject()["schedule"].asObject();
  json::Object& op = sched["ops"].asArray().at(0).asObject();
  op["pe"] = op.at("pe").asInt() == 0 ? 1 : 0;
  EXPECT_THROW(artifact::ScheduleArtifact::fromJson(doc), Error);

  // A fingerprint is the canonical decimal std::to_string writes; anything
  // else is a typed error, not a value read from a prefix.
  const std::string fp = std::to_string(art.fingerprint);
  for (const std::string& text :
       {std::string("x"), std::string(), std::string("99999999999999999999999"),
        fp + "junk", " " + fp}) {
    json::Value forged = json::parse(art.toJson().dump());
    forged.asObject()["fingerprint"] = text;
    EXPECT_THROW(artifact::ScheduleArtifact::fromJson(forged), Error)
        << "'" << text << "'";
  }
}

/// Edits that move one reference of a gcd-on-mesh4 schedule far outside the
/// schedule; each used to crash computeScheduleQuality (and the PE edit
/// generateContexts) when served from a cache file.
const std::vector<std::pair<const char*, std::function<void(Schedule&)>>>&
outOfRangeEdits() {
  static const std::vector<
      std::pair<const char*, std::function<void(Schedule&)>>>
      kEdits = {
          {"op start", [](Schedule& s) { s.ops.at(0).start = 1u << 30; }},
          {"op pe", [](Schedule& s) { s.ops.at(0).pe = 1u << 28; }},
          {"cbox time", [](Schedule& s) { s.cboxOps.at(0).time = 1u << 30; }},
      };
  return kEdits;
}

/// In-range edits of a gcd-on-mesh4 schedule that every reference check
/// accepts and only verifySchedule with the composition (double-booking)
/// or the CDFG (the rest) rejects.
const std::vector<std::pair<const char*, std::function<void(Schedule&)>>>&
inRangeEdits() {
  static const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  static const std::vector<
      std::pair<const char*, std::function<void(Schedule&)>>>
      kEdits = {
          {"double-booked pe",
           [](Schedule& s) {
             // Start one op in the cycle of another op of its PE.
             for (ScheduledOp& a : s.ops)
               for (ScheduledOp& b : s.ops)
                 if (a.pe == b.pe && a.start < b.start &&
                     a.duration == b.duration) {
                   b.start = a.start;
                   return;
                 }
             FAIL() << "no two ops share a PE";
           }},
          {"flow consumer first",
           [](Schedule& s) {
             // Swap a flow edge's producer and consumer on their one PE.
             const auto opOf = [&s](NodeId n) {
               return std::find_if(
                   s.ops.begin(), s.ops.end(),
                   [n](const ScheduledOp& op) { return op.node == n; });
             };
             for (const Edge& e : graph.edges()) {
               const auto from = opOf(e.from), to = opOf(e.to);
               if (e.kind == DepKind::Flow && from != s.ops.end() &&
                   to != s.ops.end() && from->pe == to->pe &&
                   from->duration == to->duration) {
                 std::swap(from->start, to->start);
                 return;
               }
             }
             FAIL() << "no flow edge within one PE";
           }},
          {"dropped cbox op",
           [](Schedule& s) {
             const auto consumer = std::find_if(
                 s.cboxOps.begin(), s.cboxOps.end(), [](const CBoxOp& c) {
                   return c.inputs.at(0).kind == CBoxOp::Input::Kind::Status;
                 });
             ASSERT_NE(consumer, s.cboxOps.end());
             s.cboxOps.erase(consumer);
           }},
          {"branch off loop end",
           [](Schedule& s) { s.branches.at(0).time -= 1; }},
      };
  return kEdits;
}

/// The gcd-on-mesh4 artifact document for `key` after `edit`, with its
/// fingerprint recomputed — a forged cache file anyone can write.
json::Value forgedDocument(const std::string& key,
                           const std::function<void(Schedule&)>& edit) {
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  artifact::ScheduleArtifact art =
      artifact::ScheduleArtifact::fromReport(key, scheduleKernel(comp, graph));
  EXPECT_TRUE(art.ok);
  EXPECT_FALSE(art.schedule.cboxOps.empty());
  edit(art.schedule);
  art.fingerprint = art.schedule.fingerprint();
  return json::parse(art.toJson().dump());
}

TEST(Artifact, RefingerprintedOutOfRangeScheduleIsRejected) {
  for (const auto& [name, edit] : outOfRangeEdits())
    EXPECT_THROW(
        artifact::ScheduleArtifact::fromJson(forgedDocument("k", edit)), Error)
        << name;
}

TEST(Artifact, StatsBlockMustAgreeWithScheduleAndMetrics) {
  const json::Value doc = forgedDocument("k", [](Schedule&) {});
  EXPECT_NO_THROW(artifact::ScheduleArtifact::fromJson(doc));
  for (const char* field : {"cboxSlotsUsed", "constsInserted", "contextsUsed",
                            "copiesInserted", "fusedWrites"}) {
    json::Value tampered = doc;
    json::Value& v = tampered.asObject()["stats"].asObject()[field];
    v = v.asInt() + 1;
    EXPECT_THROW(artifact::ScheduleArtifact::fromJson(tampered), Error)
        << field;
  }
}

TEST(Artifact, ScheduleIsRejectedOnACompositionItDoesNotFit) {
  // A loaded schedule read on another PE count, or longer than the context
  // memory, throws instead of indexing or sizing tables out of bounds.
  const Composition mesh4 = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const Schedule sched = scheduleKernel(mesh4, graph).orThrow().schedule;
  FactoryOptions tiny;
  tiny.contextMemoryLength = sched.length - 1;
  for (const Composition& comp : {makeMesh(9), makeMesh(4, tiny)}) {
    EXPECT_THROW(generateContexts(sched, comp), Error) << comp.name();
    EXPECT_THROW(computeScheduleQuality(sched, comp), Error) << comp.name();
    EXPECT_THROW(Simulator(comp, sched), Error) << comp.name();
  }
}

TEST(Artifact, UnknownFormatTagIsRejected) {
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const artifact::ScheduleArtifact art =
      artifact::ScheduleArtifact::fromReport("k",
                                             scheduleKernel(comp, graph));
  json::Value doc = json::parse(art.toJson().dump());
  doc.asObject()["format"] = "cgra-artifact-v999";
  EXPECT_THROW(artifact::ScheduleArtifact::fromJson(doc), Error);

  // Nor does a negative counter load as a wrapped one, even when the
  // "stats" block repeats it.
  for (const auto& [counter, value] :
       {std::pair{"copiesInserted", -1}, std::pair{"steps", -5}}) {
    json::Value forged = json::parse(art.toJson().dump());
    json::Object& o = forged.asObject();
    o["metrics"].asObject()[counter] = value;
    json::Object& stats = o["stats"].asObject();
    if (stats.contains(counter)) stats[counter] = value;
    EXPECT_THROW(artifact::ScheduleArtifact::fromJson(forged), Error)
        << counter;
  }
}

TEST(Artifact, KeysTheLayoutDoesNotNameAreRejected) {
  // A bundled kernel's artifact, context images attached, loads back as it
  // is; one key added at the top level or inside a schedule op is a typed
  // error naming it, not a field silently dropped.
  const Composition comp = makeMesh(9);
  const Cdfg graph = kir::lowerToCdfg(apps::workload("adpcm").fn).graph;
  artifact::ScheduleArtifact art = artifact::ScheduleArtifact::fromReport(
      "k", scheduleKernel(comp, graph));
  ASSERT_TRUE(art.ok);
  art.contexts = generateContexts(art.schedule, comp);
  const json::Value doc = art.toJson();
  const auto error = [](const json::Value& forged) -> std::string {
    try {
      artifact::ScheduleArtifact::fromJson(forged);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error(doc), "");

  json::Value top = doc;
  top.asObject()["note"] = "hand edit";
  EXPECT_EQ(error(top), "artifact: unknown key \"note\"");

  json::Value inOp = doc;
  inOp.asObject()["schedule"].asObject()["ops"].asArray()[0].asObject()
      ["spare"] = 0;
  EXPECT_EQ(error(inOp), "artifact: unknown key \"spare\"");
}

/// One artifact of the bundled-kernel set, labelled
/// "<kernel> <composition> u<unroll> <outcome>".
struct BundledArtifact {
  std::string label;
  artifact::ScheduleArtifact art;
};

/// Every bundled kernel (apps::allWorkloads() and examples/kernels/*.kir)
/// on the 12 paper compositions at unroll 1 and 2, plus gcd on mesh4
/// capped at 4 contexts, which fails. Mapped jobs carry their context
/// images.
std::vector<BundledArtifact> bundledArtifacts() {
  std::vector<std::pair<std::string, kir::Function>> kernels;
  for (apps::Workload& w : apps::allWorkloads())
    kernels.emplace_back(w.name, std::move(w.fn));
  std::vector<sfs::path> files;
  for (const auto& entry : sfs::directory_iterator(CGRA_KERNEL_DIR))
    if (entry.path().extension() == ".kir") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  for (const sfs::path& f : files)
    kernels.emplace_back(f.filename().string(),
                         kir::parseKernelFile(f.string()));

  std::vector<Composition> comps;
  for (unsigned n : meshSizes()) comps.push_back(makeMesh(n));
  for (char c : irregularLabels()) comps.push_back(makeIrregular(c));

  std::vector<BundledArtifact> out;
  const auto add = [&out](const std::string& label, const Composition& comp,
                          const Cdfg& graph, const SchedulerOptions& opts) {
    const ScheduleReport report = scheduleKernel(comp, graph, opts);
    BundledArtifact b{label, artifact::ScheduleArtifact::fromReport(
                                 scheduleJobKey(comp, graph, opts), report)};
    if (report.ok) {
      b.art.contexts = generateContexts(report.schedule, comp);
      b.label += " ok";
    } else {
      b.label += " fail:";
      b.label += failureReasonName(report.failure.reason);
    }
    out.push_back(std::move(b));
  };
  for (const auto& [name, fn] : kernels)
    for (unsigned unroll : {1u, 2u}) {
      kir::FrontendOptions fo;
      fo.unrollFactor = unroll;
      const Cdfg graph =
          kir::lowerToCdfg(kir::runFrontendPipeline(fn, fo).fn).graph;
      for (const Composition& comp : comps)
        add(name + " " + comp.name() + " u" + std::to_string(unroll), comp,
            graph, SchedulerOptions{});
    }
  SchedulerOptions budget;
  budget.maxContexts = 4;
  add("gcd mesh4 u1 maxContexts=4", makeMesh(4),
      kir::lowerToCdfg(apps::makeGcd(546, 2394).fn).graph, budget);
  return out;
}

TEST(Artifact, BundledArtifactBytesMatchGolden) {
  // Pins the exact bytes of every bundled artifact: one line per job, the
  // first 16 hex digits of the SHA-256 of toJson().dump(0). Regenerate with
  // CGRA_REGEN_GOLDENS=1 (tools/regen_goldens.sh) only when the artifact
  // format changes on purpose.
  const std::string path =
      std::string(CGRA_GOLDEN_DIR) + "/artifact_digests.txt";
  std::vector<std::string> lines;
  for (const BundledArtifact& b : bundledArtifacts())
    lines.push_back(b.label + " " +
                    Sha256::hexOf(b.art.toJson().dump(0)).substr(0, 16));

  if (std::getenv("CGRA_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    for (const std::string& line : lines) out << line << "\n";
    return;
  }

  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing " << path;
  std::vector<std::string> expected;
  for (std::string line; std::getline(golden, line);)
    if (!line.empty()) expected.push_back(line);
  ASSERT_EQ(lines.size(), expected.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], expected[i]);
}

TEST(Artifact, BundledArtifactsAreBuiltCanonical) {
  // The builders append keys in ascending order instead of sorting
  // afterwards; this checks that order on every bundled artifact, its
  // standalone context images and the timed metrics form.
  for (const BundledArtifact& b : bundledArtifacts()) {
    const json::Value doc = b.art.toJson();
    EXPECT_TRUE(json::isCanonical(doc)) << b.label;
    EXPECT_EQ(json::sortKeys(doc).dump(0), doc.dump(0)) << b.label;
    EXPECT_TRUE(json::isCanonical(b.art.metrics.toJson(true))) << b.label;
    if (b.art.contexts) {
      const json::Value images = contextImagesToJson(*b.art.contexts);
      EXPECT_TRUE(json::isCanonical(images)) << b.label;
      EXPECT_EQ(json::sortKeys(images).dump(0), images.dump(0)) << b.label;
    }
  }
}

TEST(JobKey, SensitiveToEveryInputAndSalt) {
  const Composition mesh4 = makeMesh(4);
  const Composition mesh9 = makeMesh(9);
  const Cdfg gcd = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const Cdfg dot = kir::lowerToCdfg(apps::makeDotProduct(4, 2).fn).graph;
  const SchedulerOptions defaults;
  SchedulerOptions budget;
  budget.maxContexts = 7;

  const std::string base = scheduleJobKey(mesh4, gcd, defaults);
  EXPECT_EQ(scheduleJobKey(mesh4, gcd, defaults), base)
      << "the key must be deterministic";
  EXPECT_EQ(base.size(), 64u) << "SHA-256 hex";
  EXPECT_NE(scheduleJobKey(mesh9, gcd, defaults), base);
  EXPECT_NE(scheduleJobKey(mesh4, dot, defaults), base);
  EXPECT_NE(scheduleJobKey(mesh4, gcd, budget), base);
  EXPECT_NE(scheduleJobKey(mesh4, gcd, defaults, "other-salt"), base)
      << "bumping the version salt must invalidate every key";
}

TEST(JobKey, PrecomputedDigestVariantsAgree) {
  // scheduleJobKey funnels into the double-digest recipe, so keys computed
  // by the sweep engine (precomputed digests) and by the service and CLI
  // (full recompute) must be identical.
  const Composition mesh4 = makeMesh(4);
  const Cdfg gcd = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const SchedulerOptions defaults;

  EXPECT_EQ(scheduleJobKey(mesh4, gcd, defaults),
            scheduleJobKeyWithDigests(compositionDigest(mesh4),
                                      cdfgDigest(gcd), defaults));
  EXPECT_EQ(cdfgDigest(gcd).size(), 64u) << "SHA-256 hex";
  EXPECT_EQ(cdfgDigest(gcd), cdfgDigest(gcd)) << "deterministic";
}

artifact::ScheduleArtifact makeArtifact(const Composition& comp,
                                        const Cdfg& graph,
                                        const std::string& key) {
  return artifact::ScheduleArtifact::fromReport(key,
                                                scheduleKernel(comp, graph));
}

/// Resolves `key` to a schedule of `graph` on `comp`; `computed` counts the
/// calls the store makes to `compute`, so "served, not recomputed" is
/// asserted directly.
artifact::ArtifactStore::Resolved resolveCounted(
    artifact::ArtifactStore& store, const std::string& key,
    const Composition& comp, const Cdfg& graph,
    std::atomic<unsigned>& computed) {
  return store.resolve(key, comp, graph, [&] {
    ++computed;
    return makeArtifact(comp, graph, key);
  });
}

using Source = artifact::ArtifactStore::Source;

TEST(ArtifactStore, MemoryOnlyHitsAndMisses) {
  artifact::ArtifactStore store;  // no directory
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const std::string key = scheduleJobKey(comp, graph, SchedulerOptions{});
  std::atomic<unsigned> computed{0};

  EXPECT_EQ(resolveCounted(store, key, comp, graph, computed).source,
            Source::Computed);
  const auto [hit, source] = resolveCounted(store, key, comp, graph, computed);
  EXPECT_EQ(source, Source::Memory);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->key, key);
  EXPECT_EQ(computed.load(), 1u) << "a memory hit is served, not recomputed";

  const artifact::StoreCounters c = store.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.memoryHits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.inserts, 1u);
}

TEST(ArtifactStore, LookupBumpsMemoryRecency) {
  artifact::StoreOptions so;  // memory-only: an evicted key recomputes
  so.maxMemoryEntries = 2;
  artifact::ArtifactStore store(so);
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  std::atomic<unsigned> computed{0};
  const auto resolve = [&](const std::string& key) {
    return resolveCounted(store, key, comp, graph, computed).source;
  };
  resolve("key-a");
  resolve("key-b");
  EXPECT_EQ(resolve("key-a"), Source::Memory);  // A is now the most recent
  resolve("key-c");
  EXPECT_EQ(store.memoryEntries(), 2u);
  EXPECT_EQ(resolve("key-a"), Source::Memory);
  EXPECT_EQ(resolve("key-c"), Source::Memory);
  EXPECT_EQ(computed.load(), 3u);
  EXPECT_EQ(resolve("key-b"), Source::Computed)
      << "B was least recently used";
  EXPECT_EQ(computed.load(), 4u);
}

TEST(ArtifactStore, DiskEntriesSurviveReopen) {
  const TempDir dir("reopen");
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const std::string key = scheduleJobKey(comp, graph, SchedulerOptions{});
  artifact::StoreOptions so;
  so.directory = dir.str();
  std::atomic<unsigned> computed{0};
  const std::uint64_t fp = [&] {
    artifact::ArtifactStore store(so);
    return resolveCounted(store, key, comp, graph, computed)
        .artifact->fingerprint;
  }();

  artifact::ArtifactStore reopened(so);
  EXPECT_GT(reopened.diskBytes(), 0u) << "existing entries are indexed";
  const auto [hit, source] =
      resolveCounted(reopened, key, comp, graph, computed);
  EXPECT_EQ(source, Source::Disk);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->schedule.fingerprint(), fp);
  EXPECT_EQ(reopened.counters().diskHits, 1u);
  // Second resolve is served by the hot layer.
  EXPECT_EQ(resolveCounted(reopened, key, comp, graph, computed).source,
            Source::Memory);
  EXPECT_EQ(reopened.counters().memoryHits, 1u);
  EXPECT_EQ(computed.load(), 1u) << "only the first store computed";
}

TEST(ArtifactStore, CorruptFileIsDiscardedAsMiss) {
  const TempDir dir("corrupt");
  artifact::StoreOptions so;
  so.directory = dir.str();
  artifact::ArtifactStore store(so);
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;

  const std::string key(64, 'a');
  const sfs::path file = dir.path / (key + ".json");
  std::ofstream(file) << "{\"format\": \"truncated";
  std::atomic<unsigned> computed{0};
  EXPECT_EQ(resolveCounted(store, key, comp, graph, computed).source,
            Source::Computed);
  EXPECT_EQ(computed.load(), 1u);
  EXPECT_EQ(store.counters().invalid, 1u);
  EXPECT_EQ(artifact::ScheduleArtifact::fromJson(json::parseFile(file.string()))
                .key,
            key)
      << "the corrupt file was replaced by the recomputed artifact";
}

TEST(ArtifactStore, WrongKeyFileIsRejected) {
  // An artifact stored under the wrong filename (e.g. a manually renamed
  // file) must not be served for that key.
  const TempDir dir("wrongkey");
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  artifact::StoreOptions so;
  so.directory = dir.str();
  std::atomic<unsigned> computed{0};
  {
    artifact::ArtifactStore store(so);
    resolveCounted(store, "real-key", comp, graph, computed);
  }

  sfs::rename(dir.path / "real-key.json", dir.path / "other-key.json");
  artifact::ArtifactStore fresh(so);
  const auto [art, source] =
      resolveCounted(fresh, "other-key", comp, graph, computed);
  EXPECT_EQ(source, Source::Computed);
  EXPECT_EQ(art->key, "other-key");
  EXPECT_EQ(computed.load(), 2u);
  EXPECT_EQ(fresh.counters().invalid, 1u);
}

TEST(ArtifactStore, ByteCapEvictsLeastRecentlyUsed) {
  const TempDir dir("lru");
  const Composition comp = makeMesh(4);
  // Three kernels → three artifacts of a few KB each.
  const Cdfg g1 = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const Cdfg g2 = kir::lowerToCdfg(apps::makeDotProduct(4, 2).fn).graph;
  const Cdfg g3 = kir::lowerToCdfg(apps::makeEwmaClip(4, 6).fn).graph;
  const SchedulerOptions defaults;
  const std::string k1 = scheduleJobKey(comp, g1, defaults);
  const std::string k2 = scheduleJobKey(comp, g2, defaults);
  const std::string k3 = scheduleJobKey(comp, g3, defaults);

  artifact::StoreOptions so;
  so.directory = dir.str();
  so.maxMemoryEntries = 0;  // exercise the disk layer alone
  std::atomic<unsigned> computed{0};
  std::size_t oneArtifact = 0;
  {
    artifact::ArtifactStore probe(so);
    resolveCounted(probe, k1, comp, g1, computed);
    oneArtifact = probe.diskBytes();
  }
  ASSERT_GT(oneArtifact, 0u);

  // Cap at two artifacts: publishing the third must evict the LRU one (k1).
  so.maxDiskBytes = 2 * oneArtifact + oneArtifact / 2;
  artifact::ArtifactStore store(so);
  resolveCounted(store, k2, comp, g2, computed);
  resolveCounted(store, k3, comp, g3, computed);
  EXPECT_GE(store.counters().evictions, 1u);
  EXPECT_LE(store.diskBytes(), so.maxDiskBytes);
  EXPECT_FALSE(sfs::exists(dir.path / (k1 + ".json")))
      << "the least-recently-used entry's file is removed";
  EXPECT_TRUE(sfs::exists(dir.path / (k3 + ".json")));
  EXPECT_EQ(computed.load(), 3u);
  EXPECT_EQ(resolveCounted(store, k3, comp, g3, computed).source,
            Source::Disk);
  EXPECT_EQ(resolveCounted(store, k1, comp, g1, computed).source,
            Source::Computed)
      << "an evicted key is recomputed";
  EXPECT_EQ(computed.load(), 4u);
}

TEST(CachedSweep, WarmRunMatchesColdRunExactly) {
  const TempDir dir("warm");
  std::deque<Composition> comps;
  comps.push_back(makeMesh(4));
  comps.push_back(makeMesh(9));
  std::deque<Cdfg> graphs;
  graphs.push_back(kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph);
  graphs.push_back(kir::lowerToCdfg(apps::makeDotProduct(4, 2).fn).graph);
  std::vector<SweepJob> jobs;
  for (const Composition& comp : comps)
    for (std::size_t g = 0; g < graphs.size(); ++g)
      jobs.push_back(SweepJob{&comp, &graphs[g],
                              std::to_string(g) + "@" + comp.name(),
                              SchedulerOptions{}});
  // Two duplicates: cache traffic is counted per job, not per key.
  jobs.push_back(SweepJob{&comps[0], &graphs[0], "dup-a", SchedulerOptions{}});
  jobs.push_back(SweepJob{&comps[1], &graphs[1], "dup-b", SchedulerOptions{}});

  SweepOptions opts;
  opts.threads = 2;
  artifact::StoreOptions so;
  so.directory = (dir.path / "store").string();
  const auto traceFiles = [](const sfs::path& traceDir) {
    return std::distance(sfs::directory_iterator(traceDir),
                         sfs::directory_iterator{});
  };

  artifact::ArtifactStore cold(so);
  opts.traceDir = (dir.path / "cold-traces").string();
  const SweepReport coldReport = artifact::runCachedSweep(jobs, opts, cold);
  ASSERT_EQ(coldReport.failures, 0u);
  EXPECT_EQ(coldReport.cacheMisses, jobs.size());
  EXPECT_EQ(coldReport.cacheHits, 0u);
  EXPECT_EQ(coldReport.dedupedJobs, 2u);
  EXPECT_EQ(traceFiles(opts.traceDir),
            static_cast<std::ptrdiff_t>(jobs.size()))
      << "a cold run writes one trace per job";

  artifact::ArtifactStore warm(so);  // fresh store: only disk is warm
  opts.traceDir = (dir.path / "warm-traces").string();
  const SweepReport warmReport = artifact::runCachedSweep(jobs, opts, warm);
  ASSERT_EQ(warmReport.failures, 0u);
  EXPECT_EQ(warmReport.cacheHits, jobs.size());
  EXPECT_EQ(warmReport.cacheMisses, 0u);
  EXPECT_EQ(warmReport.dedupedJobs, coldReport.dedupedJobs);
  EXPECT_EQ(traceFiles(opts.traceDir), 0)
      << "store-served results carry no trace";

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(warmReport.results[i].fromCache);
    EXPECT_EQ(warmReport.results[i].trace, nullptr);
    EXPECT_EQ(warmReport.results[i].fingerprint,
              coldReport.results[i].fingerprint);
    EXPECT_EQ(warmReport.results[i].cacheKey, coldReport.results[i].cacheKey);
    // Warm schedules validate like fresh ones.
    EXPECT_EQ(verifySchedule(warmReport.results[i].schedule, jobs[i].comp,
                             jobs[i].graph),
              std::vector<std::string>{});
  }
  // The byte-stable JSON cannot tell a warm run from a cold one.
  EXPECT_EQ(warmReport.toJson(false).dump(), coldReport.toJson(false).dump());
  // The volatile JSON can: it carries the cache traffic.
  const json::Value volatileDoc = warmReport.toJson(true);
  const json::Object& volatileJson =
      volatileDoc.asObject().at("cache").asObject();
  EXPECT_EQ(volatileJson.at("hits").asInt(),
            static_cast<std::int64_t>(jobs.size()));
}

TEST(CachedSweep, FailedPublishFailsTheSweep) {
  // A store whose directory vanished after opening cannot publish. On the
  // sweep's worker threads that must surface as an error from the sweep,
  // not terminate the process.
  const TempDir dir("publish");
  std::deque<Composition> comps;
  comps.push_back(makeMesh(4));
  comps.push_back(makeMesh(9));
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  std::vector<SweepJob> jobs;
  for (const Composition& comp : comps)
    jobs.push_back(SweepJob{&comp, &graph, "", SchedulerOptions{}});

  artifact::StoreOptions so;
  so.directory = (dir.path / "cache").string();
  artifact::ArtifactStore store(so);
  sfs::remove_all(so.directory);
  SweepOptions opts;
  opts.threads = 2;
  EXPECT_THROW(artifact::runCachedSweep(jobs, opts, store), Error);
}

TEST(CachedSweep, NegativeResultsAreCachedToo) {
  const TempDir dir("negative");
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(546, 2394).fn).graph;
  SchedulerOptions opts;
  opts.maxContexts = 4;  // unmappable
  const std::vector<SweepJob> jobs = {SweepJob{&comp, &graph, "gcd", opts}};

  artifact::StoreOptions so;
  so.directory = dir.str();
  artifact::ArtifactStore store(so);
  const SweepReport coldReport =
      artifact::runCachedSweep(jobs, SweepOptions{}, store);
  EXPECT_EQ(coldReport.failures, 1u);
  EXPECT_EQ(coldReport.cacheMisses, 1u);

  const SweepReport warmReport =
      artifact::runCachedSweep(jobs, SweepOptions{}, store);
  EXPECT_EQ(warmReport.cacheHits, 1u) << "failures must be cached (negative "
                                         "caching) — they are deterministic";
  EXPECT_EQ(warmReport.failures, 1u);
  EXPECT_EQ(warmReport.results[0].failure.reason,
            FailureReason::ContextBudget);
  EXPECT_EQ(warmReport.results[0].failure.message,
            coldReport.results[0].failure.message);
}

TEST(CachedSweep, StoredResultsCarryNoWallTimes) {
  // Regression: artifacts used to zero only some of the timing fields, so a
  // memory-tier hit served the cold run's pass times while the same
  // artifact reloaded from disk served zeros.
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const std::vector<SweepJob> jobs = {SweepJob{&comp, &graph, "gcd", {}}};
  artifact::ArtifactStore store;  // memory tier only
  EXPECT_GT(artifact::runCachedSweep(jobs, {}, store).aggregate.totalMs, 0.0);
  const SweepReport warm = artifact::runCachedSweep(jobs, {}, store);
  ASSERT_EQ(warm.cacheHits, 1u);
  const SchedulerMetrics& m = warm.aggregate;
  for (const double ms :
       {m.totalMs, m.passAnalysisMs, m.passCandidateMs, m.passCostModelMs,
        m.passPlacementMs, m.passRoutingMs, m.passFusingMs, m.passCboxMs,
        m.passLoopMs, m.passFinalizeMs})
    EXPECT_EQ(ms, 0.0);
}

TEST(CachedSweep, ForgedCacheFileIsRecomputed) {
  // A cache file that passes the fingerprint check but whose schedule
  // reaches outside itself, breaks a rule of its composition or CDFG, or
  // whose stats block disagrees with it, counts as invalid: the sweep
  // recomputes the job instead of crashing on it or serving it.
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const std::vector<SweepJob> jobs = {SweepJob{&comp, &graph, "gcd", {}}};
  const std::string key = scheduleJobKey(comp, graph, SchedulerOptions{});
  const std::uint64_t fresh = runSweep(jobs).results[0].fingerprint;

  std::vector<std::pair<std::string, json::Value>> forged;
  for (const auto& [name, edit] : outOfRangeEdits())
    forged.emplace_back(name, forgedDocument(key, edit));
  for (const auto& [name, edit] : inRangeEdits()) {
    forged.emplace_back(name, forgedDocument(key, edit));
    // The document alone is well-formed: only the store's verification
    // against the job's composition and CDFG can reject it.
    const artifact::ScheduleArtifact art =
        artifact::ScheduleArtifact::fromJson(forged.back().second);
    const bool exclusive = verifySchedule(art.schedule, &comp).empty();
    EXPECT_EQ(exclusive, std::string(name) != "double-booked pe") << name;
    EXPECT_FALSE(verifySchedule(art.schedule, &comp, &graph).empty()) << name;
  }
  json::Value badStats = forgedDocument(key, [](Schedule&) {});
  badStats.asObject()["stats"].asObject()["contextsUsed"] = 1;
  forged.emplace_back("stats", std::move(badStats));

  for (const auto& [name, doc] : forged) {
    const TempDir dir("forged");
    std::ofstream(dir.path / (key + ".json")) << doc.dump();
    artifact::StoreOptions so;
    so.directory = dir.str();
    artifact::ArtifactStore store(so);
    const SweepReport report = artifact::runCachedSweep(jobs, {}, store);
    ASSERT_EQ(report.failures, 0u) << name;
    EXPECT_EQ(report.results[0].fingerprint, fresh) << name;
    EXPECT_FALSE(report.results[0].fromCache) << name;
    EXPECT_EQ(store.counters().invalid, 1u) << name;
  }
}

TEST(Sweep, InSweepDedupCooperatesWithStore) {
  // Duplicate jobs inside one cached sweep: the store sees each distinct
  // key once, and every result carries the shared key.
  const TempDir dir("dedup");
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  std::vector<SweepJob> jobs(4, SweepJob{&comp, &graph, "gcd",
                                         SchedulerOptions{}});

  artifact::StoreOptions so;
  so.directory = dir.str();
  artifact::ArtifactStore store(so);
  SweepOptions opts;
  opts.threads = 2;
  const SweepReport report = artifact::runCachedSweep(jobs, opts, store);
  ASSERT_EQ(report.failures, 0u);
  EXPECT_EQ(report.dedupedJobs, 3u);
  EXPECT_EQ(store.counters().inserts, 1u)
      << "one artifact insert for four identical jobs";
  for (const SweepJobResult& r : report.results)
    EXPECT_EQ(r.cacheKey, report.results[0].cacheKey);
}

TEST(ArtifactStore, EightThreadsHammerOneCacheDirectory) {
  // The tsan preset runs this binary too: two stores on one directory, 4
  // threads each, resolve overlapping keys. Threads of one store join each
  // other's flights; the two stores race same-key publishes, which the
  // atomic temp+rename publication must keep safe, and with one memory
  // entry each every repeat reloads from disk while the other store writes.
  const TempDir dir("hammer");
  const Composition comp = makeMesh(4);
  const SchedulerOptions defaults;
  std::deque<Cdfg> graphs;
  graphs.push_back(kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph);
  graphs.push_back(kir::lowerToCdfg(apps::makeDotProduct(4, 2).fn).graph);
  graphs.push_back(kir::lowerToCdfg(apps::makeEwmaClip(4, 6).fn).graph);

  std::vector<artifact::ScheduleArtifact> artifacts;
  for (const Cdfg& graph : graphs)
    artifacts.push_back(
        makeArtifact(comp, graph, scheduleJobKey(comp, graph, defaults)));
  // Artifact j under round r's key: 30 keys, each resolved repeatedly.
  const auto keyOf = [&](std::size_t j, unsigned round) {
    return artifacts[j].key + "-" + std::to_string(round);
  };
  const auto computeFor = [&](std::size_t j, const std::string& key) {
    return [&artifacts, j, key] {
      artifact::ScheduleArtifact art = artifacts[j];
      art.key = key;
      return art;
    };
  };

  artifact::StoreOptions so;
  so.directory = dir.str();
  so.maxMemoryEntries = 1;  // force constant disk traffic + memory churn
  artifact::ArtifactStore first(so);
  artifact::ArtifactStore second(so);

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 8; ++t)
    threads.emplace_back([&, t] {
      artifact::ArtifactStore& store = t < 4 ? first : second;
      for (unsigned i = 0; i < 40; ++i) {
        const std::size_t j = (t + i) % artifacts.size();
        const std::string key = keyOf(j, i % 10);
        const auto hit =
            store.resolve(key, comp, graphs[j], computeFor(j, key)).artifact;
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(hit->key, key);
      }
    });
  for (std::thread& t : threads) t.join();

  // Every artifact must be intact afterwards, and served, not recomputed.
  for (artifact::ArtifactStore* store : {&first, &second}) {
    for (std::size_t j = 0; j < artifacts.size(); ++j)
      for (unsigned round = 0; round < 10; ++round) {
        const auto [hit, source] = store->resolve(
            keyOf(j, round), comp, graphs[j],
            []() -> artifact::ScheduleArtifact {
              throw Error("a published key must not be computed again");
            });
        EXPECT_NE(source, Source::Computed);
        EXPECT_EQ(hit->schedule.fingerprint(), artifacts[j].fingerprint);
      }
    EXPECT_EQ(store->counters().invalid, 0u);
  }
}

TEST(ArtifactStore, FileEvictedDuringAProbeIsAMissNotInvalid) {
  // The tsan preset runs this too. Four threads resolve six keys in turn,
  // with no memory tier and a disk tier of two and a half artifacts: every
  // repeat probes the disk while other threads' inserts evict files. A
  // file evicted under a probe is a plain miss; `invalid` counts only
  // files that open and then fail to parse or verify.
  const TempDir dir("evict-race");
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const artifact::ScheduleArtifact base =
      makeArtifact(comp, graph, scheduleJobKey(comp, graph, {}));
  const auto withKey = [&base](const std::string& key) {
    artifact::ScheduleArtifact art = base;
    art.key = key;
    return art;
  };
  const std::size_t oneArtifact =
      withKey(base.key + "-0").toJson().dump(0).size() + 1;

  artifact::StoreOptions so;
  so.directory = dir.str();
  so.maxMemoryEntries = 0;
  so.maxDiskBytes = 2 * oneArtifact + oneArtifact / 2;
  artifact::ArtifactStore store(so);

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (unsigned i = 0; i < 150; ++i) {
        const std::string key = base.key + "-" + std::to_string((t + i) % 6);
        const auto got =
            store.resolve(key, comp, graph, [&] { return withKey(key); })
                .artifact;
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->key, key);
      }
    });
  for (std::thread& t : threads) t.join();

  const artifact::StoreCounters c = store.counters();
  EXPECT_GT(c.evictions, 0u);
  EXPECT_EQ(c.invalid, 0u);
}

/// Runs `callers` threads that each resolve `key` at once and collects what
/// they saw; `compute` is shared by all of them.
struct ResolveRace {
  std::vector<std::shared_ptr<const artifact::ScheduleArtifact>> artifacts;
  std::vector<artifact::ArtifactStore::Source> sources;
  std::vector<std::string> errors;

  ResolveRace(artifact::ArtifactStore& store, const std::string& key,
              const Composition& comp, const Cdfg& graph, unsigned callers,
              const std::function<artifact::ScheduleArtifact()>& compute)
      : artifacts(callers), sources(callers), errors(callers) {
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < callers; ++t)
      threads.emplace_back([&, t] {
        try {
          auto [art, source] = store.resolve(key, comp, graph, compute);
          artifacts[t] = std::move(art);
          sources[t] = source;
        } catch (const std::exception& e) {
          errors[t] = e.what();
        }
      });
    for (std::thread& t : threads) t.join();
  }
};

/// Blocks, inside the owner's compute, until `joiners` other callers wait
/// on its flight. The owner and each joiner count one miss before that, and
/// the flight cannot land while compute runs, so the others can only join.
void awaitJoiners(const artifact::ArtifactStore& store, std::uint64_t joiners) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (store.counters().misses < joiners + 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(ArtifactStore, ResolveComputesOnceForEightConcurrentCallers) {
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const std::string key = scheduleJobKey(comp, graph, SchedulerOptions{});
  artifact::ArtifactStore store;
  std::atomic<unsigned> computed{0};
  const ResolveRace race(store, key, comp, graph, 8, [&] {
    ++computed;
    awaitJoiners(store, 7);
    return makeArtifact(comp, graph, key);
  });

  EXPECT_EQ(computed.load(), 1u);
  unsigned joined = 0;
  for (unsigned t = 0; t < 8; ++t) {
    EXPECT_TRUE(race.errors[t].empty()) << race.errors[t];
    ASSERT_NE(race.artifacts[t], nullptr);
    EXPECT_EQ(race.artifacts[t], race.artifacts[0]) << "one shared artifact";
    joined += race.sources[t] == artifact::ArtifactStore::Source::Joined;
  }
  EXPECT_EQ(joined, 7u);
  EXPECT_EQ(store.counters().inserts, 1u);
  const auto [warm, source] =
      store.resolve(key, comp, graph, [&]() -> artifact::ScheduleArtifact {
        throw Error("a published key must not be computed again");
      });
  EXPECT_EQ(warm, race.artifacts[0]);
  EXPECT_EQ(source, artifact::ArtifactStore::Source::Memory);
}

TEST(ArtifactStore, ResolveErrorReachesEveryWaiterAndCachesNothing) {
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const std::string key = scheduleJobKey(comp, graph, SchedulerOptions{});
  artifact::ArtifactStore store;
  std::atomic<unsigned> computed{0};
  const ResolveRace race(
      store, key, comp, graph, 8, [&]() -> artifact::ScheduleArtifact {
        ++computed;
        awaitJoiners(store, 7);
        throw Error("scheduler exploded");
      });

  EXPECT_EQ(computed.load(), 1u);
  for (unsigned t = 0; t < 8; ++t) {
    EXPECT_EQ(race.artifacts[t], nullptr);
    EXPECT_NE(race.errors[t].find("scheduler exploded"), std::string::npos)
        << "caller " << t << " saw: " << race.errors[t];
  }
  EXPECT_EQ(store.memoryEntries(), 0u) << "a failed flight caches nothing";
  EXPECT_EQ(store.counters().inserts, 0u);

  // The flight was released: the next caller computes again.
  const auto [art, source] = store.resolve(key, comp, graph, [&] {
    ++computed;
    return makeArtifact(comp, graph, key);
  });
  EXPECT_EQ(computed.load(), 2u);
  ASSERT_NE(art, nullptr);
  EXPECT_EQ(source, artifact::ArtifactStore::Source::Computed);
}

TEST(ArtifactStore, FailedDiskPublishIsAnErrorAndReleasesTheFlight) {
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const std::string key = scheduleJobKey(comp, graph, SchedulerOptions{});
  const TempDir dir("gone");
  artifact::StoreOptions so;
  so.directory = (dir.path / "cache").string();
  so.maxMemoryEntries = 0;  // every resolve of the key must reach the disk
  artifact::ArtifactStore store(so);
  sfs::remove_all(so.directory);  // every publish now fails to write

  const auto compute = [&] { return makeArtifact(comp, graph, key); };
  EXPECT_THROW(store.resolve(key, comp, graph, compute), Error);
  EXPECT_THROW(store.resolve(key, comp, graph, compute), Error)
      << "a released flight recomputes and fails again, never hangs";
}

TEST(ArtifactStore, EachResolveCountsOneHitOrOneMiss) {
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  const std::string key = scheduleJobKey(comp, graph, SchedulerOptions{});
  const TempDir dir("counts");
  artifact::StoreOptions so;
  so.directory = dir.str();
  const auto compute = [&] { return makeArtifact(comp, graph, key); };
  {
    artifact::ArtifactStore store(so);
    EXPECT_EQ(store.resolve(key, comp, graph, compute).source,
              artifact::ArtifactStore::Source::Computed);
    artifact::StoreCounters c = store.counters();
    EXPECT_EQ(c.misses, 1u) << "a cold resolve is one miss";
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.inserts, 1u);
    EXPECT_EQ(store.resolve(key, comp, graph, compute).source,
              artifact::ArtifactStore::Source::Memory);
    c = store.counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.memoryHits, 1u);
  }
  artifact::ArtifactStore reopened(so);
  EXPECT_EQ(reopened.resolve(key, comp, graph, compute).source,
            artifact::ArtifactStore::Source::Disk);
  const artifact::StoreCounters c = reopened.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.diskHits, 1u);
  EXPECT_EQ(c.misses, 0u);
  EXPECT_EQ(c.inserts, 0u);
}

}  // namespace
}  // namespace cgra
