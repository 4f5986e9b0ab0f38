// Fault-injection robustness tests: corrupted context images (single-bit
// flips, the classic BRAM upset model) must never crash the toolchain —
// every flip either decodes to a schedule that is rejected/flagged, or
// executes to completion within a cycle budget. Also covers corrupted
// serialized documents and hostile schedule fields.
#include <gtest/gtest.h>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "ctx/serialize.hpp"
#include "kir/lower_cdfg.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace cgra {
namespace {

struct Baseline {
  apps::Workload workload;
  Composition comp;
  ContextImages images;
  std::uint64_t fingerprint = 0;  ///< of the decoded images
};

Baseline makeBaseline() {
  apps::Workload w = apps::makeGcd(18, 12);
  const Composition comp = makeMesh(4);
  const kir::LoweringResult lowered = kir::lowerToCdfg(w.fn);
  const Schedule sched = Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
  ContextImages images = generateContexts(sched, comp);
  const std::uint64_t fingerprint = decodeContexts(images, comp).fingerprint();
  return Baseline{std::move(w), comp, std::move(images), fingerprint};
}

/// True when the decoder rejects `images` with cgra::Error or decodes them
/// to a schedule whose fingerprint differs from the baseline's: no flipped
/// bit goes unseen, padding bits included.
bool flipIsVisible(const Baseline& base, const ContextImages& images) {
  try {
    return decodeContexts(images, base.comp).fingerprint() != base.fingerprint;
  } catch (const Error&) {
    return true;
  }
}

/// Runs a (possibly corrupt) image set; returns true when execution
/// completed, false when it was cleanly rejected. The decoder must reject
/// with cgra::Error: an InternalError from it fails the test. Crashes/UB
/// fail the test harness itself (and the ASan build).
bool tryRun(const Baseline& base, const ContextImages& images) {
  Schedule sched;
  try {
    sched = decodeContexts(images, base.comp);
  } catch (const Error&) {
    return false;  // clean rejection
  } catch (const InternalError& e) {
    ADD_FAILURE() << "decoder hit an invariant check: " << e.what();
    return false;
  }
  try {
    std::map<VarId, std::int32_t> liveIns;
    for (const LiveBinding& lb : sched.liveIns)
      liveIns[lb.var] = base.workload.initialLocals[lb.var];
    HostMemory heap = base.workload.heap;
    SimOptions opts;
    opts.maxCycles = 200'000;  // corrupt branches may loop; bound them
    Simulator(base.comp, sched).run(liveIns, heap, opts);
    return true;
  } catch (const Error&) {
    return false;  // clean rejection
  } catch (const InternalError&) {
    return false;  // clean rejection via invariant check
  }
}

TEST(FaultInjection, SingleBitFlipsInPEContexts) {
  const Baseline base = makeBaseline();
  unsigned completed = 0, rejected = 0;
  for (PEId pe = 0; pe < base.comp.numPEs(); ++pe) {
    for (unsigned t = 0; t < base.images.length; ++t) {
      for (std::size_t bit = 0; bit < base.images.pes[pe].width; ++bit) {
        ContextImages corrupt = base.images;
        BitVector& word = corrupt.pes[pe].words[t];
        word.set(bit, !word.get(bit));
        EXPECT_TRUE(flipIsVisible(base, corrupt))
            << "PE " << pe << " context " << t << " bit " << bit;
        (tryRun(base, corrupt) ? completed : rejected) += 1;
      }
    }
  }
  // Every flip must resolve one way or the other without crashing; a
  // meaningful share must be caught by the decoder/validator layers.
  EXPECT_GT(completed + rejected, 0u);
  EXPECT_GT(rejected, 0u) << "no corruption ever detected?";
}

TEST(FaultInjection, SingleBitFlipsInCcuAndCboxContexts) {
  const Baseline base = makeBaseline();
  for (ContextMemory ContextImages::*mem :
       {&ContextImages::ccu, &ContextImages::cbox})
    for (unsigned t = 0; t < base.images.length; ++t)
      for (std::size_t bit = 0; bit < (base.images.*mem).width; ++bit) {
        ContextImages corrupt = base.images;
        BitVector& word = (corrupt.*mem).words[t];
        word.set(bit, !word.get(bit));
        EXPECT_TRUE(flipIsVisible(base, corrupt))
            << "context " << t << " bit " << bit;
        tryRun(base, corrupt);  // must not crash
      }
}

TEST(FaultInjection, MisshapenImagesRejected) {
  const Baseline base = makeBaseline();
  // Images for mesh4 decoded against mesh9: too few PE memories.
  EXPECT_THROW(decodeContexts(base.images, makeMesh(9)), Error);
  {
    ContextImages bad = base.images;
    bad.ccu.words.pop_back();
    EXPECT_THROW(decodeContexts(bad, base.comp), Error);
  }
  {
    ContextImages bad = base.images;
    bad.pes[1].words[0].resize(bad.pes[1].width - 1);
    EXPECT_THROW(decodeContexts(bad, base.comp), Error);
  }
  {
    // A consistent but too narrow memory: every word ends inside a field.
    ContextImages bad = base.images;
    bad.cbox.width = 1;
    for (BitVector& word : bad.cbox.words) {
      word.resize(1);
      word.set(0, true);
    }
    EXPECT_THROW(decodeContexts(bad, base.comp), Error);
  }
}

TEST(FaultInjection, HostileScheduleFieldsRejected) {
  const Baseline base = makeBaseline();
  const Schedule good = decodeContexts(base.images, base.comp);

  {
    Schedule bad = good;
    ASSERT_FALSE(bad.ops.empty());
    bad.ops[0].destVreg = 1u << 20;
    bad.ops[0].writesDest = true;
    EXPECT_THROW(Simulator(base.comp, bad), Error);
  }
  {
    Schedule bad = good;
    bad.ops[0].pe = 99;
    EXPECT_THROW(Simulator(base.comp, bad), Error);
  }
  {
    Schedule bad = good;
    bad.ops[0].src[0] =
        OperandSource{OperandSource::Kind::Route, 2, 1u << 16, 0};
    EXPECT_THROW(Simulator(base.comp, bad), Error);
  }
  {
    Schedule bad = good;
    bad.branches.push_back(BranchOp{0, 1u << 14, false, {}, kRootLoop});
    EXPECT_THROW(Simulator(base.comp, bad), Error);
  }
  {
    Schedule bad = good;
    bad.liveOuts.push_back(LiveBinding{0, 0, 1u << 18});
    EXPECT_THROW(Simulator(base.comp, bad), Error);
  }
  {
    Schedule bad = good;
    bad.vregsPerPE.pop_back();
    EXPECT_THROW(Simulator(base.comp, bad), Error);
  }
}

TEST(FaultInjection, TruncatedSerializedDocumentRejected) {
  const Baseline base = makeBaseline();
  const std::string doc = contextImagesToJson(base.images).dump();
  // Progressive truncation must always throw, never crash.
  for (std::size_t keep : {doc.size() / 4, doc.size() / 2, doc.size() - 2}) {
    EXPECT_THROW(contextImagesFromJson(json::parse(doc.substr(0, keep))),
                 Error);
  }
}

TEST(FaultInjection, GarbageHexRejected) {
  const Baseline base = makeBaseline();
  json::Value doc = contextImagesToJson(base.images);
  doc.asObject()["ccu_memory"].asObject()["contexts"].asArray()[0] = "zz";
  EXPECT_THROW(contextImagesFromJson(doc), Error);
}

}  // namespace
}  // namespace cgra
