// Tests for context-image serialization: hex word round trips, JSON
// round trips (bit-exact), $readmemh output, malformed-input rejection, and
// the full persist→reload→simulate flow.
#include <gtest/gtest.h>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "ctx/serialize.hpp"
#include "kir/interp.hpp"
#include "kir/lower_cdfg.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace cgra {
namespace {

TEST(HexWord, RoundTripsArbitraryWidths) {
  Rng rng(3);
  for (unsigned width : {1u, 3u, 4u, 7u, 8u, 13u, 31u, 32u, 63u, 64u, 100u}) {
    BitVector bits(width);
    for (unsigned i = 0; i < width; ++i) bits.set(i, rng.chance(1, 2));
    const std::string hex = contextWordToHex(bits);
    EXPECT_EQ(hex.size(), (width + 3) / 4);
    const BitVector back = contextWordFromHex(hex, width);
    EXPECT_TRUE(back == bits) << "width " << width << " hex " << hex;
  }
}

TEST(HexWord, KnownValues) {
  BitPacker bp;
  bp.write(0xDEADu, 16);
  EXPECT_EQ(contextWordToHex(bp.bits()), "dead");
  BitPacker bp2;
  bp2.write(0x5, 3);  // 3-bit word "101"
  EXPECT_EQ(contextWordToHex(bp2.bits()), "5");
  BitVector wide(66);  // digits on both sides of a storage-word boundary
  wide.set(0, true);
  wide.set(63, true);
  wide.set(65, true);
  EXPECT_EQ(contextWordToHex(wide), "28000000000000001");
}

TEST(HexWord, RejectsBadInput) {
  EXPECT_THROW(contextWordFromHex("xyz", 12), Error);
  EXPECT_THROW(contextWordFromHex("ab", 12), Error);  // wrong length
  EXPECT_THROW(contextWordFromHex("f", 1), Error);    // bits above width
  // Upper-case hex accepted.
  const BitVector v = contextWordFromHex("AB", 8);
  EXPECT_EQ(contextWordToHex(v), "ab");
}

ContextImages makeImages() {
  const apps::Workload w = apps::makeAdpcm(8, 1);
  const kir::LoweringResult lowered = kir::lowerToCdfg(w.fn);
  const Composition comp = makeMesh(6);
  const Schedule sched = Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
  return generateContexts(sched, comp);
}

TEST(ContextJson, BitExactRoundTrip) {
  const ContextImages img = makeImages();
  const json::Value doc = contextImagesToJson(img);
  // Serialize to text and back (the realistic file path).
  const ContextImages back = contextImagesFromJson(json::parse(doc.dump()));

  EXPECT_EQ(back.length, img.length);
  EXPECT_EQ(back.physRegsUsed, img.physRegsUsed);
  EXPECT_EQ(back.cboxSlotsUsed, img.cboxSlotsUsed);
  ASSERT_EQ(back.pes.size(), img.pes.size());
  for (std::size_t p = 0; p < img.pes.size(); ++p)
    EXPECT_TRUE(back.pes[p] == img.pes[p]) << "PE " << p;
  EXPECT_TRUE(back.cbox == img.cbox);
  EXPECT_TRUE(back.ccu == img.ccu);
  EXPECT_EQ(back.liveIns.size(), img.liveIns.size());
  EXPECT_EQ(back.liveOuts.size(), img.liveOuts.size());
  EXPECT_EQ(back.totalBits(), img.totalBits());
}

TEST(ContextJson, ReloadedImagesSimulateCorrectly) {
  const apps::Workload w = apps::makeAdpcm(12, 2);
  const kir::LoweringResult lowered = kir::lowerToCdfg(w.fn);
  const Composition comp = makeMesh(6);
  const Schedule sched = Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
  const ContextImages img = generateContexts(sched, comp);

  // Persist + reload, then run from the reloaded images.
  const ContextImages reloaded =
      contextImagesFromJson(json::parse(contextImagesToJson(img).dump()));
  const Schedule runnable = decodeContexts(reloaded, comp);

  HostMemory goldenHeap = w.heap;
  kir::Interpreter interp;
  interp.run(w.fn, w.initialLocals, goldenHeap);

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : runnable.liveIns)
    liveIns[lb.var] = w.initialLocals[lb.var];
  HostMemory heap = w.heap;
  Simulator(comp, runnable).run(liveIns, heap);
  EXPECT_TRUE(heap == goldenHeap);
}

TEST(ContextJson, RejectsMalformedDocuments) {
  const ContextImages img = makeImages();
  json::Value doc = contextImagesToJson(img);

  json::Value noFormat = doc;
  noFormat.asObject()["format"] = "other";
  EXPECT_THROW(contextImagesFromJson(noFormat), Error);

  json::Value badCount = doc;
  badCount.asObject()["cbox_memory"].asObject()["contexts"].asArray().pop_back();
  EXPECT_THROW(contextImagesFromJson(badCount), Error);

  json::Value badWidth = doc;
  badWidth.asObject()["ccu_memory"].asObject()["width"] = -3;
  EXPECT_THROW(contextImagesFromJson(badWidth), Error);

  // A negative count is out of its unsigned member's range, not wrapped.
  json::Value badVar = doc;
  badVar.asObject()["live_ins"].asArray().at(0).asObject()["var"] = -1;
  EXPECT_THROW(contextImagesFromJson(badVar), Error);

  json::Value badRegs = doc;
  badRegs.asObject()["pe_memories"].asArray().at(0).asObject()["regs_used"] =
      -7;
  EXPECT_THROW(contextImagesFromJson(badRegs), Error);

  json::Value badSlots = doc;
  badSlots.asObject()["cbox_slots_used"] = -2;
  EXPECT_THROW(contextImagesFromJson(badSlots), Error);
}

unsigned countPredicated(const Schedule& s) {
  unsigned n = 0;
  for (const ScheduledOp& op : s.ops)
    if (op.pred.has_value()) ++n;
  return n;
}

TEST(ContextJson, DmaPortContextsRoundTripThroughSingleDmaPE) {
  // A grid with exactly one DMA-capable PE: every DMA_LOAD/DMA_STORE
  // funnels through that port, so its context stream concentrates the
  // memory-op encoding (predicated DMA fields, §V-D).
  const apps::Workload w = apps::makeDotProduct(4, 2);
  const kir::LoweringResult lowered = kir::lowerToCdfg(w.fn);
  const Composition comp = makeMeshGrid(2, 3, {}, {4});
  const Schedule sched =
      Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;

  unsigned dmaOps = 0;
  for (const ScheduledOp& op : sched.ops)
    if (isMemoryOp(op.op)) {
      EXPECT_EQ(op.pe, 4u) << "memory ops must sit on the only DMA PE";
      ++dmaOps;
    }
  ASSERT_GT(dmaOps, 0u);

  const ContextImages img = generateContexts(sched, comp);
  const ContextImages reloaded =
      contextImagesFromJson(json::parse(contextImagesToJson(img).dump()));
  const Schedule decoded = decodeContexts(reloaded, comp);

  unsigned decodedDmaOps = 0;
  for (const ScheduledOp& op : decoded.ops)
    if (isMemoryOp(op.op)) {
      EXPECT_EQ(op.pe, 4u);
      ++decodedDmaOps;
    }
  EXPECT_EQ(decodedDmaOps, dmaOps);

  HostMemory goldenHeap = w.heap;
  kir::Interpreter interp;
  interp.run(w.fn, w.initialLocals, goldenHeap);
  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : decoded.liveIns)
    liveIns[lb.var] = w.initialLocals[lb.var];
  HostMemory heap = w.heap;
  Simulator(comp, decoded).run(liveIns, heap);
  EXPECT_TRUE(heap == goldenHeap);
}

TEST(ContextJson, PredicatedWritesSurviveEncodeDecodeEncode) {
  // gcd's RF writes are gated on C-Box slots. The predication fields must
  // survive encode → JSON → decode, and re-encoding the decoded (physical)
  // schedule must reproduce the original images bit for bit.
  const apps::Workload w = apps::makeGcd(546, 2394);
  const kir::LoweringResult lowered = kir::lowerToCdfg(w.fn);
  const Composition comp = makeMesh(4);
  const Schedule sched =
      Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
  ASSERT_GT(countPredicated(sched), 0u)
      << "gcd must produce predicated register writes";

  const ContextImages img = generateContexts(sched, comp);
  const ContextImages reloaded =
      contextImagesFromJson(json::parse(contextImagesToJson(img).dump()));
  const Schedule decoded = decodeContexts(reloaded, comp);
  EXPECT_EQ(countPredicated(decoded), countPredicated(sched));

  const ContextImages again = encodePhysical(decoded, comp);
  EXPECT_EQ(contextImagesToJson(again).dump(), contextImagesToJson(img).dump())
      << "decode followed by re-encode must be the identity on the images";
}

TEST(ContextJson, MaxWidthContextWordsRoundTrip) {
  // Synthetic maximal image: one context memory at the 4096-bit format
  // limit next to a 1-bit one, with dense random words.
  Rng rng(7);
  const unsigned kMaxWidth = 4096;
  ContextImages img;
  img.length = 3;
  img.pes.resize(2);
  img.pes[0].width = kMaxWidth;
  img.pes[1].width = 1;
  img.cbox.width = kMaxWidth;
  img.ccu.width = 17;
  img.physRegsUsed = {128u, 1u};
  img.cboxSlotsUsed = 32;
  auto randomWord = [&rng](unsigned width) {
    BitVector bits(width);
    for (unsigned b = 0; b < width; ++b) bits.set(b, rng.chance(1, 2));
    return bits;
  };
  for (unsigned t = 0; t < img.length; ++t)
    for (ContextMemory* mem : {&img.pes[0], &img.pes[1], &img.cbox, &img.ccu})
      mem->words.push_back(randomWord(mem->width));

  const ContextImages back =
      contextImagesFromJson(json::parse(contextImagesToJson(img).dump()));
  ASSERT_EQ(back.pes.size(), img.pes.size());
  EXPECT_TRUE(back.pes[0] == img.pes[0]);
  EXPECT_TRUE(back.pes[1] == img.pes[1]);
  EXPECT_TRUE(back.cbox == img.cbox);
  EXPECT_TRUE(back.ccu == img.ccu);
  EXPECT_EQ(back.totalBits(), img.totalBits());

  // One bit past the limit is rejected at parse time.
  ContextImages tooWide = img;
  tooWide.pes[0].width = kMaxWidth + 1;
  for (BitVector& word : tooWide.pes[0].words) word = randomWord(kMaxWidth + 1);
  EXPECT_THROW(
      contextImagesFromJson(json::parse(contextImagesToJson(tooWide).dump())),
      Error);
}

TEST(MemFile, ReadmemhFormat) {
  const ContextImages img = makeImages();
  const std::string mem = toMemFile(img.pes[0], "pe0 context memory");
  std::istringstream in(mem);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line.rfind("//", 0), 0u) << "comment header";
  unsigned words = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.size(), (img.pes[0].width + 3) / 4);
    ++words;
  }
  EXPECT_EQ(words, img.length);
}

}  // namespace
}  // namespace cgra
