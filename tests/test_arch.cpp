// Unit tests for the architecture model: operation semantics, PE
// descriptors (JSON round trip), interconnect shortest paths (Floyd vs a
// BFS oracle on random graphs), composition validation, the Fig. 13/14
// factories and the calibrated resource model.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>

#include "arch/composition.hpp"
#include "arch/factory.hpp"
#include "arch/resource_model.hpp"
#include "support/rng.hpp"

namespace cgra {
namespace {

TEST(Operation, MetadataConsistency) {
  for (unsigned i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_EQ(opFromName(opName(op)), op);
    EXPECT_GE(defaultDuration(op), 1u);
    EXPECT_GT(defaultEnergy(op), 0.0);
    if (producesStatus(op)) {
      EXPECT_FALSE(writesRegister(op));
    }
  }
  EXPECT_FALSE(opFromName("FADD").has_value());
  EXPECT_EQ(defaultDuration(Op::IMUL), 2u) << "block multiplier default";
}

TEST(Operation, CompareSemantics) {
  EXPECT_TRUE(evalCompare(Op::IFEQ, 3, 3));
  EXPECT_TRUE(evalCompare(Op::IFNE, 3, 4));
  EXPECT_TRUE(evalCompare(Op::IFLT, -1, 0));
  EXPECT_FALSE(evalCompare(Op::IFLT, 0, -1));
  EXPECT_TRUE(evalCompare(Op::IFGE, 5, 5));
  EXPECT_TRUE(evalCompare(Op::IFGT, 1, 0));
  EXPECT_TRUE(evalCompare(Op::IFLE, -5, -5));
}

TEST(Operation, ArithWrapsTwosComplement) {
  EXPECT_EQ(evalArith(Op::IADD, std::numeric_limits<std::int32_t>::max(), 1),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(evalArith(Op::ISUB, std::numeric_limits<std::int32_t>::min(), 1),
            std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(evalArith(Op::IMUL, 65536, 65536), 0);
  EXPECT_EQ(evalArith(Op::INEG, std::numeric_limits<std::int32_t>::min(), 0),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(evalArith(Op::ISHR, -8, 1), -4) << "arithmetic shift";
  EXPECT_EQ(evalArith(Op::IUSHR, -8, 1), 0x7FFFFFFC);
  EXPECT_EQ(evalArith(Op::ISHL, 1, 33), 2) << "shift amount masked to 5 bits";
}

TEST(PEDescriptor, StructuralOpsAlwaysSupported) {
  PEDescriptor pe("bare", 16, false);
  EXPECT_TRUE(pe.supports(Op::NOP));
  EXPECT_TRUE(pe.supports(Op::MOVE));
  EXPECT_TRUE(pe.supports(Op::CONST));
  EXPECT_FALSE(pe.supports(Op::IADD));
  EXPECT_FALSE(pe.supports(Op::DMA_LOAD)) << "no DMA port";
  PEDescriptor dma("mem", 16, true);
  EXPECT_TRUE(dma.supports(Op::DMA_LOAD));
  EXPECT_TRUE(dma.supports(Op::DMA_STORE));
}

TEST(PEDescriptor, ImplThrowsForUnsupported) {
  PEDescriptor pe("bare", 16, false);
  EXPECT_THROW(pe.impl(Op::IMUL), Error);
  EXPECT_EQ(pe.impl(Op::MOVE).duration, 1u);
}

TEST(PEDescriptor, JsonRoundTrip) {
  PEDescriptor pe = PEDescriptor::fullInteger("PE_mem", 128, true);
  pe.addOp(Op::IMUL, OpImpl{1.7, 2});
  json::Writer w;
  pe.writeJson(w);
  const PEDescriptor back = PEDescriptor::fromJson(json::parse(w.str()));
  EXPECT_EQ(back.name(), "PE_mem");
  EXPECT_EQ(back.regfileSize(), 128u);
  EXPECT_TRUE(back.hasDma());
  EXPECT_EQ(back.impl(Op::IMUL).duration, 2u);
  EXPECT_DOUBLE_EQ(back.impl(Op::IMUL).energy, 1.7);
  EXPECT_EQ(back.ops().size(), pe.ops().size());
}

TEST(PEDescriptor, FromJsonRejectsBadFields) {
  json::Object obj;
  obj["name"] = "x";
  obj["Regfile_size"] = -1;
  EXPECT_THROW(PEDescriptor::fromJson(json::Value(obj)), Error);
  obj["Regfile_size"] = 16;
  json::Object op;
  op["energy"] = 1.0;
  op["duration"] = 1;
  obj["FDIV"] = std::move(op);
  EXPECT_THROW(PEDescriptor::fromJson(json::Value(obj)), Error);
}

// BFS oracle for Floyd–Warshall checks, over the source lists alone.
std::vector<unsigned> bfsDistances(const Interconnect& ic, PEId from) {
  std::vector<unsigned> dist(ic.numPEs(), kUnreachable);
  std::queue<PEId> q;
  dist[from] = 0;
  q.push(from);
  while (!q.empty()) {
    const PEId cur = q.front();
    q.pop();
    for (PEId next = 0; next < ic.numPEs(); ++next)
      if (std::ranges::find(ic.sources(next), cur) != ic.sources(next).end() &&
          dist[next] == kUnreachable) {
        dist[next] = dist[cur] + 1;
        q.push(next);
      }
  }
  return dist;
}

class FloydVsBfs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FloydVsBfs, RandomGraphsMatchOracle) {
  Rng rng(GetParam());
  const unsigned n = static_cast<unsigned>(rng.range(2, 12));
  Interconnect ic(n);
  for (PEId a = 0; a < n; ++a)
    for (PEId b = 0; b < n; ++b)
      if (a != b && rng.chance(1, 3)) ic.addLink(a, b);
  ic.computeShortestPaths();

  for (PEId from = 0; from < n; ++from) {
    const auto oracle = bfsDistances(ic, from);
    for (PEId to = 0; to < n; ++to) {
      EXPECT_EQ(ic.distance(from, to), oracle[to])
          << "from " << from << " to " << to;
      if (oracle[to] == kUnreachable) continue;
      // Walking the next-hop table follows links and reaches `to` in
      // exactly the shortest distance.
      unsigned hops = 0;
      for (PEId cur = from; cur != to && hops <= n; ++hops) {
        const PEId next = ic.nextHop(cur, to);
        EXPECT_TRUE(ic.hasLink(cur, next)) << cur << " -> " << next;
        EXPECT_EQ(ic.distance(next, to) + 1, ic.distance(cur, to));
        cur = next;
      }
      EXPECT_EQ(hops, oracle[to]) << "path is shortest";
      EXPECT_EQ(ic.nextHop(to, to), to);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloydVsBfs,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Interconnect, JsonRoundTrip) {
  Interconnect ic(3);
  ic.addBidirectional(0, 1);
  ic.addLink(1, 2);
  ic.addLink(2, 0);
  ic.computeShortestPaths();
  json::Writer w;
  ic.writeJson(w);
  const Interconnect back = Interconnect::fromJson(json::parse(w.str()), 3);
  EXPECT_TRUE(back.hasLink(0, 1));
  EXPECT_TRUE(back.hasLink(1, 0));
  EXPECT_TRUE(back.hasLink(1, 2));
  EXPECT_FALSE(back.hasLink(2, 1));
  EXPECT_EQ(back.distance(0, 2), 2u);
}

TEST(Interconnect, SelfLinksIgnored) {
  Interconnect ic(2);
  ic.addLink(0, 0);
  ic.addBidirectional(0, 1);
  EXPECT_EQ(ic.numLinks(), 2u);
}

TEST(Composition, ValidatesStructuralConstraints) {
  FactoryOptions opts;
  // More than 4 DMA PEs is rejected (paper §IV-A.1).
  {
    std::vector<PEDescriptor> pes;
    for (unsigned i = 0; i < 6; ++i)
      pes.push_back(PEDescriptor::fullInteger("p", 32, true));
    Interconnect ic(6);
    for (PEId i = 0; i < 6; ++i) ic.addBidirectional(i, (i + 1) % 6);
    ic.computeShortestPaths();
    EXPECT_THROW(Composition("bad", pes, ic, 256, 32), Error);
  }
  // Disconnected interconnect is rejected.
  {
    std::vector<PEDescriptor> pes;
    pes.push_back(PEDescriptor::fullInteger("p", 32, true));
    pes.push_back(PEDescriptor::fullInteger("p", 32, false));
    Interconnect ic(2);  // no links
    ic.computeShortestPaths();
    EXPECT_THROW(Composition("bad", pes, ic, 256, 32), Error);
  }
  (void)opts;
}

TEST(Composition, JsonRoundTrip) {
  const Composition comp = makeIrregular('F');
  const Composition back =
      Composition::fromJson(json::parse(comp.canonicalJson()));
  EXPECT_EQ(back.name(), comp.name());
  EXPECT_EQ(back.numPEs(), comp.numPEs());
  EXPECT_EQ(back.contextMemoryLength(), comp.contextMemoryLength());
  EXPECT_EQ(back.cboxSlots(), comp.cboxSlots());
  EXPECT_EQ(back.pesSupporting(Op::IMUL).size(),
            comp.pesSupporting(Op::IMUL).size());
  for (PEId to = 0; to < comp.numPEs(); ++to)
    EXPECT_EQ(back.interconnect().sources(to), comp.interconnect().sources(to));
}

TEST(Factory, MeshShapesMatchFig13) {
  for (unsigned n : meshSizes()) {
    const Composition comp = makeMesh(n);
    EXPECT_EQ(comp.numPEs(), n);
    EXPECT_GE(comp.dmaPEs().size(), 1u);
    EXPECT_LE(comp.dmaPEs().size(), 4u);
    EXPECT_TRUE(comp.interconnect().stronglyConnected());
    // Mesh: every PE has 2..4 neighbours, links are symmetric.
    for (PEId p = 0; p < n; ++p) {
      const auto& sources = comp.interconnect().sources(p);
      EXPECT_GE(sources.size(), 2u);
      EXPECT_LE(sources.size(), 4u);
      for (PEId s : sources) EXPECT_TRUE(comp.interconnect().hasLink(p, s));
    }
  }
  EXPECT_THROW(makeMesh(5), Error);
}

TEST(Factory, IrregularTopologiesMatchFig14Properties) {
  for (char c : irregularLabels()) {
    const Composition comp = makeIrregular(c);
    EXPECT_EQ(comp.numPEs(), 8u);
    EXPECT_TRUE(comp.interconnect().stronglyConnected());
  }
  // B has the sparsest interconnect; D the richest.
  const std::size_t linksB = makeIrregular('B').interconnect().numLinks();
  const std::size_t linksD = makeIrregular('D').interconnect().numLinks();
  for (char c : irregularLabels()) {
    const std::size_t links = makeIrregular(c).interconnect().numLinks();
    EXPECT_GE(links, linksB) << c;
    EXPECT_LE(links, linksD) << c;
  }
  // F: only two PEs multiply ("only the black PEs support multiplication").
  EXPECT_EQ(makeIrregular('F').pesSupporting(Op::IMUL).size(), 2u);
  EXPECT_EQ(makeIrregular('D').pesSupporting(Op::IMUL).size(), 8u);
  EXPECT_THROW(makeIrregular('G'), Error);
}

TEST(Factory, SingleCycleMultiplierOption) {
  FactoryOptions opts;
  opts.blockMultiplier = false;
  const Composition comp = makeMesh(4, opts);
  for (PEId p = 0; p < 4; ++p)
    EXPECT_EQ(comp.pe(p).impl(Op::IMUL).duration, 1u);
}

// The resource model is calibrated against Table II; check the anchor rows.
TEST(ResourceModel, MatchesTable2Anchors) {
  const ResourceEstimate m4 = estimateResources(makeMesh(4));
  EXPECT_NEAR(m4.frequencyMHz, 103.6, 1.5);
  EXPECT_NEAR(m4.lutLogicPct(), 1.01, 0.15);
  EXPECT_NEAR(m4.lutMemoryPct(), 0.61, 0.05);
  EXPECT_NEAR(m4.dspPct(), 0.33, 0.01);
  EXPECT_NEAR(m4.bramPct(), 0.34, 0.01);

  const ResourceEstimate m16 = estimateResources(makeMesh(16));
  EXPECT_NEAR(m16.frequencyMHz, 86.9, 1.5);
  EXPECT_NEAR(m16.lutLogicPct(), 3.61, 0.3);
  EXPECT_NEAR(m16.lutMemoryPct(), 1.82, 0.1);
  EXPECT_NEAR(m16.dspPct(), 1.33, 0.01);
  EXPECT_NEAR(m16.bramPct(), 1.16, 0.01);
}

TEST(ResourceModel, ShapesFromThePaper) {
  // Utilization grows ~linearly with PE count (§VI-B).
  double prevLut = 0;
  for (unsigned n : meshSizes()) {
    const ResourceEstimate est = estimateResources(makeMesh(n));
    EXPECT_GT(est.lutLogicPct(), prevLut);
    prevLut = est.lutLogicPct();
  }
  // Composition F uses 75% fewer DSPs than D (Table II: 0.17 vs 0.67).
  const ResourceEstimate d = estimateResources(makeIrregular('D'));
  const ResourceEstimate f = estimateResources(makeIrregular('F'));
  EXPECT_NEAR(static_cast<double>(f.dsp) / d.dsp, 0.25, 0.01);
  // Smaller RF clocks faster (§VI-B: +7.2% going 128 -> 32 entries).
  FactoryOptions rf32;
  rf32.regfileSize = 32;
  const double gain = estimateResources(makeMesh(4, rf32)).frequencyMHz /
                      estimateResources(makeMesh(4)).frequencyMHz;
  EXPECT_GT(gain, 1.03);
  EXPECT_LT(gain, 1.12);
  // Single-cycle multipliers clock lower (Table III).
  FactoryOptions single;
  single.blockMultiplier = false;
  EXPECT_LT(estimateResources(makeMesh(4, single)).frequencyMHz,
            estimateResources(makeMesh(4)).frequencyMHz);
}

TEST(Composition, DotRenderingMarksDmaAndMul) {
  const std::string dot = makeIrregular('F').toDot();
  EXPECT_NE(dot.find("DMA"), std::string::npos);
  EXPECT_NE(dot.find("no-MUL"), std::string::npos);
}


TEST(Factory, RingTopologies) {
  const Composition uni = makeRing(6, /*bidirectional=*/false);
  EXPECT_EQ(uni.interconnect().numLinks(), 6u);
  EXPECT_EQ(uni.interconnect().distance(0, 5), 5u) << "one-way around";
  EXPECT_EQ(uni.interconnect().distance(5, 0), 1u);
  const Composition bi = makeRing(6, /*bidirectional=*/true);
  EXPECT_EQ(bi.interconnect().numLinks(), 12u);
  EXPECT_EQ(bi.interconnect().distance(0, 5), 1u);
  EXPECT_THROW(makeRing(1), Error);
}

TEST(Factory, TorusWrapsBothDimensions) {
  const Composition t = makeTorus(3, 4);
  EXPECT_EQ(t.numPEs(), 12u);
  // Wrap links: corner reaches the opposite corner in 2 hops (wrap both).
  EXPECT_EQ(t.interconnect().distance(0, 11), 2u);
  // Every PE has exactly 4 sources in a torus.
  for (PEId p = 0; p < 12; ++p)
    EXPECT_EQ(t.interconnect().sources(p).size(), 4u);
  EXPECT_THROW(makeTorus(1, 4), Error);
}

TEST(Factory, StarRoutesThroughHub) {
  const Composition s = makeStar(6);
  EXPECT_EQ(s.interconnect().distance(1, 5), 2u) << "spoke-hub-spoke";
  EXPECT_EQ(s.interconnect().sources(0).size(), 5u);
  EXPECT_EQ(s.dmaPEs(), std::vector<PEId>{0});
  EXPECT_TRUE(s.interconnect().stronglyConnected());
}


TEST(Composition, FromJsonFileResolvesReferences) {
  // Fig. 8-style split description: the composition file references
  // separate PE and interconnect files.
  const std::string dir = ::testing::TempDir();
  const Composition ref = makeIrregular('F');
  json::Value doc = json::parse(ref.canonicalJson());
  json::Object& obj = doc.asObject();

  // Externalize PE 0 and the interconnect into their own files.
  json::writeFile(dir + "/pe0.json", obj["PEs"].asObject().at("0"));
  json::writeFile(dir + "/intercon.json", obj.at("Interconnect"));
  obj["PEs"].asObject()["0"] = "pe0.json";             // relative reference
  obj["Interconnect"] = dir + "/intercon.json";        // absolute reference
  json::writeFile(dir + "/comp.json", doc);

  const Composition back = Composition::fromJsonFile(dir + "/comp.json");
  EXPECT_EQ(back.numPEs(), ref.numPEs());
  EXPECT_EQ(back.pe(0).name(), ref.pe(0).name());
  EXPECT_EQ(back.pe(0).hasDma(), ref.pe(0).hasDma());
  for (PEId to = 0; to < ref.numPEs(); ++to)
    EXPECT_EQ(back.interconnect().sources(to), ref.interconnect().sources(to));

  // Repeated references to one PE file share the descriptor.
  obj["PEs"].asObject()["3"] = "pe0.json";
  json::writeFile(dir + "/comp2.json", doc);
  const Composition shared = Composition::fromJsonFile(dir + "/comp2.json");
  EXPECT_EQ(shared.pe(3).name(), ref.pe(0).name());

  EXPECT_THROW(Composition::fromJsonFile(dir + "/nonexistent.json"), Error);
}

TEST(Factory, MakeTopologyBuildsEveryFamily) {
  const FactoryOptions opts;
  for (const char* topo : {"mesh", "torus", "ring", "uniring", "star"}) {
    const Composition comp = makeTopology(topo, topo, 2, 3, opts, {0});
    EXPECT_EQ(comp.numPEs(), 6u) << topo;
    EXPECT_TRUE(comp.interconnect().stronglyConnected()) << topo;
    EXPECT_EQ(comp.dmaPEs(), std::vector<PEId>{0}) << topo;
  }
}

TEST(Factory, MakeTopologyRejectsDegenerateInputs) {
  const FactoryOptions opts;
  // Zero-PE arrays, in both orientations.
  EXPECT_THROW(makeTopology("z", "mesh", 0, 4, opts, {0}), Error);
  EXPECT_THROW(makeTopology("z", "mesh", 4, 0, opts, {0}), Error);
  // DMA placement that cannot reach the array: none at all, or an id past
  // the last PE.
  EXPECT_THROW(makeTopology("d", "mesh", 2, 2, opts, {}), Error);
  EXPECT_THROW(makeTopology("d", "mesh", 2, 2, opts, {4}), Error);
  EXPECT_THROW(makeTopology("d", "mesh", 2, 2, opts, {0}, {7}), Error);
  // Shape floors per family.
  EXPECT_THROW(makeTopology("t", "torus", 1, 4, opts, {0}), Error);
  EXPECT_THROW(makeTopology("t", "torus", 4, 1, opts, {0}), Error);
  EXPECT_THROW(makeTopology("r", "ring", 1, 1, opts, {0}), Error);
  EXPECT_THROW(makeTopology("s", "star", 1, 1, opts, {0}), Error);
  // Unknown family is a typed error, not a silent mesh.
  EXPECT_THROW(makeTopology("u", "moebius", 2, 2, opts, {0}), Error);
  // RF width 0 (more generally < 4) fails Composition::validate().
  FactoryOptions tinyRf;
  tinyRf.regfileSize = 0;
  EXPECT_THROW(makeTopology("rf", "mesh", 2, 2, tinyRf, {0}), Error);
}

TEST(Factory, ResolveCompositionAcceptsEveryNameForm) {
  EXPECT_EQ(resolveComposition("mesh9").canonicalJson(),
            makeMesh(9).canonicalJson());
  for (const char label : irregularLabels())
    EXPECT_EQ(resolveComposition(std::string(1, label)).canonicalJson(),
              makeIrregular(label).canonicalJson())
        << label;

  const std::string path = ::testing::TempDir() + "/resolve_comp.json";
  const Composition ring = makeRing(5);
  json::writeFile(path, ring.canonicalJson());
  EXPECT_EQ(resolveComposition(path).canonicalJson(), ring.canonicalJson());

  for (const char* bad : {"nope99", "G", "torus9"})
    EXPECT_THROW(resolveComposition(bad), Error) << bad;
}

TEST(Composition, RejectsOpLessPE) {
  // A PE whose op set is empty can never host an operation or a route
  // endpoint; Composition::validate() must reject it with a typed error
  // rather than letting the scheduler fail deep inside.
  Composition ok = makeMeshGrid(2, 2);
  std::vector<PEDescriptor> pes;
  for (PEId i = 0; i < ok.numPEs(); ++i) pes.push_back(ok.pe(i));
  pes[2] = PEDescriptor("mute", 128, false);  // no ops registered
  try {
    Composition bad("bad", pes, ok.interconnect(), 256, 32);
    FAIL() << "op-less PE must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("supports no operations"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace cgra
