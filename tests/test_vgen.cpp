// Unit tests for the Verilog generator: structural completeness (one module
// per PE + the four static modules + top), operation case arms matching the
// PE's supported set, DMA ports only on DMA PEs, interconnect wiring in the
// top module, and stability across compositions.
#include <gtest/gtest.h>

#include "arch/factory.hpp"
#include "vgen/verilog.hpp"

namespace cgra {
namespace {

TEST(Verilog, EmitsAllModules) {
  const Composition comp = makeMesh(4);
  const std::string rtl = generateVerilog(comp);
  for (const char* mod :
       {"module context_memory", "module regfile", "module cbox",
        "module ccu", "module pe0", "module pe1", "module pe2", "module pe3",
        "module mesh4_top"})
    EXPECT_NE(rtl.find(mod), std::string::npos) << mod;
  const VerilogStats stats = analyzeVerilog(rtl);
  EXPECT_EQ(stats.modules, 4u + 4u + 1u);
  EXPECT_GT(stats.lines, 200u);
  EXPECT_GT(stats.alwaysBlocks, 4u);
}

TEST(Verilog, AluCaseArmsFollowOperationSet) {
  // Composition F: only PEs 1 and 6 multiply.
  const Composition comp = makeIrregular('F');
  const std::string rtl = generateVerilog(comp);

  auto peModule = [&](PEId p) {
    const std::string tag = "module pe" + std::to_string(p) + " ";
    const std::size_t begin = rtl.find(tag);
    EXPECT_NE(begin, std::string::npos);
    const std::size_t end = rtl.find("endmodule", begin);
    return rtl.substr(begin, end - begin);
  };

  EXPECT_NE(peModule(1).find("// IMUL"), std::string::npos);
  EXPECT_NE(peModule(6).find("// IMUL"), std::string::npos);
  EXPECT_EQ(peModule(0).find("// IMUL"), std::string::npos);
  EXPECT_EQ(peModule(7).find("// IMUL"), std::string::npos);
  // All PEs keep the basic integer set and comparisons.
  for (PEId p = 0; p < 8; ++p) {
    EXPECT_NE(peModule(p).find("// IADD"), std::string::npos) << p;
    EXPECT_NE(peModule(p).find("// IFLT"), std::string::npos) << p;
  }
}

TEST(Verilog, DmaPortsOnlyOnDmaPEs) {
  const Composition comp = makeMesh(9);
  const std::string rtl = generateVerilog(comp);
  for (PEId p = 0; p < comp.numPEs(); ++p) {
    const std::string tag = "module pe" + std::to_string(p) + " ";
    const std::size_t begin = rtl.find(tag);
    const std::size_t end = rtl.find("endmodule", begin);
    const std::string body = rtl.substr(begin, end - begin);
    if (comp.pe(p).hasDma())
      EXPECT_NE(body.find("dma_req"), std::string::npos) << p;
    else
      EXPECT_EQ(body.find("dma_req"), std::string::npos) << p;
  }
}

TEST(Verilog, TopModuleWiresInterconnect) {
  const Composition comp = makeIrregular('B');  // unidirectional ring
  const std::string rtl = generateVerilog(comp);
  // PE1 reads PE0's output register: .in0(rf_out[0]) inside u_pe1.
  EXPECT_NE(rtl.find(".in0(rf_out[0])"), std::string::npos);
  // The ring is unidirectional: pe0 sources only from pe7.
  EXPECT_NE(rtl.find(".in0(rf_out[7])"), std::string::npos);
}

TEST(Verilog, InputPortsMatchSourceCounts) {
  const Composition comp = makeMesh(6);
  const std::string rtl = generateVerilog(comp);
  for (PEId p = 0; p < comp.numPEs(); ++p) {
    const std::string tag = "module pe" + std::to_string(p) + " ";
    const std::size_t begin = rtl.find(tag);
    const std::size_t end = rtl.find("endmodule", begin);
    const std::string body = rtl.substr(begin, end - begin);
    const std::size_t numSources = comp.interconnect().sources(p).size();
    for (unsigned i = 0; i < numSources; ++i)
      EXPECT_NE(body.find("in" + std::to_string(i) + ","), std::string::npos)
          << "pe" << p << " in" << i;
    EXPECT_EQ(body.find("input  wire [31:0] in" + std::to_string(numSources)),
              std::string::npos);
  }
}

TEST(Verilog, SignedOpsUseSignedComparisons) {
  const Composition comp = makeMesh(4);
  const std::string rtl = generateVerilog(comp);
  EXPECT_NE(rtl.find("$signed(op_a) < $signed(op_b)"), std::string::npos);
  EXPECT_NE(rtl.find(">>>"), std::string::npos) << "arithmetic shift right";
}

TEST(Verilog, GrowsWithCompositionSize) {
  const std::size_t lines4 = analyzeVerilog(generateVerilog(makeMesh(4))).lines;
  const std::size_t lines16 =
      analyzeVerilog(generateVerilog(makeMesh(16))).lines;
  EXPECT_GT(lines16, lines4 + 400) << "per-PE modules dominate";
}

}  // namespace
}  // namespace cgra
