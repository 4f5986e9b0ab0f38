// Verilog generation (paper §IV-B, Fig. 7): a code generator emits one
// Verilog description per composition because a single generic description
// is unreasonable for irregular and inhomogeneous CGRAs.
//
// Mirroring the paper's split:
//  * variable structures — the per-PE modules (each supported operation is
//    realized separately in the ALU), and the top-level module whose
//    interconnect is an array of wires driven by each PE's output port and
//    selected by per-PE input multiplexers — are generated individually from
//    templates;
//  * static structures — CCU, context memory, register file and C-Box — are
//    parameterized modules emitted once.
//
// The output is self-consistent synthesizable-style RTL; we cannot run
// Vivado here, so the companion resource model (arch/resource_model.hpp)
// stands in for the synthesis numbers (see DESIGN.md).
#pragma once

#include <string>

#include "arch/composition.hpp"

namespace cgra {

/// Generates the complete, commented Verilog description of a composition
/// over a 32-bit datapath: static modules (ccu, context_memory, regfile,
/// cbox) followed by one module per PE and the top-level array module.
std::string generateVerilog(const Composition& comp);

/// Rough structural statistics of generated RTL (used in tests/benches).
struct VerilogStats {
  std::size_t modules = 0;
  std::size_t lines = 0;
  std::size_t alwaysBlocks = 0;
};

VerilogStats analyzeVerilog(const std::string& rtl);

}  // namespace cgra
