#include "vgen/verilog.hpp"

#include <sstream>

#include "support/bitvector.hpp"

namespace cgra {

namespace {

/// Datapath width of the emitted RTL.
constexpr unsigned W = 32;

/// Emits the per-operation datapath statement of one ALU case arm.
std::string aluCaseArm(Op op, const std::string& a, const std::string& b) {
  switch (op) {
    case Op::MOVE: return a;
    case Op::CONST: return "imm";
    case Op::IADD: return a + " + " + b;
    case Op::ISUB: return a + " - " + b;
    case Op::IMUL: return a + " * " + b;
    case Op::INEG: return "-" + a;
    case Op::IAND: return a + " & " + b;
    case Op::IOR: return a + " | " + b;
    case Op::IXOR: return a + " ^ " + b;
    case Op::ISHL: return a + " << " + b + "[4:0]";
    case Op::ISHR: return "$signed(" + a + ") >>> " + b + "[4:0]";
    case Op::IUSHR: return a + " >> " + b + "[4:0]";
    default: return "32'h0";
  }
}

std::string statusCaseArm(Op op, const std::string& a, const std::string& b) {
  switch (op) {
    case Op::IFEQ: return a + " == " + b;
    case Op::IFNE: return a + " != " + b;
    case Op::IFLT: return "$signed(" + a + ") < $signed(" + b + ")";
    case Op::IFGE: return "$signed(" + a + ") >= $signed(" + b + ")";
    case Op::IFGT: return "$signed(" + a + ") > $signed(" + b + ")";
    case Op::IFLE: return "$signed(" + a + ") <= $signed(" + b + ")";
    default: return "1'b0";
  }
}

void emitStaticModules(std::ostringstream& os, const Composition& comp) {
  const unsigned ctxAddrBits = bitsFor(comp.contextMemoryLength());
  const unsigned condAddrBits = bitsFor(comp.cboxSlots());

  os << "// ---- static structures: parameterized, shared by all "
        "compositions ----\n\n";

  // Context memory (one instance per PE plus C-Box and CCU streams).
  os << "module context_memory #(parameter WIDTH = 32, parameter DEPTH = "
     << comp.contextMemoryLength() << ") (\n"
     << "  input  wire                      clk,\n"
     << "  input  wire [" << ctxAddrBits - 1 << ":0]            ccnt,\n"
     << "  input  wire                      wr_en,\n"
     << "  input  wire [" << ctxAddrBits - 1 << ":0]            wr_addr,\n"
     << "  input  wire [WIDTH-1:0]          wr_data,\n"
     << "  output reg  [WIDTH-1:0]          context_word\n"
     << ");\n"
     << "  (* ram_style = \"block\" *) reg [WIDTH-1:0] mem [0:DEPTH-1];\n"
     << "  always @(posedge clk) begin\n"
     << "    if (wr_en) mem[wr_addr] <= wr_data;\n"
     << "    context_word <= mem[ccnt];\n"
     << "  end\n"
     << "endmodule\n\n";

  // Register file: two ALU read ports, one transfer output port, one
  // optional DMA index port (Fig. 3).
  os << "module regfile #(parameter ADDR = 7) (\n"
     << "  input  wire            clk,\n"
     << "  input  wire            wr_en,\n"
     << "  input  wire [ADDR-1:0] wr_addr,\n"
     << "  input  wire [" << W - 1 << ":0]     wr_data,\n"
     << "  input  wire [ADDR-1:0] rd_addr_a,\n"
     << "  input  wire [ADDR-1:0] rd_addr_b,\n"
     << "  input  wire [ADDR-1:0] rd_addr_out,\n"
     << "  input  wire [ADDR-1:0] rd_addr_idx,\n"
     << "  output wire [" << W - 1 << ":0]     rd_a,\n"
     << "  output wire [" << W - 1 << ":0]     rd_b,\n"
     << "  output wire [" << W - 1 << ":0]     rd_out,\n"
     << "  output wire [" << W - 1 << ":0]     rd_idx\n"
     << ");\n"
     << "  reg [" << W - 1 << ":0] mem [0:(1<<ADDR)-1];\n"
     << "  always @(posedge clk) if (wr_en) mem[wr_addr] <= wr_data;\n"
     << "  assign rd_a   = mem[rd_addr_a];\n"
     << "  assign rd_b   = mem[rd_addr_b];\n"
     << "  assign rd_out = mem[rd_addr_out];\n"
     << "  assign rd_idx = mem[rd_addr_idx];\n"
     << "endmodule\n\n";

  // C-Box (Fig. 4): one status input per cycle, condition memory with one
  // write and two stored-read ports, predication and branch outputs.
  os << "module cbox #(parameter SLOTS = " << comp.cboxSlots() << ") (\n"
     << "  input  wire                 clk,\n"
     << "  input  wire                 status,\n"
     << "  input  wire                 status_valid,\n"
     << "  input  wire                 in_a_stored,\n"
     << "  input  wire [" << condAddrBits - 1 << ":0]           addr_a,\n"
     << "  input  wire                 inv_a,\n"
     << "  input  wire                 use_b,\n"
     << "  input  wire [" << condAddrBits - 1 << ":0]           addr_b,\n"
     << "  input  wire                 inv_b,\n"
     << "  input  wire [1:0]           logic_op,\n"
     << "  input  wire                 wr_en,\n"
     << "  input  wire [" << condAddrBits - 1 << ":0]           addr_wr,\n"
     << "  input  wire [" << condAddrBits - 1 << ":0]           addr_pe,\n"
     << "  input  wire                 inv_pe,\n"
     << "  input  wire [" << condAddrBits - 1 << ":0]           addr_ctrl,\n"
     << "  input  wire                 inv_ctrl,\n"
     << "  output wire                 out_pe,\n"
     << "  output wire                 out_ctrl\n"
     << ");\n"
     << "  reg mem [0:SLOTS-1];\n"
     << "  wire a = (in_a_stored ? mem[addr_a] : (status & status_valid)) ^ inv_a;\n"
     << "  wire b = (mem[addr_b]) ^ inv_b;\n"
     << "  wire combined = (logic_op == 2'd0) ? a :\n"
     << "                  (logic_op == 2'd1) ? (a & (use_b ? b : 1'b1)) :\n"
     << "                                        (a | (use_b ? b : 1'b0));\n"
     << "  always @(posedge clk) if (wr_en) mem[addr_wr] <= combined;\n"
     << "  assign out_pe   = mem[addr_pe] ^ inv_pe;\n"
     << "  assign out_ctrl = mem[addr_ctrl] ^ inv_ctrl;\n"
     << "endmodule\n\n";

  // CCU (Fig. 5): incrementing context counter with conditional and
  // unconditional jumps; locks on the last context until re-initialized.
  os << "module ccu #(parameter ADDR = " << ctxAddrBits << ") (\n"
     << "  input  wire            clk,\n"
     << "  input  wire            rst,\n"
     << "  input  wire            run,\n"
     << "  input  wire [ADDR-1:0] start_ccnt,\n"
     << "  input  wire            branch_present,\n"
     << "  input  wire            branch_conditional,\n"
     << "  input  wire            branch_sel,\n"
     << "  input  wire [ADDR-1:0] branch_target,\n"
     << "  input  wire [ADDR-1:0] last_context,\n"
     << "  output reg  [ADDR-1:0] ccnt,\n"
     << "  output wire            done\n"
     << ");\n"
     << "  wire take = branch_present & (~branch_conditional | branch_sel);\n"
     << "  assign done = ccnt == last_context;\n"
     << "  always @(posedge clk) begin\n"
     << "    if (rst)            ccnt <= start_ccnt;\n"
     << "    else if (run & ~done) ccnt <= take ? branch_target : ccnt + 1'b1;\n"
     << "  end\n"
     << "endmodule\n\n";
}

void emitPeModule(std::ostringstream& os, const Composition& comp, PEId pe) {
  const PEDescriptor& desc = comp.pe(pe);
  const unsigned rfAddr = bitsFor(desc.regfileSize());
  const auto& sources = comp.interconnect().sources(pe);
  const unsigned selBits = bitsFor(std::max<std::size_t>(1, sources.size()));

  os << "// ---- PE " << pe << " (" << desc.name() << "): "
     << (desc.hasDma() ? "with DMA, " : "") << desc.ops().size()
     << " operations, " << sources.size() << " input sources ----\n";

  os << "module pe" << pe << " (\n"
     << "  input  wire        clk,\n"
     << "  input  wire        rst,\n";
  for (unsigned i = 0; i < sources.size(); ++i)
    os << "  input  wire [" << W - 1 << ":0] in" << i << ",  // from PE "
       << sources[i] << "\n";
  os << "  input  wire [" << W - 1 << ":0] livein,\n"
     << "  input  wire        livein_valid,\n"
     << "  input  wire [" << rfAddr - 1 << ":0]  livein_addr,\n"
     << "  input  wire        pred,\n"
     << "  input  wire [63:0] context_word,\n";
  if (desc.hasDma())
    os << "  output wire [" << W - 1 << ":0] dma_addr,\n"
       << "  output wire [" << W - 1 << ":0] dma_wdata,\n"
       << "  output wire        dma_req,\n"
       << "  output wire        dma_we,\n"
       << "  input  wire [" << W - 1 << ":0] dma_rdata,\n"
       << "  input  wire        dma_ack,\n";
  os << "  output wire [" << W - 1 << ":0] rf_out,\n"
     << "  output wire [" << W - 1 << ":0] liveout,\n"
     << "  output wire        status\n"
     << ");\n";

  // Context decode (fields follow the PE word layout of the context coder,
  // peWord in ctx/contexts.cpp).
  os << "  wire        op_present = context_word[0];\n"
     << "  wire [4:0]  opcode     = context_word[5:1];\n"
     << "  wire [1:0]  sel_kind_a = context_word[7:6];\n"
     << "  wire [" << selBits - 1 << ":0]  sel_src_a  = context_word["
     << 8 + selBits - 1 << ":8];\n"
     << "  wire [" << rfAddr - 1 << ":0]  rf_addr_a  = context_word["
     << 8 + selBits + rfAddr - 1 << ":" << 8 + selBits << "];\n"
     << "  // ... remaining operand/dest/pred fields decoded equivalently\n";

  // Input multiplexer over the source array (the interconnect is realized
  // in the top module as an array of wires; §IV-B).
  os << "  reg [" << W - 1 << ":0] route_a;\n"
     << "  always @(*) begin\n"
     << "    case (sel_src_a)\n";
  for (unsigned i = 0; i < sources.size(); ++i)
    os << "      " << selBits << "'d" << i << ": route_a = in" << i << ";\n";
  os << "      default: route_a = {" << W << "{1'b0}};\n"
     << "    endcase\n"
     << "  end\n";

  os << "  wire [" << W - 1 << ":0] rf_a, rf_b, rf_idx;\n"
     << "  wire [" << W - 1 << ":0] op_a = (sel_kind_a == 2'd2) ? route_a : rf_a;\n"
     << "  wire [" << W - 1 << ":0] op_b = rf_b;\n"
     << "  wire [" << W - 1 << ":0] imm  = context_word[63:32];\n";

  // ALU: each operation realized separately (the paper's generator cannot
  // express an inhomogeneous operator set with parameters).
  os << "  reg [" << W - 1 << ":0] alu_y;\n"
     << "  reg        alu_status;\n"
     << "  always @(*) begin\n"
     << "    alu_y = {" << W << "{1'b0}};\n"
     << "    alu_status = 1'b0;\n"
     << "    case (opcode)\n";
  for (unsigned opIdx = 0; opIdx < kNumOps; ++opIdx) {
    const Op op = static_cast<Op>(opIdx);
    if (!desc.supports(op) || op == Op::NOP || isMemoryOp(op)) continue;
    if (producesStatus(op))
      os << "      5'd" << opIdx << ": alu_status = "
         << statusCaseArm(op, "op_a", "op_b") << ";  // " << opName(op) << "\n";
    else
      os << "      5'd" << opIdx << ": alu_y = "
         << aluCaseArm(op, "op_a", "op_b") << ";  // " << opName(op) << "\n";
  }
  os << "      default: ;\n"
     << "    endcase\n"
     << "  end\n";

  if (desc.hasDma())
    os << "  assign dma_req   = op_present & (opcode == 5'd"
       << static_cast<unsigned>(Op::DMA_LOAD) << " || opcode == 5'd"
       << static_cast<unsigned>(Op::DMA_STORE) << ") & pred;\n"
       << "  assign dma_we    = opcode == 5'd"
       << static_cast<unsigned>(Op::DMA_STORE) << ";\n"
       << "  assign dma_addr  = op_a + rf_idx;\n"
       << "  assign dma_wdata = op_b;\n";

  // Register file instance: write enable optionally gated by the C-Box
  // predication output (§IV-A.2).
  os << "  wire rf_we = op_present & pred"
     << (desc.hasDma() ? " & ~dma_req | (dma_ack & ~dma_we)" : "") << ";\n"
     << "  wire [" << W - 1 << ":0] wr_data = livein_valid ? livein : "
     << (desc.hasDma() ? "(dma_ack ? dma_rdata : alu_y)" : "alu_y") << ";\n"
     << "  regfile #(.ADDR(" << rfAddr << ")) rf (\n"
     << "    .clk(clk), .wr_en(rf_we | livein_valid),\n"
     << "    .wr_addr(livein_valid ? livein_addr : context_word["
     << 8 + selBits + rfAddr << "+:" << rfAddr << "]),\n"
     << "    .wr_data(wr_data),\n"
     << "    .rd_addr_a(rf_addr_a), .rd_addr_b(rf_addr_a), .rd_addr_out(rf_addr_a), .rd_addr_idx(rf_addr_a),\n"
     << "    .rd_a(rf_a), .rd_b(rf_b), .rd_out(rf_out), .rd_idx(rf_idx));\n"
     << "  assign liveout = rf_out;\n"
     << "  assign status  = alu_status;\n"
     << "endmodule\n\n";
}

void emitTopModule(std::ostringstream& os, const Composition& comp) {
  const unsigned n = comp.numPEs();
  const unsigned ctxAddrBits = bitsFor(comp.contextMemoryLength());

  os << "// ---- top level: interconnect as an array of wires (§IV-B) ----\n";
  os << "module " << comp.name() << "_top (\n"
     << "  input  wire clk,\n"
     << "  input  wire rst,\n"
     << "  input  wire run,\n"
     << "  input  wire [" << ctxAddrBits - 1 << ":0] start_ccnt,\n"
     << "  output wire done\n"
     << ");\n"
     << "  wire [" << W - 1 << ":0] rf_out [0:" << n - 1 << "];\n"
     << "  wire status [0:" << n - 1 << "];\n"
     << "  wire [" << ctxAddrBits - 1 << ":0] ccnt;\n"
     << "  wire out_pe, out_ctrl;\n";

  for (PEId p = 0; p < n; ++p) {
    const auto& sources = comp.interconnect().sources(p);
    os << "  wire [63:0] ctx" << p << ";\n"
       << "  context_memory #(.WIDTH(64)) cm" << p
       << " (.clk(clk), .ccnt(ccnt), .wr_en(1'b0), .wr_addr(" << ctxAddrBits
       << "'d0), .wr_data(64'd0), .context_word(ctx" << p << "));\n"
       << "  pe" << p << " u_pe" << p << " (.clk(clk), .rst(rst),\n    ";
    for (unsigned i = 0; i < sources.size(); ++i)
      os << ".in" << i << "(rf_out[" << sources[i] << "]), ";
    os << "\n    .livein({" << W << "{1'b0}}), .livein_valid(1'b0), "
       << ".livein_addr('d0), .pred(out_pe),\n"
       << "    .context_word(ctx" << p << "),";
    if (comp.pe(p).hasDma())
      os << " .dma_addr(), .dma_wdata(), .dma_req(), .dma_we(), "
         << ".dma_rdata({" << W << "{1'b0}}), .dma_ack(1'b0),";
    os << "\n    .rf_out(rf_out[" << p << "]), .liveout(), .status(status["
       << p << "]));\n";
  }

  // Status selection into the C-Box (one status per cycle, Fig. 5).
  os << "  wire [63:0] ctx_cbox;\n"
     << "  context_memory #(.WIDTH(64)) cm_cbox (.clk(clk), .ccnt(ccnt), "
        ".wr_en(1'b0), .wr_addr('d0), .wr_data(64'd0), "
        ".context_word(ctx_cbox));\n"
     << "  reg status_mux;\n"
     << "  always @(*) begin\n"
     << "    case (ctx_cbox[" << bitsFor(n) + 1 << ":2])\n";
  for (PEId p = 0; p < n; ++p)
    os << "      " << bitsFor(n) << "'d" << p << ": status_mux = status[" << p
       << "];\n";
  os << "      default: status_mux = 1'b0;\n"
     << "    endcase\n"
     << "  end\n"
     << "  cbox u_cbox (.clk(clk), .status(status_mux), "
        ".status_valid(ctx_cbox[0]),\n"
     << "    .in_a_stored(ctx_cbox[1]), .addr_a('d0), .inv_a(1'b0), "
        ".use_b(1'b0), .addr_b('d0), .inv_b(1'b0),\n"
     << "    .logic_op(2'd0), .wr_en(ctx_cbox[0]), .addr_wr('d0), "
        ".addr_pe('d0), .inv_pe(1'b0), .addr_ctrl('d0), .inv_ctrl(1'b0),\n"
     << "    .out_pe(out_pe), .out_ctrl(out_ctrl));\n";

  os << "  wire [63:0] ctx_ccu;\n"
     << "  context_memory #(.WIDTH(64)) cm_ccu (.clk(clk), .ccnt(ccnt), "
        ".wr_en(1'b0), .wr_addr('d0), .wr_data(64'd0), "
        ".context_word(ctx_ccu));\n"
     << "  ccu u_ccu (.clk(clk), .rst(rst), .run(run), "
        ".start_ccnt(start_ccnt),\n"
     << "    .branch_present(ctx_ccu[0]), .branch_conditional(ctx_ccu[1]), "
        ".branch_sel(out_ctrl),\n"
     << "    .branch_target(ctx_ccu[2+:" << ctxAddrBits << "]), "
        ".last_context({" << ctxAddrBits << "{1'b1}}), .ccnt(ccnt), "
        ".done(done));\n"
     << "endmodule\n";
}

}  // namespace

std::string generateVerilog(const Composition& comp) {
  std::ostringstream os;
  os << "// Generated CGRA composition \"" << comp.name() << "\": "
     << comp.numPEs() << " PEs, " << comp.interconnect().numLinks()
     << " links, context depth " << comp.contextMemoryLength()
     << ", C-Box slots " << comp.cboxSlots() << "\n"
     << "// Generator: cgra-scheduler reproduction (IPDPSW'16 toolflow)\n\n";
  emitStaticModules(os, comp);
  for (PEId p = 0; p < comp.numPEs(); ++p) emitPeModule(os, comp, p);
  emitTopModule(os, comp);
  return os.str();
}

VerilogStats analyzeVerilog(const std::string& rtl) {
  VerilogStats stats;
  std::istringstream in(rtl);
  std::string line;
  while (std::getline(in, line)) {
    ++stats.lines;
    if (line.rfind("module ", 0) == 0) ++stats.modules;
    if (line.find("always @") != std::string::npos) ++stats.alwaysBlocks;
  }
  return stats;
}

}  // namespace cgra
