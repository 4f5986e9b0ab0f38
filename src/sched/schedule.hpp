// Schedule representation: the scheduler's output, consumed by the context
// generator (bit-level encoding) and the cycle-accurate simulator.
//
// A schedule is a linear sequence of contexts (cycles) 0..length-1 executed
// by the global context counter. Loops occupy contiguous context intervals
// whose last context carries a conditional back-branch in the CCU steered by
// a C-Box condition slot. Register references are *virtual* at this stage
// (per-PE virtual registers, virtual C-Box slots); the ctx module performs
// left-edge allocation onto physical registers afterwards (§V-I).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/composition.hpp"
#include "cdfg/cdfg.hpp"

namespace cgra {

/// Where an ALU operand comes from at execution time.
struct OperandSource {
  enum class Kind : std::uint8_t {
    None,  ///< operand unused
    Own,   ///< this PE's register file
    Route, ///< a source PE's output port exposing one of its registers
    Imm,   ///< immediate from the context word (CONST only)
  };
  Kind kind = Kind::None;
  PEId srcPE = 0;        ///< Route: whose output port
  unsigned vreg = 0;     ///< Own/Route: virtual register in that PE
  std::int32_t imm = 0;  ///< Imm
};

/// Reference to a C-Box condition slot with read polarity.
struct PredRef {
  unsigned slot = 0;
  bool polarity = true;

  bool operator==(const PredRef&) const = default;
};

/// One operation instance in the schedule (a PE context entry occupancy).
struct ScheduledOp {
  NodeId node = kNoNode;  ///< CDFG origin; kNoNode for inserted MOVE/CONST
  Op op = Op::NOP;
  PEId pe = 0;
  unsigned start = 0;     ///< first cycle
  unsigned duration = 1;  ///< cycles the PE is busy; result commits at end
  std::array<OperandSource, 3> src{};
  bool writesDest = false;
  unsigned destVreg = 0;               ///< own-RF virtual register
  std::optional<PredRef> pred;         ///< RF-write / memory-op gate
  bool emitsStatus = false;            ///< comparison: status wire to C-Box
  std::string label;                   ///< debug

  unsigned lastCycle() const { return start + duration - 1; }
};

/// One C-Box context entry: combine up to two condition sources into a slot.
struct CBoxOp {
  /// A combine input: the live status wire or a stored slot, with polarity.
  struct Input {
    enum class Kind : std::uint8_t { Status, Stored };
    Kind kind = Kind::Status;
    unsigned slot = 0;  ///< Stored
    bool polarity = true;
  };

  unsigned time = 0;
  std::vector<Input> inputs;  ///< 1 or 2 inputs; at most one Status
  enum class Logic : std::uint8_t { Pass, And, Or } logic = Logic::Pass;
  unsigned writeSlot = 0;  ///< virtual condition slot written (end of cycle)
  CondId cond = kCondTrue; ///< bookkeeping: which condition the slot holds
};

/// One CCU branch entry.
struct BranchOp {
  unsigned time = 0;    ///< context whose successor is redirected
  unsigned target = 0;  ///< next CCNT when taken
  bool conditional = true;
  PredRef pred;         ///< taken when slot reads `polarity`
  LoopId loop = kRootLoop;  ///< bookkeeping: which loop this back-branch closes
};

/// Context interval occupied by a loop.
struct LoopInterval {
  LoopId loop = kRootLoop;
  unsigned start = 0;
  unsigned end = 0;  ///< context holding the back-branch
};

/// Host-transfer binding of a variable to its home register.
struct LiveBinding {
  VarId var = 0;
  PEId pe = 0;
  unsigned vreg = 0;
};

/// Complete schedule for one kernel on one composition.
struct Schedule {
  unsigned length = 0;  ///< number of contexts used
  std::vector<ScheduledOp> ops;
  std::vector<CBoxOp> cboxOps;
  std::vector<BranchOp> branches;
  std::vector<LoopInterval> loops;
  std::vector<LiveBinding> liveIns;
  std::vector<LiveBinding> liveOuts;
  /// Home registers of ALL variables (superset of liveIns/liveOuts). Homes
  /// are reserved for the entire invocation: their writes are predicated,
  /// so the pre-write register content is observable (dry passes, untaken
  /// branches, live-out read-back) and must not be clobbered by register
  /// reuse (§V-B/V-D).
  std::vector<LiveBinding> varHomes;
  std::vector<unsigned> vregsPerPE;  ///< virtual register count per PE
  unsigned cboxSlotsUsed = 0;        ///< virtual condition slot count

  /// Ops sorted by (start, pe); built lazily by callers that need it.
  std::vector<const ScheduledOp*> opsByTime() const;

  /// Multi-line human-readable dump (tests, debugging).
  std::string toString(const Composition& comp) const;

  /// Order-sensitive FNV-1a digest over every schedule field. Two schedules
  /// with equal fingerprints are byte-identical for all practical purposes;
  /// the sweep engine uses this to assert parallel runs match serial ones.
  std::uint64_t fingerprint() const;
};

}  // namespace cgra
