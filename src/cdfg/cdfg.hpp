// Control and Data Flow Graph — the scheduler's intermediate representation
// (paper §V-A).
//
// Shape of the IR:
//  * Nodes are either ALU operations (including comparisons, whose result is
//    a status bit for the C-Box, and DMA accesses) or predicated writes
//    (pWRITE, §V-B) committing a value to a local variable's home register.
//    Variable *reads* are not nodes: they appear as Operand::variable()
//    references on consuming nodes — the "read fused into every succeeding
//    node" form of §V-E.
//  * Dependency edges are typed: Flow (value availability), Anti (read
//    before overwrite), Output (write ordering), Control (condition must be
//    available before a predicated commit). Loop-carried dependencies are
//    implicit in the variable home-slot mechanism and recoverable for
//    rendering (Fig. 11 style).
//  * Conditions form a conjunction tree (CondId): every condition is
//    parent ∧ literal where the literal is a comparison node's status with
//    a polarity. This mirrors the C-Box, which can combine exactly one new
//    status per cycle with one stored condition (§V-H).
//  * Loops form a tree (LoopId 0 is the whole kernel). Each real loop names
//    its controlling comparison node and the polarity under which execution
//    continues, plus the path condition guarding loop entry. Loop execution
//    uses speculation: the body always runs, commits are predicated on
//    continue-condition, and the final iteration is a "dry pass" that
//    commits nothing (§V-B/V-C).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/operation.hpp"
#include "support/assert.hpp"

namespace cgra {

using NodeId = std::uint32_t;
using VarId = std::uint32_t;
using LoopId = std::uint32_t;
using CondId = std::uint32_t;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);
inline constexpr CondId kCondTrue = 0;   ///< the empty conjunction
inline constexpr LoopId kRootLoop = 0;   ///< the whole kernel "loop"

/// An input of a node: another node's result, a local variable's current
/// committed value, or an immediate constant.
class Operand {
public:
  enum class Kind { Node, Variable, Immediate };

  static Operand node(NodeId id) { return Operand(Kind::Node, id, 0); }
  static Operand variable(VarId id) { return Operand(Kind::Variable, id, 0); }
  static Operand immediate(std::int32_t v) {
    return Operand(Kind::Immediate, 0, v);
  }

  Kind kind() const { return kind_; }
  NodeId nodeId() const {
    CGRA_ASSERT(kind_ == Kind::Node);
    return id_;
  }
  VarId varId() const {
    CGRA_ASSERT(kind_ == Kind::Variable);
    return id_;
  }
  std::int32_t imm() const {
    CGRA_ASSERT(kind_ == Kind::Immediate);
    return imm_;
  }

  bool operator==(const Operand&) const = default;

private:
  Operand(Kind k, std::uint32_t id, std::int32_t imm)
      : kind_(k), id_(id), imm_(imm) {}

  Kind kind_;
  std::uint32_t id_;
  std::int32_t imm_;
};

/// Node category.
enum class NodeKind : std::uint8_t {
  Operation,  ///< ALU op / comparison / DMA access
  PWrite,     ///< predicated commit of operand 0 into a variable's home slot
};

/// One CDFG node.
struct Node {
  NodeKind kind = NodeKind::Operation;
  Op op = Op::NOP;                 ///< for Operation nodes
  VarId var = 0;                   ///< for PWrite nodes: target variable
  std::vector<Operand> operands;   ///< data inputs in ALU order
  CondId cond = kCondTrue;         ///< commit/execution condition
  LoopId loop = kRootLoop;         ///< innermost owning loop
  std::string label;               ///< debug name ("i<n", "x=", ...)

  bool isPWrite() const { return kind == NodeKind::PWrite; }
  bool isStatusProducer() const {
    return kind == NodeKind::Operation && producesStatus(op);
  }
  bool isMemory() const {
    return kind == NodeKind::Operation && isMemoryOp(op);
  }
};

/// Dependency edge category (scheduling constraint between two nodes).
enum class DepKind : std::uint8_t {
  Flow,     ///< to must start after from finishes (value availability)
  Anti,     ///< to (a write) must start no earlier than from (a read)
  Output,   ///< write-after-write ordering on the same variable
  Control,  ///< to commits under a condition derived from from's status
};

struct Edge {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  DepKind kind = DepKind::Flow;
};

/// A local variable of the kernel (paper §V-D).
struct Variable {
  std::string name;
  bool liveIn = false;   ///< transferred from the host before the run
  bool liveOut = false;  ///< written back to the host after the run
  std::int32_t initialValue = 0;  ///< host-side value at invocation
};

/// One condition: parent ∧ (status of `statusNode` == `polarity`).
/// CondId 0 is TRUE (no parent, no literal).
struct Condition {
  CondId parent = kCondTrue;
  NodeId statusNode = kNoNode;
  bool polarity = true;
};

/// One loop. Loop 0 is the pseudo-loop covering the whole kernel.
struct Loop {
  LoopId parent = kRootLoop;
  NodeId controllingNode = kNoNode;  ///< comparison producing the condition
  bool continueWhen = true;          ///< continue while status == continueWhen
  CondId entryCond = kCondTrue;      ///< path condition guarding loop entry
  CondId bodyCond = kCondTrue;       ///< entryCond ∧ continue literal
  std::string label;
};

/// The complete graph. Built by cdfg::Builder or the KIR lowering; validated
/// before scheduling.
class Cdfg {
public:
  // -- construction ---------------------------------------------------------
  NodeId addNode(Node node);
  void addEdge(NodeId from, NodeId to, DepKind kind);
  VarId addVariable(Variable var);
  /// Interns parent ∧ literal; returns an existing id when already present.
  CondId makeCondition(CondId parent, NodeId statusNode, bool polarity);
  LoopId addLoop(Loop loop);

  // -- access ---------------------------------------------------------------
  std::size_t numNodes() const { return nodes_.size(); }
  std::size_t numVariables() const { return vars_.size(); }
  std::size_t numLoops() const { return loops_.size(); }
  std::size_t numConditions() const { return conds_.size(); }

  // Defined here, not out of line: the scheduler's probes read nodes,
  // edges and conditions tens of millions of times per sweep.
  const Node& node(NodeId id) const {
    CGRA_ASSERT(id < nodes_.size());
    return nodes_[id];
  }
  Node& node(NodeId id) {
    CGRA_ASSERT(id < nodes_.size());
    return nodes_[id];
  }
  const Variable& variable(VarId id) const {
    CGRA_ASSERT(id < vars_.size());
    return vars_[id];
  }
  const Loop& loop(LoopId id) const {
    CGRA_ASSERT(id < loops_.size());
    return loops_[id];
  }
  Loop& loop(LoopId id) {
    CGRA_ASSERT(id < loops_.size());
    return loops_[id];
  }
  const Condition& condition(CondId id) const {
    CGRA_ASSERT(id < conds_.size());
    return conds_[id];
  }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Incoming / outgoing dependency edges of a node.
  const std::vector<Edge>& inEdges(NodeId id) const {
    CGRA_ASSERT(id < in_.size());
    return in_[id];
  }
  const std::vector<Edge>& outEdges(NodeId id) const {
    CGRA_ASSERT(id < out_.size());
    return out_[id];
  }

  /// Loops from `l` up to (excluding) the root, innermost first.
  std::vector<LoopId> loopAncestry(LoopId l) const;
  /// True when `inner` is `outer` or nested (transitively) inside it.
  bool loopContains(LoopId outer, LoopId inner) const;
  /// Nesting depth (root = 0).
  unsigned loopDepth(LoopId l) const;
  /// Direct children of a loop.
  std::vector<LoopId> loopChildren(LoopId l) const;

  /// All literals of a condition, outermost first.
  std::vector<std::pair<NodeId, bool>> conditionLiterals(CondId c) const;
  /// True when `outer`'s conjunction is a prefix of `inner`'s.
  bool conditionImplies(CondId inner, CondId outer) const;

  /// True when some node inside loop `l` (or nested deeper) pWRITEs `var`.
  bool varWrittenInLoop(VarId var, LoopId l) const;

  // -- analyses -------------------------------------------------------------
  /// Longest-path weight to any sink (the list scheduler's priority, §V-F).
  /// Flow edges weigh the producer's default duration; other edges weigh 0.
  std::vector<double> longestPathWeights() const;

  /// Nodes with no incoming dependency edges.
  std::vector<NodeId> rootNodes() const;

  /// Checks structural invariants; throws cgra::Error on violation:
  /// operand references in range, acyclic dependency graph, loop tree well
  /// formed, conditions reference status producers, pWRITE targets exist,
  /// every loop's controlling node inside the loop, node conditions
  /// consistent with loop body conditions. The acyclicity check computes
  /// longestPathWeights(); validate returns that result, so a caller that
  /// needs both (the scheduler) runs the pass once.
  std::vector<double> validate() const;

  /// GraphViz rendering in the style of Fig. 11 (loops as clusters, control
  /// edges dashed red, loop-carried variable dependencies with weight 1).
  std::string toDot(const std::string& title = "cdfg") const;

private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<Edge>> in_, out_;
  std::vector<Variable> vars_;
  std::vector<Condition> conds_{Condition{}};  // index 0 = TRUE
  std::vector<Loop> loops_{Loop{}};            // index 0 = root
};

}  // namespace cgra
