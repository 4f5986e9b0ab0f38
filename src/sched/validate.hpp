// The one schedule verifier. Every rule a schedule must keep (paper §V)
// is checked here and nowhere else, in three layers ordered by what the
// caller holds: the schedule alone, its composition, and the CDFG it was
// made from. Every trust boundary runs it:
//  * scheduleFromJson runs layer 1, so no parsed schedule indexes out of
//    its own bounds;
//  * generateContexts, encodePhysical, the Simulator and
//    computeScheduleQuality run layers 1-2 before building their
//    per-context tables;
//  * ArtifactStore runs all three on every disk load, so an edited and
//    re-fingerprinted cache file is a miss, never a hit;
//  * the test suite runs all three on every schedule it makes.
#pragma once

#include <string>
#include <vector>

#include "sched/schedule.hpp"

namespace cgra {

/// Returns the violations of `sched` (empty = valid). The layers run in
/// order, as far as the arguments reach, and a layer that finds any
/// violation ends the run, so each layer relies on the ones before it:
///  1. bounds (always): every op, C-Box op, branch, loop and binding lies
///     inside the schedule's own length, PE count (`vregsPerPE.size()`),
///     register counts and C-Box slots; opcodes are valid; a C-Box op has
///     one or two inputs, at most one of them the status wire;
///  2. fit and exclusivity (given `comp`): one register count per PE of
///     `comp`; the length fits its context memory; every op runs on a PE
///     that supports it and routes only over existing links; no PE is
///     double-booked over [start, lastCycle]; at most one C-Box op and one
///     branch per context; a PE output port exposes one register per cycle;
///  3. semantics (given `comp` and `graph`): every node is scheduled once
///     (a fused pWRITE rides on its producer's op) by an op that runs it,
///     and inserted ops are MOVE/CONST; when the schedule carries variable
///     homes (decoded context images do not), each variable has at most
///     one, every live-in/live-out binding is its variable's home, once per
///     direction the CDFG transfers it, and every pWRITE's op writes it;
///     dependence edges hold (Flow, Output and Control: the
///     consumer starts after the producer finishes; Anti: no earlier than
///     the reader); predicated commits (pWRITE, memory ops) carry
///     predication whenever their condition is not TRUE, and one
///     predication signal is read per cycle (the single outPE wire); every
///     comparison's status is consumed by the C-Box in its last cycle;
///     every loop is closed once by a conditional back-branch, no branch
///     jumps forward, loop intervals nest like the loop tree, and each
///     interval holds exactly the ops of its loop subtree.
std::vector<std::string> verifySchedule(const Schedule& sched,
                                        const Composition* comp = nullptr,
                                        const Cdfg* graph = nullptr);

/// verifySchedule that throws cgra::Error("<who>: <violations>") instead
/// of returning them.
void requireValidSchedule(const Schedule& sched, const char* who,
                          const Composition* comp = nullptr,
                          const Cdfg* graph = nullptr);

}  // namespace cgra
