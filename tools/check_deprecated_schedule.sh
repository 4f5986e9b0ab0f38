#!/usr/bin/env bash
# Ten lints over the tree: (1) the deprecated Scheduler::schedule
# call sites and shims, (2) raw SimCounters field math in tools and
# benches, (3) the removed schedule checkers, (4) writers of the schedule
# under construction other than RunState, (5) a context word's layout
# stated more than once, (6) an artifact record's layout stated more than
# once, (7) a frontend pass filling KIR node fields by hand, or the
# removed switch-strategy knob, (8) a CDFG scan, tree map or path vector
# on the scheduler passes' probe path, (9) a per-level expression parse
# function, or an Op/Bc mapping outside the bytecode table, (10) a wire or
# explore record built as a hand-made tree, sorted afterwards, or checked
# for unknown keys by hand.
#
# Lint 1: the deprecated Scheduler::schedule(const Cdfg&) shims were removed
# with the pass-pipeline refactor. This check is now a hard failure on two
# fronts: (1) no call site anywhere in the tree may use the legacy
# Cdfg-taking spelling — every caller goes through the ScheduleRequest /
# ScheduleReport API (see DESIGN.md §8); (2) the shims themselves (a
# [[deprecated]] schedule overload or the SchedulingResult bundle) must not
# reappear in the scheduler sources.
#
# Heuristic for (1): a `.schedule(...)` call is considered migrated when the
# call (or its argument) mentions ScheduleRequest / request / req. Member
# accesses like `result.schedule` carry no parenthesis and are ignored.
#
# Usage: tools/check_deprecated_schedule.sh [repo-root]
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

offenders=$(grep -rn --include='*.cpp' --include='*.hpp' '\.schedule(' \
    src tests tools examples bench 2>/dev/null |
  grep -viE 'schedulerequest|request|req')

if [ -n "$offenders" ]; then
  echo "error: deprecated Scheduler::schedule(const Cdfg&) call sites found."
  echo "Build a ScheduleRequest and call schedule(const ScheduleRequest&)"
  echo "instead (DESIGN.md §8):"
  echo
  echo "$offenders"
  exit 1
fi

echo "ok: all Scheduler::schedule call sites use the ScheduleRequest API"

# Hard failure: the removed legacy surface must stay removed. Any
# [[deprecated]] marker or SchedulingResult mention in the scheduler
# sources means the shims are creeping back in.
shim_offenders=$(grep -rnE '\[\[deprecated\]\]|SchedulingResult' \
    src/sched/scheduler.hpp src/sched/scheduler.cpp src/sched/passes \
    2>/dev/null)

if [ -n "$shim_offenders" ]; then
  echo "error: legacy scheduler shim surface detected. The deprecated"
  echo "Cdfg-taking schedule() overloads and SchedulingResult were removed;"
  echo "do not reintroduce them:"
  echo
  echo "$shim_offenders"
  exit 1
fi

echo "ok: no deprecated schedule shims in the scheduler sources"

# Lint 2: no raw SimCounters field math in benches or tools. Derived
# quantities (utilization, squash rate, cycles/op, totals) have accessors on
# sim::Report (src/sim/report.hpp); hand-rolled arithmetic over the raw
# fields drifts from the canonical definitions. toJson() is the one allowed
# member (serialization, not math). tools/cgra_tool.cpp is the designated
# presentation layer that renders the raw per-PE table and is exempt.
fields='perPE|squashedOps|byClass|linkTransfers|contextExec|cboxSlotWrites'
fields="$fields|cboxCombines|cboxStatusReads|nopCycles|dmaSuppressed"
fields="$fields|liveInTransferCycles|liveOutTransferCycles"

counter_offenders=$(grep -rnE --include='*.cpp' --include='*.hpp' \
    "(counters(->|\.)|\b)($fields)\b" tools bench 2>/dev/null |
  grep -v '^tools/cgra_tool\.cpp:' |
  grep -v '^tools/check_deprecated_schedule\.sh:' |
  grep -v 'toJson()')

if [ -n "$counter_offenders" ]; then
  echo "error: raw SimCounters field access in tools/bench code."
  echo "Use the sim::Report accessors (achievedUtilization, squashRate,"
  echo "cyclesPerOp, totalSquashed, totalLinkTransfers, ...) or toJson()"
  echo "instead of re-deriving metrics from raw counter fields:"
  echo
  echo "$counter_offenders"
  exit 1
fi

echo "ok: no raw SimCounters field math outside the Report accessors"

# Lint 3: one schedule verifier. verifySchedule (src/sched/validate.hpp)
# replaced four partial checkers; none of their names may come back, so
# every trust boundary keeps calling the one layered verifier.
verifier_offenders=$(grep -rnE --include='*.cpp' --include='*.hpp' \
    'checkScheduleBounds|requireScheduleFits|validateSchedule|checkSchedule\(' \
    src tools bench examples 2>/dev/null)

if [ -n "$verifier_offenders" ]; then
  echo "error: a removed schedule checker is back. Call verifySchedule or"
  echo "requireValidSchedule (src/sched/validate.hpp) instead:"
  echo
  echo "$verifier_offenders"
  exit 1
fi

echo "ok: schedules are checked by verifySchedule only"

# Lint 4: one writer of the schedule under construction. Scheduler passes
# append ops and C-Box ops only through RunState::addOp/addCBoxOp, which
# claim the PE, the predication wire, the C-Box write port and the next
# condition slot; every probe mutation is recorded in RunState's one undo
# log, so the per-structure journals must not come back.
writer_offenders=$({
  grep -nHE \
      'sched\.ops\.push_back|sched\.cboxOps\.push_back|nextCondSlot\+\+|peBusy\[[^]]*\]\.mark|cboxOpAt\.mark' \
      src/sched/passes/*.cpp
  grep -nHE 'jHomes|clearJournal' src/sched/passes/run_state.hpp
} 2>/dev/null)

if [ -n "$writer_offenders" ]; then
  echo "error: a scheduler pass writes the schedule or a resource table"
  echo "itself, or a per-structure probe journal is back. Append through"
  echo "RunState::addOp/addCBoxOp and record probe mutations in its undo log"
  echo "(src/sched/passes/run_state.hpp):"
  echo
  echo "$writer_offenders"
  exit 1
fi

echo "ok: RunState is the only writer of the schedule under construction"

# Lint 5: one layout per context word. peWord, cboxWord and ccuWord
# (src/ctx/contexts.cpp) each state one word's fields once, for the Encoder
# and the Decoder alike, and packMemory pads every memory; every memory of
# ContextImages is one ContextMemory {width, words}. The mirrored
# encode/decode pair, the per-word pad and the parallel width fields must
# not come back.
ctx_offenders=$({
  grep -rnwE --include='*.cpp' --include='*.hpp' 'encodeOp|decodeOp|padTo' \
      src/ctx
  grep -rnwE --include='*.cpp' --include='*.hpp' \
      'peWidths|cboxWidth|ccuWidth' src tools bench
} 2>/dev/null)

if [ -n "$ctx_offenders" ]; then
  echo "error: a context word's layout is stated twice, or a memory is split"
  echo "into parallel width and word fields. Describe each word once in"
  echo "peWord/cboxWord/ccuWord, pad through packMemory, and keep every"
  echo "memory a ContextMemory (src/ctx/contexts.hpp):"
  echo
  echo "$ctx_offenders"
  exit 1
fi

echo "ok: each context word's layout is stated once"

# Lint 6: one layout per artifact record. Each record of the artifact and
# context-image documents is one layout function (src/artifact/artifact.cpp,
# src/ctx/serialize.cpp) that json::FieldEncoder and json::FieldDecoder both
# run, and the decoder checks every value's type and range. The mirrored
# writer/reader helpers and the unchecked raw reads must not come back.
record_offenders=$({
  grep -rnwE --include='*.cpp' --include='*.hpp' \
      'getInt|getUnsigned|getBool|getString|getArray|operandSourceFromJson|predFromJson|bindingsToJson|bindingsFromJson|metricsFromJson|memoryToJson|memoryFromJson' \
      src/artifact src/ctx
  grep -nHE '(\.|->)as(Int|Bool)\(' src/artifact/artifact.cpp src/ctx/serialize.cpp
} 2>/dev/null)

if [ -n "$record_offenders" ]; then
  echo "error: an artifact record's layout is stated twice, or a field is"
  echo "read without its type and range check. Describe each record once as"
  echo "a layout over json::FieldEncoder/FieldDecoder (src/json/json.hpp):"
  echo
  echo "$record_offenders"
  exit 1
fi

echo "ok: each artifact record's layout is stated once"

# Lint 7: one set of KIR node constructors. Frontend passes build nodes
# through FunctionBuilder (src/kir/kir.hpp) and copy them through the
# Cloner (src/kir/passes/pass_utils.hpp); no pass sets a node's kind by
# hand. The pipeline picks the switch lowering by case count, so the
# switch-strategy option must not come back in the pipeline or the tools.
kir_offenders=$({
  grep -rnE --include='*.cpp' --include='*.hpp' \
      '\.kind\s*=\s*(Expr|Stmt)Kind::' src/kir/passes
  grep -nHE 'switchStrategy|switch-strategy' src/kir/passes/pipeline.* \
      $(ls tools/* | grep -v '^tools/check_deprecated_schedule\.sh$')
} 2>/dev/null)

if [ -n "$kir_offenders" ]; then
  echo "error: a frontend pass fills KIR node fields by hand, or the"
  echo "switch-strategy option is back. Build nodes with FunctionBuilder,"
  echo "copy them through the Cloner's hooks (src/kir/passes/pass_utils.hpp),"
  echo "and leave the switch lowering to the case-count rule:"
  echo
  echo "$kir_offenders"
  exit 1
fi

echo "ok: KIR nodes are built by FunctionBuilder only"

# Lint 8: constant-time lookups on the placement probe path. The analysis
# pass fills per-run tables (RunState::varWritten, the condition-slot
# vectors) and the interconnect answers next hops from its Floyd–Warshall
# table, so no scheduler pass rescans the CDFG for loop writes, keeps a
# tree map, or builds a path vector per probe.
probe_offenders=$(grep -rnE --include='*.cpp' --include='*.hpp' \
    'varWrittenInLoop\(|pathTo\(|std::map<' src/sched/passes 2>/dev/null)

if [ -n "$probe_offenders" ]; then
  echo "error: a scheduler pass rescans the CDFG, keeps a std::map or builds"
  echo "a path vector on the probe path. Read RunState::loopWrites, the flat"
  echo "condition-slot tables and Interconnect::nextHop instead"
  echo "(src/sched/passes/run_state.hpp):"
  echo
  echo "$probe_offenders"
  exit 1
fi

echo "ok: the scheduler passes' probe lookups are table reads"

# Lint 9: each operator is spelled once. kBinaryOperators (src/kir/kir.hpp)
# drives the lexer, the parser's one precedence-climbing loop and the
# printer; the bytecode table in src/host/bytecode.cpp is the only mapping
# between Bc and Op, read by the lowering, the token machine and the
# accelerated host. The per-level parse functions and case-by-case Op/Bc
# switches must not come back.
operator_offenders=$({
  grep -nHE \
      'parse(OrOr|AndAnd|BitOr|BitXor|BitAnd|Equality|Relational|Shift|Additive|Multiplicative)\(' \
      src/kir/parser.cpp
  grep -rnE --include='*.cpp' --include='*.hpp' \
      'case Op::[A-Z_]+:.*Bc::|case Bc::[A-Z_]+:.*Op::' \
      src tools bench examples tests |
    grep -v '^src/host/bytecode\.cpp:'
} 2>/dev/null)

if [ -n "$operator_offenders" ]; then
  echo "error: an operator's precedence or its Op/Bc mapping is stated"
  echo "outside its table. Parse through the precedence-climbing loop over"
  echo "kBinaryOperators (src/kir/kir.hpp), and map between Bc and Op with"
  echo "bcOp/bcFor/branchFor (src/host/bytecode.hpp):"
  echo
  echo "$operator_offenders"
  exit 1
fi

echo "ok: each operator is spelled once, in its table"

# Lint 10: one layout per wire and explore record. The request, response,
# error, stats and access-log records (src/artifact/service.cpp), the store
# counters (src/artifact/store.hpp) and the explore genotype and space
# (src/explore/space.cpp) are each one layout run by json::FieldEncoder and
# json::FieldDecoder, which rejects every key a layout does not visit. A
# hand-built tree, a sort pass or a hand-written unknown-key check must not
# come back in those files.
wire_offenders=$(grep -nHE 'json::Object|sortKeys|unknown key' \
    src/artifact/service.cpp src/artifact/store.cpp src/explore/space.cpp \
    2>/dev/null)

if [ -n "$wire_offenders" ]; then
  echo "error: a wire or explore record is built by hand, sorted afterwards"
  echo "or checked for unknown keys by hand. State it once as a layout over"
  echo "json::FieldEncoder/FieldDecoder (src/json/json.hpp), whose decoder"
  echo "rejects the keys a layout does not visit:"
  echo
  echo "$wire_offenders"
  exit 1
fi

echo "ok: each wire and explore record's layout is stated once"
exit 0
