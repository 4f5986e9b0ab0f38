#include "kir/passes/inline_pass.hpp"

#include <set>
#include <string>

#include "kir/passes/exit_normalize_pass.hpp"
#include "kir/passes/pass_utils.hpp"

namespace cgra::kir {

namespace {

Function inlineCallsImpl(const Program& program, const Function& fn,
                         std::set<const Function*>& active) {
  if (active.contains(&fn))
    throw Error("inlineCalls: recursive call cycle through " + fn.name());
  active.insert(&fn);

  unsigned inlineCounter = 0;
  Function out = rewriteFunction(fn, [&](StmtId id, Cloner& cl) -> StmtId {
    const Stmt& s = fn.stmt(id);
    if (s.kind != StmtKind::Call) return kNoStmt;
    Function flatCallee =
        inlineCallsImpl(program, program.function(s.callee), active);
    // A `return` in the callee must not escape into the caller's control
    // flow — demote it to guard variables before splicing the body in.
    if (containsStmtKind(flatCallee, StmtKind::Return))
      flatCallee = normalizeExits(flatCallee);
    // Fresh locals for the callee, suffixed to stay unique.
    FunctionBuilder& b = cl.build();
    const std::string suffix =
        "$" + flatCallee.name() + std::to_string(inlineCounter++);
    std::vector<LocalId> calleeMap;
    for (LocalId i = 0; i < flatCallee.numLocals(); ++i)
      calleeMap.push_back(b.localVar(flatCallee.local(i).name + suffix));

    std::vector<StmtId> seq;
    // Bind arguments (argument expressions evaluate in the caller's frame).
    unsigned argIdx = 0;
    for (LocalId i = 0; i < flatCallee.numLocals(); ++i)
      if (flatCallee.local(i).isParameter) {
        if (argIdx >= s.args.size())
          throw Error("inlineCalls: too few arguments for " +
                      flatCallee.name());
        seq.push_back(b.assign(calleeMap[i], cl.expr(s.args[argIdx++])));
      }
    if (argIdx != s.args.size())
      throw Error("inlineCalls: too many arguments for " + flatCallee.name());

    // Clone the (already call-free) callee body with renamed locals.
    seq.push_back(
        Cloner(flatCallee, b.fn(), calleeMap).stmt(flatCallee.body()));

    // Return value: the callee's "result" local.
    seq.push_back(b.assign(
        cl.local(s.target),
        b.use(calleeMap[flatCallee.localByName("result")])));
    return b.block(std::move(seq));
  });
  active.erase(&fn);
  return out;
}

}  // namespace

Function inlineCalls(const Program& program, const Function& fn) {
  std::set<const Function*> active;
  return inlineCallsImpl(program, fn, active);
}

}  // namespace cgra::kir
