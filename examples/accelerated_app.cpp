// Host/CGRA co-execution (the paper's Fig. 1 end-to-end flow): an audio
// application whose hot kernel is patched out of the host bytecode and
// forwarded to the CGRA.
//
//   stage 1 (host):  checksum the compressed input buffer
//   stage 2 (CGRA):  ADPCM-decode 416 samples   <-- INVOKE_CGRA patch
//   stage 3 (host):  scan the decoded audio for its peak amplitude
//
// All stages share one local-variable frame; the patched application is a
// single bytecode function (printable via disassemble) in which the whole
// decoder loop is one `invoke_cgra` instruction. The host is idle during
// the CGRA run, so cycle counts are additive.
#include <iostream>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "kir/interp.hpp"
#include "sim/accelerated_host.hpp"

namespace {

using namespace cgra;

/// Declares the shared frame layout (must match apps::makeAdpcm's locals
/// 0..7) and returns the builder positioned to add stage-specific locals.
void declareSharedFrame(kir::FunctionBuilder& b) {
  for (const char* name : {"inbuf", "outbuf", "indexTable", "stepsizeTable",
                           "n", "valpred", "index", "gain"})
    b.param(name);
}

/// Pads the frame with placeholder locals so this stage's own locals land
/// beyond `upTo` — slots below that belong to other stages (the decoder
/// kernel's scratch locals and earlier stages' results) and must not be
/// reused, since the CGRA writes its live-outs back into its slots.
void padLocals(kir::FunctionBuilder& b, unsigned upTo) {
  for (unsigned i = static_cast<unsigned>(b.fn().numLocals()); i < upTo; ++i)
    b.localVar("$pad" + std::to_string(i));
}

kir::Function makeChecksumStage(unsigned frameBase) {
  kir::FunctionBuilder b("checksum_stage");
  declareSharedFrame(b);
  padLocals(b, frameBase);
  const auto inbuf = b.fn().localByName("inbuf");
  const auto n = b.fn().localByName("n");
  const auto sum = b.localVar("checksum");
  const auto i = b.localVar("ck_i");
  const auto body = b.block({
      b.assign(sum, b.bxor(b.mul(b.use(sum), b.cint(31)),
                           b.load(b.use(inbuf), b.use(i)))),
      b.assign(i, b.add(b.use(i), b.cint(1))),
  });
  return b.finish(b.block({
      b.assign(sum, b.cint(0)),
      b.assign(i, b.cint(0)),
      b.whileLoop(b.lt(b.use(i), b.shr(b.use(n), b.cint(1))), body),
  }));
}

kir::Function makePeakStage(unsigned frameBase) {
  kir::FunctionBuilder b("peak_stage");
  declareSharedFrame(b);
  padLocals(b, frameBase);
  const auto outbuf = b.fn().localByName("outbuf");
  const auto n = b.fn().localByName("n");
  const auto peak = b.localVar("peak");
  const auto i = b.localVar("pk_i");
  const auto v = b.localVar("pk_v");
  const auto body = b.block({
      b.assign(v, b.load(b.use(outbuf), b.use(i))),
      b.ifElse(b.lt(b.use(v), b.cint(0)), b.assign(v, b.neg(b.use(v)))),
      b.ifElse(b.gt(b.use(v), b.use(peak)), b.assign(peak, b.use(v))),
      b.assign(i, b.add(b.use(i), b.cint(1))),
  });
  return b.finish(b.block({
      b.assign(peak, b.cint(0)),
      b.assign(i, b.cint(0)),
      b.whileLoop(b.lt(b.use(i), b.use(n)), body),
  }));
}

}  // namespace

int main() {
  const apps::Workload w = apps::makeAdpcm(416, 1);
  // Frame layout: [0..7] shared parameters, then the decoder's scratch
  // locals, then each host stage's own slots.
  const unsigned decoderEnd = static_cast<unsigned>(w.fn.numLocals());
  const kir::Function checksum = makeChecksumStage(decoderEnd);
  const kir::Function peak =
      makePeakStage(static_cast<unsigned>(checksum.numLocals()));

  AcceleratedHost system(makeMesh(9));
  const unsigned decoder = system.addKernel(w.fn, /*unrollFactor=*/2);
  std::cout << "decoder synthesized: " << system.contextsUsed()
            << " contexts on " << system.composition().name() << "\n";

  const std::vector<Stage> stages = {HostStage{&checksum}, CgraStage{decoder},
                                     HostStage{&peak}};
  const BytecodeFunction app = system.assemble(stages, "audio_app");
  std::cout << "patched application: " << app.code.size()
            << " bytecodes (decoder loop = 1 invoke_cgra instruction)\n";

  std::vector<std::int32_t> locals = w.initialLocals;
  HostMemory heap = w.heap;
  const AcceleratedRunResult r = system.run(stages, locals, heap);

  std::cout << "checksum = " << r.locals[checksum.localByName("checksum")]
            << ", peak amplitude = " << r.locals[peak.localByName("peak")]
            << "\n";
  std::cout << "cycles: host " << r.hostCycles << " + CGRA " << r.cgraCycles
            << " (" << r.cgraInvocations << " invocation) = total "
            << r.totalCycles << "\n";

  // Compare against the same application executed entirely on the host, by
  // a host with no kernels registered.
  const AcceleratedHost hostOnly(makeMesh(9));
  const std::vector<Stage> pureStages = {HostStage{&checksum},
                                         HostStage{&w.fn}, HostStage{&peak}};
  HostMemory heap2 = w.heap;
  const AcceleratedRunResult pure =
      hostOnly.run(pureStages, w.initialLocals, heap2);
  std::cout << "host-only execution: " << pure.totalCycles
            << " cycles -> application-level speedup "
            << static_cast<double>(pure.totalCycles) /
                   static_cast<double>(r.totalCycles)
            << "x\n";
  const bool match =
      heap == heap2 &&
      r.locals[peak.localByName("peak")] ==
          pure.locals[peak.localByName("peak")];
  std::cout << "results " << (match ? "match" : "DO NOT match")
            << " between accelerated and host-only runs\n";
  return match ? 0 : 1;
}
