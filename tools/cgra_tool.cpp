// cgra-tool — command-line front end of the toolflow. Run `cgra-tool` for
// the command list and `cgra-tool <command> --help` for a command's flags;
// both are generated from kCommands and kFlagTable below, and README
// "Command line" has worked examples.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <deque>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <system_error>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "artifact/client.hpp"
#include "artifact/service.hpp"
#include "artifact/store.hpp"
#include "artifact/sweep_cache.hpp"
#include "arch/resource_model.hpp"
#include "ctx/contexts.hpp"
#include "ctx/serialize.hpp"
#include "explore/explorer.hpp"
#include "host/token_machine.hpp"
#include "kir/interp.hpp"
#include "kir/lower_bytecode.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/parser.hpp"
#include "kir/passes/pass_utils.hpp"
#include "kir/passes/pipeline.hpp"
#include "kir/passes/switch_lower_pass.hpp"
#include "kir/random_kernel.hpp"
#include "sched/analysis.hpp"
#include "sched/job_key.hpp"
#include "sched/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sched/sweep.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "support/fs.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "vgen/verilog.hpp"

namespace {

using namespace cgra;

// ---------------------------------------------------------------------------
// Option table. One FlagSpec per flag, shared by every subcommand that
// accepts it; a CommandSpec selects the subset it understands. Parsing is
// table-driven: whether a flag consumes a value is looked up, never guessed
// from the shape of the next argument.

struct FlagSpec {
  const char* name;       ///< without the leading "--"
  bool takesValue;        ///< --key value / --key=value vs. boolean switch
  bool repeatable;        ///< may appear more than once (--local, --array)
  const char* valueName;  ///< placeholder shown in --help
  const char* help;
};

constexpr FlagSpec kFlagTable[] = {
    {"comp", true, false, "NAME",
     "composition: meshN, A..F, or a .json path (default mesh4)"},
    {"comps", true, false, "LIST",
     "comma-separated compositions (default mesh4,mesh9)"},
    {"kernel", true, false, "NAME",
     "bundled kernel (default adpcm; see `cgra-tool list`)"},
    {"kernels", true, false, "LIST",
     "comma-separated kernels: bundled names, randomN, .kir file paths, or "
     "`suite` (every .kir under --kernel-dir)"},
    {"kernel-file", true, false, "PATH", "user kernel in KIR text form"},
    {"kernel-dir", true, false, "DIR",
     "directory the `suite` kernel token expands from (default "
     "examples/kernels)"},
    {"local", true, true, "NAME=V", "initial value of a kernel local"},
    {"array", true, true, "NAME=V1,V2,...",
     "heap array bound to a kernel parameter"},
    {"unroll", true, false, "N",
     "unroll loops N times before lowering (N <= 16)"},
    {"cse", false, false, "", "run common-subexpression elimination first"},
    {"max-contexts", true, false, "N",
     "override the composition's context-memory budget"},
    {"trace", true, false, "PATH",
     "write the decision trace as Chrome trace-event JSON; for sweep, a "
     "directory receiving one file per job"},
    {"trace-capacity", true, false, "N",
     "decision-trace ring capacity in events (default 65536)"},
    {"gantt", false, false, "", "print the schedule as a Gantt chart"},
    {"dump", false, false, "", "print the full schedule listing"},
    {"contexts", true, false, "PATH", "write the context-image JSON"},
    {"memfiles", true, false, "PREFIX",
     "write $readmemh context-memory files"},
    {"verilog", true, false, "PATH", "write synthesizable Verilog"},
    {"dot", true, false, "PATH", "write the CDFG in Graphviz dot form"},
    {"baseline", false, false, "",
     "also run the sequential token-machine baseline"},
    {"counters", false, false, "",
     "collect cycle-accurate hardware counters and print the achieved "
     "utilization report"},
    {"json", true, false, "PATH", "write the observability report as JSON"},
    {"csv", true, false, "PATH", "write the per-PE report table as CSV"},
    {"stable", false, false, "",
     "omit volatile fields (thread count, wall times) from --metrics JSON "
     "so output is byte-stable across machines"},
    {"threads", true, false, "N",
     "worker threads (0 = hardware concurrency)"},
    {"metrics", true, false, "PATH",
     "write the aggregated sweep-metrics JSON report (sweep) or the final "
     "Prometheus exposition (serve, explore)"},
    {"out", true, false, "PATH", "write the Pareto-front report JSON"},
    {"space", true, false, "PATH",
     "composition-space spec JSON bounding the explore search (omit for "
     "the built-in space)"},
    {"strategy", true, false, "NAME",
     "explore search strategy: random|hillclimb|genetic (default genetic)"},
    {"seed", true, false, "N",
     "seed for every randomized path — workload input data, randomN "
     "generated kernels, the explore search (default 42)"},
    {"budget", true, false, "N",
     "maximum distinct candidate evaluations in explore (default 64)"},
    {"population", true, false, "N",
     "explore candidate proposals per generation (default 8)"},
    {"cache", true, false, "DIR",
     "content-addressed schedule-artifact cache directory (created if "
     "missing; repeated jobs are served without rescheduling)"},
    {"cache-bytes", true, false, "N",
     "cache disk budget in bytes; past it, least-recently-used artifacts "
     "are evicted (default 268435456)"},
    {"socket", true, false, "PATH",
     "serve on a unix domain socket (combinable with --tcp)"},
    {"tcp", true, false, "PORT",
     "serve on 127.0.0.1:PORT (0 picks a free port, printed on stderr)"},
    {"max-queue", true, false, "N",
     "per-connection in-flight cap; reading from a connection pauses past "
     "it (default 64)"},
    {"queue-bound", true, false, "N",
     "global admitted-request bound; past it requests are shed with "
     "error code `overloaded` (default 256)"},
    {"max-clients", true, false, "N",
     "maximum concurrent socket clients; extra connections are refused "
     "(default 0 = unlimited)"},
    {"artifact", false, false, "",
     "attach the full artifact document to every successful response"},
    {"max-connections", true, false, "N",
     "exit after N socket connections (default 0 = serve until SIGTERM)"},
    {"connect", true, false, "TARGET",
     "client mode: pipe stdin JSONL to a running server (unix socket PATH "
     "or tcp:PORT) and print its responses"},
    {"access-log", true, false, "PATH",
     "append one JSONL access-log line per served request (id, peer, key "
     "prefix, outcome, span breakdown in microseconds)"},
    {"trace-sample", true, false, "N",
     "record a decision trace for every Nth cold scheduling run and write "
     "its Chrome JSON into --trace-dir (0 = off)"},
    {"trace-dir", true, false, "DIR",
     "directory receiving sampled serve traces (created if missing)"},
    {"help", false, false, "", "show this subcommand's flags"},
};

const FlagSpec* findFlag(const std::string& name) {
  for (const FlagSpec& f : kFlagTable)
    if (name == f.name) return &f;
  return nullptr;
}

/// Parses all of `text` as a T in [lo, hi]. Junk, trailing characters, a
/// sign the type cannot hold and out-of-range values all throw an Error
/// naming `what` and the text.
template <typename T>
T parseInt(const std::string& text, const std::string& what,
           T lo = std::numeric_limits<T>::min(),
           T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi)
    throw Error("invalid " + what + " \"" + text +
                "\" (expected an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "])");
  return value;
}

class Args;

struct CommandSpec {
  const char* name;
  const char* summary;
  std::vector<const char*> flags;  ///< accepted flag names (kFlagTable keys)
  int (*run)(const Args&);

  bool accepts(const std::string& flag) const {
    if (flag == "help") return true;
    for (const char* f : flags)
      if (flag == f) return true;
    return false;
  }
};

/// Table-driven flag parser: `--key value` and `--key=value`, validated
/// against the subcommand's accepted set so a typo fails loudly instead of
/// being silently ignored.
class Args {
public:
  Args(int argc, char** argv, const CommandSpec& cmd) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0)
        throw Error("unexpected argument: " + arg +
                    " (flags start with --; see `cgra-tool " +
                    std::string(cmd.name) + " --help`)");
      arg = arg.substr(2);
      std::string inlineValue;
      bool hasInline = false;
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inlineValue = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        hasInline = true;
      }
      const FlagSpec* spec = findFlag(arg);
      if (spec == nullptr || !cmd.accepts(arg))
        throw Error("unknown flag --" + arg + " for `cgra-tool " +
                    std::string(cmd.name) + "` (see --help)");
      std::string value;
      if (spec->takesValue) {
        if (hasInline) {
          value = inlineValue;
        } else {
          if (i + 1 >= argc)
            throw Error("--" + arg + " expects a value");
          value = argv[++i];
        }
      } else if (hasInline) {
        throw Error("--" + arg + " does not take a value");
      }
      if (spec->repeatable)
        repeated_[arg].push_back(value);
      else
        values_[arg] = value;
    }
  }

  const std::vector<std::string>& repeated(const std::string& key) const {
    static const std::vector<std::string> kEmpty;
    const auto it = repeated_.find(key);
    return it == repeated_.end() ? kEmpty : it->second;
  }

  bool has(const std::string& key) const { return values_.contains(key); }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// The one integer getter: every integer flag is read through here.
  template <typename T>
  T getInt(const std::string& key, T fallback,
           T lo = std::numeric_limits<T>::min(),
           T hi = std::numeric_limits<T>::max()) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : parseInt<T>(it->second, "--" + key, lo, hi);
  }

private:
  std::map<std::string, std::string> values_;
  std::map<std::string, std::vector<std::string>> repeated_;
};

std::vector<std::string> splitCsv(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t comma = list.find(',', pos);
    out.push_back(list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    pos = comma == std::string::npos ? std::string::npos : comma + 1;
  }
  return out;
}

/// Fail fast on unwritable output destinations *before* scheduling work:
/// `fileFlags` name file-valued options (their parent directory must be
/// writable), `dirFlags` directory-valued ones (created and probed). A bad
/// --metrics/--trace/--cache path aborts in milliseconds with a clear
/// message instead of after the whole run.
void preflightOutputs(const Args& args,
                      std::initializer_list<const char*> fileFlags,
                      std::initializer_list<const char*> dirFlags) {
  const auto probe = [&args](const char* flag,
                             void (*check)(const std::string&)) {
    if (!args.has(flag)) return;
    try {
      check(args.get(flag));
    } catch (const std::exception& e) {
      throw Error("--" + std::string(flag) + " " + args.get(flag) +
                  " is not writable: " + e.what());
    }
  };
  for (const char* flag : fileFlags) probe(flag, fs::ensureWritableParent);
  for (const char* flag : dirFlags) probe(flag, fs::ensureWritableDir);
}

/// Assembles ArtifactStore options from --cache / --cache-bytes.
artifact::StoreOptions storeOptions(const Args& args) {
  artifact::StoreOptions so;
  so.directory = args.get("cache");
  so.maxDiskBytes = args.getInt("cache-bytes", so.maxDiskBytes);
  return so;
}

/// --seed; the default 42 is the historical allWorkloads seed, so runs
/// without the flag reproduce existing goldens byte-for-byte.
std::uint64_t seedOf(const Args& args) {
  return args.getInt<std::uint64_t>("seed", 42);
}

/// The one output writer: `content` lands at `path` atomically (a failed
/// write throws, naming the path) and `log` gets one `wrote PATH` line.
void writeOutput(const std::string& path, const std::string& content,
                 std::ostream& log = std::cout) {
  fs::atomicWriteFile(path, content);
  log << "wrote " << path << "\n";
}

void writeOutput(const std::string& path, const json::Value& doc) {
  writeOutput(path, doc.dump() + "\n");
}

/// Resolves a kernel token: a .kir file path (any path when `isFile`;
/// inputs default to zero), `randomN` — the property-test generator's
/// kernel for sub-stream N of `seed`, an unbounded deterministic kernel
/// supply beyond the bundled suite — or a bundled workload (input data
/// drawn from `seed`).
apps::Workload resolveKernel(const std::string& token, std::uint64_t seed,
                             bool isFile = false) {
  apps::Workload w;
  if (isFile || token.find(".kir") != std::string::npos) {
    w.fn = kir::parseKernelFile(token);
    w.name = w.fn.name();
    w.initialLocals.assign(w.fn.numLocals(), 0);
    return w;
  }
  if (token.rfind("random", 0) == 0) {
    const auto stream =
        parseInt<std::uint64_t>(token.substr(6), "random kernel stream");
    kir::RandomKernel rk = kir::generateRandomKernel(deriveSeed(seed, stream));
    w.name = token;
    w.fn = std::move(rk.fn);
    w.initialLocals = std::move(rk.initialLocals);
    w.heap = std::move(rk.heap);
    return w;
  }
  try {
    return apps::workload(token, seed);
  } catch (const Error& e) {
    throw Error(std::string(e.what()) + " (see `cgra-tool list`)");
  }
}

/// Expands --kernels, replacing the `suite` token by every .kir file under
/// --kernel-dir in sorted (deterministic) order.
std::vector<std::string> expandKernelList(const Args& args,
                                          const std::string& defaultList) {
  std::vector<std::string> out;
  for (const std::string& name : splitCsv(args.get("kernels", defaultList))) {
    if (name != "suite") {
      out.push_back(name);
      continue;
    }
    const std::string dir = args.get("kernel-dir", "examples/kernels");
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir, ec))
      if (entry.path().extension() == ".kir")
        files.push_back(entry.path().string());
    if (ec)
      throw Error("cannot read kernel suite directory \"" + dir +
                  "\": " + ec.message());
    if (files.empty())
      throw Error("kernel suite directory \"" + dir +
                  "\" contains no .kir files");
    std::sort(files.begin(), files.end());
    out.insert(out.end(), files.begin(), files.end());
  }
  return out;
}

/// Maps --unroll/--cse onto the frontend pipeline
/// configuration shared by schedule/simulate/sweep/explore/kir.
kir::FrontendOptions frontendOptions(const Args& args) {
  kir::FrontendOptions fo;
  fo.cse = args.has("cse");
  fo.unrollFactor =
      args.getInt<unsigned>("unroll", 1, 0, kir::kMaxUnrollFactor);
  return fo;
}

/// Runs every --kernels entry (default `defaultList`) through the frontend
/// pipeline and the CDFG lowering. The deque keeps element addresses
/// stable for the non-owning graph pointers of sweep jobs and explore
/// kernels.
std::deque<std::pair<std::string, Cdfg>> loadKernelGraphs(
    const Args& args, const std::string& defaultList) {
  const kir::FrontendOptions fo = frontendOptions(args);
  const std::uint64_t seed = seedOf(args);
  std::deque<std::pair<std::string, Cdfg>> graphs;
  for (const std::string& name : expandKernelList(args, defaultList)) {
    apps::Workload w = resolveKernel(name, seed);
    const kir::Function fn = kir::runFrontendPipeline(w.fn, fo).fn;
    graphs.emplace_back(w.name, kir::lowerToCdfg(fn).graph);
  }
  return graphs;
}

int cmdList(const Args&) {
  std::cout << "kernels:\n";
  for (const apps::Workload& w : apps::allWorkloads())
    std::cout << "  " << w.name << "  (" << w.fn.numLocals() << " locals, "
              << w.heap.numArrays() << " arrays)\n";
  std::cout << "compositions:\n  mesh4 mesh6 mesh8 mesh9 mesh12 mesh16 "
               "(Fig. 13)\n  A B C D E F (Fig. 14, 8 PEs)\n  or a Fig. "
               "8-style JSON file\n";
  return 0;
}

int cmdDescribe(const Args& args) {
  const Composition comp = resolveComposition(args.get("comp", "mesh4"));
  std::cout << "composition " << comp.name() << ": " << comp.numPEs()
            << " PEs, " << comp.interconnect().numLinks() << " links\n";
  TextTable table({"PE", "RF", "DMA", "MUL", "ops", "sources"});
  for (PEId p = 0; p < comp.numPEs(); ++p) {
    const PEDescriptor& pe = comp.pe(p);
    std::string sources;
    for (PEId s : comp.interconnect().sources(p)) {
      if (!sources.empty()) sources += ',';
      sources += std::to_string(s);
    }
    table.addRow({std::to_string(p), std::to_string(pe.regfileSize()),
                  pe.hasDma() ? "yes" : "-",
                  pe.supports(Op::IMUL) ? "yes" : "-",
                  std::to_string(pe.ops().size()), sources});
  }
  table.print(std::cout);
  const ResourceEstimate est = estimateResources(comp);
  std::cout << "estimated synthesis: " << fmt(est.frequencyMHz, 1)
            << " MHz, LUT " << fmt(est.lutLogicPct(), 2) << "%, DSP "
            << est.dsp << ", BRAM " << est.bram << "\n";
  return 0;
}

/// A kernel as kir/schedule/explain/stats/simulate consume it.
struct LoadedKernel {
  apps::Workload workload;      ///< as loaded, --array/--local bound
  kir::FrontendResult frontend; ///< after the frontend pipeline
  Cdfg graph;                   ///< lowered frontend.fn (unless `kir`)
};

/// The one kernel loader: --kernel-file, or a --kernel token as
/// resolveKernel reads it; then --array/--local inputs on whichever kernel
/// that loaded; then the frontend pipeline and, unless `stagesOnly` (the
/// `kir` command, which prints each stage), the CDFG lowering.
LoadedKernel loadKernel(const Args& args, bool stagesOnly = false) {
  LoadedKernel k;
  apps::Workload& w = k.workload;
  w = resolveKernel(args.get("kernel-file", args.get("kernel", "adpcm")),
                    seedOf(args), args.has("kernel-file"));
  const auto splitEq = [](const std::string& s) {
    const std::size_t eq = s.find('=');
    if (eq == std::string::npos)
      throw Error("expected name=value, got: " + s);
    return std::make_pair(s.substr(0, eq), s.substr(eq + 1));
  };
  for (const std::string& spec : args.repeated("array")) {
    const auto [name, csv] = splitEq(spec);
    std::vector<std::int32_t> values;
    for (const std::string& v : splitCsv(csv))
      values.push_back(parseInt<std::int32_t>(v, "--array " + name));
    w.initialLocals[w.fn.localByName(name)] = w.heap.alloc(std::move(values));
  }
  for (const std::string& spec : args.repeated("local")) {
    const auto [name, value] = splitEq(spec);
    w.initialLocals[w.fn.localByName(name)] =
        parseInt<std::int32_t>(value, "--local " + name);
  }
  kir::FrontendOptions fo = frontendOptions(args);
  fo.captureStages = stagesOnly;
  k.frontend = kir::runFrontendPipeline(w.fn, fo);
  if (!stagesOnly) k.graph = kir::lowerToCdfg(k.frontend.fn).graph;
  return k;
}

int cmdKir(const Args& args) {
  const kir::FrontendResult res = loadKernel(args, true).frontend;
  for (const kir::StageRecord& stage : res.stages) {
    if (stage.name == "input") {
      std::cout << "== input ==\n" << stage.ir;
      continue;
    }
    if (!stage.ran) {
      std::cout << "== " << stage.name << " (skipped) ==\n";
      continue;
    }
    std::cout << "== " << stage.name << " ==\n" << stage.ir;
  }
  const char* irregular = kir::firstIrregularConstruct(res.fn);
  std::cout << "== summary ==\n"
            << kir::countStmtNodes(res.fn) << " statements, "
            << kir::countExprNodes(res.fn) << " expressions, "
            << res.fn.numLocals() << " locals; "
            << (irregular == nullptr
                    ? std::string("structured (CDFG-ready)")
                    : "still contains " + std::string(irregular))
            << "\n";
  return irregular == nullptr ? 0 : 1;
}

SchedulerOptions schedulerOptions(const Args& args) {
  SchedulerOptions opts;
  opts.maxContexts = args.getInt<unsigned>("max-contexts", 0);
  return opts;
}

/// One scheduler run as the flags ask for it: --max-contexts sets the
/// scheduler options, --trace/--trace-capacity (or `forceTrace`) the trace.
ScheduleReport runScheduler(const Args& args, const Composition& comp,
                            const Cdfg& graph, bool forceTrace = false) {
  ScheduleRequest request(graph);
  request.trace.enabled = forceTrace || args.has("trace");
  request.trace.capacity =
      args.getInt<std::size_t>("trace-capacity", request.trace.capacity);
  return Scheduler(comp, schedulerOptions(args)).schedule(request);
}

void writeTraceFile(const Args& args, const ScheduleReport& report,
                    const std::string& label) {
  if (args.has("trace") && report.trace != nullptr)
    writeOutput(args.get("trace"), report.trace->toChromeJson(label));
}

int schedulingFailed(const ScheduleFailure& failure) {
  std::cerr << "cgra-tool: scheduling failed ("
            << failureReasonName(failure.reason) << "): " << failure.message
            << "\n(run `cgra-tool explain` with the same flags for the "
               "decision log)\n";
  return 1;
}

int cmdSchedule(const Args& args) {
  preflightOutputs(args,
                   {"trace", "contexts", "memfiles", "verilog", "dot"},
                   {"cache"});
  const Composition comp = resolveComposition(args.get("comp", "mesh4"));
  const LoadedKernel k = loadKernel(args);
  const std::string label = k.workload.name + "@" + comp.name();

  // Without --cache the store is memory-only and always computes.
  artifact::ArtifactStore store(storeOptions(args));
  const std::string key =
      scheduleJobKey(comp, k.graph, schedulerOptions(args));
  ScheduleReport run;  // this call's scheduler run; empty on a cache hit
  const auto [art, source] = store.resolve(key, comp, k.graph, [&] {
    run = runScheduler(args, comp, k.graph);
    return artifact::ScheduleArtifact::fromReport(key, run);
  });
  if (!art->ok) {
    writeTraceFile(args, run, label);
    return schedulingFailed(art->failure);
  }
  const ContextImages images = generateContexts(art->schedule, comp);

  std::cout << "scheduled " << k.workload.name << " on " << comp.name()
            << ": " << art->schedule.length << " contexts, "
            << images.totalBits() << " context bits, max RF entries ";
  unsigned maxRf = 0;
  for (unsigned r : images.physRegsUsed) maxRf = std::max(maxRf, r);
  std::cout << maxRf << ", " << art->metrics.copiesInserted
            << " copies, " << art->metrics.fusedWrites << " fused writes, ";
  if (source == artifact::ArtifactStore::Source::Computed)
    std::cout << fmt(run.metrics.totalMs, 2) << " ms";
  else
    std::cout << "cache hit " << key.substr(0, 12);
  std::cout << "\n";

  const ScheduleQuality q = computeScheduleQuality(art->schedule, comp);
  std::cout << "avg PE utilization " << fmt(q.staticUtilization * 100, 1)
            << "%, peak parallelism " << q.peakParallelism << "\n";

  if (args.has("gantt"))
    std::cout << "\n" << ganttChart(art->schedule, comp);
  if (args.has("dump")) std::cout << "\n" << art->schedule.toString(comp);
  if (args.has("contexts"))
    writeOutput(args.get("contexts"), contextImagesToJson(images));
  if (args.has("memfiles")) {
    const std::string prefix = args.get("memfiles");
    for (PEId pe = 0; pe < comp.numPEs(); ++pe)
      writeOutput(prefix + "_pe" + std::to_string(pe) + ".mem",
                  toMemFile(images.pes[pe],
                            "pe" + std::to_string(pe) + " context memory"));
    writeOutput(prefix + "_cbox.mem",
                toMemFile(images.cbox, "C-Box context memory"));
    writeOutput(prefix + "_ccu.mem",
                toMemFile(images.ccu, "CCU context memory"));
  }
  if (args.has("verilog"))
    writeOutput(args.get("verilog"), generateVerilog(comp));
  if (args.has("dot"))
    writeOutput(args.get("dot"), k.graph.toDot(k.workload.name));
  writeTraceFile(args, run, label);
  return 0;
}

int cmdExplain(const Args& args) {
  preflightOutputs(args, {"trace"}, {});
  const Composition comp = resolveComposition(args.get("comp", "mesh4"));
  const LoadedKernel k = loadKernel(args);
  const ScheduleReport report = runScheduler(args, comp, k.graph, true);

  std::cout << "== " << k.workload.name << " on " << comp.name() << " ==\n"
            << report.trace->explain(&k.graph, &comp);
  if (report.ok)
    std::cout << "outcome: scheduled in " << report.schedule.length
              << " contexts\n";
  else
    std::cout << "outcome: UNMAPPABLE ("
              << failureReasonName(report.failure.reason)
              << "): " << report.failure.message << "\n";
  writeTraceFile(args, report, k.workload.name + "@" + comp.name());
  // A diagnostic command: inspecting an unmappable kernel is a successful
  // run of `explain`, so the exit code stays 0 either way.
  return 0;
}

/// Shared rendering for `stats` and `simulate --counters`: per-PE table,
/// derived scalars, heatmap, plus --json/--csv exports. Uses the Report
/// accessors so every surface prints identical definitions of utilization.
void emitReport(const Args& args, const Report& report, const Schedule& sched,
                const Composition& comp) {
  const ScheduleQuality& q = report.quality;
  const SimCounters* ctr =
      report.counters.has_value() ? &*report.counters : nullptr;

  if (ctr) {
    TextTable t({"PE", "busy", "nop", "idle", "issued", "squashed", "rfR",
                 "rfW", "util"});
    for (PEId pe = 0; pe < ctr->perPE.size(); ++pe) {
      const PECounters& pc = ctr->perPE[pe];
      t.addRow({std::to_string(pe), std::to_string(pc.busyCycles),
                std::to_string(pc.nopCycles), std::to_string(pc.idleCycles),
                std::to_string(pc.opsIssued), std::to_string(pc.squashedOps),
                std::to_string(pc.rfReads), std::to_string(pc.rfWrites),
                fmt(report.peUtilization(pe) * 100, 1) + "%"});
    }
    t.print(std::cout);
    std::cout << "achieved utilization "
              << fmt(report.achievedUtilization() * 100, 1) << "% (static "
              << fmt(report.staticUtilization() * 100, 1) << "%), squash rate "
              << fmt(report.squashRate() * 100, 1) << "%, "
              << fmt(report.cyclesPerOp(), 2) << " cycles/op, "
              << ctr->totalLinkTransfers() << " link transfers, "
              << ctr->cboxSlotWrites << " C-Box writes ("
              << ctr->cboxCombines << " combines)\n";
  } else {
    TextTable t({"PE", "busy", "util", "slack", "ops", "inserted"});
    for (const PEQuality& pq : q.perPE)
      t.addRow({std::to_string(pq.pe), std::to_string(pq.busyCycles),
                fmt(pq.utilization * 100, 1) + "%", std::to_string(pq.slack),
                std::to_string(pq.opsIssued),
                std::to_string(pq.insertedOps)});
    t.print(std::cout);
    std::cout << "static utilization " << fmt(q.staticUtilization * 100, 1)
              << "%, context occupancy " << fmt(q.contextOccupancy * 100, 1)
              << "%, copy ratio " << fmt(q.copyRatio * 100, 1)
              << "%, fused ratio " << fmt(q.fusedRatio * 100, 1) << "%, C-Box "
              << q.cboxBusyCycles << "/" << q.length << " contexts busy\n";
  }
  std::cout << "\n" << utilizationHeatmap(sched, comp, ctr);

  if (args.has("json")) writeOutput(args.get("json"), report.toJson());
  if (args.has("csv")) writeOutput(args.get("csv"), report.toCsv());
}

int cmdStats(const Args& args) {
  preflightOutputs(args, {"json", "csv"}, {});
  const Composition comp = resolveComposition(args.get("comp", "mesh4"));
  const LoadedKernel k = loadKernel(args);
  const ScheduleReport result = runScheduler(args, comp, k.graph);
  if (!result.ok) return schedulingFailed(result.failure);
  const Report report = makeReport(result.schedule, comp, &result.metrics);
  std::cout << "== " << k.workload.name << " on " << comp.name() << " ==\n"
            << result.schedule.length << " contexts, "
            << report.quality.totalOps << " ops ("
            << report.quality.insertedOps << " inserted, "
            << report.quality.fusedWrites << " fused writes), peak "
            << "parallelism " << report.quality.peakParallelism << "\n";
  const std::vector<LoopMii> loops =
      computeMiiBounds(k.graph, result.schedule, comp);
  if (!loops.empty()) {
    TextTable mii({"Loop", "Depth", "Achieved II", "ResMII", "RecMII",
                   "Headroom"});
    for (const LoopMii& m : loops)
      mii.addRow({std::to_string(m.loop),
                  std::to_string(k.graph.loopDepth(m.loop)),
                  std::to_string(m.achievedInterval), fmt(m.resMii, 1),
                  fmt(m.recMii, 1), fmt(m.headroom(), 2) + "x"});
    mii.print(std::cout);
    std::cout << "\n";
  }
  emitReport(args, report, result.schedule, comp);
  return 0;
}

int cmdSimulate(const Args& args) {
  preflightOutputs(args, {"json", "csv"}, {});
  const Composition comp = resolveComposition(args.get("comp", "mesh4"));
  const LoadedKernel k = loadKernel(args);
  const apps::Workload& w = k.workload;

  // Golden run.
  HostMemory goldenHeap = w.heap;
  kir::Interpreter().run(k.frontend.fn, w.initialLocals, goldenHeap);

  const ScheduleReport result = runScheduler(args, comp, k.graph).orThrow();
  const Schedule runnable =
      decodeContexts(generateContexts(result.schedule, comp), comp);

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : runnable.liveIns)
    liveIns[lb.var] = w.initialLocals[lb.var];
  HostMemory heap = w.heap;
  SimOptions simOpts;
  simOpts.collectCounters = args.has("counters");
  const SimResult r = Simulator(comp, runnable).run(liveIns, heap, simOpts);

  const bool ok = heap == goldenHeap;
  std::cout << w.name << " on " << comp.name() << ": "
            << r.runCycles << " cycles (" << r.invocationCycles
            << " incl. transfers), " << r.dmaLoads << " loads, "
            << r.dmaStores << " stores, energy " << fmt(r.energy, 0)
            << " — result " << (ok ? "MATCHES" : "DOES NOT MATCH")
            << " the reference interpreter\n";

  if (args.has("counters") || args.has("json") || args.has("csv")) {
    const Report report = makeReport(runnable, comp, &result.metrics, &r);
    emitReport(args, report, runnable, comp);
  }

  if (args.has("baseline")) {
    const BytecodeFunction bc = kir::lowerToBytecode(w.fn);
    HostMemory baseHeap = w.heap;
    const TokenRunResult base =
        TokenMachine().run(bc, w.initialLocals, baseHeap);
    std::cout << "baseline: " << base.cycles << " cycles -> speedup "
              << fmt(static_cast<double>(base.cycles) /
                         static_cast<double>(r.runCycles),
                     2)
              << "x\n";
  }
  return ok ? 0 : 1;
}

int cmdSweep(const Args& args) {
  preflightOutputs(args, {"metrics"}, {"trace", "cache"});
  // Resolve the cross-product inputs. Deques keep element addresses stable
  // for the sweep jobs' non-owning pointers.
  std::deque<Composition> comps;
  for (const std::string& name : splitCsv(args.get("comps", "mesh4,mesh9")))
    comps.push_back(resolveComposition(name));
  const auto graphs = loadKernelGraphs(args, "adpcm");

  const SchedulerOptions jobOpts = schedulerOptions(args);
  std::vector<SweepJob> jobs;
  for (const Composition& comp : comps)
    for (const auto& [name, graph] : graphs)
      jobs.push_back(SweepJob{&comp, &graph, name + "@" + comp.name(),
                              jobOpts});

  SweepOptions opts;
  opts.threads = args.getInt<unsigned>("threads", 0);
  opts.keepSchedules = false;
  if (args.has("trace")) {
    opts.traceDir = args.get("trace");
    opts.trace.capacity =
        args.getInt<std::size_t>("trace-capacity", opts.trace.capacity);
  }
  std::optional<artifact::ArtifactStore> store;
  if (args.has("cache")) store.emplace(storeOptions(args));
  const SweepReport report = store.has_value()
                                 ? artifact::runCachedSweep(jobs, opts, *store)
                                 : runSweep(jobs, opts);

  TextTable table({"Job", "Contexts", "Util", "Copies", "Rejections", "ms"});
  for (const SweepJobResult& r : report.results)
    table.addRow({r.label,
                  r.ok ? std::to_string(r.contexts)
                       : "FAIL: " + r.failure.message.substr(0, 40),
                  r.ok ? fmt(r.staticUtilization * 100, 1) + "%" : "-",
                  r.ok ? std::to_string(r.metrics.copiesInserted) : "-",
                  r.ok ? std::to_string(r.metrics.probeRejections) : "-",
                  r.ok ? fmt(r.metrics.totalMs, 2) : "-"});
  table.print(std::cout);
  std::cout << report.results.size() - report.failures << "/"
            << report.results.size() << " jobs scheduled in "
            << fmt(report.wallTimeMs, 1) << " ms on " << report.threadsUsed
            << " thread(s) (" << report.routingCacheEntries
            << " arch model(s), "
            << report.aggregate.nodesScheduled << " nodes, "
            << report.aggregate.probeRejections
            << " probe rejections, mean utilization "
            << fmt(report.meanStaticUtilization * 100, 1) << "%)\n";
  if (report.failures > 0) {
    std::cout << "failures by reason:";
    for (std::size_t i = 0; i < report.failuresByReason.size(); ++i)
      if (report.failuresByReason[i] > 0)
        std::cout << " " << failureReasonName(static_cast<FailureReason>(i))
                  << "=" << report.failuresByReason[i];
    std::cout << "\n";
  }
  if (report.dedupedJobs > 0)
    std::cout << report.dedupedJobs
              << " duplicate job(s) deduplicated within the sweep\n";
  if (report.cacheEnabled)
    std::cout << "artifact cache: " << report.cacheHits << " hit(s), "
              << report.cacheMisses << " miss(es), " << report.cacheEvictions
              << " eviction(s) in " << store->directory() << "\n";
  if (!opts.traceDir.empty())
    std::cout << "wrote per-job traces under " << opts.traceDir << "\n";
  if (args.has("metrics"))
    writeOutput(args.get("metrics"),
                report.toJson(/*includeVolatile=*/!args.has("stable")));
  return report.failures == 0 ? 0 : 1;
}

int cmdExplore(const Args& args) {
  preflightOutputs(args, {"out", "metrics"}, {"cache"});
  explore::CompositionSpace space =
      args.has("space")
          ? explore::CompositionSpace::fromJsonFile(args.get("space"))
          : explore::CompositionSpace{};

  const auto graphs = loadKernelGraphs(args, "dotprod,fir,gcd");
  std::vector<explore::ExploreKernel> kernels;
  for (const auto& [name, graph] : graphs)
    kernels.push_back(explore::ExploreKernel{name, &graph, 1.0});

  explore::ExploreOptions opts;
  opts.strategy = args.get("strategy", "genetic");
  opts.seed = seedOf(args);
  opts.budget = args.getInt("budget", opts.budget);
  opts.population = args.getInt("population", opts.population);
  opts.sweep.threads = args.getInt<unsigned>("threads", 0);

  std::optional<artifact::ArtifactStore> store;
  if (args.has("cache")) store.emplace(storeOptions(args));
  explore::Explorer explorer(std::move(space), std::move(kernels), opts,
                             store.has_value() ? &*store : nullptr);
  const explore::ExploreReport report = explorer.run();

  TextTable table(
      {"Candidate", "Wlen", "Util", "LUTs", "DSP", "BRAM", "MHz"});
  for (const explore::CandidateEval& e : report.front)
    table.addRow({e.key, fmt(e.weightedLength, 0),
                  fmt(e.meanUtilization * 100, 1) + "%", fmt(e.areaLuts, 0),
                  std::to_string(e.dsp), std::to_string(e.bram),
                  fmt(e.frequencyMHz, 1)});
  table.print(std::cout);
  std::cout << report.front.size() << " Pareto-optimal candidate(s) of "
            << report.evaluations << " evaluated ("
            << report.dominatedCount << " dominated, "
            << report.infeasibleCount << " infeasible) in "
            << report.generations.size() << " generation(s), "
            << fmt(report.wallTimeMs, 1) << " ms [" << report.strategy
            << ", seed " << report.seed << "]\n";
  if (store.has_value())
    std::cout << "artifact cache: " << report.counters.storeHits
              << " hit(s), " << report.counters.storeMisses << " miss(es) in "
              << store->directory() << "\n";
  if (args.has("out"))
    writeOutput(args.get("out"),
                report.toJson(/*includeVolatile=*/!args.has("stable")));
  if (args.has("metrics"))
    writeOutput(args.get("metrics"), explorer.metricsText());
  // An empty front means no candidate scheduled the whole kernel set —
  // the search found nothing usable, which callers should notice.
  return report.front.empty() ? 1 : 0;
}

/// The live service a SIGTERM/SIGINT handler asks to drain. notifyDrain()
/// is async-signal-safe (one atomic store + one pipe write).
std::atomic<artifact::Service*> g_serveInstance{nullptr};

extern "C" void serveSignalHandler(int) {
  artifact::Service* s = g_serveInstance.load(std::memory_order_relaxed);
  if (s != nullptr) s->notifyDrain();
}

/// Client mode: pipe stdin JSONL into a running server and print its
/// responses. TARGET is a unix socket path or `tcp:PORT`.
int runServeClient(const std::string& target) {
  artifact::JsonlClient client =
      target.rfind("tcp:", 0) == 0
          ? artifact::JsonlClient::connectTcp(parseInt<std::uint16_t>(
                target.substr(4), "TCP port", 1, 65535))
          : artifact::JsonlClient::connectUnix(target);
  std::uint64_t sent = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    client.sendLine(line);
    ++sent;
  }
  client.shutdownWrite();
  std::uint64_t received = 0;
  while (client.recvLine(line)) {
    std::cout << line << "\n";
    ++received;
  }
  std::cout.flush();
  std::cerr << "serve client: " << sent << " request(s), " << received
            << " response(s)\n";
  return received == sent ? 0 : 1;
}

int cmdServe(const Args& args) {
  if (args.has("connect")) return runServeClient(args.get("connect"));

  preflightOutputs(args, {"metrics", "access-log"}, {"cache", "trace-dir"});
  artifact::ArtifactStore store(storeOptions(args));
  artifact::ServiceOptions opts;
  opts.threads = args.getInt("threads", opts.threads);
  opts.maxInFlight = args.getInt("max-queue", opts.maxInFlight);
  opts.queueBound = args.getInt("queue-bound", opts.queueBound);
  opts.maxClients = args.getInt("max-clients", opts.maxClients);
  opts.maxConnections = args.getInt("max-connections", opts.maxConnections);
  opts.includeArtifact = args.has("artifact");
  opts.accessLogPath = args.get("access-log", "");
  opts.traceSample = args.getInt("trace-sample", opts.traceSample);
  opts.traceDir = args.get("trace-dir", "");

  artifact::Service service(store, opts);
  const bool sockets = args.has("socket") || args.has("tcp");
  if (sockets) {
    if (args.has("socket")) {
      service.addUnixListener(args.get("socket"));
      std::cerr << "cgra-tool: serving on " << args.get("socket") << "\n";
    }
    if (args.has("tcp")) {
      const std::uint16_t port =
          service.addTcpListener(args.getInt<std::uint16_t>("tcp", 0));
      std::cerr << "cgra-tool: serving on 127.0.0.1:" << port << "\n";
    }
    g_serveInstance.store(&service, std::memory_order_relaxed);
    struct sigaction sa {};
    sa.sa_handler = serveSignalHandler;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    service.start();
    service.waitDone();
    service.stop();
    g_serveInstance.store(nullptr, std::memory_order_relaxed);
  } else {
    service.serveStream(std::cin, std::cout);
  }
  const artifact::ServiceStats stats = service.stats();
  // Final scrape of the Prometheus exposition; live scraping goes through
  // {"metrics": true} requests on the wire.
  if (args.has("metrics"))
    writeOutput(args.get("metrics"), service.metricsText(), std::cerr);
  // Session summary on stderr: stdout carries only JSONL responses.
  std::cerr << "serve: " << stats.requests << " request(s), "
            << stats.scheduled << " scheduled, " << stats.cacheHits
            << " cache hit(s), " << stats.deduped << " deduped, "
            << stats.parseErrors + stats.internalErrors << " error(s)";
  if (stats.shedOverload + stats.shedShutdown > 0)
    std::cerr << ", " << stats.shedOverload << " shed overloaded, "
              << stats.shedShutdown << " shed shutdown";
  if (sockets)
    std::cerr << "; " << stats.connectionsAccepted << " connection(s), "
              << stats.connectionsRefused << " refused";
  if (stats.latencyCount > 0)
    std::cerr << "; p50 " << static_cast<std::uint64_t>(stats.latencyP50Us)
              << " us, p99 " << static_cast<std::uint64_t>(stats.latencyP99Us)
              << " us";
  std::cerr << "\n";
  return 0;
}

const CommandSpec kCommands[] = {
    {"list", "list bundled kernels and compositions", {}, cmdList},
    {"describe", "print a composition's PE/interconnect report",
     {"comp"}, cmdDescribe},
    {"kir", "print the IR after every frontend-pipeline stage",
     {"kernel", "kernel-file", "local", "array", "unroll", "cse", "seed"},
     cmdKir},
    {"schedule", "map a kernel onto a composition and report the schedule",
     {"comp", "kernel", "kernel-file", "local", "array", "unroll", "cse",
      "max-contexts", "trace", "trace-capacity", "gantt", "dump", "contexts",
      "memfiles", "verilog", "dot", "cache", "cache-bytes"},
     cmdSchedule},
    {"explain",
     "print the scheduler's decision log (works on unmappable kernels)",
     {"comp", "kernel", "kernel-file", "local", "array", "unroll", "cse",
      "max-contexts", "trace", "trace-capacity"},
     cmdExplain},
    {"simulate", "schedule, run on the cycle simulator, verify vs golden",
     {"comp", "kernel", "kernel-file", "local", "array", "unroll", "cse",
      "baseline", "counters", "json", "csv"},
     cmdSimulate},
    {"stats", "static schedule-quality report (no simulation)",
     {"comp", "kernel", "kernel-file", "local", "array", "unroll", "cse",
      "max-contexts", "json", "csv"},
     cmdStats},
    {"sweep", "schedule every (composition x kernel) pair in parallel",
     {"comps", "kernels", "kernel-dir", "unroll", "threads", "metrics",
      "max-contexts", "trace", "trace-capacity", "stable", "cache",
      "cache-bytes", "seed"},
     cmdSweep},
    {"explore",
     "design-space auto-tuner: Pareto front over area vs. schedule quality",
     {"space", "kernels", "kernel-dir", "unroll", "strategy", "seed",
      "budget", "population", "threads", "stable", "cache", "cache-bytes",
      "out", "metrics"},
     cmdExplore},
    {"serve", "concurrent compile server: JSONL requests in, artifacts out",
     {"cache", "cache-bytes", "threads", "max-queue", "queue-bound",
      "max-clients", "artifact", "socket", "tcp", "max-connections",
      "connect", "metrics", "access-log", "trace-sample", "trace-dir"},
     cmdServe},
};

int printHelp(const CommandSpec& cmd) {
  std::cout << "usage: cgra-tool " << cmd.name << " [flags]\n"
            << cmd.summary << "\n";
  if (cmd.flags.empty()) return 0;
  std::cout << "\nflags:\n";
  for (const char* name : cmd.flags) {
    const FlagSpec* f = findFlag(name);
    std::string left = "  --" + std::string(f->name);
    if (f->takesValue) left += " " + std::string(f->valueName);
    if (left.size() < 26) left.resize(26, ' ');
    std::cout << left << " " << f->help
              << (f->repeatable ? " (repeatable)" : "") << "\n";
  }
  return 0;
}

int usage() {
  std::cout << "usage: cgra-tool <command> [--flags]\n\ncommands:\n";
  for (const CommandSpec& cmd : kCommands) {
    std::string left = "  " + std::string(cmd.name);
    if (left.size() < 14) left.resize(14, ' ');
    std::cout << left << " " << cmd.summary << "\n";
  }
  std::cout << "\n`cgra-tool <command> --help` lists the command's flags.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string name = argv[1];
  const CommandSpec* cmd = nullptr;
  for (const CommandSpec& c : kCommands)
    if (name == c.name) cmd = &c;
  if (cmd == nullptr) return usage();
  try {
    const Args args(argc, argv, *cmd);
    if (args.has("help")) return printHelp(*cmd);
    return cmd->run(args);
  } catch (const std::exception& e) {
    std::cerr << "cgra-tool: " << e.what() << "\n";
    return 1;
  }
}
