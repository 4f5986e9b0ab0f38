// serve_hot and serve_churn: closed-loop TCP clients against an in-process
// artifact::Service, the path of `cgra-tool serve`.
//
//  * serve_hot draws Zipf(1.1) over 32 request lines whose artifacts were
//    pre-warmed into the memory store, so every timed request is a hit:
//    JSON parsing, resolving the composition and graph, key hashing, store
//    lookup and response serialization do the work.
//  * serve_churn draws uniformly over 60 lines — several times the store's
//    memory capacity — with a disk tier capped below the lines' total size,
//    so requests mix memory hits, disk reloads and reschedules after
//    eviction; some lines carry a context budget that yields a typed
//    `unmappable` answer.
//
// Server workers and client connections each take half of nproc. The
// traced run serves its second half from a second service with the JSONL
// access log on, and joins each log line's spans with the client's round
// trip by request id.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unistd.h>

#include "apps/kernels.hpp"
#include "artifact/client.hpp"
#include "artifact/service.hpp"
#include "artifact/store.hpp"
#include "catalog.hpp"
#include "common.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace cgra;

namespace {

constexpr std::size_t kKernels = 12;  ///< apps::allWorkloads(), in order
constexpr std::size_t kHotLines = 32;
constexpr std::size_t kChurnLinesPerKernel = 5;
constexpr std::size_t kChurnMemoryEntries = 16;
constexpr double kChurnDiskShare = 0.75;
constexpr unsigned kChurnBudget = 12;  ///< maxContexts of budget variants
constexpr unsigned kWindows = 10;

/// One request line (without its id) and the answer every response to it
/// must carry.
struct Line {
  std::string body;         ///< `"comp":...` fields, no braces, no id
  std::size_t kernel = 0;   ///< index into apps::allWorkloads()
  std::string comp;
  unsigned unroll = 1;
  bool ok = false;          ///< scheduled (else a typed unmappable answer)
  std::string expect;       ///< `"fingerprint":"N"` or `"reason":"R"`
};

std::string requestLine(const Line& line, std::uint64_t id, bool artifact) {
  return "{\"id\":" + std::to_string(id) + "," + line.body +
         (artifact ? ",\"artifact\":true}" : "}");
}

/// Zipf(s) over ranks [0, n) by CDF inversion.
class Zipf {
public:
  Zipf(std::size_t n, double s) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t operator()(Rng& rng) const {
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

private:
  std::vector<double> cdf_;
};

std::string field(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return "";
  std::size_t end = response.find_first_of(",}", at + needle.size());
  return response.substr(at, end - at);
}

/// Reads the answer summary (`"fingerprint":"N"` or `"reason":"R"`) of a
/// response; empty for any other answer.
std::string answerOf(const std::string& response) {
  if (response.find("\"ok\":true") != std::string::npos)
    return field(response, "fingerprint");
  if (response.find("\"code\":\"unmappable\"") != std::string::npos)
    return field(response, "reason");
  return "";
}

/// A running service and its store.
struct Server {
  std::unique_ptr<artifact::ArtifactStore> store;
  std::unique_ptr<artifact::Service> service;
  std::uint16_t port = 0;

  Server(artifact::StoreOptions so, artifact::ServiceOptions svc) {
    store = std::make_unique<artifact::ArtifactStore>(std::move(so));
    service = std::make_unique<artifact::Service>(*store, std::move(svc));
    port = service->addTcpListener(0);
    service->start();
  }
  ~Server() {
    if (service) service->stop();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
};

/// Sends each line once on one connection; returns the responses.
std::vector<std::string> sendAll(std::uint16_t port,
                                 const std::vector<std::string>& lines) {
  artifact::JsonlClient client = artifact::JsonlClient::connectTcp(port);
  std::vector<std::string> out;
  for (const std::string& l : lines) {
    client.sendLine(l);
    std::string resp;
    if (!client.recvLine(resp)) throw std::runtime_error("server hung up");
    out.push_back(resp);
  }
  return out;
}

struct Setup {
  std::vector<Line> lines;
  std::unique_ptr<Server> server;
  std::string dir;  ///< churn disk tier, removed with the setup
  std::vector<double> contexts, cycles;
  std::vector<std::pair<std::string, std::uint64_t>> fingerprints;

  ~Setup() {
    server.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

unsigned halfProcs(const Options& opts) {
  return std::max(1u, opts.nproc / 2);
}

artifact::ServiceOptions serviceOptions(const Options& opts,
                                        const std::string& accessLog) {
  artifact::ServiceOptions so;
  so.threads = halfProcs(opts);
  so.accessLogPath = accessLog;
  return so;
}

std::string uniqueDir(const Options& opts, const char* tag) {
  static std::atomic<unsigned> counter{0};
  const std::string dir = opts.tmpDir + "/" + tag + "-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Records the pre-warm answers of every line as the reference: artifact
/// documents are parsed and verified, their schedules simulated against
/// the interpreter on the service's bundled kernel inputs.
void recordReferences(Setup& s, const std::vector<std::string>& responses,
                      std::uint64_t& failed) {
  const std::vector<apps::Workload> workloads = apps::allWorkloads();
  for (std::size_t i = 0; i < s.lines.size(); ++i) {
    Line& line = s.lines[i];
    const std::string& resp = responses[i];
    line.ok = resp.find("\"ok\":true") != std::string::npos;
    line.expect = answerOf(resp);
    if (line.expect.empty()) {
      ++failed;
      continue;
    }
    if (!line.ok) continue;
    const json::Value doc = json::parse(resp);
    const artifact::ScheduleArtifact art =
        artifact::ScheduleArtifact::fromJson(doc.asObject().at("artifact"));
    const apps::Workload& w = workloads[line.kernel];
    Kernel k;
    k.name = w.name;
    k.fn = w.fn;
    k.initialLocals = w.initialLocals;
    k.heap = w.heap;
    const Composition comp = buildComposition(line.comp);
    const std::uint64_t cycles = simulateChecked(
        comp, art.schedule, k, makeReference(k, line.unroll));
    if (cycles == 0) ++failed;
    s.contexts.push_back(art.schedule.length);
    s.cycles.push_back(static_cast<double>(cycles));
    s.fingerprints.emplace_back(line.body, art.fingerprint);
  }
}

const std::vector<std::string>& serveComps() {
  static const std::vector<std::string> kComps = {
      "mesh4", "mesh6", "mesh8", "mesh9", "mesh12", "mesh16",
      "A",     "B",     "C",     "D",     "E",      "F"};
  return kComps;
}

Line makeLine(std::size_t kernel, const std::string& comp, unsigned unroll,
              unsigned maxContexts) {
  static const std::vector<apps::Workload> workloads = apps::allWorkloads();
  Line line;
  line.kernel = kernel;
  line.comp = comp;
  line.unroll = unroll;
  line.body = "\"comp\":\"" + comp + "\",\"kernel\":\"" +
              workloads[kernel].name + "\",\"unroll\":" +
              std::to_string(unroll);
  if (maxContexts > 0)
    line.body += ",\"maxContexts\":" + std::to_string(maxContexts);
  return line;
}

/// serve_hot's 32 lines, Zipf rank = line index. The kernels and unroll
/// factors are fixed per rank (rank r runs kernel r mod 12, unrolled by 2
/// for ranks 12..23), so every seed puts the same kernels on the hot ranks;
/// the seed permutes the compositions. A line that does not map moves on to
/// the next composition, so every timed request is a hit with a schedule.
std::unique_ptr<Setup> makeHotSetup(const Options& opts,
                                    const std::string& accessLog,
                                    std::uint64_t& failed) {
  auto s = std::make_unique<Setup>();
  Rng rng(deriveSeed(opts.seed, 0x407));
  const std::vector<std::string>& comps = serveComps();
  const std::vector<std::size_t> perm = permutation(comps.size(), rng);
  s->server = std::make_unique<Server>(artifact::StoreOptions{},
                                       serviceOptions(opts, accessLog));
  std::vector<Line> lines(kHotLines);
  std::vector<std::string> answers(kHotLines);
  std::set<std::string> taken;
  for (std::size_t shift = 0; shift < comps.size(); ++shift) {
    std::vector<std::size_t> open;
    std::vector<std::string> warm;
    for (std::size_t r = 0; r < kHotLines; ++r) {
      if (!answers[r].empty()) continue;
      const std::string& comp =
          comps[perm[(r + r / kKernels + shift) % comps.size()]];
      Line line =
          makeLine(r % kKernels, comp, (r / kKernels) % 2 == 1 ? 2 : 1, 0);
      if (taken.count(line.body) > 0) continue;
      lines[r] = std::move(line);
      open.push_back(r);
      warm.push_back(requestLine(lines[r], 0, true));
    }
    if (warm.empty()) break;
    const std::vector<std::string> responses = sendAll(s->server->port, warm);
    for (std::size_t i = 0; i < open.size(); ++i)
      if (responses[i].find("\"ok\":true") != std::string::npos) {
        answers[open[i]] = responses[i];
        taken.insert(lines[open[i]].body);
      }
  }
  std::vector<std::string> kept;
  for (std::size_t r = 0; r < kHotLines; ++r)
    if (!answers[r].empty()) {
      s->lines.push_back(lines[r]);
      kept.push_back(answers[r]);
    }
  recordReferences(*s, kept, failed);
  return s;
}

/// serve_churn's 60 lines: each of the 12 kernels meets 5 compositions
/// (a seeded permutation per kernel), unrolled by 1 and 2 alternately; its
/// fifth line carries a small context budget, which the bigger kernels
/// answer with a typed `unmappable`.
std::vector<Line> churnLines(Rng& rng) {
  const std::vector<std::string>& comps = serveComps();
  std::vector<Line> lines;
  for (std::size_t k = 0; k < kKernels; ++k) {
    const std::vector<std::size_t> perm = permutation(comps.size(), rng);
    for (std::size_t j = 0; j < kChurnLinesPerKernel; ++j)
      lines.push_back(makeLine(k, comps[perm[j]], (j + k) % 2 == 0 ? 1 : 2,
                               j + 1 == kChurnLinesPerKernel ? kChurnBudget
                                                             : 0));
  }
  return lines;
}

std::unique_ptr<Setup> makeChurnSetup(const Options& opts,
                                      const std::string& accessLog,
                                      std::uint64_t& failed) {
  auto s = std::make_unique<Setup>();
  Rng rng(deriveSeed(opts.seed, 0xC4E2));
  s->lines = churnLines(rng);  // 60 lines, several times kChurnMemoryEntries
  s->dir = uniqueDir(opts, "churn");
  // Fill an uncapped disk store once to learn the lines' total size, then
  // reopen it with the disk cap below that size and a small memory tier.
  artifact::StoreOptions so;
  so.directory = s->dir;
  std::size_t totalBytes = 0;
  {
    Server fill(so, serviceOptions(opts, ""));
    std::vector<std::string> warm;
    for (const Line& l : s->lines) warm.push_back(requestLine(l, 0, true));
    recordReferences(*s, sendAll(fill.port, warm), failed);
    totalBytes = fill.store->diskBytes();
  }
  so.maxMemoryEntries = kChurnMemoryEntries;
  so.maxDiskBytes =
      static_cast<std::size_t>(static_cast<double>(totalBytes) * kChurnDiskShare);
  s->server = std::make_unique<Server>(so, serviceOptions(opts, accessLog));
  return s;
}

/// Closed-loop load: `clients` connections, each sending its next request
/// when the previous answer arrived, until `seconds` elapsed. Every
/// response is checked against its line's reference answer.
struct LoadResult {
  std::vector<Sample> samples;
  std::map<std::uint64_t, double> rttUs;  ///< id -> client round trip
  std::uint64_t attempted = 0, failed = 0;
  Clock::time_point start;
  double seconds = 0.0;
};

/// The calling thread samples `probe` while the clients run.
LoadResult runLoad(const Setup& s, unsigned clients, double seconds,
                   std::uint64_t seed, bool zipf, std::uint64_t idBase,
                   SpeedProbe& probe) {
  LoadResult result;
  std::mutex mu;
  const Zipf sampler(s.lines.size(), 1.1);
  const Clock::time_point start = Clock::now();
  result.start = start;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(deriveSeed(seed, 0x100 + c));
      std::vector<Sample> samples;
      std::vector<std::pair<std::uint64_t, double>> rtts;
      std::uint64_t attempted = 0, failed = 0;
      try {
        artifact::JsonlClient client =
            artifact::JsonlClient::connectTcp(s.server->port);
        std::string resp;
        for (std::uint64_t n = 0; secondsSince(start) < seconds; ++n) {
          const std::size_t pick =
              zipf ? sampler(rng)
                   : static_cast<std::size_t>(rng.range(
                         0, static_cast<std::int64_t>(s.lines.size()) - 1));
          const Line& line = s.lines[pick];
          const bool artifact = rng.chance(1, 4);
          const std::uint64_t id = idBase + c * 100'000'000ull + n;
          const std::string req = requestLine(line, id, artifact);
          const Clock::time_point t0 = Clock::now();
          client.sendLine(req);
          const bool got = client.recvLine(resp);
          const Clock::time_point t1 = Clock::now();
          ++attempted;
          if (!got || answerOf(resp) != line.expect) {
            ++failed;
            if (failed <= 3)
              std::cerr << "perfbench: serve response mismatch for " << req
                        << ": " << resp.substr(0, 200) << "\n";
            if (!got) break;
            continue;
          }
          const double ms = msBetween(t0, t1);
          samples.push_back(
              {std::chrono::duration<double>(t1 - start).count(), ms});
          rtts.emplace_back(id, ms * 1000.0);
        }
      } catch (const std::exception& e) {
        ++failed;
        std::cerr << "perfbench: client " << c << ": " << e.what() << "\n";
      }
      std::lock_guard<std::mutex> lock(mu);
      result.samples.insert(result.samples.end(), samples.begin(),
                            samples.end());
      for (const auto& [id, us] : rtts) result.rttUs[id] = us;
      result.attempted += attempted;
      result.failed += failed;
    });
  }
  // Sparser than the single-threaded loops' sampling: a busy probe thread
  // next to the clients and workers lengthens the latency tail.
  while (secondsSince(start) < seconds) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(5 * kProbePeriodS));
    probe.sample();
  }
  for (std::thread& t : threads) t.join();
  result.seconds = secondsSince(start);
  return result;
}

/// Per-layer metrics of a traced phase: access-log spans joined with the
/// client round trips, plus store and service counter deltas.
void reportTraced(Report& report, const LoadResult& load,
                  const std::string& accessLog,
                  const artifact::StoreCounters& st0,
                  const artifact::StoreCounters& st1,
                  const artifact::ServiceStats& sv0,
                  const artifact::ServiceStats& sv1) {
  double admit = 0, queue = 0, store = 0, sched = 0, ser = 0, write = 0,
         resolve = 0, wire = 0, n = 0;
  std::ifstream in(accessLog);
  for (std::string text; std::getline(in, text);) {
    const json::Value doc = json::parse(text);
    const json::Object& o = doc.asObject();
    if (!o.at("id").isInt()) continue;
    const auto id = static_cast<std::uint64_t>(o.at("id").asInt());
    const auto it = load.rttUs.find(id);
    if (it == load.rttUs.end()) continue;  // pre-warm or a failed request
    auto us = [&](const char* k) {
      return static_cast<double>(o.at(k).asInt());
    };
    // The access log's spans add up exactly to its total.
    report.check(us("admitUs") + us("queueUs") + us("serviceUs") +
                         us("writeUs") ==
                     us("totalUs"),
                 "serve: access-log spans do not add up for id " +
                     std::to_string(id));
    admit += us("admitUs");
    queue += us("queueUs");
    store += us("storeUs");
    sched += us("scheduleUs");
    ser += us("serializeUs");
    write += us("writeUs");
    resolve += us("serviceUs") - us("storeUs") - us("scheduleUs") -
               us("serializeUs");
    wire += it->second - us("totalUs");
    ++n;
  }
  if (n > 0) {
    report.layer("service.admit_us", admit / n);
    report.layer("service.queue_us", queue / n);
    report.layer("service.store_us", store / n);
    report.layer("service.schedule_us", sched / n);
    report.layer("service.serialize_us", ser / n);
    report.layer("service.write_us", write / n);
    report.layer("service.resolve_us", resolve / n);
    report.layer("client.wire_us", wire / n);
  }
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double lookups = d(st0.hits + st0.misses, st1.hits + st1.misses);
  report.layer("store.lookups", lookups);
  report.layer("store.hit_ratio",
               lookups > 0 ? d(st0.hits, st1.hits) / lookups : 0.0);
  report.layer("store.memory_hits", d(st0.memoryHits, st1.memoryHits));
  report.layer("store.disk_hits", d(st0.diskHits, st1.diskHits));
  report.layer("store.inserts", d(st0.inserts, st1.inserts));
  report.layer("store.evictions", d(st0.evictions, st1.evictions));
  report.layer("store.invalid", d(st0.invalid, st1.invalid));
  report.layer("service.scheduled", d(sv0.scheduled, sv1.scheduled));
  report.layer("service.deduped", d(sv0.deduped, sv1.deduped));
  report.layer("service.max_queue_depth",
               static_cast<double>(sv1.maxQueueDepth));
  report.layer("trace.ops", n);
}

using SetupFn = std::unique_ptr<Setup> (*)(const Options&, const std::string&,
                                           std::uint64_t&);

Report runServe(const Options& opts, SetupFn makeSetup, bool zipf) {
  Report report;
  const unsigned clients = halfProcs(opts);
  SpeedProbe probe;
  std::uint64_t setupFailures = 0;
  std::unique_ptr<Setup> setup = repeatSetup(opts, report, probe, [&] {
    setupFailures = 0;
    return makeSetup(opts, "", setupFailures);
  });
  report.check(setupFailures == 0,
               "serve: a pre-warm answer is missing or differs from the "
               "interpreter");

  const double phase = opts.trace ? opts.seconds / 2 : opts.seconds;
  const LoadResult load = runLoad(*setup, clients, phase,
                                 deriveSeed(opts.seed, 0x10AD), zipf, 0, probe);
  report.tally(load.attempted, load.failed, "serve requests");

  const WindowStats ws = windowStats(load.samples, load.start, load.seconds,
                                     kWindows, {0.5, 0.9, 0.99}, probe);
  report.endToEnd("op_ms_p50", ws.scaledQuantilesMs[0], "ms");
  report.endToEnd("op_ms_p90", ws.scaledQuantilesMs[1], "ms");
  report.endToEnd("throughput_per_s", ws.scaledPerSecond, "1/s");
  report.info("raw_op_ms_p50", ws.quantilesMs[0]);
  report.info("raw_op_ms_p90", ws.quantilesMs[1]);
  report.info("raw_throughput_per_s", ws.perSecond);
  report.endToEnd("contexts_geomean", geomean(setup->contexts), "contexts");
  report.endToEnd("cycles_geomean", geomean(setup->cycles), "cycles");
  report.info("request_us_p50", ws.quantilesMs[0] * 1000.0);
  report.info("request_us_p90", ws.quantilesMs[1] * 1000.0);
  report.info("request_us_p99", ws.quantilesMs[2] * 1000.0);
  report.info("requests_per_s", ws.perSecond);
  report.info("requests", static_cast<std::int64_t>(ws.samples));
  report.info("clients", static_cast<std::int64_t>(clients));
  report.info("server_threads", static_cast<std::int64_t>(halfProcs(opts)));
  report.info("lines", static_cast<std::int64_t>(setup->lines.size()));
  report.info("schedule_digest", fingerprintDigest(setup->fingerprints));
  recordMachine(report, probe, opts);

  if (opts.trace) {
    // Second phase: a fresh service with the access log on.
    setup.reset();
    const std::string logDir = uniqueDir(opts, "accesslog");
    const std::string logPath = logDir + "/access.jsonl";
    setupFailures = 0;
    setup = makeSetup(opts, logPath, setupFailures);
    report.check(setupFailures == 0, "serve: traced pre-warm differs");
    const artifact::StoreCounters st0 = setup->server->store->counters();
    const artifact::ServiceStats sv0 = setup->server->service->stats();
    const LoadResult traced =
        runLoad(*setup, clients, phase, deriveSeed(opts.seed, 0x10AE), zipf,
                1'000'000'000'000ull, probe);
    const artifact::StoreCounters st1 = setup->server->store->counters();
    const artifact::ServiceStats sv1 = setup->server->service->stats();
    setup->server->service->stop();  // flushes and closes the access log
    report.tally(traced.attempted, traced.failed, "traced serve requests");
    reportTraced(report, traced, logPath, st0, st1, sv0, sv1);
    std::vector<double> u, t;
    for (const Sample& s : load.samples) u.push_back(s.ms);
    for (const Sample& s : traced.samples) t.push_back(s.ms);
    report.layer("trace.overhead_ratio", median(t) / median(u));
    setup.reset();
    std::filesystem::remove_all(logDir);
  }
  return report;
}

}  // namespace

Report runServeHot(const Options& opts) {
  return runServe(opts, makeHotSetup, /*zipf=*/true);
}

Report runServeChurn(const Options& opts) {
  return runServe(opts, makeChurnSetup, /*zipf=*/false);
}

}  // namespace perfbench
