// Concurrent compile server (artifact/service.hpp): v1 wire protocol (every
// response versioned, typed error objects), JSONL framing and request-order
// streaming, per-key dedup across sessions, store-backed cache hits,
// admission control (per-connection in-flight pause + global queue bound
// with `overloaded` shedding), graceful drain (`shutdown` shedding), live
// {"stats":true} metrics, unix/TCP listeners with the stale-socket guard,
// and an 8-client concurrent stress run clean under the tsan preset.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/factory.hpp"
#include "artifact/artifact.hpp"
#include "artifact/client.hpp"
#include "artifact/service.hpp"
#include "artifact/store.hpp"
#include "json/json.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/parser.hpp"
#include "kir/passes/pipeline.hpp"
#include "sched/scheduler.hpp"
#include "support/rng.hpp"
#include "temp_dir.hpp"

#include <sys/stat.h>

namespace cgra {
namespace {

namespace sfs = std::filesystem;

std::vector<json::Value> parseLines(const std::string& text) {
  std::vector<json::Value> docs;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.find('\n'), std::string::npos)
        << "each response is exactly one line";
    docs.push_back(json::parse(line));
  }
  return docs;
}

/// The response bytes of one session of a fresh Service on `store`.
std::string serveBytes(const std::string& requests,
                       artifact::ArtifactStore& store,
                       artifact::ServiceOptions options,
                       artifact::ServiceStats* statsOut = nullptr) {
  std::istringstream in(requests);
  std::ostringstream out;
  artifact::Service service(store, std::move(options));
  service.serveStream(in, out);
  if (statsOut != nullptr) *statsOut = service.stats();
  return out.str();
}

std::vector<json::Value> runService(const std::string& requests,
                                    artifact::ArtifactStore& store,
                                    artifact::ServiceOptions options,
                                    artifact::ServiceStats* statsOut = nullptr) {
  return parseLines(serveBytes(requests, store, std::move(options), statsOut));
}

std::string errorCode(const json::Value& response) {
  const json::Object& o = response.asObject();
  EXPECT_FALSE(o.at("ok").asBool());
  return o.at("error").asObject().at("code").asString();
}

/// The value of one unlabelled sample line `name value` in a Prometheus
/// exposition; -1 when the name is absent.
std::int64_t exposedValue(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind(name + " ", 0) == 0)
      return std::stoll(line.substr(name.size() + 1));
  return -1;
}

/// Polls `pred` for up to ~10 s; the generous ceiling keeps sanitizer runs
/// from flaking while real waits stay in the milliseconds.
template <typename Pred>
bool eventually(Pred pred,
                std::chrono::seconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

TEST(Service, AnswersInRequestOrderAndDedupesIdenticalJobs) {
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 2;
  artifact::ServiceStats stats;
  const std::vector<json::Value> responses = runService(
      "{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
      "{\"id\":2,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
      "{\"id\":3,\"comp\":\"mesh9\",\"kernel\":\"dotprod\"}\n",
      store, options, &stats);

  ASSERT_EQ(responses.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const json::Object& o = responses[i].asObject();
    EXPECT_EQ(o.at("v").asInt(), artifact::kWireVersion)
        << "every response carries the wire protocol version";
    EXPECT_EQ(o.at("id").asInt(), static_cast<std::int64_t>(i + 1))
        << "responses stream in request order";
    EXPECT_TRUE(o.at("ok").asBool());
    EXPECT_FALSE(o.at("fingerprint").asString().empty());
  }
  // Identical requests share one key (and one scheduling run); the distinct
  // one does not.
  const std::string key1 = responses[0].asObject().at("key").asString();
  EXPECT_EQ(responses[1].asObject().at("key").asString(), key1);
  EXPECT_NE(responses[2].asObject().at("key").asString(), key1);
  EXPECT_EQ(responses[0].asObject().at("fingerprint").asString(),
            responses[1].asObject().at("fingerprint").asString());

  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.parseErrors, 0u);
  EXPECT_EQ(stats.scheduled, 2u) << "the duplicate must not be rescheduled";
  EXPECT_EQ(stats.cacheHits + stats.deduped, 1u);
}

TEST(Service, WarmStoreAnswersWithoutScheduling) {
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  const std::string request =
      "{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n";

  runService(request, store, options);  // cold: fills the store
  EXPECT_EQ(store.counters().misses, 1u) << "a cold request is one miss";
  artifact::ServiceStats stats;
  const std::vector<json::Value> responses =
      runService(request, store, options, &stats);
  EXPECT_EQ(store.counters().hits, 1u);
  EXPECT_EQ(store.counters().misses, 1u);

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].asObject().at("ok").asBool());
  EXPECT_TRUE(responses[0].asObject().at("cached").asBool());
  EXPECT_EQ(stats.scheduled, 0u);
  EXPECT_EQ(stats.cacheHits, 1u);
}

TEST(Service, ReportsBadLinesWithTypedErrorsWithoutAbortingTheSession) {
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  artifact::ServiceStats stats;
  const std::vector<json::Value> responses = runService(
      "this is not json\n"
      "{\"id\":2,\"kernel\":\"gcd\"}\n"
      "{\"id\":3,\"comp\":\"mesh4\",\"kernel\":\"no-such-kernel\"}\n"
      "{\"id\":4,\"comp\":\"nope99\",\"kernel\":\"gcd\"}\n"
      "{\"id\":5,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n",
      store, options, &stats);

  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(errorCode(responses[0]), "parse");
  EXPECT_EQ(errorCode(responses[1]), "parse")
      << "a request without comp is malformed";
  EXPECT_EQ(errorCode(responses[2]), "bad_kernel")
      << "an unknown kernel is not an unknown composition";
  EXPECT_EQ(errorCode(responses[3]), "unknown_comp");
  EXPECT_FALSE(responses[2]
                   .asObject()
                   .at("error")
                   .asObject()
                   .at("message")
                   .asString()
                   .empty());
  EXPECT_TRUE(responses[4].asObject().at("ok").asBool())
      << "good requests after bad lines are still served";
  for (const json::Value& r : responses)
    EXPECT_EQ(r.asObject().at("v").asInt(), artifact::kWireVersion);
  EXPECT_GE(stats.parseErrors, 4u);
  EXPECT_EQ(stats.requests, 5u);
}

TEST(Service, OutOfRangeCountsAreParseErrorsAndTheSessionLivesOn) {
  // An unbounded unroll factor once exhausted memory (or the stack) in the
  // frontend, and negatives wrapped to 2^32 - 1: each must be refused
  // before any work is done.
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  const std::vector<json::Value> responses = runService(
      "{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\",\"unroll\":100000}\n"
      "{\"id\":2,\"comp\":\"mesh4\",\"kernel\":\"gcd\",\"unroll\":-1}\n"
      "{\"id\":3,\"comp\":\"mesh4\",\"kernel\":\"gcd\",\"maxContexts\":-1}\n"
      "{\"id\":4,\"comp\":\"mesh4\",\"kernel\":\"gcd\",\"unroll\":2}\n",
      store, options);

  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(errorCode(responses[i]), "parse") << "line " << i + 1;
  EXPECT_TRUE(responses[3].asObject().at("ok").asBool());
}

/// The `error.message` of each answer to `lines`, after checking that
/// every answer is a `parse` error.
std::vector<std::string> parseMessages(const std::string& lines) {
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  std::vector<std::string> messages;
  for (const json::Value& r : runService(lines, store, options)) {
    EXPECT_EQ(errorCode(r), "parse") << r.dump(0);
    messages.push_back(
        r.asObject().at("error").asObject().at("message").asString());
  }
  return messages;
}

TEST(Service, EachRequestFieldWithAWrongTypeIsAParseErrorNamingIt) {
  // `id` is any JSON value and has no wrong type; every other field of the
  // request's layout is checked, and the answer names the key.
  const std::pair<const char*, const char*> cases[] = {
      {"artifact", R"({"artifact":1,"comp":"mesh4","kernel":"gcd"})"},
      {"comp", R"({"comp":5,"kernel":"gcd"})"},
      {"cse", R"({"comp":"mesh4","cse":1,"kernel":"gcd"})"},
      {"kernel", R"({"comp":"mesh4","kernel":["gcd"]})"},
      {"kernelFile", R"({"comp":"mesh4","kernelFile":7})"},
      {"maxContexts", R"({"comp":"mesh4","kernel":"gcd","maxContexts":"16"})"},
      {"metrics", R"({"metrics":"yes"})"},
      {"stats", R"({"stats":1})"},
      {"unroll", R"({"comp":"mesh4","kernel":"gcd","unroll":"2"})"},
  };
  std::string lines;
  for (const auto& [key, line] : cases) lines += std::string(line) + "\n";
  const std::vector<std::string> messages = parseMessages(lines);
  ASSERT_EQ(messages.size(), std::size(cases));
  for (std::size_t i = 0; i < messages.size(); ++i)
    EXPECT_NE(messages[i].find(std::string("'") + cases[i].first + "'"),
              std::string::npos)
        << messages[i];
}

TEST(Service, MisspeltAndUnknownKeysAreParseErrorsNamingThem) {
  // A misspelt key used to be ignored: "unrol":2 answered the unroll-1
  // schedule. Control requests are decoded by the same layout.
  const std::vector<std::string> messages = parseMessages(
      "{\"comp\":\"mesh9\",\"kernel\":\"adpcm\",\"unrol\":2}\n"
      "{\"comp\":\"mesh4\",\"kernelfile\":\"k.kir\"}\n"
      "{\"comp\":\"mesh4\",\"kernel\":\"gcd\",\"maxcontexts\":4}\n"
      "{\"stats\":true,\"verbose\":true}\n");
  const char* keys[] = {"unrol", "kernelfile", "maxcontexts", "verbose"};
  ASSERT_EQ(messages.size(), std::size(keys));
  for (std::size_t i = 0; i < messages.size(); ++i)
    EXPECT_EQ(messages[i],
              std::string("request: unknown key \"") + keys[i] + "\"");
}

TEST(Service, KernelAndKernelFileTogetherAreAParseError) {
  // Neither silently wins over the other.
  const std::vector<std::string> messages = parseMessages(
      "{\"comp\":\"mesh4\",\"kernel\":\"gcd\",\"kernelFile\":\"k.kir\"}\n");
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_NE(messages[0].find("both"), std::string::npos) << messages[0];
}

/// The canonical encoding of one request line.
std::string canonicalRequest(const std::string& line,
                             artifact::WireRequest& req) {
  json::decode(artifact::kRequestLayout, json::parse(line), "request", req);
  return json::encode(artifact::kRequestLayout, req).dump(0);
}

TEST(Service, RequestLayoutHasOneCanonicalEncoding) {
  artifact::WireRequest first;
  const std::string canonical = canonicalRequest(
      R"({"id":[7,"x"],"comp":"mesh9","kernel":"adpcm","unroll":2,)"
      R"("cse":true,"maxContexts":16,"artifact":true})",
      first);
  artifact::WireRequest second;
  EXPECT_EQ(canonicalRequest(canonical, second), canonical)
      << "decode, encode, decode is a fixed point";
  EXPECT_EQ(second.id.dump(0), first.id.dump(0));
  EXPECT_EQ(second.comp, "mesh9");
  EXPECT_EQ(second.kernel, "adpcm");
  EXPECT_EQ(second.kernelFile, "");
  EXPECT_EQ(second.frontend.unrollFactor, 2u);
  EXPECT_TRUE(second.frontend.cse);
  EXPECT_EQ(second.maxContexts, 16u);
  EXPECT_TRUE(second.wantArtifact);
  EXPECT_FALSE(second.stats);
  EXPECT_FALSE(second.metrics);

  artifact::WireRequest reordered;
  EXPECT_EQ(canonicalRequest(" { \"artifact\" : true, \"maxContexts\": 16,\n"
                             "\"cse\":true, \"unroll\":2, \"kernel\":\"adpcm\","
                             " \"comp\": \"mesh9\", \"id\": [ 7, \"x\" ] }",
                             reordered),
            canonical)
      << "key order and whitespace do not reach the canonical form";
}

TEST(Service, FailedPublishAnswersEveryWaitingRequest) {
  // The store's directory vanishes after open, so the first request's
  // publish throws while identical requests wait on its flight. Every one
  // of them must still be answered and the session must end.
  const TempDir dir("gone");
  artifact::StoreOptions so;
  so.directory = (dir.path / "cache").string();
  auto store = std::make_shared<artifact::ArtifactStore>(so);
  sfs::remove_all(so.directory);
  artifact::ServiceOptions options;
  options.threads = 4;
  auto service = std::make_shared<artifact::Service>(*store, options);
  const std::string line =
      "{\"comp\":\"mesh9\",\"kernel\":\"adpcm\",\"unroll\":2}\n";
  auto in = std::make_shared<std::istringstream>(line + line + line);
  auto out = std::make_shared<std::ostringstream>();
  auto done = std::make_shared<std::atomic<bool>>(false);
  // The thread owns everything it touches, so a hung session can be left
  // behind without hanging the rest of the test binary.
  std::thread session([=, keep = store] {
    service->serveStream(*in, *out);
    // A later request for the key must not find a stale flight either.
    std::istringstream later(line);
    service->serveStream(later, *out);
    done->store(true);
  });
  if (!eventually([&] { return done->load(); }, std::chrono::seconds(120))) {
    session.detach();  // it cannot be joined: it waits on a dead flight
    FAIL() << "serveStream never returned: a request waits on a dead flight";
  }
  session.join();

  const std::vector<json::Value> responses = parseLines(out->str());
  ASSERT_EQ(responses.size(), 4u);
  for (const json::Value& r : responses)
    if (!r.asObject().at("ok").asBool()) {
      EXPECT_EQ(errorCode(r), "internal");
    }
}

TEST(Service, DeeplyNestedLineIsAParseErrorAndTheConnectionLivesOn) {
  // A million '[' used to overflow the parser's stack and kill the server.
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  artifact::Service service(store, options);
  const std::uint16_t port = service.addTcpListener(0);
  ASSERT_NE(port, 0u);
  service.start();

  artifact::JsonlClient client = artifact::JsonlClient::connectTcp(port);
  client.sendLine(std::string(1000000, '['));
  client.sendLine("{\"id\":2,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}");
  client.shutdownWrite();
  std::string line;
  ASSERT_TRUE(client.recvLine(line));
  EXPECT_EQ(errorCode(json::parse(line)), "parse");
  ASSERT_TRUE(client.recvLine(line));
  const json::Value ok = json::parse(line);
  EXPECT_EQ(ok.asObject().at("id").asInt(), 2);
  EXPECT_TRUE(ok.asObject().at("ok").asBool())
      << "the request after the deep line is served on the same connection";
  client.close();

  service.drain();
  service.stop();
  EXPECT_EQ(service.stats().parseErrors, 1u);
}

TEST(Service, UnmappableJobsAnswerWithTypedFailure) {
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  const std::vector<json::Value> responses = runService(
      "{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\",\"maxContexts\":4}\n",
      store, options);
  ASSERT_EQ(responses.size(), 1u);
  const json::Object& o = responses[0].asObject();
  EXPECT_FALSE(o.at("ok").asBool());
  const json::Object& err = o.at("error").asObject();
  EXPECT_EQ(err.at("code").asString(), "unmappable");
  EXPECT_EQ(err.at("reason").asString(), "context-budget");
  EXPECT_FALSE(err.at("message").asString().empty());
}

TEST(Service, AttachesDeserializableArtifactsOnRequest) {
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  const std::vector<json::Value> responses = runService(
      "{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\",\"artifact\":true}\n",
      store, options);
  ASSERT_EQ(responses.size(), 1u);
  const json::Object& o = responses[0].asObject();
  ASSERT_TRUE(o.at("ok").asBool());

  const artifact::ScheduleArtifact art =
      artifact::ScheduleArtifact::fromJson(o.at("artifact"));
  EXPECT_TRUE(art.ok);
  EXPECT_EQ(std::to_string(art.schedule.fingerprint()),
            o.at("fingerprint").asString());
  EXPECT_TRUE(art.contexts.has_value())
      << "attached artifacts carry deployable context images";
}

TEST(Service, ComputedMemoryAndDiskAnswersCarryTheScheduleFingerprint) {
  // A response's fingerprint is the stored artifact's own field, which
  // fromReport sets and fromJson checks against the schedule. Each way an
  // answer is made must carry the fingerprint of the schedule it ships.
  const std::string line =
      "{\"id\":1,\"comp\":\"mesh9\",\"kernel\":\"adpcm\","
      "\"artifact\":true}\n";
  artifact::ServiceOptions options;
  options.threads = 1;
  const TempDir dir("fingerprints");
  artifact::StoreOptions so;
  so.directory = dir.str();
  const auto check = [&](artifact::ArtifactStore& store, bool cached,
                         const char* what) {
    const std::vector<json::Value> responses =
        runService(line, store, options);
    ASSERT_EQ(responses.size(), 1u) << what;
    const json::Object& o = responses[0].asObject();
    ASSERT_TRUE(o.at("ok").asBool()) << what;
    EXPECT_EQ(o.at("cached").asBool(), cached) << what;
    const artifact::ScheduleArtifact art =
        artifact::ScheduleArtifact::fromJson(o.at("artifact"));
    EXPECT_EQ(o.at("fingerprint").asString(),
              std::to_string(art.schedule.fingerprint()))
        << what;
  };
  {
    artifact::ArtifactStore store(so);
    check(store, false, "computed");
    check(store, true, "memory hit");
    EXPECT_EQ(store.counters().memoryHits, 1u);
  }
  artifact::ArtifactStore reopened(so);
  check(reopened, true, "disk hit");
  EXPECT_EQ(reopened.counters().diskHits, 1u);
}

TEST(Service, KernelFilesRunTheFrontendPipeline) {
  // string_search.kir uses break, so it only lowers after the frontend
  // normalization pipeline — the same one `cgra-tool schedule` runs.
  const std::string path = std::string(CGRA_KERNEL_DIR) + "/string_search.kir";
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  const std::vector<json::Value> responses = runService(
      "{\"id\":1,\"comp\":\"mesh9\",\"kernelFile\":\"" + path + "\"}\n",
      store, options);
  ASSERT_EQ(responses.size(), 1u);
  const json::Object& o = responses[0].asObject();
  ASSERT_TRUE(o.at("ok").asBool()) << responses[0].dump();

  const Composition comp = makeMesh(9);
  const Cdfg graph =
      kir::lowerToCdfg(kir::runFrontendPipeline(kir::parseKernelFile(path)).fn)
          .graph;
  const ScheduleReport report =
      Scheduler(comp).schedule(ScheduleRequest(graph)).orThrow();
  EXPECT_EQ(o.at("fingerprint").asString(),
            std::to_string(report.schedule.fingerprint()));
}

TEST(Service, OversizedKernelFileIsBadKernel) {
  // One byte over kir::kMaxKernelFileBytes: answered bad_kernel without
  // reading the file to its end, and the session goes on.
  TempDir dir("bigkir");
  const std::string path = (dir.path / "big.kir").string();
  {
    std::ofstream f(path, std::ios::binary);
    f << "kernel f(a) { var r = a; }"
      << std::string(kir::kMaxKernelFileBytes, ' ');
  }
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  artifact::ServiceStats stats;
  const std::vector<json::Value> responses = runService(
      "{\"id\":1,\"comp\":\"mesh9\",\"kernelFile\":\"" + path + "\"}\n"
      "{\"id\":2,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n",
      store, options, &stats);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(errorCode(responses[0]), "bad_kernel");
  EXPECT_TRUE(responses[1].asObject().at("ok").asBool());
  EXPECT_EQ(stats.parseErrors, 1u);
  EXPECT_EQ(stats.internalErrors, 0u);
}

TEST(Service, InternalAnswersAreCounted) {
  // The store's directory vanishes after open, so publishing the computed
  // artifact throws and the request is answered `internal`; the counter,
  // the stats JSON and the exposition all count it.
  const TempDir dir("internal");
  artifact::StoreOptions so;
  so.directory = (dir.path / "cache").string();
  artifact::ArtifactStore store(so);
  sfs::remove_all(so.directory);
  artifact::ServiceOptions options;
  options.threads = 1;
  artifact::Service service(store, options);
  std::istringstream in(
      "{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n");
  std::ostringstream out;
  service.serveStream(in, out);
  const std::vector<json::Value> responses = parseLines(out.str());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(errorCode(responses[0]), "internal");

  const artifact::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.internalErrors, 1u);
  EXPECT_EQ(stats.parseErrors, 0u);
  EXPECT_EQ(stats.toJson().asObject().at("internalErrors").asInt(), 1);
  EXPECT_EQ(exposedValue(service.metricsText(), "cgra_internal_errors_total"),
            1);
}

TEST(Service, ForgedCacheFileIsRecomputedNotServed) {
  // A cache file whose schedule starts an op on a PE in a cycle another op
  // already holds, with its fingerprint recomputed, passes the document's
  // own checks; the disk load's verification rejects it, so the store
  // counts it invalid and recomputes it. Served plainly or with the
  // artifact attached, the answer is a fresh store's, byte for byte.
  const std::string request =
      "{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\"";
  artifact::ServiceOptions options;
  options.threads = 1;
  for (const std::string& line :
       {request + "}\n", request + ",\"artifact\":true}\n"}) {
    artifact::ServiceStats stats;
    artifact::ArtifactStore memoryOnly;
    const std::string fresh = serveBytes(line, memoryOnly, options, &stats);

    const TempDir dir("forged");
    artifact::StoreOptions so;
    so.directory = dir.str();
    std::string key;
    {
      artifact::ArtifactStore store(so);
      key = parseLines(serveBytes(line, store, options, &stats))[0]
                .asObject()
                .at("key")
                .asString();
    }
    const std::string file = (dir.path / (key + ".json")).string();
    artifact::ScheduleArtifact art =
        artifact::ScheduleArtifact::fromJson(json::parseFile(file));
    std::vector<ScheduledOp>& ops = art.schedule.ops;
    bool doubleBooked = false;
    for (std::size_t i = 0; i < ops.size() && !doubleBooked; ++i)
      for (std::size_t j = i + 1; j < ops.size() && !doubleBooked; ++j)
        if (ops[j].pe == ops[i].pe && ops[j].start != ops[i].start) {
          ops[j].start = ops[i].start;
          doubleBooked = true;
        }
    ASSERT_TRUE(doubleBooked);
    art.fingerprint = art.schedule.fingerprint();
    std::ofstream(file) << art.toJson().dump(0);
    ASSERT_NO_THROW(
        artifact::ScheduleArtifact::fromJson(json::parseFile(file)));

    artifact::ArtifactStore store(so);
    const std::string served = serveBytes(line, store, options, &stats);
    EXPECT_EQ(served, fresh) << line;
    EXPECT_FALSE(parseLines(served)[0].asObject().at("cached").asBool());
    EXPECT_EQ(store.counters().invalid, 1u) << line;
    EXPECT_EQ(stats.internalErrors, 0u) << line;
    EXPECT_EQ(stats.scheduled, 1u) << line;
  }
}

/// One seeded single-field edit of `s`, drawn inside the schedule's own
/// ranges: a cycle below its length, a PE, register or C-Box slot it has,
/// a node id up to the largest it names (or none), a flipped flag.
void editOneField(Schedule& s, Rng& rng) {
  const auto below = [&rng](std::size_t n) {
    const auto hi = static_cast<std::int64_t>(std::max<std::size_t>(n, 1));
    return static_cast<unsigned>(rng.range(0, hi - 1));
  };
  NodeId nodes = 0;
  for (const ScheduledOp& op : s.ops)
    if (op.node != kNoNode) nodes = std::max(nodes, op.node + 1);
  ScheduledOp& op = s.ops[below(s.ops.size())];
  OperandSource& src = op.src[below(op.src.size())];
  CBoxOp& cbox = s.cboxOps[below(s.cboxOps.size())];
  BranchOp& branch = s.branches[below(s.branches.size())];
  std::vector<LiveBinding>& bindings =
      s.varHomes.empty() ? s.liveOuts : s.varHomes;
  switch (rng.range(0, 13)) {
    case 0: op.start = below(s.length); break;
    case 1: op.pe = below(s.vregsPerPE.size()); break;
    case 2: op.op = static_cast<Op>(below(kNumOps)); break;
    case 3: op.destVreg = below(s.vregsPerPE[op.pe]); break;
    case 4: op.writesDest = !op.writesDest; break;
    case 5: op.node = below(nodes + 1) == nodes ? kNoNode : below(nodes); break;
    case 6:
      if (src.kind == OperandSource::Kind::Route)
        src.srcPE = below(s.vregsPerPE.size());
      else
        src.vreg = below(s.vregsPerPE[op.pe]);
      break;
    case 7:
      if (op.pred)
        op.pred.reset();
      else
        op.pred = PredRef{below(s.cboxSlotsUsed), rng.chance(1, 2)};
      break;
    case 8: op.emitsStatus = !op.emitsStatus; break;
    case 9: cbox.time = below(s.length); break;
    case 10: cbox.writeSlot = below(s.cboxSlotsUsed); break;
    case 11: branch.time = below(s.length); break;
    case 12: branch.target = below(s.length); break;
    default:
      bindings[below(bindings.size())].vreg = below(2);
      break;
  }
}

TEST(Service, SeededCacheFileMutationsAreVerifiedOrRecomputed) {
  // 200 seeded single-field edits of two cached artifacts, re-fingerprinted
  // so only verification can tell them from the real ones, each served
  // plainly and then with the artifact attached. Every answer is a
  // well-formed v1 line, and every file the disk load rejects answers
  // exactly as a store that never saw it.
  const std::vector<std::pair<const char*, const char*>> jobs = {
      {"mesh4", "gcd"}, {"mesh9", "adpcm"}};
  Rng rng(deriveSeed(2016, 28));
  artifact::ServiceOptions options;
  options.threads = 1;
  unsigned rejected = 0;
  for (const auto& [comp, kernel] : jobs) {
    const std::string job = std::string("\"comp\":\"") + comp +
                            "\",\"kernel\":\"" + kernel + "\"";
    const std::string lines = "{\"id\":1," + job + "}\n{\"id\":2," + job +
                              ",\"artifact\":true}\n";
    artifact::ServiceStats stats;
    artifact::ArtifactStore memoryOnly;
    const std::string fresh = serveBytes(lines, memoryOnly, options, &stats);

    const TempDir dir("mutants");
    artifact::StoreOptions so;
    so.directory = dir.str();
    std::string key;
    {
      artifact::ArtifactStore store(so);
      key = parseLines(serveBytes(lines, store, options, &stats))[0]
                .asObject()
                .at("key")
                .asString();
    }
    const std::string file = (dir.path / (key + ".json")).string();
    const artifact::ScheduleArtifact original =
        artifact::ScheduleArtifact::fromJson(json::parseFile(file));
    for (unsigned i = 0; i < 100; ++i) {
      artifact::ScheduleArtifact art = original;
      editOneField(art.schedule, rng);
      art.fingerprint = art.schedule.fingerprint();
      std::ofstream(file, std::ios::trunc) << art.toJson().dump(0);

      artifact::ArtifactStore store(so);
      const std::string served = serveBytes(lines, store, options, &stats);
      const std::vector<json::Value> responses = parseLines(served);
      ASSERT_EQ(responses.size(), 2u) << kernel << " mutant " << i;
      for (std::size_t r = 0; r < 2; ++r) {
        const json::Object& o = responses[r].asObject();
        EXPECT_EQ(o.at("v").asInt(), artifact::kWireVersion);
        EXPECT_EQ(o.at("id").asInt(), static_cast<std::int64_t>(r + 1));
        if (o.at("ok").asBool())
          EXPECT_FALSE(o.at("fingerprint").asString().empty());
        else
          EXPECT_FALSE(errorCode(responses[r]).empty());
      }
      if (store.counters().invalid == 0) continue;
      ++rejected;
      EXPECT_EQ(served, fresh) << kernel << " mutant " << i;
    }
  }
  // Most edits break a rule the verifier checks, variable homes included.
  // The others redraw the value already there, or rename operand
  // registers, routed source PEs or C-Box write slots, whose register
  // dataflow it does not trace.
  EXPECT_GE(rejected, 119u);
}

TEST(Service, DeepKernelFileIsBadKernelAndTheSessionLivesOn) {
  // 200,000 nested parentheses used to overflow the KIR parser's stack and
  // kill the server; the parser now stops at kir::kMaxNestingDepth.
  TempDir dir("deepkir");
  const std::string path = (dir.path / "deep.kir").string();
  {
    std::ofstream f(path);
    f << "kernel deep(x) { var y = " << std::string(200000, '(') << 'x'
      << std::string(200000, ')') << "; }\n";
  }
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  const std::vector<json::Value> responses = runService(
      "{\"id\":1,\"comp\":\"mesh9\",\"kernelFile\":\"" + path + "\"}\n"
      "{\"id\":2,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n",
      store, options);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(errorCode(responses[0]), "bad_kernel");
  EXPECT_NE(responses[0]
                .asObject()
                .at("error")
                .asObject()
                .at("message")
                .asString()
                .find("nesting deeper than"),
            std::string::npos);
  EXPECT_TRUE(responses[1].asObject().at("ok").asBool())
      << "the next line on the same session is served";
}

TEST(Service, TinyInFlightWindowPreservesOrderUnderBackpressure) {
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 4;
  options.maxInFlight = 1;  // strictest window: one request at a time
  std::string requests;
  for (int i = 1; i <= 6; ++i)
    requests += "{\"id\":" + std::to_string(i) +
                ",\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n";
  artifact::ServiceStats stats;
  const std::vector<json::Value> responses =
      runService(requests, store, options, &stats);

  ASSERT_EQ(responses.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(responses[i].asObject().at("id").asInt(), i + 1);
    EXPECT_TRUE(responses[i].asObject().at("ok").asBool());
  }
  EXPECT_EQ(stats.scheduled, 1u);
  EXPECT_EQ(stats.cacheHits, 5u)
      << "with a window of 1 every repeat hits the store";
}

TEST(Service, EchoesArbitraryIdValuesVerbatim) {
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  const std::vector<json::Value> responses = runService(
      "{\"id\":\"job-a\",\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
      "{\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n",
      store, options);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].asObject().at("id").asString(), "job-a");
  // A request without an id still gets a response carrying a null id.
  EXPECT_TRUE(responses[1].asObject().at("id").isNull());
}

TEST(Service, StatsRequestAnswersLiveMetrics) {
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  options.maxInFlight = 1;  // serialize: the counters below are then exact
  artifact::ServiceStats stats;
  const std::vector<json::Value> responses = runService(
      "{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
      "{\"id\":2,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
      "{\"id\":3,\"stats\":true}\n",
      store, options, &stats);

  ASSERT_EQ(responses.size(), 3u);
  const json::Object& o = responses[2].asObject();
  EXPECT_TRUE(o.at("ok").asBool());
  const json::Object& doc = o.at("stats").asObject();
  const json::Object& svc = doc.at("service").asObject();
  EXPECT_EQ(svc.at("requests").asInt(), 3);
  EXPECT_EQ(svc.at("scheduled").asInt(), 1);
  EXPECT_EQ(svc.at("cacheHits").asInt(), 1);
  EXPECT_GE(svc.at("latencyCount").asInt(), 2);
  EXPECT_GE(svc.at("latencyP99Us").asDouble(), svc.at("latencyP50Us").asDouble());
  // The store section carries the shared-cache hit rate.
  const json::Object& st = doc.at("store").asObject();
  EXPECT_EQ(st.at("hits").asInt(), 1);
  EXPECT_GT(st.at("hitRatePct").asDouble(), 0.0);
  // Per-connection counters list this very session.
  EXPECT_FALSE(doc.at("connections").asArray().empty());
  EXPECT_EQ(stats.statsRequests, 1u);
}

TEST(Service, StatsHeavyTrafficDoesNotPerturbCompileLatency) {
  // Regression: control-plane requests ({"stats":true}, {"metrics":true})
  // used to be recorded into the same latency histogram as compile
  // requests, so a stats-polling client dragged the CI-gated compile p50
  // into the microsecond range. They now land in a separate histogram.
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  std::string requests =
      "{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
      "{\"id\":2,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n";
  constexpr int kStatsProbes = 50;
  for (int i = 0; i < kStatsProbes; ++i)
    requests += "{\"id\":" + std::to_string(100 + i) + ",\"stats\":true}\n";
  artifact::ServiceStats stats;
  const std::vector<json::Value> responses =
      runService(requests, store, options, &stats);
  ASSERT_EQ(responses.size(), 2u + kStatsProbes);

  EXPECT_EQ(stats.latencyCount, 2u)
      << "only compile requests may enter the compile-latency histogram";
  EXPECT_EQ(stats.controlLatencyCount,
            static_cast<std::uint64_t>(kStatsProbes));
  EXPECT_EQ(stats.statsRequests, static_cast<std::uint64_t>(kStatsProbes));
  // Every stats response snapshots the live counters; none of them may see
  // control traffic leaking into the compile count.
  for (std::size_t i = 2; i < responses.size(); ++i) {
    const json::Object& svc = responses[i]
                                  .asObject()
                                  .at("stats")
                                  .asObject()
                                  .at("service")
                                  .asObject();
    EXPECT_LE(svc.at("latencyCount").asInt(), 2);
  }
}

TEST(Service, MetricsRequestAnswersPrometheusExposition) {
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  artifact::ServiceStats stats;
  const std::vector<json::Value> responses = runService(
      "{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
      "{\"id\":2,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
      "{\"id\":3,\"metrics\":true}\n",
      store, options, &stats);

  ASSERT_EQ(responses.size(), 3u);
  const json::Object& o = responses[2].asObject();
  EXPECT_TRUE(o.at("ok").asBool());
  EXPECT_EQ(o.at("id").asInt(), 3);
  const std::string text = o.at("metrics").asString();
  // The exposition is scraped mid-session: both compile requests have been
  // answered, the metrics request itself is counted as read.
  EXPECT_NE(text.find("# TYPE cgra_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("cgra_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("cgra_scheduled_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cgra_compile_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("cgra_compile_latency_us_count 2\n"),
            std::string::npos);
  EXPECT_EQ(stats.statsRequests, 1u)
      << "metrics probes count as control-plane traffic";
}

TEST(Service, AccessLogSpansSumToReportedTotal) {
  TempDir dir("accesslog");
  const std::string logPath = (dir.path / "access.jsonl").string();
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 2;
  options.maxInFlight = 1;  // serialize: line order and cacheHit are exact
  options.accessLogPath = logPath;
  artifact::ServiceStats stats;
  const std::vector<json::Value> responses = runService(
      "{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
      "{\"id\":2,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
      "{\"id\":3,\"bad\":1}\n"
      "{\"id\":4,\"stats\":true}\n",
      store, options, &stats);
  ASSERT_EQ(responses.size(), 4u);

  std::ifstream in(logPath);
  ASSERT_TRUE(in.good()) << "access log must exist at " << logPath;
  std::vector<json::Value> lines;
  for (std::string line; std::getline(in, line);)
    lines.push_back(json::parse(line));
  ASSERT_EQ(lines.size(), 4u) << "one access-log line per request";

  for (const json::Value& v : lines) {
    const json::Object& o = v.asObject();
    // Span additivity: the breakdown accounts for every microsecond of the
    // reported end-to-end latency.
    const std::int64_t total = o.at("totalUs").asInt();
    const std::int64_t sum = o.at("admitUs").asInt() +
                             o.at("queueUs").asInt() +
                             o.at("serviceUs").asInt() +
                             o.at("writeUs").asInt();
    EXPECT_EQ(sum, total);
    EXPECT_GE(o.at("serviceUs").asInt(),
              o.at("storeUs").asInt() + o.at("scheduleUs").asInt() +
                  o.at("serializeUs").asInt())
        << "service time contains its sub-spans";
    EXPECT_EQ(o.at("peer").asString(), "stream");
  }
  EXPECT_EQ(lines[0].asObject().at("outcome").asString(), "ok");
  EXPECT_FALSE(lines[0].asObject().at("cacheHit").asBool());
  EXPECT_TRUE(lines[1].asObject().at("cacheHit").asBool() ||
              lines[1].asObject().at("outcome").asString() == "ok");
  EXPECT_EQ(lines[2].asObject().at("outcome").asString(), "parse");
  EXPECT_EQ(lines[3].asObject().at("outcome").asString(), "stats");
  EXPECT_EQ(lines[0].asObject().at("key").asString(),
            lines[1].asObject().at("key").asString());
  EXPECT_EQ(lines[0].asObject().at("key").asString().size(), 12u);
}

/// A FIFO-backed kernelFile deterministically blocks the worker inside
/// parseKernelFile (opening a FIFO for reading blocks until a writer
/// appears), holding one admitted job in flight for as long as a test
/// needs; `release()` unblocks it with unparsable bytes, so the job answers
/// `bad_kernel`.
struct BlockingKernel {
  TempDir dir;
  std::string path;
  explicit BlockingKernel(const std::string& tag) : dir("fifo_" + tag) {
    path = (dir.path / "kernel.fifo").string();
    EXPECT_EQ(::mkfifo(path.c_str(), 0600), 0);
  }
  std::string request(int id) const {
    return "{\"id\":" + std::to_string(id) +
           ",\"comp\":\"mesh4\",\"kernelFile\":\"" + path + "\"}\n";
  }
  void release() const {
    std::ofstream w(path);
    w << "not a kernel\n";
  }
};

TEST(Service, OverloadShedsWithTypedErrorInsteadOfStalling) {
  BlockingKernel fifo("overload");
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 2;
  options.maxInFlight = 8;  // the per-connection cap must not kick in
  options.queueBound = 1;   // one admitted job fills the service
  artifact::Service service(store, options);

  std::istringstream in(fifo.request(1) +
                        "{\"id\":2,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
                        "{\"id\":3,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
                        "{\"id\":4,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n");
  std::ostringstream out;
  std::thread session([&] { service.serveStream(in, out); });
  // Requests 2-4 shed synchronously (the FIFO job holds the only queue
  // slot); only then unblock it.
  ASSERT_TRUE(eventually([&] { return service.stats().requests == 4; }));
  EXPECT_EQ(service.stats().shedOverload, 3u);
  fifo.release();
  session.join();

  const std::vector<json::Value> responses = parseLines(out.str());
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(errorCode(responses[0]), "bad_kernel")
      << "the blocked job still answers (its kernel bytes do not parse)";
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(responses[i].asObject().at("id").asInt(), i + 1)
        << "shed responses keep the request order";
    EXPECT_EQ(errorCode(responses[i]), "overloaded");
  }
  EXPECT_EQ(service.stats().scheduled, 0u) << "shed work never runs";
}

TEST(Service, DrainShedsNotYetAdmittedRequestsAndAnswersEverything) {
  BlockingKernel fifo("drain");
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 2;
  options.maxInFlight = 1;  // requests 2-4 queue behind the blocked job
  artifact::Service service(store, options);

  std::istringstream in(fifo.request(1) +
                        "{\"id\":2,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
                        "{\"id\":3,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
                        "{\"id\":4,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n");
  std::ostringstream out;
  std::thread session([&] { service.serveStream(in, out); });
  ASSERT_TRUE(eventually([&] { return service.stats().requests == 1; }));

  service.drain();  // stream-only: flips to draining and returns
  ASSERT_TRUE(eventually([&] { return service.stats().requests == 4; }));
  fifo.release();
  session.join();

  const std::vector<json::Value> responses = parseLines(out.str());
  ASSERT_EQ(responses.size(), 4u)
      << "drain answers every accepted request before the session ends";
  EXPECT_EQ(errorCode(responses[0]), "bad_kernel");
  for (int i = 1; i < 4; ++i)
    EXPECT_EQ(errorCode(responses[i]), "shutdown");
  EXPECT_EQ(service.stats().shedShutdown, 3u);
  EXPECT_EQ(service.stats().scheduled, 0u);
}

TEST(Service, RefusesToUnlinkNonSocketFiles) {
  TempDir dir("stale");
  const std::string path = (dir.path / "precious.json").string();
  {
    std::ofstream f(path);
    f << "{\"not\":\"a socket\"}";
  }
  artifact::ArtifactStore store;
  artifact::Service service(store);
  EXPECT_THROW(service.addUnixListener(path), Error);
  EXPECT_TRUE(sfs::exists(path)) << "the non-socket file must survive";
}

TEST(Service, ReplacesStaleSocketFiles) {
  TempDir dir("resock");
  const std::string path = (dir.path / "serve.sock").string();
  artifact::ArtifactStore store;
  {
    artifact::Service service(store);
    service.addUnixListener(path);  // leaves a socket file behind on close
  }
  EXPECT_TRUE(sfs::exists(path));
  artifact::Service service(store);
  EXPECT_NO_THROW(service.addUnixListener(path))
      << "a stale socket from a dead server is replaced";
}

TEST(Service, TcpRoundTripStreamsInRequestOrder) {
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 2;
  artifact::Service service(store, options);
  const std::uint16_t port = service.addTcpListener(0);
  ASSERT_NE(port, 0u);
  service.start();

  artifact::JsonlClient client = artifact::JsonlClient::connectTcp(port);
  for (int i = 1; i <= 5; ++i)
    client.sendLine("{\"id\":" + std::to_string(i) +
                    ",\"comp\":\"mesh4\",\"kernel\":\"" +
                    (i % 2 == 0 ? "gcd" : "ewma") + "\"}");
  client.shutdownWrite();  // half-close: the batch must still be answered
  std::string line;
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(client.recvLine(line)) << "response " << i;
    const json::Value doc = json::parse(line);
    const json::Object& o = doc.asObject();
    EXPECT_EQ(o.at("id").asInt(), i);
    EXPECT_TRUE(o.at("ok").asBool());
    EXPECT_EQ(o.at("v").asInt(), artifact::kWireVersion);
  }
  EXPECT_FALSE(client.recvLine(line)) << "server closes after the batch";
  client.close();

  service.drain();
  service.stop();
  const artifact::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.connectionsAccepted, 1u);
  EXPECT_EQ(stats.connectionsClosed, 1u);
}

TEST(Service, DrainClosesIdleSocketClientsGracefully) {
  TempDir dir("sockdrain");
  const std::string path = (dir.path / "serve.sock").string();
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  artifact::Service service(store, options);
  service.addUnixListener(path);
  service.start();

  artifact::JsonlClient client = artifact::JsonlClient::connectUnix(path);
  client.sendLine("{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}");
  std::string line;
  ASSERT_TRUE(client.recvLine(line));
  EXPECT_TRUE(json::parse(line).asObject().at("ok").asBool());

  service.notifyDrain();  // what a SIGTERM handler runs
  EXPECT_FALSE(client.recvLine(line))
      << "drain closes the idle connection after answering everything";
  service.waitDone();
  service.stop();
  EXPECT_EQ(service.stats().connectionsClosed, 1u);
  EXPECT_FALSE(sfs::exists(path)) << "drain unlinks the unix socket";
}

TEST(Service, MaxClientsRefusesExtraConnectionsWithTypedError) {
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  options.maxClients = 1;
  artifact::Service service(store, options);
  const std::uint16_t port = service.addTcpListener(0);
  service.start();

  artifact::JsonlClient first = artifact::JsonlClient::connectTcp(port);
  first.sendLine("{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}");
  std::string line;
  ASSERT_TRUE(first.recvLine(line)) << "the first client is served";

  artifact::JsonlClient second = artifact::JsonlClient::connectTcp(port);
  ASSERT_TRUE(second.recvLine(line));
  EXPECT_EQ(errorCode(json::parse(line)), "overloaded");
  EXPECT_FALSE(second.recvLine(line)) << "refused connections are closed";
  second.close();
  first.close();

  service.drain();
  service.stop();
  EXPECT_EQ(service.stats().connectionsRefused, 1u);
  EXPECT_EQ(service.stats().connectionsAccepted, 1u);
}

TEST(Service, HalfCloseWithBacklogBeyondTheCapAnswersEveryLine) {
  // A client may write a whole batch and shut down its write side before
  // the first response: lines buffered past the in-flight cap must still
  // be answered after the EOF is seen (the resume path must not skip
  // half-closed connections).
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 2;
  options.maxInFlight = 2;  // far fewer than the buffered batch
  artifact::Service service(store, options);
  const std::uint16_t port = service.addTcpListener(0);
  service.start();

  artifact::JsonlClient client = artifact::JsonlClient::connectTcp(port);
  for (int i = 1; i <= 20; ++i)
    client.sendLine("{\"id\":" + std::to_string(i) +
                    ",\"comp\":\"mesh4\",\"kernel\":\"gcd\"}");
  client.shutdownWrite();
  std::string line;
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(client.recvLine(line)) << "response " << i;
    const json::Value doc = json::parse(line);
    EXPECT_EQ(doc.asObject().at("id").asInt(), i);
    EXPECT_TRUE(doc.asObject().at("ok").asBool());
  }
  EXPECT_FALSE(client.recvLine(line)) << "server closes after the batch";
  client.close();
  service.drain();
  service.stop();
  EXPECT_EQ(service.stats().requests, 20u);
}

TEST(Service, SlowReaderCannotStarveTheWorkerPool) {
  // A client that stops reading parks its responses in the service's
  // bounded per-connection output buffer and window (the IO thread owns
  // all socket writes, non-blocking); it must never block pool workers in
  // send(), so other clients keep being answered promptly.
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 2;
  artifact::Service service(store, options);
  const std::uint16_t port = service.addTcpListener(0);
  service.start();

  artifact::JsonlClient greedy = artifact::JsonlClient::connectTcp(port);
  for (int i = 0; i < 600; ++i)
    greedy.sendLine(
        "{\"id\":" + std::to_string(i) +
        ",\"comp\":\"mesh4\",\"kernel\":\"gcd\",\"artifact\":true}");
  // The multi-KB artifact responses overflow the socket buffers many
  // times over; the greedy client never reads a byte of them.

  artifact::JsonlClient other = artifact::JsonlClient::connectTcp(port);
  std::string line;
  for (int i = 0; i < 3; ++i) {
    other.sendLine("{\"id\":" + std::to_string(1000 + i) +
                   ",\"comp\":\"mesh4\",\"kernel\":\"ewma\"}");
    ASSERT_TRUE(other.recvLine(line))
        << "a non-reading client must not starve others (response " << i
        << ")";
    EXPECT_TRUE(json::parse(line).asObject().at("ok").asBool());
  }
  other.close();

  greedy.close();  // unread responses are forfeited, not leaked
  service.drain();
  service.stop();
  EXPECT_EQ(service.stats().connectionsClosed,
            service.stats().connectionsAccepted);
}

TEST(Service, ShedResponsesHonorThePerConnectionCap) {
  // While the service is overloaded, a connection whose lines all shed
  // must stop being read at its in-flight cap — the shed responses queue
  // behind the blocked front slot, each holding an admission slot until
  // it can head to the wire — instead of growing the window and the pool
  // queue without bound.
  BlockingKernel fifo("shedcap");
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 2;
  options.maxInFlight = 8;
  options.queueBound = 1;  // the blocked job fills the service
  artifact::Service service(store, options);
  const std::uint16_t port = service.addTcpListener(0);
  service.start();

  artifact::JsonlClient client = artifact::JsonlClient::connectTcp(port);
  client.sendLine("{\"id\":0,\"comp\":\"mesh4\",\"kernelFile\":\"" +
                  fifo.path + "\"}");
  for (int i = 1; i <= 100; ++i)
    client.sendLine("{\"id\":" + std::to_string(i) +
                    ",\"comp\":\"mesh4\",\"kernel\":\"gcd\"}");

  // Reading stops at the cap: 1 blocked job + 7 shed responses. The state
  // is stable (nothing can flush past the blocked front slot), so the
  // equality holds however long the service runs.
  ASSERT_TRUE(eventually([&] { return service.stats().requests == 8; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(service.stats().requests, 8u)
      << "shed lines must hold in-flight slots and pause the reads";
  EXPECT_EQ(service.stats().shedOverload, 7u);

  fifo.release();
  client.shutdownWrite();
  std::string line;
  ASSERT_TRUE(client.recvLine(line));
  EXPECT_EQ(errorCode(json::parse(line)), "bad_kernel")
      << "the blocked job answers first (its kernel bytes do not parse)";
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(client.recvLine(line)) << "response " << i;
    const json::Value doc = json::parse(line);
    EXPECT_EQ(doc.asObject().at("id").asInt(), i)
        << "responses keep request order";
    if (i <= 7) {
      EXPECT_EQ(errorCode(doc), "overloaded")
          << "lines read while the queue slot was held must shed";
    }
  }
  EXPECT_FALSE(client.recvLine(line));
  client.close();
  service.drain();
  service.stop();
  EXPECT_EQ(service.stats().requests, 101u)
      << "every line is answered once the pause lifts";
}

TEST(Service, StatsAgreeWithTheExposition) {
  // ServiceStats is read from the metrics registry, so at quiescence every
  // counter equals its line in the exposition.
  BlockingKernel fifo("agree");
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 2;
  options.queueBound = 1;  // the blocked job makes the next lines shed
  artifact::Service service(store, options);
  const auto serve = [&service](const std::string& lines) {
    std::istringstream in(lines);
    std::ostringstream out;
    service.serveStream(in, out);
    return parseLines(out.str());
  };

  std::vector<json::Value> shed;
  std::thread session([&] {
    shed = serve(fifo.request(1) +
                 "{\"id\":2,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n"
                 "{\"id\":3,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n");
  });
  ASSERT_TRUE(eventually([&] { return service.stats().requests == 3; }));
  fifo.release();
  session.join();
  ASSERT_EQ(shed.size(), 3u);
  EXPECT_EQ(errorCode(shed[1]), "overloaded");

  // One line per session: each is answered before the next is admitted.
  EXPECT_FALSE(serve("{\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n")[0]
                   .asObject()
                   .at("cached")
                   .asBool());
  EXPECT_TRUE(serve("{\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n")[0]
                  .asObject()
                  .at("cached")
                  .asBool());
  EXPECT_EQ(errorCode(serve("not json\n")[0]), "parse");
  serve("{\"stats\":true}\n");
  serve("{\"metrics\":true}\n");
  service.drain();
  EXPECT_EQ(errorCode(serve("{\"comp\":\"mesh4\",\"kernel\":\"gcd\"}\n")[0]),
            "shutdown");

  const artifact::ServiceStats stats = service.stats();
  const std::string text = service.metricsText();
  EXPECT_EQ(stats.requests, 9u);
  EXPECT_EQ(stats.scheduled, 1u);
  EXPECT_EQ(stats.cacheHits, 1u);
  EXPECT_EQ(stats.parseErrors, 2u) << "the FIFO kernel and the bad line";
  EXPECT_EQ(stats.shedOverload, 2u);
  EXPECT_EQ(stats.shedShutdown, 1u);
  EXPECT_EQ(stats.statsRequests, 2u);
  EXPECT_EQ(stats.connectionsAccepted, 7u);
  const std::pair<std::uint64_t, const char*> pairs[] = {
      {stats.requests, "cgra_requests_total"},
      {stats.parseErrors, "cgra_parse_errors_total"},
      {stats.internalErrors, "cgra_internal_errors_total"},
      {stats.scheduled, "cgra_scheduled_total"},
      {stats.cacheHits, "cgra_cache_hits_total"},
      {stats.deduped, "cgra_deduped_total"},
      {stats.shedOverload, "cgra_shed_overload_total"},
      {stats.shedShutdown, "cgra_shed_shutdown_total"},
      {stats.connectionsAccepted, "cgra_connections_accepted_total"},
      {stats.connectionsRefused, "cgra_connections_refused_total"},
      {stats.connectionsClosed, "cgra_connections_closed_total"},
      {stats.latencyCount, "cgra_compile_latency_us_count"},
      {stats.controlLatencyCount, "cgra_control_latency_us_count"},
  };
  for (const auto& [value, name] : pairs)
    EXPECT_EQ(static_cast<std::int64_t>(value), exposedValue(text, name))
        << name;
  EXPECT_EQ(static_cast<std::int64_t>(stats.statsRequests),
            exposedValue(text, "cgra_stats_requests_total") +
                exposedValue(text, "cgra_metrics_requests_total"));
}

TEST(Service, OverlongRequestLineIsAParseErrorAndClosesTheConnection) {
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 1;
  artifact::Service service(store, options);
  const std::uint16_t port = service.addTcpListener(0);
  service.start();

  artifact::JsonlClient client = artifact::JsonlClient::connectTcp(port);
  client.sendLine("{\"id\":1,\"comp\":\"mesh4\",\"kernel\":\"gcd\"}");
  // 2 MiB without a newline: the server stops reading past the cap, so the
  // send may block until the server closes and then fail; that is fine.
  std::thread flood([&client] {
    try {
      client.sendLine(std::string(2 * artifact::kMaxRequestLineBytes, 'x'));
    } catch (const Error&) {
    }
  });
  std::string line;
  ASSERT_TRUE(client.recvLine(line));
  EXPECT_TRUE(json::parse(line).asObject().at("ok").asBool());
  ASSERT_TRUE(client.recvLine(line));
  EXPECT_EQ(errorCode(json::parse(line)), "parse");
  EXPECT_FALSE(client.recvLine(line)) << "the server closes the connection";
  flood.join();
  client.close();

  service.drain();
  service.stop();
  EXPECT_EQ(service.stats().requests, 2u);
  EXPECT_EQ(service.stats().parseErrors, 1u);
  EXPECT_EQ(service.stats().connectionsClosed, 1u);
}

TEST(Service, UnixListenerStopsAfterMaxConnections) {
  TempDir dir("maxconn");
  const std::string path = (dir.path / "serve.sock").string();
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 2;
  options.maxConnections = 2;
  artifact::Service service(store, options);
  service.addUnixListener(path);
  service.start();

  auto runClient = [&path](int base) {
    artifact::JsonlClient c = artifact::JsonlClient::connectUnix(path);
    for (int i = 0; i < 3; ++i)
      c.sendLine("{\"id\":" + std::to_string(base + i) +
                 ",\"comp\":\"mesh4\",\"kernel\":\"gcd\"}");
    c.shutdownWrite();
    std::string line;
    int got = 0;
    while (c.recvLine(line)) {
      EXPECT_TRUE(json::parse(line).asObject().at("ok").asBool());
      ++got;
    }
    EXPECT_EQ(got, 3);
  };
  std::thread c1([&] { runClient(100); });
  std::thread c2([&] { runClient(200); });
  c1.join();
  c2.join();
  service.waitDone();  // maxConnections=2 reached: the sessions are done
  service.stop();

  const artifact::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.connectionsAccepted, 2u);
  EXPECT_EQ(stats.scheduled, 1u) << "one cold job; the rest hit or dedupe";
  EXPECT_EQ(stats.cacheHits + stats.deduped, 5u);
}

TEST(Service, EightClientStressSharesOneStoreCleanly) {
  // The tsan preset runs this suite: 8 concurrent connections hammer one
  // service/store with mixed hits, misses, dedup, bad lines and stats
  // probes. Assertions are per-client (order, count, version) and global
  // (counter conservation).
  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 4;
  options.maxInFlight = 4;
  artifact::Service service(store, options);
  const std::uint16_t port = service.addTcpListener(0);
  service.start();

  constexpr int kClients = 8;
  constexpr int kRequests = 12;
  const char* kernels[] = {"gcd", "ewma", "dotprod"};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      artifact::JsonlClient client = artifact::JsonlClient::connectTcp(port);
      for (int i = 0; i < kRequests; ++i) {
        const int id = c * 1000 + i;
        if (i == 5) {
          client.sendLine("{\"id\":" + std::to_string(id) + ",\"bad\":1}");
        } else if (i == 9) {
          client.sendLine("{\"id\":" + std::to_string(id) +
                          ",\"stats\":true}");
        } else {
          client.sendLine("{\"id\":" + std::to_string(id) +
                          ",\"comp\":\"mesh4\",\"kernel\":" + "\"" +
                          kernels[(c + i) % 3] + "\"}");
        }
      }
      client.shutdownWrite();
      std::string line;
      for (int i = 0; i < kRequests; ++i) {
        if (!client.recvLine(line)) {
          ++failures;
          return;
        }
        const json::Value doc = json::parse(line);
        const json::Object& o = doc.asObject();
        if (o.at("id").asInt() != c * 1000 + i) ++failures;
        if (o.at("v").asInt() != artifact::kWireVersion) ++failures;
        const bool expectOk = i != 5;
        if (o.at("ok").asBool() != expectOk) ++failures;
        if (i == 9) {
          // Mid-run snapshot consistency: the stats document is assembled
          // under the admission lock, so per-connection request counts
          // (live + closed rollup) must sum to the service total exactly —
          // even while 7 other clients are hammering the same service.
          const json::Object& stats = o.at("stats").asObject();
          std::int64_t perConn = 0;
          for (const json::Value& e : stats.at("connections").asArray())
            perConn += e.asObject().at("requests").asInt();
          perConn += stats.at("closed").asObject().at("requests").asInt();
          if (perConn !=
              stats.at("service").asObject().at("requests").asInt())
            ++failures;
        }
      }
      if (client.recvLine(line)) ++failures;  // nothing extra on the wire
    });
  }
  for (std::thread& t : clients) t.join();
  service.drain();
  service.stop();

  EXPECT_EQ(failures.load(), 0);
  const artifact::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(stats.connectionsAccepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.connectionsClosed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.parseErrors, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.statsRequests, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.scheduled, 3u) << "three distinct jobs across all clients";
  EXPECT_EQ(stats.scheduled + stats.cacheHits + stats.deduped,
            static_cast<std::uint64_t>(kClients * (kRequests - 2)));
  EXPECT_EQ(stats.shedOverload, 0u)
      << "the default queue bound absorbs this load";

  // Quiescent snapshot consistency: every session reaped, so the closed
  // rollup alone accounts for every request and response of the run.
  const json::Value statsDoc = service.statsJson();
  const json::Object& doc = statsDoc.asObject();
  EXPECT_TRUE(doc.at("connections").asArray().empty());
  const json::Object& closed = doc.at("closed").asObject();
  EXPECT_EQ(closed.at("connections").asInt(), kClients);
  EXPECT_EQ(closed.at("requests").asInt(), kClients * kRequests);
  EXPECT_EQ(closed.at("responses").asInt(), kClients * kRequests);
  EXPECT_EQ(closed.at("shed").asInt(), 0);
}

}  // namespace
}  // namespace cgra
