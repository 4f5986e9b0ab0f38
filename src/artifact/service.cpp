#include "artifact/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "ctx/contexts.hpp"
#include "ctx/serialize.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/parser.hpp"
#include "kir/passes/pipeline.hpp"
#include "sched/job_key.hpp"
#include "sched/scheduler.hpp"
#include "support/metrics_registry.hpp"
#include "support/thread_pool.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>

namespace cgra::artifact {

const char* wireErrorCode(WireError code) {
  switch (code) {
    case WireError::Parse: return "parse";
    case WireError::UnknownComp: return "unknown_comp";
    case WireError::BadKernel: return "bad_kernel";
    case WireError::Unmappable: return "unmappable";
    case WireError::Overloaded: return "overloaded";
    case WireError::Shutdown: return "shutdown";
    case WireError::Internal: return "internal";
  }
  CGRA_UNREACHABLE("bad WireError");
}

namespace {

using Clock = std::chrono::steady_clock;
using json::layout;

// Each wire record's layout, stated once (json.hpp). Every layout but the
// response visits its keys in ascending byte order, so what it writes is
// sorted as built.

constexpr auto kServiceStats = layout<21>([](auto& c, auto& s) {
  c.field("cacheHits", s.cacheHits);
  c.field("connectionsAccepted", s.connectionsAccepted);
  c.field("connectionsClosed", s.connectionsClosed);
  c.field("connectionsRefused", s.connectionsRefused);
  c.field("controlLatencyCount", s.controlLatencyCount);
  c.field("controlLatencyMeanUs", s.controlLatencyMeanUs);
  c.field("controlLatencyP50Us", s.controlLatencyP50Us);
  c.field("controlLatencyP99Us", s.controlLatencyP99Us);
  c.field("deduped", s.deduped);
  c.field("internalErrors", s.internalErrors);
  c.field("latencyCount", s.latencyCount);
  c.field("latencyMeanUs", s.latencyMeanUs);
  c.field("latencyP50Us", s.latencyP50Us);
  c.field("latencyP99Us", s.latencyP99Us);
  c.field("maxQueueDepth", s.maxQueueDepth);
  c.field("parseErrors", s.parseErrors);
  c.field("requests", s.requests);
  c.field("scheduled", s.scheduled);
  c.field("shedOverload", s.shedOverload);
  c.field("shedShutdown", s.shedShutdown);
  c.field("statsRequests", s.statsRequests);
});

/// The `error` object of a failed answer.
struct WireFailure {
  const char* code = nullptr;  ///< wireErrorCode
  std::string message;
  std::optional<std::string> reason;  ///< unmappable: the FailureReason
};

constexpr auto kWireFailure = layout<3>([](auto& c, auto& f) {
  c.field("code", f.code);
  c.field("message", f.message);
  c.optional("reason", f.reason, json::Scalar{});
});

/// One answer on the wire; members left empty are not written.
struct Response {
  json::Value id;
  std::optional<std::string> key;
  bool ok = false;
  std::optional<bool> cached;
  std::optional<unsigned> contexts;
  std::optional<std::uint64_t> fingerprint;
  std::optional<ScheduleArtifact> artifact;  ///< with its context images
  std::optional<WireFailure> error;
  std::optional<std::string> metrics;
  std::optional<json::Value> stats;
};

/// The one layout that keeps wire protocol v1's key order rather than
/// ascending order: every response the service has sent is a subsequence
/// of it.
constexpr auto kResponse = layout<8>([](auto& c, auto& r) {
  c.expect("v", kWireVersion);
  c.field("id", r.id, json::Raw{});
  c.optional("key", r.key, json::Scalar{});
  c.field("ok", r.ok);
  c.optional("cached", r.cached, json::Scalar{});
  c.optional("contexts", r.contexts, json::Scalar{});
  c.optional("fingerprint", r.fingerprint, json::Decimal{});
  c.optional("artifact", r.artifact, kArtifactLayout);
  c.optional("error", r.error, kWireFailure);
  c.optional("metrics", r.metrics, json::Scalar{});
  c.optional("stats", r.stats, json::Raw{});
});

Response errorResponse(json::Value id, WireError code, std::string message) {
  Response r;
  r.id = std::move(id);
  r.error = WireFailure{wireErrorCode(code), std::move(message), {}};
  return r;
}

std::string wireLine(const Response& r) {
  return json::encode(kResponse, r).dump(0);
}

/// The id of a request line that may not decode, so its error answer can
/// still echo it; null when there is none.
json::Value requestId(const json::Value& doc) {
  const json::Value* id = doc.isObject() ? doc.asObject().find("id") : nullptr;
  return id != nullptr ? *id : json::Value();
}

/// Loads the requested kernel and runs it through the same frontend
/// normalization pipeline as `cgra-tool schedule`, so served KIR files may
/// use break/continue/return, switch and && / ||.
Cdfg resolveGraph(const WireRequest& r) {
  const auto lower = [&r](const kir::Function& fn) {
    return kir::lowerToCdfg(kir::runFrontendPipeline(fn, r.frontend).fn).graph;
  };
  if (!r.kernelFile.empty()) return lower(kir::parseKernelFile(r.kernelFile));
  return lower(apps::workload(r.kernel).fn);
}

std::uint64_t usBetween(Clock::time_point a, Clock::time_point b) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

/// Request-scoped span breakdown (µs), the telemetry companion of one
/// window slot. The admitting thread stamps t0/admitted before the job is
/// submitted; the completing worker fills the rest before the slot's done
/// flag flips under winMu; the popper (IO thread or stream flusher) reads
/// it afterwards — the winMu acquire on `done` orders every field.
struct RequestSpans {
  Clock::time_point t0{};        ///< request line read off the wire
  Clock::time_point admitted{};  ///< admission decision made
  std::uint64_t admitUs = 0;     ///< read → admitted/shed decision
  std::uint64_t queueUs = 0;     ///< admitted → worker pickup
  std::uint64_t storeUs = 0;     ///< job key + store resolve, less scheduleUs
  std::uint64_t scheduleUs = 0;  ///< scheduler run (cold requests only)
  std::uint64_t serializeUs = 0; ///< response JSON encode and dump
  std::uint64_t serviceUs = 0;   ///< worker pickup → response ready
  const char* outcome = "internal";  ///< access-log outcome (DESIGN.md §13)
  bool cacheHit = false;
  bool control = false;   ///< control-plane request (stats/metrics)
  json::Value id;         ///< request id, echoed into the access log
  std::string keyPrefix;  ///< first 12 chars of the job key, "" if none
};

/// One request's slot in a connection's in-order response window.
struct Slot {
  bool done = false;  ///< guarded by the connection's winMu
  std::string line;   ///< serialized response
  RequestSpans spans;
};

/// One access-log line (DESIGN.md §13): the session, the request's spans
/// and the two spans known once its answer leaves the window.
constexpr auto kAccessLine = layout<14>(
    [](auto& c, const auto& conn, const RequestSpans& sp,
       std::uint64_t writeUs, std::uint64_t totalUs) {
      c.field("admitUs", sp.admitUs);
      c.field("cacheHit", sp.cacheHit);
      c.field("conn", conn.id);
      c.field("id", sp.id, json::Raw{});
      c.field("key", sp.keyPrefix);
      c.field("outcome", sp.outcome);
      c.field("peer", conn.fd >= 0 ? "socket" : "stream");
      c.field("queueUs", sp.queueUs);
      c.field("scheduleUs", sp.scheduleUs);
      c.field("serializeUs", sp.serializeUs);
      c.field("serviceUs", sp.serviceUs);
      c.field("storeUs", sp.storeUs);
      c.field("totalUs", totalUs);
      c.field("writeUs", writeUs);
    });

/// A live session's entry in the stats document.
constexpr auto kSession = layout<6>([](auto& c, const auto& conn) {
  c.field("id", conn->id);
  c.field("inflight", conn->inflight);
  c.field("kind", conn->fd >= 0 ? "socket" : "stream");
  c.field("requests", conn->requests);
  c.field("responses", conn->responses.load(std::memory_order_relaxed));
  c.field("shed", conn->shed);
});

/// The rollup of already-reaped sessions: with it, the per-connection
/// requests/responses/shed of the stats document (live + closed) add up
/// to the service totals exactly.
constexpr auto kClosedSessions = layout<4>([](auto& c, const auto& service) {
  c.field("connections", service.mConnsClosed.value());
  c.field("requests", service.closedRequests);
  c.field("responses", service.closedResponses);
  c.field("shed", service.closedShed);
});

/// The {"stats":true} document. `service` is read under its mutex, the
/// same lock every per-connection and total request count is bumped
/// under.
constexpr auto kStatsDocument = layout<6>(
    [](auto& c, const auto& service, const auto& sessions,
       const ServiceStats& stats, const StoreCounters& store) {
      c.field("closed", service, kClosedSessions);
      c.array("connections", kSession, sessions);
      c.field("draining", service.drainingNow());
      c.field("queueDepth", service.pendingJobs);
      c.field("service", stats, kServiceStats);
      c.field("store", store, kStoreCountersLayout);
    });

/// Append-only JSONL access log shared by every worker and the IO thread.
/// Its own mutex — never the service's hot-path lock — serializes lines;
/// a line is written when the response leaves the window toward the wire.
class AccessLog {
public:
  void open(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    out_.open(path, std::ios::app);
    if (!out_.is_open())
      throw Error("cannot open access log for writing: " + path);
    enabled_.store(true, std::memory_order_relaxed);
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void write(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!out_.is_open()) return;
    out_ << line << '\n';
    out_.flush();  // each line a complete record, tail-able mid-run
  }

private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::ofstream out_;
};

Response artifactResponse(json::Value id, const ScheduleArtifact& art,
                          bool cached, bool wantArtifact,
                          const Composition& comp) {
  Response r;
  r.id = std::move(id);
  r.key = art.key;
  r.ok = art.ok;
  r.cached = cached;
  if (!art.ok) {
    r.error = WireFailure{wireErrorCode(WireError::Unmappable),
                          art.failure.message,
                          failureReasonName(art.failure.reason)};
    return r;
  }
  r.contexts = art.schedule.length;
  // The artifact's stored fingerprint: fromReport computes it and fromJson
  // rejects a document whose schedule does not match it, so the schedule
  // is not hashed again per answer.
  r.fingerprint = art.fingerprint;
  if (wantArtifact) {
    // Ship the full document, with context images attached so the
    // consumer can deploy without linking the toolflow.
    r.artifact = art;
    r.artifact->contexts = generateContexts(art.schedule, comp);
  }
  return r;
}

/// Best-effort id of a line that is never decoded in full (shed paths): a
/// malformed line sheds with a null id.
json::Value bestEffortId(const std::string& line) {
  try {
    return requestId(json::parse(line));
  } catch (...) {
    return json::Value();
  }
}

bool isBlank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

void WireRequest::validate() const {
  if (stats || metrics) return;
  if (comp.empty()) throw Error("request misses \"comp\"");
  if (kernel.empty() && kernelFile.empty())
    throw Error("request misses \"kernel\" (or \"kernelFile\")");
  if (!kernel.empty() && !kernelFile.empty())
    throw Error("request names both \"kernel\" and \"kernelFile\"");
}

json::Value ServiceStats::toJson() const {
  return json::encode(kServiceStats, *this);
}

// ---------------------------------------------------------------------------
// Service implementation.

struct Service::Impl {
  /// One session: a socket connection (fd >= 0, read AND written by the IO
  /// thread) or a blocking stream session (fd == -1, read by the caller's
  /// thread, written by whichever worker completes the front slot).
  /// Responses always stream in this session's request order through
  /// `window`.
  struct Conn {
    Conn(std::uint64_t id_, int fd_) : id(id_), fd(fd_) {}

    const std::uint64_t id;
    const int fd;                  ///< -1 for stream sessions
    std::ostream* out = nullptr;   ///< stream sessions only

    // IO-thread-only state (socket connections). Only the IO thread ever
    // writes a socket (non-blocking, POLLOUT-driven) or closes it, so a
    // worker can never race a close, and a client that stops reading
    // parks bytes here instead of blocking a pool worker in send().
    std::string rbuf;        ///< bytes read but not yet split into lines
    std::size_t scanned = 0; ///< rbuf prefix known to hold no newline
    std::string obuf;        ///< response bytes not yet on the wire
    std::size_t osent = 0;   ///< obuf prefix already sent

    // Guarded by the service mutex.
    bool paused = false;      ///< reading stopped at the in-flight cap
    std::size_t inflight = 0; ///< windowed (admitted OR shed), not yet
                              ///< popped off the window toward the wire
    std::uint64_t requests = 0;
    std::uint64_t shed = 0;

    std::atomic<bool> eof{false};     ///< no more reads (EOF/error/drain)
    std::atomic<bool> broken{false};  ///< writes fail; drop responses
    std::atomic<std::uint64_t> responses{0};

    std::mutex winMu;   ///< guards window and Slot::done/line
    std::deque<std::shared_ptr<Slot>> window;
    std::mutex writeMu; ///< stream sessions: serializes worker flushes
  };
  using ConnPtr = std::shared_ptr<Conn>;

  struct Listener {
    int fd = -1;
    std::string unixPath;  ///< non-empty: unlink on close
  };

  ArtifactStore& store;
  const ServiceOptions options;
  const std::size_t maxInFlight;
  const std::size_t queueBound;
  ThreadPool pool;

  mutable std::mutex mu;
  std::condition_variable cv;  ///< completions, drain, waitDone

  // Every service counter lives once, in the metrics registry (DESIGN.md
  // §13). Workers bump the per-request outcome counters without touching
  // `mu`; the admission counters (requests, shed, connection lifecycle) are
  // bumped inside the mu-held admission sections and read under mu
  // (statsLocked), which is what makes a stats snapshot see
  // sum(per-connection requests) == totals exactly.
  MetricsRegistry registry;
  Counter& mRequests =
      registry.counter("cgra_requests_total", "Request lines read");
  Counter& mResponses = registry.counter(
      "cgra_responses_total", "Responses handed to the wire or stream");
  Counter& mParseErrors = registry.counter(
      "cgra_parse_errors_total", "parse/unknown_comp/bad_kernel answers");
  Counter& mInternalErrors = registry.counter(
      "cgra_internal_errors_total",
      "internal answers: an exception escaped the worker");
  Counter& mScheduled = registry.counter(
      "cgra_scheduled_total", "Jobs actually run on the scheduler");
  Counter& mCacheHits = registry.counter("cgra_cache_hits_total",
                                         "Requests answered from the store");
  Counter& mDeduped = registry.counter(
      "cgra_deduped_total", "Requests coalesced onto an in-flight job");
  Counter& mStatsRequests = registry.counter("cgra_stats_requests_total",
                                             "{\"stats\":true} requests");
  Counter& mMetricsRequests = registry.counter(
      "cgra_metrics_requests_total", "{\"metrics\":true} requests");
  Counter& mShedOverload = registry.counter(
      "cgra_shed_overload_total", "Requests shed with code overloaded");
  Counter& mShedShutdown = registry.counter(
      "cgra_shed_shutdown_total", "Requests shed with code shutdown");
  Counter& mConnsAccepted = registry.counter("cgra_connections_accepted_total",
                                             "Sessions opened (any kind)");
  Counter& mConnsRefused = registry.counter(
      "cgra_connections_refused_total", "Connections closed at accept");
  Counter& mConnsClosed = registry.counter("cgra_connections_closed_total",
                                           "Sessions fully drained");
  Counter& mTracesSampled = registry.counter(
      "cgra_traces_sampled_total", "Cold runs recorded as Chrome traces");
  Gauge& gQueueDepth =
      registry.gauge("cgra_queue_depth", "Admitted requests in flight");
  Gauge& gConnections =
      registry.gauge("cgra_connections", "Live sessions (any kind)");
  AtomicHistogram& hCompile = registry.histogram(
      "cgra_compile_latency_us",
      "Compile-request latency, read to response ready (us)");
  AtomicHistogram& hControl = registry.histogram(
      "cgra_control_latency_us",
      "Control-request (stats/metrics) latency, read to response ready (us)");
  AtomicHistogram& hQueueWait = registry.histogram(
      "cgra_queue_wait_us", "Admitted to worker pickup (us)");
  AtomicHistogram& hStore = registry.histogram(
      "cgra_store_lookup_us", "Job key + store resolve, less schedule (us)");
  AtomicHistogram& hSchedule =
      registry.histogram("cgra_schedule_us", "Scheduler run, cold jobs (us)");
  AtomicHistogram& hSerialize =
      registry.histogram("cgra_serialize_us",
                         "Response JSON encode and dump (us)");
  AtomicHistogram& hWrite = registry.histogram(
      "cgra_write_us", "Response ready to wire/stream handoff (us)");

  AccessLog accessLog;
  std::atomic<std::uint64_t> coldSeq{0};  ///< cold runs, for trace sampling

  std::uint64_t maxQueueDepth = 0;  ///< peak pendingJobs; guarded by mu
  /// Rollup of counters from closed connections, so the per-connection
  /// conservation invariant (sum of live + closed == totals) stays exact
  /// after reaping. Guarded by mu.
  std::uint64_t closedRequests = 0;
  std::uint64_t closedResponses = 0;
  std::uint64_t closedShed = 0;
  std::size_t pendingJobs = 0;
  bool ioRunning = false;
  bool ioExited = false;
  std::uint64_t nextConnId = 1;
  std::uint64_t accepted = 0;
  std::vector<Listener> listeners;
  std::vector<ConnPtr> conns;        ///< socket connections
  std::vector<ConnPtr> streamConns;  ///< live stream sessions (stats only)

  std::atomic<bool> drainRequested{false};
  std::thread ioThread;
  int wakePipe[2] = {-1, -1};

  Impl(ArtifactStore& s, ServiceOptions o)
      : store(s),
        options(o),
        maxInFlight(std::max<std::size_t>(1, o.maxInFlight)),
        queueBound(std::max<std::size_t>(1, o.queueBound)),
        pool(o.threads) {
    if (!options.accessLogPath.empty()) accessLog.open(options.accessLogPath);
    if (::pipe(wakePipe) == 0) {
      ::fcntl(wakePipe[0], F_SETFL, O_NONBLOCK);
    } else {
      wakePipe[0] = wakePipe[1] = -1;
    }
  }

  ~Impl() {
    for (const Listener& l : listeners)
      if (l.fd >= 0) ::close(l.fd);
    if (wakePipe[0] >= 0) ::close(wakePipe[0]);
    if (wakePipe[1] >= 0) ::close(wakePipe[1]);
  }

  void wakeIo() {
    if (wakePipe[1] >= 0) {
      const char b = 'w';
      [[maybe_unused]] const ssize_t n = ::write(wakePipe[1], &b, 1);
    }
  }

  bool drainingNow() const {
    return drainRequested.load(std::memory_order_relaxed);
  }

  /// Registers and counts a new session (mu held); fd -1 opens a stream
  /// session.
  ConnPtr openSessionLocked(int fd) {
    auto conn = std::make_shared<Conn>(nextConnId++, fd);
    (fd >= 0 ? conns : streamConns).push_back(conn);
    mConnsAccepted.inc();
    gConnections.add(1);
    return conn;
  }

  /// Unregisters a drained session and folds its counters into the
  /// closed-connection rollup (mu held), so the per-connection conservation
  /// invariant stays exact across reaping.
  void retireConnLocked(const ConnPtr& c) {
    std::vector<ConnPtr>& live = c->fd >= 0 ? conns : streamConns;
    live.erase(std::find(live.begin(), live.end(), c));
    closedRequests += c->requests;
    closedResponses += c->responses.load(std::memory_order_relaxed);
    closedShed += c->shed;
    mConnsClosed.inc();
    gConnections.add(-1);
  }

  // -- response plumbing ----------------------------------------------------

  /// Appends one access-log line for a response leaving the window and
  /// records its write-side span. Called off the hot-path lock, after the
  /// in-flight slot released. The span fields are additive by design:
  /// admitUs + queueUs + serviceUs + writeUs == totalUs exactly (writeUs
  /// is derived as the remainder: response ready → wire/stream handoff).
  void emitAccess(const Conn& c, const Slot& slot) {
    const RequestSpans& sp = slot.spans;
    const std::uint64_t totalUs = usBetween(sp.t0, Clock::now());
    const std::uint64_t accounted = sp.admitUs + sp.queueUs + sp.serviceUs;
    const std::uint64_t writeUs = totalUs > accounted ? totalUs - accounted : 0;
    hWrite.record(writeUs);
    if (!accessLog.enabled()) return;
    accessLog.write(json::encode(kAccessLine, c, sp, writeUs, totalUs).dump(0));
  }

  /// Streams every completed response at the front of a stream session's
  /// window. writeMu keeps concurrent completers from interleaving lines.
  /// The in-flight slots release only after the bytes reached `out`, so the
  /// session cannot end (and serveStream cannot return) mid-write.
  void flushStream(Conn& c) {
    std::lock_guard<std::mutex> wl(c.writeMu);
    std::vector<std::shared_ptr<Slot>> popped;
    for (;;) {
      std::shared_ptr<Slot> slot;
      {
        std::lock_guard<std::mutex> g(c.winMu);
        if (c.window.empty() || !c.window.front()->done) break;
        slot = std::move(c.window.front());
        c.window.pop_front();
      }
      slot->line.push_back('\n');
      (*c.out) << slot->line;
      c.out->flush();
      popped.push_back(std::move(slot));
    }
    releaseSlots(c, popped);
  }

  /// Releases the in-flight slots of responses popped off a window toward
  /// the wire or stream, and logs them. Stream sessions never pause.
  void releaseSlots(Conn& c, const std::vector<std::shared_ptr<Slot>>& popped) {
    if (popped.empty()) return;
    c.responses.fetch_add(popped.size(), std::memory_order_relaxed);
    mResponses.inc(popped.size());
    {
      std::lock_guard<std::mutex> lock(mu);
      c.inflight -= popped.size();
      if (c.paused && c.inflight < maxInFlight) c.paused = false;
    }
    for (const auto& slot : popped) emitAccess(c, *slot);
  }

  /// Publishes a finished response. Stream sessions flush right here on
  /// the worker; socket responses are handed to the IO thread, which owns
  /// all socket writes. pendingJobs releases now (the pool slot is free);
  /// the per-connection in-flight slot releases only once the response
  /// leaves the window toward the wire.
  void finishSlot(const ConnPtr& conn, const std::shared_ptr<Slot>& slot,
                  std::string line, bool admitted) {
    {
      std::lock_guard<std::mutex> g(conn->winMu);
      slot->line = std::move(line);
      slot->done = true;
    }
    if (conn->fd < 0) flushStream(*conn);
    if (admitted) {
      std::lock_guard<std::mutex> lock(mu);
      --pendingJobs;
      gQueueDepth.set(static_cast<std::int64_t>(pendingJobs));
    }
    cv.notify_all();
    if (conn->fd >= 0) wakeIo();  // the IO thread flushes + resumes reads
  }

  /// IO thread only: moves completed responses at the window's front into
  /// the connection's output buffer — releasing their in-flight slots —
  /// then sends what the socket will take without blocking. The buffer
  /// high-water mark stops draining the window (keeping in-flight slots
  /// held, which pauses reads) when a client stops reading.
  static constexpr std::size_t kObufHighWater = 256u * 1024;

  void pumpConn(const ConnPtr& c) {
    const bool broken = c->broken.load(std::memory_order_relaxed);
    std::vector<std::shared_ptr<Slot>> popped;
    {
      std::lock_guard<std::mutex> g(c->winMu);
      while (!c->window.empty() && c->window.front()->done &&
             (broken || c->obuf.size() - c->osent < kObufHighWater)) {
        if (!broken) {
          c->obuf += c->window.front()->line;
          c->obuf += '\n';
        }
        popped.push_back(std::move(c->window.front()));
        c->window.pop_front();
      }
    }
    releaseSlots(*c, popped);
    sendObuf(*c);
  }

  /// Non-blocking send of the buffered output (IO thread only). A consumed
  /// offset avoids re-erasing the front per send. Failure marks the
  /// connection broken: its reads stop and pending output is dropped.
  void sendObuf(Conn& c) {
    if (c.broken.load(std::memory_order_relaxed)) {
      c.obuf.clear();
      c.osent = 0;
      return;
    }
    while (c.osent < c.obuf.size()) {
      const ssize_t n = ::send(c.fd, c.obuf.data() + c.osent,
                               c.obuf.size() - c.osent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.osent += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;  // POLLOUT resumes this send
      } else {
        c.broken.store(true);
        c.eof.store(true);
        c.rbuf.clear();
        c.obuf.clear();
        c.osent = 0;
        return;
      }
    }
    if (c.osent == c.obuf.size()) {
      c.obuf.clear();
      c.osent = 0;
    } else if (c.osent >= 64u * 1024) {
      c.obuf.erase(0, c.osent);
      c.osent = 0;
    }
  }

  // -- admission ------------------------------------------------------------

  /// Accepts one request line from a session: count it, then either admit
  /// it onto the worker pool or answer it with a typed error (shed, or a
  /// line longer than kMaxRequestLineBytes, whose bytes were dropped).
  /// Called by the IO thread (socket sessions) or the stream reader thread
  /// — always sequentially per connection, which is what keeps `window` in
  /// request order.
  void handleLine(const ConnPtr& conn, std::string line, bool tooLong) {
    const Clock::time_point t0 = Clock::now();
    auto slot = std::make_shared<Slot>();
    slot->spans.t0 = t0;
    {
      std::lock_guard<std::mutex> g(conn->winMu);
      conn->window.push_back(slot);
    }
    enum class Admit { Job, Overloaded, Shutdown, TooLong } admit;
    {
      std::lock_guard<std::mutex> lock(mu);
      mRequests.inc();
      ++conn->requests;
      // Shed requests hold an in-flight slot too (released when their
      // response leaves the window): a client flooding an overloaded
      // service hits its per-connection cap and stops being read, instead
      // of growing the window without bound.
      ++conn->inflight;
      if (tooLong) {
        mParseErrors.inc();
        admit = Admit::TooLong;
      } else if (drainingNow()) {
        mShedShutdown.inc();
        ++conn->shed;
        admit = Admit::Shutdown;
      } else if (pendingJobs >= queueBound) {
        mShedOverload.inc();
        ++conn->shed;
        admit = Admit::Overloaded;
      } else {
        ++pendingJobs;
        maxQueueDepth = std::max<std::uint64_t>(maxQueueDepth, pendingJobs);
        gQueueDepth.set(static_cast<std::int64_t>(pendingJobs));
        admit = Admit::Job;
      }
    }
    const Clock::time_point tAdmit = Clock::now();
    slot->spans.admitted = tAdmit;
    slot->spans.admitUs = usBetween(t0, tAdmit);
    if (admit == Admit::Job) {
      pool.submit([this, conn, slot, line = std::move(line)] {
        runJob(conn, slot, line);
      });
    } else {
      // These responses still travel through the window (order!) and are
      // rendered off the IO thread so a slow client can never stall it.
      struct Answer {
        WireError code;
        const char* message;
        const char* outcome;
      };
      static constexpr Answer kAnswers[] = {  // by Admit, after Job
          {WireError::Overloaded,
           "service overloaded: global queue bound reached, retry later",
           "shed_overload"},
          {WireError::Shutdown, "service is draining, request not accepted",
           "shed_shutdown"},
          {WireError::Parse, "request line longer than 1 MiB", "parse"},
      };
      const Answer& answer = kAnswers[static_cast<int>(admit) - 1];
      pool.submit([this, conn, slot, line = std::move(line), &answer] {
        RequestSpans& sp = slot->spans;
        const Clock::time_point tStart = Clock::now();
        sp.queueUs = usBetween(sp.admitted, tStart);
        sp.outcome = answer.outcome;
        sp.id = bestEffortId(line);
        std::string out =
            wireLine(errorResponse(sp.id, answer.code, answer.message));
        sp.serviceUs = usBetween(tStart, Clock::now());
        finishSlot(conn, slot, std::move(out), /*admitted=*/false);
      });
    }
  }

  // -- the worker -----------------------------------------------------------

  void runJob(const ConnPtr& conn, const std::shared_ptr<Slot>& slot,
              const std::string& line) {
    RequestSpans& sp = slot->spans;
    const Clock::time_point tStart = Clock::now();
    sp.queueUs = usBetween(sp.admitted, tStart);
    std::string out;
    try {
      const Response resp = computeResponse(line, sp);
      const Clock::time_point tSer = Clock::now();
      out = wireLine(resp);
      sp.serializeUs = usBetween(tSer, Clock::now());
    } catch (...) {
      mInternalErrors.inc();
      sp.outcome = "internal";
      out = wireLine(
          errorResponse(json::Value(), WireError::Internal, "internal error"));
    }
    const Clock::time_point tDone = Clock::now();
    sp.serviceUs = usBetween(tStart, tDone);
    // Lock-free telemetry: latency and span histograms record on atomics,
    // never on the service's admission lock. Control-plane requests
    // ({"stats"}/{"metrics"}) land in their own histogram so a stats-heavy
    // client cannot move the CI-gated compile p50/p99.
    (sp.control ? hControl : hCompile).record(usBetween(sp.t0, tDone));
    hQueueWait.record(sp.queueUs);
    if (!sp.control) {
      hStore.record(sp.storeUs);
      hSerialize.record(sp.serializeUs);
      if (sp.scheduleUs > 0) hSchedule.record(sp.scheduleUs);
    }
    finishSlot(conn, slot, std::move(out), /*admitted=*/true);
  }

  Response computeResponse(const std::string& line, RequestSpans& sp) {
    // A rejected request's access-log outcome is its wire code.
    const auto reject = [&](WireError code, const std::exception& e) {
      mParseErrors.inc();
      sp.outcome = wireErrorCode(code);
      return errorResponse(sp.id, code, e.what());
    };
    WireRequest req;
    req.wantArtifact = options.includeArtifact;
    try {
      const json::Value doc = json::parse(line);
      sp.id = requestId(doc);
      json::decode(kRequestLayout, doc, "request", req);
      req.validate();
    } catch (const std::exception& e) {
      return reject(WireError::Parse, e);
    }
    if (req.stats || req.metrics) {
      (req.stats ? mStatsRequests : mMetricsRequests).inc();
      sp.control = true;
      sp.outcome = req.stats ? "stats" : "metrics";
      Response r;
      r.id = sp.id;
      r.ok = true;
      if (req.stats)
        r.stats = statsJson();
      else
        r.metrics = registry.renderPrometheus();
      return r;
    }

    Composition comp;
    Cdfg graph;
    WireError stage = WireError::UnknownComp;
    try {
      comp = resolveComposition(req.comp);
      stage = WireError::BadKernel;
      graph = resolveGraph(req);
    } catch (const std::exception& e) {
      return reject(stage, e);
    }
    try {
      SchedulerOptions schedOpts;
      schedOpts.maxContexts = req.maxContexts;
      const Clock::time_point tKey = Clock::now();
      const std::string key = scheduleJobKey(comp, graph, schedOpts);
      sp.keyPrefix = key.substr(0, 12);
      // Identical concurrent misses, from any connection, share one run.
      const auto [art, source] = store.resolve(key, comp, graph, [&] {
        const Clock::time_point tSched = Clock::now();
        ScheduleRequest sreq(graph);
        // Sampled cold runs carry the decision trace and land as one
        // Chrome-JSON file per request under options.traceDir.
        const std::uint64_t seq =
            coldSeq.fetch_add(1, std::memory_order_relaxed);
        const bool sampled =
            options.traceSample > 0 && seq % options.traceSample == 0;
        sreq.trace.enabled = sampled;
        const ScheduleReport sched =
            Scheduler(comp, schedOpts).schedule(sreq);
        sp.scheduleUs = usBetween(tSched, Clock::now());
        if (sampled && sched.trace != nullptr && !options.traceDir.empty()) {
          try {  // best effort: a failed write drops the sample only
            json::writeFile(options.traceDir + "/serve-" + sp.keyPrefix +
                                "-" + std::to_string(seq) + ".trace.json",
                            sched.trace->toChromeJson("serve " + sp.keyPrefix));
            mTracesSampled.inc();
          } catch (...) {
          }
        }
        mScheduled.inc();
        return ScheduleArtifact::fromReport(key, sched);
      });
      sp.storeUs = usBetween(tKey, Clock::now()) - sp.scheduleUs;
      sp.cacheHit = source != ArtifactStore::Source::Computed;
      if (sp.cacheHit)
        (source == ArtifactStore::Source::Joined ? mDeduped : mCacheHits).inc();
      sp.outcome = art->ok ? "ok" : "unmappable";
      return artifactResponse(sp.id, *art, sp.cacheHit, req.wantArtifact,
                              comp);
    } catch (const std::exception& e) {
      mInternalErrors.inc();
      sp.outcome = "internal";
      return errorResponse(sp.id, WireError::Internal, e.what());
    }
  }

  // -- live metrics ---------------------------------------------------------

  /// One ServiceStats snapshot, read from the registry with mu held so the
  /// admission counters agree with the per-connection ones.
  ServiceStats statsLocked() const {
    ServiceStats s;
    s.requests = mRequests.value();
    s.parseErrors = mParseErrors.value();
    s.internalErrors = mInternalErrors.value();
    s.scheduled = mScheduled.value();
    s.cacheHits = mCacheHits.value();
    s.deduped = mDeduped.value();
    s.statsRequests = mStatsRequests.value() + mMetricsRequests.value();
    s.shedOverload = mShedOverload.value();
    s.shedShutdown = mShedShutdown.value();
    s.connectionsAccepted = mConnsAccepted.value();
    s.connectionsRefused = mConnsRefused.value();
    s.connectionsClosed = mConnsClosed.value();
    s.maxQueueDepth = maxQueueDepth;
    const Log2Histogram compile = hCompile.snapshot();
    s.latencyCount = compile.count();
    s.latencyP50Us = compile.quantileUs(0.50);
    s.latencyP99Us = compile.quantileUs(0.99);
    s.latencyMeanUs = compile.meanUs();
    const Log2Histogram control = hControl.snapshot();
    s.controlLatencyCount = control.count();
    s.controlLatencyP50Us = control.quantileUs(0.50);
    s.controlLatencyP99Us = control.quantileUs(0.99);
    s.controlLatencyMeanUs = control.meanUs();
    return s;
  }

  json::Value statsJson() const {
    const StoreCounters storeCounters = store.counters();
    std::lock_guard<std::mutex> lock(mu);
    std::vector<ConnPtr> sessions = conns;
    sessions.insert(sessions.end(), streamConns.begin(), streamConns.end());
    return json::encode(kStatsDocument, *this, sessions, statsLocked(),
                        storeCounters);
  }

  // -- stream sessions ------------------------------------------------------

  void serveStream(std::istream& in, std::ostream& out) {
    ConnPtr conn;
    {
      std::lock_guard<std::mutex> lock(mu);
      conn = openSessionLocked(-1);
      conn->out = &out;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (isBlank(line)) continue;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return conn->inflight < maxInFlight || drainingNow();
        });
      }
      handleLine(conn, std::move(line), /*tooLong=*/false);
    }
    // Every response — including shed ones still rendering on the pool —
    // must be on the wire before this session returns.
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] {
        if (conn->inflight != 0) return false;
        std::lock_guard<std::mutex> g(conn->winMu);
        return conn->window.empty();
      });
    }
    std::lock_guard<std::mutex> lock(mu);
    retireConnLocked(conn);
  }

  // -- listeners and the poll/accept IO thread ------------------------------

  void addUnixListener(const std::string& path) {
    if (path.size() >= sizeof(sockaddr_un{}.sun_path))
      throw Error("socket path too long: " + path);
    struct stat st {};
    if (::lstat(path.c_str(), &st) == 0) {
      if (!S_ISSOCK(st.st_mode))
        throw Error("refusing to replace " + path +
                    ": existing file is not a socket");
      ::unlink(path.c_str());  // a stale socket from a previous run
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw Error("cannot create unix socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, 64) != 0) {
      ::close(fd);
      throw Error("cannot bind/listen on " + path);
    }
    std::lock_guard<std::mutex> lock(mu);
    CGRA_ASSERT_MSG(!ioRunning, "addUnixListener after start()");
    listeners.push_back(Listener{fd, path});
  }

  std::uint16_t addTcpListener(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw Error("cannot create TCP socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, 64) != 0) {
      ::close(fd);
      throw Error("cannot bind/listen on 127.0.0.1:" + std::to_string(port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
    std::lock_guard<std::mutex> lock(mu);
    CGRA_ASSERT_MSG(!ioRunning, "addTcpListener after start()");
    listeners.push_back(Listener{fd, ""});
    return ntohs(bound.sin_port);
  }

  void closeListeners() {
    std::vector<Listener> doomed;
    {
      std::lock_guard<std::mutex> lock(mu);
      doomed.swap(listeners);
    }
    for (const Listener& l : doomed) {
      if (l.fd >= 0) ::close(l.fd);
      if (!l.unixPath.empty()) ::unlink(l.unixPath.c_str());
    }
  }

  void acceptOne(int listenFd) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) return;
    bool refuse = false;
    bool reachedMax = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (options.maxClients != 0 && conns.size() >= options.maxClients) {
        refuse = true;
        mConnsRefused.inc();
      } else {
        openSessionLocked(fd);
        ++accepted;
        reachedMax =
            options.maxConnections != 0 && accepted >= options.maxConnections;
      }
    }
    if (refuse) {
      // One short line always fits the fresh socket's send buffer.
      const std::string line =
          wireLine(errorResponse(json::Value(), WireError::Overloaded,
                                 "too many clients, connection refused")) +
          "\n";
      [[maybe_unused]] const ssize_t n =
          ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      ::close(fd);
      return;
    }
    if (reachedMax) closeListeners();
  }

  void readConn(const ConnPtr& conn) {
    char buf[8192];
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->rbuf.append(buf, static_cast<std::size_t>(n));
      processBuffer(conn);
    } else if (n == 0) {
      // Half-close: a client may shut down its write side after sending a
      // batch; finish answering what it sent.
      processBuffer(conn);
      conn->eof.store(true);
    } else if (errno != EINTR && errno != EAGAIN) {
      conn->eof.store(true);
      conn->broken.store(true);
      conn->rbuf.clear();  // a broken peer is owed nothing
    }
  }

  /// Splits buffered bytes into lines and admits them, honoring the
  /// per-connection cap (pause) — IO thread only. A consumed offset with
  /// one compaction per call keeps a large buffered batch O(n), not the
  /// O(n^2) of erasing the front per line, and `scanned` resumes the
  /// newline search where the previous read stopped, so a line arriving in
  /// many reads is scanned once. A line longer than kMaxRequestLineBytes
  /// answers one `parse` error and ends the reads: the connection closes
  /// once its window drains.
  void processBuffer(const ConnPtr& conn) {
    std::string& buf = conn->rbuf;
    std::size_t pos = 0;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (conn->paused && !drainingNow()) break;
      }
      const std::size_t nl = buf.find('\n', std::max(pos, conn->scanned));
      if ((nl == std::string::npos ? buf.size() : nl) - pos >
          kMaxRequestLineBytes) {
        handleLine(conn, std::string(), /*tooLong=*/true);
        conn->eof.store(true);
        buf.clear();
        conn->scanned = 0;
        return;
      }
      if (nl == std::string::npos) {
        conn->scanned = buf.size();
        break;
      }
      std::string line = buf.substr(pos, nl - pos);
      pos = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (isBlank(line)) continue;
      handleLine(conn, std::move(line), /*tooLong=*/false);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (conn->inflight >= maxInFlight) {
          conn->paused = true;
          if (!drainingNow()) break;
        }
      }
    }
    buf.erase(0, pos);
    conn->scanned = std::max(conn->scanned, pos) - pos;
  }

  bool connDrained(const ConnPtr& conn) {
    // IO thread only: rbuf/obuf are IO-thread state. A buffered complete
    // line still owes a response and an unsent response byte still owes a
    // write, so both block closing; a windowed slot (done or not) holds an
    // in-flight count until pumpConn pops it, so inflight == 0 means every
    // response reached obuf and obuf empty means every byte was sent (or
    // the connection broke, forfeiting its output).
    if (conn->rbuf.find('\n', conn->scanned) != std::string::npos)
      return false;
    if (conn->osent < conn->obuf.size() &&
        !conn->broken.load(std::memory_order_relaxed))
      return false;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (conn->inflight != 0) return false;
    }
    std::lock_guard<std::mutex> g(conn->winMu);
    return conn->window.empty();
  }

  /// Converts an async drain request, flushes completed responses onto the
  /// wire, resumes un-paused connections with buffered lines, and reaps
  /// drained EOF connections. IO thread only.
  void sweep(bool& drainStarted) {
    const bool startDrain = drainingNow() && !std::exchange(drainStarted, true);
    std::vector<ConnPtr> snapshot;
    {
      std::lock_guard<std::mutex> lock(mu);
      snapshot = conns;
    }
    if (startDrain) {
      closeListeners();
      // Every line already read off a socket gets an answer (the shed path
      // tags them `shutdown`); nothing new is read.
      for (const ConnPtr& c : snapshot) {
        processBuffer(c);
        c->eof.store(true);
      }
      cv.notify_all();  // stream sessions blocked on admission
    }
    // Move finished responses window -> obuf -> socket (this is the only
    // place socket bytes are written), releasing in-flight slots and
    // un-pausing as responses leave.
    for (const ConnPtr& c : snapshot) pumpConn(c);
    if (!startDrain) {
      // Buffered lines wait on the pause flag only — a half-closed (EOF)
      // connection still gets its remaining buffered batch answered.
      for (const ConnPtr& c : snapshot) {
        bool runnable;
        {
          std::lock_guard<std::mutex> lock(mu);
          runnable = !c->paused;
        }
        if (runnable && c->rbuf.find('\n', c->scanned) != std::string::npos)
          processBuffer(c);
      }
    }
    // Reap connections that reached EOF and owe nothing.
    for (const ConnPtr& c : snapshot) {
      if (!c->eof.load() || !connDrained(c)) continue;
      {
        std::lock_guard<std::mutex> lock(mu);
        retireConnLocked(c);
      }
      ::close(c->fd);
    }
    cv.notify_all();
  }

  void ioLoop() {
    bool drainStarted = false;  // sweep() ran the one-shot drain start
    std::vector<pollfd> pfds;
    std::vector<int> polledListeners;
    std::vector<ConnPtr> polledConns;
    for (;;) {
      pfds.clear();
      polledListeners.clear();
      polledConns.clear();
      {
        std::lock_guard<std::mutex> lock(mu);
        if (listeners.empty() && conns.empty()) break;
        pfds.push_back(pollfd{wakePipe[0], POLLIN, 0});
        if (!drainingNow())
          for (const Listener& l : listeners) {
            pfds.push_back(pollfd{l.fd, POLLIN, 0});
            polledListeners.push_back(l.fd);
          }
        for (const ConnPtr& c : conns) {
          short events = 0;
          if (!c->paused && !c->eof.load()) events |= POLLIN;
          // obuf is IO-thread state (this thread): pending bytes need a
          // POLLOUT wakeup to resume the non-blocking send.
          if (c->osent < c->obuf.size() &&
              !c->broken.load(std::memory_order_relaxed))
            events |= POLLOUT;
          if (events != 0) {
            pfds.push_back(pollfd{c->fd, events, 0});
            polledConns.push_back(c);
          }
        }
      }
      // A finite timeout is a belt-and-braces guard against a lost wakeup;
      // every state change also writes the wake pipe.
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 200);
      if ((pfds[0].revents & POLLIN) != 0) {
        char buf[64];
        while (::read(wakePipe[0], buf, sizeof(buf)) > 0) {
        }
      }
      std::size_t idx = 1;
      for (const int lfd : polledListeners) {
        if ((pfds[idx].revents & POLLIN) != 0) acceptOne(lfd);
        ++idx;
      }
      for (const ConnPtr& c : polledConns) {
        // POLLOUT-only wakeups (a blocked send became writable) are
        // handled by sweep()'s pump; an error on a write-pending EOF
        // connection surfaces there as a failed send.
        if (!c->eof.load() &&
            (pfds[idx].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
          readConn(c);
        ++idx;
      }
      sweep(drainStarted);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      ioExited = true;
    }
    cv.notify_all();
  }
};

Service::Service(ArtifactStore& store, ServiceOptions options)
    : impl_(std::make_unique<Impl>(store, options)) {}

Service::~Service() { stop(); }

void Service::addUnixListener(const std::string& path) {
  impl_->addUnixListener(path);
}

std::uint16_t Service::addTcpListener(std::uint16_t port) {
  return impl_->addTcpListener(port);
}

void Service::start() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  CGRA_ASSERT_MSG(!impl_->ioRunning, "start() called twice");
  impl_->ioRunning = true;
  impl_->ioExited = false;
  impl_->ioThread = std::thread([this] { impl_->ioLoop(); });
}

void Service::notifyDrain() {
  // Async-signal-safe: one relaxed atomic store and one pipe write.
  impl_->drainRequested.store(true, std::memory_order_relaxed);
  impl_->wakeIo();
}

void Service::waitDone() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  if (!impl_->ioRunning) return;
  impl_->cv.wait(lock, [&] { return impl_->ioExited; });
}

void Service::drain() {
  notifyDrain();
  // A stream session checks the drain flag under mu before it blocks in
  // admission; taking mu here orders the notify after that check.
  { std::lock_guard<std::mutex> lock(impl_->mu); }
  impl_->cv.notify_all();
  waitDone();
}

void Service::stop() {
  bool running;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    running = impl_->ioRunning;
  }
  if (running) {
    notifyDrain();
    waitDone();
    if (impl_->ioThread.joinable()) impl_->ioThread.join();
    {
      std::lock_guard<std::mutex> lock(impl_->mu);
      impl_->ioRunning = false;
    }
  }
  impl_->pool.wait();
}

void Service::serveStream(std::istream& in, std::ostream& out) {
  impl_->serveStream(in, out);
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->statsLocked();
}

json::Value Service::statsJson() const { return impl_->statsJson(); }

std::string Service::metricsText() const {
  return impl_->registry.renderPrometheus();
}

}  // namespace cgra::artifact
