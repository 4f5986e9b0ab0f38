// Concurrent batch compile server: JSONL schedule requests in, artifact
// responses out (`cgra-tool serve`, DESIGN.md §12).
//
// A driver (design-space explorer, CI harness, another process or machine)
// streams one JSON request per line:
//
//   {"id": 7, "comp": "mesh9", "kernel": "adpcm", "unroll": 2,
//    "maxContexts": 16, "artifact": true}
//
// and receives one versioned JSON response per line, in per-connection
// request order:
//
//   {"v": 1, "id": 7, "ok": true, "key": "3fb2...", "cached": false,
//    "contexts": 14, "fingerprint": "1234...", ...}
//
// Failures are typed: {"v":1, "id":..., "ok":false,
//   "error":{"code":"unmappable", "message":"...", "reason":"context-budget"}}
// with codes parse | unknown_comp | bad_kernel | unmappable | overloaded |
// shutdown | internal (the wire protocol table lives in DESIGN.md §12).
//
// The `Service` class owns the whole lifecycle:
//
//   * Listeners — stdin/stream sessions (`serveStream`), unix domain
//     sockets (`addUnixListener`) and loopback TCP (`addTcpListener`) feed
//     one shared admission/worker machinery; a single poll/accept IO thread
//     (`start`) multiplexes every socket connection — it owns both sides of
//     every socket (reads, and POLLOUT-driven non-blocking writes from a
//     bounded per-connection output buffer), so workers never block in
//     send() and never race a close.
//   * Admission control — each connection may have at most `maxInFlight`
//     unanswered requests in its response window, shed ones included
//     (reading from that connection pauses past the cap: per-client
//     fairness by backpressure, one greedy or non-reading client cannot
//     monopolize the worker pool or grow the window without bound), and
//     the service admits at most `queueBound` requests globally (past it
//     requests are answered immediately with
//     `"error":{"code":"overloaded"}` — explicit shedding, never a silent
//     stall).
//   * Workers — requests from all sessions run on one shared pool over the
//     shared ArtifactStore; its `resolve` coalesces identical in-flight
//     keys onto one scheduler run, and a failed run answers all of them.
//   * Observability — a request line {"stats": true} answers with the live
//     ServiceStats (per-connection counters, queue depth, p50/p99 service
//     latency, store hit rate) as sorted-key JSON; {"metrics": true}
//     answers the Prometheus-style text exposition of the service's metric
//     registry (DESIGN.md §13). Every request carries a span breakdown
//     (admission, queue wait, store lookup, schedule, serialize, write)
//     recorded off the hot-path lock and optionally appended as one JSONL
//     access-log line per request; cold scheduling runs can be trace-
//     sampled into per-request Chrome JSON files.
//   * Drain — `notifyDrain()` is async-signal-safe (SIGTERM handlers call
//     it): the service stops accepting, answers every already-read request
//     (in-flight jobs finish; not-yet-started ones answer
//     `"error":{"code":"shutdown"}`), flushes and closes every connection,
//     then `waitDone()` returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "artifact/store.hpp"
#include "json/json.hpp"
#include "kir/passes/pipeline.hpp"

namespace cgra::artifact {

/// Wire protocol version carried as `"v"` in every response.
inline constexpr std::int64_t kWireVersion = 1;

/// Longest request line a socket session reads. A longer line answers one
/// `parse` error, after every earlier response, and the server closes the
/// connection once that answer is sent.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/// Typed failure codes of the v1 wire protocol. Scheduling failures map
/// from the scheduler's FailureReason onto `Unmappable` (the response keeps
/// the fine-grained reason name in `error.reason`).
enum class WireError : std::uint8_t {
  Parse,        ///< malformed JSON or missing/ill-typed request fields
  UnknownComp,  ///< composition could not be resolved
  BadKernel,    ///< unknown bundled kernel, or unreadable/unparsable KIR
  Unmappable,   ///< the scheduler reported a typed ScheduleFailure
  Overloaded,   ///< shed: global queue bound exceeded or too many clients
  Shutdown,     ///< shed: the service is draining
  Internal,     ///< unexpected exception escaped the worker (a library bug)
};

const char* wireErrorCode(WireError code);

/// One request line, decoded. Mirrors the relevant `cgra-tool schedule`
/// flags; the wire table is in DESIGN.md §12.
struct WireRequest {
  json::Value id;  ///< echoed verbatim in the response (any JSON value)
  std::string comp;
  std::string kernel;      ///< bundled kernel name
  std::string kernelFile;  ///< or a KIR file path, never both
  kir::FrontendOptions frontend;  ///< "unroll" and "cse"
  unsigned maxContexts = 0;
  bool wantArtifact = false;
  bool stats = false;    ///< answer the stats document instead
  bool metrics = false;  ///< answer the Prometheus exposition instead

  /// Throws cgra::Error unless the request asks for stats or metrics, or
  /// names a composition and exactly one of `kernel` and `kernelFile`.
  void validate() const;
};

/// The request's layout (json.hpp). Every key keeps its default when
/// absent, and a key it does not name is a `parse` error, so what it
/// encodes is the request's canonical form. Counts are range-checked
/// before any work is done: a negative would wrap, and an unbounded unroll
/// factor is unbounded frontend work.
inline constexpr auto kRequestLayout = json::layout<10>([](auto& c, auto& r) {
  c.defaulted("artifact", r.wantArtifact);
  c.defaulted("comp", r.comp);
  c.defaulted("cse", r.frontend.cse);
  c.defaulted("id", r.id, json::Raw{});
  c.defaulted("kernel", r.kernel);
  c.defaulted("kernelFile", r.kernelFile);
  c.defaulted("maxContexts", r.maxContexts);
  c.defaulted("metrics", r.metrics);
  c.defaulted("stats", r.stats);
  c.defaulted("unroll", r.frontend.unrollFactor,
              json::Range{0, kir::kMaxUnrollFactor});
});

struct ServiceOptions {
  /// Worker threads for cache misses; 0 selects hardware concurrency.
  unsigned threads = 0;
  /// Per-connection cap on unanswered requests (every request in the
  /// response window, shed ones included; a slot frees once its response
  /// heads to the wire). Reading from a connection pauses — never drops —
  /// past this bound.
  std::size_t maxInFlight = 64;
  /// Global bound on admitted requests across every connection. Past it,
  /// new requests are shed with `"error":{"code":"overloaded"}`.
  std::size_t queueBound = 256;
  /// Maximum concurrent socket connections; extra connections are answered
  /// with one `overloaded` error line and closed. 0 = unlimited.
  std::size_t maxClients = 0;
  /// Stop listening after this many accepted connections (the service then
  /// finishes naturally once they close). 0 = listen until drain.
  std::uint64_t maxConnections = 0;
  /// Attach the full artifact document to every successful response
  /// (per-request `"artifact": true` overrides this default).
  bool includeArtifact = false;
  /// JSONL access log: one line per request (connection, id, key prefix,
  /// outcome, cache hit, span breakdown in µs) appended when the response
  /// leaves the window toward the wire. Empty = disabled.
  std::string accessLogPath;
  /// Chrome-trace sampling of cold scheduling runs: every Nth request that
  /// actually runs the scheduler records a decision trace and writes its
  /// Chrome JSON into `traceDir`. 0 = off.
  std::uint64_t traceSample = 0;
  /// Directory receiving sampled traces (must exist); empty disables the
  /// file output even when sampling is on.
  std::string traceDir;
};

/// Traffic counters for one service, readable live (`Service::stats`) and
/// reported on shutdown.
struct ServiceStats {
  std::uint64_t requests = 0;     ///< request lines read (all connections)
  std::uint64_t parseErrors = 0;  ///< parse/unknown_comp/bad_kernel answers
  std::uint64_t internalErrors = 0;  ///< `internal` answers (a library bug)
  std::uint64_t scheduled = 0;    ///< jobs actually run on the scheduler
  std::uint64_t cacheHits = 0;    ///< answered straight from the store
  std::uint64_t deduped = 0;      ///< joined an identical in-flight job
  std::uint64_t statsRequests = 0;  ///< {"stats":true} and {"metrics":true}
  std::uint64_t shedOverload = 0;           ///< requests shed `overloaded`
  std::uint64_t shedShutdown = 0;           ///< requests shed `shutdown`
  std::uint64_t connectionsAccepted = 0;    ///< sessions opened (any kind)
  std::uint64_t connectionsRefused = 0;     ///< closed at accept (maxClients)
  std::uint64_t connectionsClosed = 0;      ///< sessions fully drained
  std::uint64_t maxQueueDepth = 0;          ///< peak admitted requests
  // Service latency (admission → response ready) of processed compile
  // requests. Control-plane traffic ({"stats":true}, {"metrics":true}) is
  // tracked apart so stats polling cannot skew the CI-gated p50/p99.
  std::uint64_t latencyCount = 0;
  double latencyP50Us = 0.0;
  double latencyP99Us = 0.0;
  double latencyMeanUs = 0.0;
  std::uint64_t controlLatencyCount = 0;
  double controlLatencyP50Us = 0.0;
  double controlLatencyP99Us = 0.0;
  double controlLatencyMeanUs = 0.0;

  json::Value toJson() const;
};

/// The concurrent compile server. Thread-safe with respect to `store`
/// (which other threads/processes may share); one Service may serve socket
/// listeners and blocking stream sessions at the same time.
class Service {
public:
  explicit Service(ArtifactStore& store, ServiceOptions options = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Binds a unix domain socket at `path`. Refuses (cgra::Error) to replace
  /// a non-socket file at `path`; a stale socket from a previous run is
  /// unlinked. Call before start().
  void addUnixListener(const std::string& path);

  /// Binds 127.0.0.1:`port` (0 picks a free port) and returns the bound
  /// port. Call before start().
  std::uint16_t addTcpListener(std::uint16_t port);

  /// Spawns the poll/accept IO thread serving every registered listener.
  void start();

  /// Async-signal-safe drain request (SIGTERM handlers may call this):
  /// stop accepting, answer everything already read, finish in-flight
  /// work, flush and close. Returns immediately.
  void notifyDrain();

  /// notifyDrain() + waitDone().
  void drain();

  /// Blocks until the service has finished: every listener closed and
  /// every socket connection answered and closed (after drain, or after
  /// maxConnections sessions completed). Returns immediately when start()
  /// was never called.
  void waitDone();

  /// drain() + join the IO thread. Idempotent; the destructor calls it.
  void stop();

  /// Serves one blocking JSONL session on the caller's thread through the
  /// same admission control and worker pool. Usable with or without
  /// start(); returns at EOF of `in` once every response has been written.
  void serveStream(std::istream& in, std::ostream& out);

  /// Live counters snapshot (percentiles computed from the histogram).
  ServiceStats stats() const;

  /// The live metrics document answered to {"stats": true} requests:
  /// service counters + queue depth, per-connection counters, store
  /// counters/hit rate. Sorted keys.
  json::Value statsJson() const;

  /// Prometheus text exposition of the service's metrics registry — the
  /// same document answered to {"metrics": true} requests and written by
  /// `cgra-tool serve --metrics` on shutdown (DESIGN.md §13).
  std::string metricsText() const;

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cgra::artifact
