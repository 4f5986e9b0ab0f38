// Load harness for the concurrent compile server (DESIGN.md §12): N
// closed-loop clients replay thousands of schedule requests over their own
// TCP connections against one in-process Service, with request keys drawn
// from a Zipf(1.1) distribution over a 16-job pool — the hot/cold mix a DSE
// explorer or CI farm produces (a few hot kernels dominate, a long tail of
// cold ones). Two passes run against one shared store: the cold pass starts
// empty (every distinct key schedules exactly once, everything else is a
// store hit or an in-flight dedup), the warm pass must answer every request
// from the store.
//
// Deterministic traffic counts (distinct keys scheduled, warm misses, shed
// and error responses) land in the gated metrics section; client-observed
// latency percentiles and throughput land in timings, where CI gates p99
// with a relaxed 3x threshold (machine speed varies, stalls do not).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "artifact/client.hpp"
#include "artifact/service.hpp"
#include "artifact/store.hpp"
#include "bench_common.hpp"
#include "support/metrics_registry.hpp"
#include "support/rng.hpp"

namespace {

using namespace cgra;
using Clock = std::chrono::steady_clock;

constexpr int kClients = 8;
constexpr int kRequestsPerClient = 250;  // 2000 requests per pass

/// The request pool: cheap kernels across two mesh sizes, 16 distinct cache
/// keys. Rank 0 is the hottest key.
struct JobPool {
  std::vector<std::string> lines;

  JobPool() {
    const char* kernels[] = {"gcd",  "ewma",    "dotprod", "cond_halving",
                             "bubble", "crc32", "histogram", "fir"};
    for (const char* comp : {"mesh4", "mesh9"})
      for (const char* kernel : kernels)
        lines.push_back(std::string("{\"comp\":\"") + comp +
                        "\",\"kernel\":\"" + kernel + "\"}");
  }
};

/// Zipf(s=1.1) sampler over ranks [0, n): precomputed CDF, inverted with
/// the repo's deterministic Rng so every machine replays the same traffic.
class ZipfSampler {
public:
  ZipfSampler(std::size_t n, std::uint64_t seed) : rng_(seed) {
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t next() {
    const double u =
        static_cast<double>(rng_.next() >> 11) * 0x1.0p-53;  // [0, 1)
    for (std::size_t r = 0; r < cdf_.size(); ++r)
      if (u < cdf_[r]) return r;
    return cdf_.size() - 1;
  }

private:
  Rng rng_;
  std::vector<double> cdf_;
};

struct PassResult {
  Log2Histogram latency;  ///< client-observed round-trip latency
  double wallMs = 0.0;
  std::uint64_t errors = 0;
};

/// One closed-loop pass: kClients threads, each its own connection, each
/// request waiting for its response (round-trip latency is the measured
/// quantity; the per-connection in-flight window stays at one).
PassResult runPass(std::uint16_t port, const JobPool& pool,
                   std::uint64_t seedBase) {
  PassResult result;
  std::mutex mu;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      artifact::JsonlClient client = artifact::JsonlClient::connectTcp(port);
      ZipfSampler zipf(pool.lines.size(), seedBase + static_cast<unsigned>(c));
      Log2Histogram local;
      std::uint64_t localErrors = 0;
      std::string line;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const Clock::time_point t0 = Clock::now();
        client.sendLine(pool.lines[zipf.next()]);
        if (!client.recvLine(line)) {
          ++localErrors;
          break;
        }
        local.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0)
                .count()));
        if (line.find("\"ok\":true") == std::string::npos) ++localErrors;
      }
      std::lock_guard<std::mutex> lock(mu);
      result.latency.merge(local);
      result.errors += localErrors;
    });
  }
  for (std::thread& t : clients) t.join();
  result.wallMs = msSince(start);
  return result;
}

}  // namespace

int main() {
  bench::BenchReport report("serve");
  const JobPool pool;

  artifact::ArtifactStore store;
  artifact::ServiceOptions options;
  options.threads = 4;
  artifact::Service service(store, options);
  const std::uint16_t port = service.addTcpListener(0);
  service.start();

  const PassResult cold = runPass(port, pool, /*seedBase=*/1000);
  const artifact::ServiceStats coldStats = service.stats();

  const PassResult warm = runPass(port, pool, /*seedBase=*/5000);
  const artifact::ServiceStats warmStats = service.stats();

  // Final Prometheus scrape: the same text a monitoring agent would pull
  // via {"metrics": true}. Cross-checked below against the client tally.
  const std::string exposition = service.metricsText();

  service.drain();
  service.stop();
  const std::uint64_t warmScheduled = warmStats.scheduled - coldStats.scheduled;
  const std::uint64_t total = static_cast<std::uint64_t>(kClients) *
                              static_cast<std::uint64_t>(kRequestsPerClient);

  std::cout << "serve load: " << 2 * total << " requests over " << kClients
            << " connections, " << pool.lines.size() << " distinct keys\n"
            << "cold pass: " << coldStats.scheduled << " scheduled, "
            << coldStats.cacheHits << " hits, " << coldStats.deduped
            << " deduped, p99 "
            << static_cast<std::uint64_t>(cold.latency.quantileUs(0.99))
            << " us\n"
            << "warm pass: " << warmScheduled << " scheduled, p99 "
            << static_cast<std::uint64_t>(warm.latency.quantileUs(0.99))
            << " us\n";

  // Deterministic traffic counters: gated at 10% by bench_compare.py. The
  // Zipf streams are seeded, so the sampled key set — and with it the
  // cold-pass schedule count and warm-pass miss count — is reproducible.
  report.metric("coldScheduled", coldStats.scheduled);
  report.metric("warmMisses", warmScheduled);
  report.metric("warmMissPct",
                100.0 * static_cast<double>(warmScheduled) /
                    static_cast<double>(total));
  report.metric("clientErrors", cold.errors + warm.errors);
  report.metric("shedResponses",
                warmStats.shedOverload + warmStats.shedShutdown);
  report.metric("parseErrors", warmStats.parseErrors);

  // Latency/throughput: machine-dependent, warn-only — except p99Us, which
  // CI gates with a relaxed 3x threshold to catch serialization stalls.
  report.timing("p50Us", warm.latency.quantileUs(0.50));
  report.timing("p99Us", warm.latency.quantileUs(0.99));
  report.timing("coldP99Us", cold.latency.quantileUs(0.99));
  report.timing("coldWallMs", cold.wallMs);
  report.timing("warmWallMs", warm.wallMs);
  report.timing("warmUsPerRequest", 1000.0 * warm.wallMs /
                                        static_cast<double>(total));
  report.info("throughputWarmReqPerSec",
              std::to_string(static_cast<std::uint64_t>(
                  1000.0 * static_cast<double>(total) / warm.wallMs)));
  report.info("connections", std::to_string(kClients));
  report.info("distinctKeys", std::to_string(pool.lines.size()));
  report.info("serverP99Us", std::to_string(static_cast<std::uint64_t>(
                                 warmStats.latencyP99Us)));

  // The scraped cgra_requests_total must equal the requests both passes
  // actually sent — a monitoring agent sees the same truth the clients do.
  std::uint64_t scrapedRequests = 0;
  std::istringstream lines(exposition);
  for (std::string l; std::getline(lines, l);)
    if (l.rfind("cgra_requests_total ", 0) == 0)
      scrapedRequests = std::stoull(l.substr(l.find(' ') + 1));
  report.metric("scrapedRequests", scrapedRequests);
  if (scrapedRequests != 2 * total) {
    std::cerr << "serve: scraped cgra_requests_total " << scrapedRequests
              << " != sent " << 2 * total << "\n";
    return 1;
  }
  report.write();
  return cold.errors + warm.errors == 0 ? 0 : 1;
}
