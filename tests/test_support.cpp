// Unit tests for the support utilities: bit vectors, bit-field packing,
// DOT writer, deterministic RNG, table formatting, capped cycle-occupancy
// maps, the worker pool, the log2-bucket latency histogram and both
// SHA-256 engines.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "support/bitvector.hpp"
#include "support/dot.hpp"
#include "support/metrics_registry.hpp"
#include "support/occupancy.hpp"
#include "support/rng.hpp"
#include "support/sha256.hpp"
#include "support/small_vector.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace cgra {
namespace {

TEST(BitVector, SetGetAcrossWordBoundary) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  for (std::size_t i = 0; i < 130; i += 7) bv.set(i, true);
  for (std::size_t i = 0; i < 130; ++i) EXPECT_EQ(bv.get(i), i % 7 == 0);
  EXPECT_EQ(bv.popcount(), (130 + 6) / 7);
}

TEST(BitVector, PushBackGrows) {
  BitVector bv;
  for (int i = 0; i < 200; ++i) bv.pushBack(i % 3 == 0);
  EXPECT_EQ(bv.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(bv.get(static_cast<std::size_t>(i)), i % 3 == 0);
}

TEST(BitVector, FilledConstructorTrimsTail) {
  BitVector bv(70, true);
  EXPECT_EQ(bv.popcount(), 70u);
}

TEST(BitVector, EqualityIncludesSize) {
  BitVector a(10), b(11);
  EXPECT_FALSE(a == b);
  BitVector c(10);
  EXPECT_TRUE(a == c);
  a.set(3, true);
  EXPECT_FALSE(a == c);
}

TEST(BitPacker, RoundTripMixedFields) {
  BitPacker bp;
  bp.write(0x2A, 7);
  bp.write(1, 1);
  bp.write(0xDEADBEEFull, 32);
  bp.write(0, 1);
  bp.write(0x1FFFF, 17);

  BitReader br(bp.bits());
  EXPECT_EQ(br.read(7), 0x2Au);
  EXPECT_EQ(br.read(1), 1u);
  EXPECT_EQ(br.read(32), 0xDEADBEEFull);
  EXPECT_EQ(br.read(1), 0u);
  EXPECT_EQ(br.read(17), 0x1FFFFu);
  EXPECT_EQ(br.remaining(), 0u);
}

TEST(BitPacker, RejectsOverwideValue) {
  BitPacker bp;
  EXPECT_THROW(bp.write(16, 4), InternalError);
}

TEST(BitReader, ThrowsOnExhaustion) {
  BitPacker bp;
  bp.write(3, 2);
  BitReader br(bp.bits());
  br.read(2);
  EXPECT_THROW(br.read(1), InternalError);
}

class BitRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitRoundTrip, RandomFieldSequences) {
  Rng rng(GetParam());
  std::vector<std::pair<std::uint64_t, unsigned>> fields;
  BitPacker bp;
  for (int i = 0; i < 64; ++i) {
    const unsigned width = static_cast<unsigned>(rng.range(1, 64));
    const std::uint64_t value =
        width == 64 ? rng.next() : rng.next() & ((1ull << width) - 1);
    fields.emplace_back(value, width);
    bp.write(value, width);
  }
  BitReader br(bp.bits());
  for (const auto& [value, width] : fields) EXPECT_EQ(br.read(width), value);
  EXPECT_EQ(br.remaining(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitRoundTrip, ::testing::Values(1, 2, 3, 4, 5));

TEST(BitsFor, Boundaries) {
  EXPECT_EQ(bitsFor(1), 1u);
  EXPECT_EQ(bitsFor(2), 1u);
  EXPECT_EQ(bitsFor(3), 2u);
  EXPECT_EQ(bitsFor(4), 2u);
  EXPECT_EQ(bitsFor(5), 3u);
  EXPECT_EQ(bitsFor(256), 8u);
  EXPECT_EQ(bitsFor(257), 9u);
}

TEST(DotWriter, EscapesQuotesAndRendersEdges) {
  DotWriter dot("g");
  dot.addNode("a", "say \"hi\"");
  dot.addNode("b", "plain", {{"shape", "box"}});
  dot.addEdge("a", "b", {{"label", "1"}});
  const std::string out = dot.str();
  EXPECT_NE(out.find("say \\\"hi\\\""), std::string::npos);
  EXPECT_NE(out.find("\"a\" -> \"b\""), std::string::npos);
  EXPECT_NE(out.find("shape=\"box\""), std::string::npos);
  EXPECT_EQ(out.find("digraph"), 0u);
}

TEST(DotWriter, ClustersNest) {
  DotWriter dot("g");
  dot.beginCluster("c1", "outer");
  dot.addNode("x", "x");
  dot.endCluster();
  const std::string out = dot.str();
  EXPECT_NE(out.find("subgraph \"cluster_c1\""), std::string::npos);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(11);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    sawLo |= v == -2;
    sawHi |= v == 2;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.addRow({"x", "1"});
  t.addRow({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(Format, KiloFormatting) {
  EXPECT_EQ(fmtKilo(152300), "152.3k");
  EXPECT_EQ(fmt(7.345, 1), "7.3");
}

TEST(CycleOccupancy, MarkAndTestWithinCeiling) {
  CycleOccupancy occ(100);
  EXPECT_FALSE(occ.test(5));
  occ.mark(5, 3);
  EXPECT_TRUE(occ.test(5));
  EXPECT_TRUE(occ.test(7));
  EXPECT_FALSE(occ.test(8));
  EXPECT_TRUE(occ.anyBusy(4, 2));
  EXPECT_FALSE(occ.anyBusy(8, 10));
}

TEST(CycleOccupancy, ProbesBeyondCeilingReportBusy) {
  CycleOccupancy occ(10);
  // A cycle that can never exist is never free — no resize-on-probe.
  EXPECT_TRUE(occ.test(10));
  EXPECT_TRUE(occ.test(1u << 30));
  EXPECT_TRUE(occ.anyBusy(9, 2));    // window straddles the ceiling
  EXPECT_TRUE(occ.anyBusy(100, 1));
}

TEST(CycleOccupancy, FirstFreeStopsAtCeiling) {
  CycleOccupancy occ(4);
  occ.mark(0, 4);  // fully saturated
  EXPECT_EQ(occ.firstFreeAtOrAfter(0), std::nullopt);
  CycleOccupancy half(4);
  half.mark(0, 2);
  EXPECT_EQ(half.firstFreeAtOrAfter(0), std::optional<unsigned>(2));
  EXPECT_EQ(half.firstFreeAtOrAfter(4), std::nullopt);
}

TEST(CycleOccupancy, DownwardWindowScanTerminatesAtZero) {
  // The underflow regression: a downward scan from a low cycle with every
  // candidate busy must return nullopt, not wrap past 0.
  CycleOccupancy occ(8);
  occ.mark(0, 8);
  EXPECT_EQ(occ.lastFreeWindowAtOrBefore(3, 2), std::nullopt);
  CycleOccupancy open(8);
  EXPECT_EQ(open.lastFreeWindowAtOrBefore(3, 2), std::optional<unsigned>(3));
  open.mark(3, 2);
  EXPECT_EQ(open.lastFreeWindowAtOrBefore(3, 2), std::optional<unsigned>(1));
  open.mark(0, 3);
  EXPECT_EQ(open.lastFreeWindowAtOrBefore(3, 2), std::nullopt);
}

TEST(CycleSlots, SharedValueAndCeiling) {
  CycleSlots<unsigned> slots(10);
  EXPECT_TRUE(slots.freeFor(4, 7u));
  slots.claim(4, 7u);
  EXPECT_TRUE(slots.freeFor(4, 7u));    // same value may share the cycle
  EXPECT_FALSE(slots.freeFor(4, 8u));   // a different one may not
  EXPECT_FALSE(slots.freeFor(10, 7u));  // beyond the ceiling: never usable
  ASSERT_NE(slots.get(4), nullptr);
  EXPECT_EQ(*slots.get(4), 7u);
  EXPECT_EQ(slots.get(5), nullptr);
}

TEST(SmallVector, InlineThenSpillPreservesContents) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);  // still inline
  v.push_back(4);           // spills to the heap
  v.push_back(5);
  EXPECT_EQ(v.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(v.back(), 5);
}

TEST(SmallVector, PopBackAndClearAcrossSpillBoundary) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 5; ++i) v.push_back(i);
  v.pop_back();
  v.pop_back();
  v.pop_back();  // back below the inline capacity, stays spilled
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 1);
  v.push_back(7);
  EXPECT_EQ(v.back(), 7);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(9);  // inline again after clear
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 9);
}

TEST(SmallVector, CopyAssignIsDeep) {
  SmallVector<int, 2> a;
  for (int i = 0; i < 3; ++i) a.push_back(i);
  SmallVector<int, 2> b;
  b = a;
  a.pop_back();
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.back(), 2);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) pool.submit([&sum, i] { sum += i; });
  pool.wait();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ParallelFor, CoversEachIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> hits(64);
    parallelFor(hits.size(), threads,
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
  }
}

TEST(ParallelFor, RethrowsFirstExceptionAfterEveryIndexRan) {
  std::atomic<int> completed{0};
  EXPECT_THROW(parallelFor(64, 4,
                           [&](std::size_t i) {
                             if (i == 17) throw Error("index 17 failed");
                             completed.fetch_add(1);
                           }),
               Error);
  EXPECT_EQ(completed.load(), 63) << "a throwing index stops no other index";
}

TEST(Log2Histogram, EmptyHistogramReportsZeros) {
  Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.maxUs(), 0u);
  EXPECT_EQ(h.meanUs(), 0.0);
  EXPECT_EQ(h.quantileUs(0.5), 0.0);
  EXPECT_EQ(h.quantileUs(0.99), 0.0);
}

TEST(Log2Histogram, ExactStatsAndMonotoneQuantiles) {
  Log2Histogram h;
  for (std::uint64_t us = 1; us <= 1000; ++us) h.record(us);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.maxUs(), 1000u);
  EXPECT_DOUBLE_EQ(h.meanUs(), 500.5);
  // Bucketed quantiles are estimates; for a uniform 1..1000 ramp they must
  // land within one power-of-two bucket of the true value and be monotone.
  const double p50 = h.quantileUs(0.50);
  const double p90 = h.quantileUs(0.90);
  const double p99 = h.quantileUs(0.99);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1023.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, 1000.0) << "quantiles are capped at the observed max";
  EXPECT_DOUBLE_EQ(h.quantileUs(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantileUs(1.0), 1000.0);
}

TEST(Log2Histogram, SkewedTailSeparatesP50FromP99) {
  Log2Histogram h;
  for (int i = 0; i < 99; ++i) h.record(100);    // fast bulk
  h.record(1u << 20);                            // one ~1 s straggler
  const double p50 = h.quantileUs(0.50);
  const double p99 = h.quantileUs(0.99);
  EXPECT_LT(p50, 200.0);
  EXPECT_GT(p99, 1000.0) << "the tail must be visible at p99";
  EXPECT_EQ(h.maxUs(), 1u << 20);
}

TEST(Log2Histogram, MergeMatchesCombinedRecording) {
  Log2Histogram a;
  Log2Histogram b;
  Log2Histogram both;
  for (std::uint64_t us : {3u, 17u, 200u}) {
    a.record(us);
    both.record(us);
  }
  for (std::uint64_t us : {9000u, 120u}) {
    b.record(us);
    both.record(us);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.maxUs(), both.maxUs());
  EXPECT_DOUBLE_EQ(a.meanUs(), both.meanUs());
  EXPECT_DOUBLE_EQ(a.quantileUs(0.5), both.quantileUs(0.5));
  EXPECT_DOUBLE_EQ(a.quantileUs(0.99), both.quantileUs(0.99));
}

TEST(Log2Histogram, HugeSamplesClampIntoTheLastBucket) {
  Log2Histogram h;
  h.record(~0ull);  // must not index out of bounds
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.maxUs(), ~0ull);
  EXPECT_GT(h.quantileUs(0.5), 0.0);
}

TEST(Log2Histogram, MergeWithEmptyIsIdentityBothWays) {
  Log2Histogram h;
  Log2Histogram empty;
  for (std::uint64_t us : {5u, 77u, 1900u}) h.record(us);
  Log2Histogram merged = h;
  merged.merge(empty);
  EXPECT_EQ(merged.count(), h.count());
  EXPECT_EQ(merged.maxUs(), h.maxUs());
  EXPECT_DOUBLE_EQ(merged.quantileUs(0.99), h.quantileUs(0.99));
  empty.merge(h);
  EXPECT_EQ(empty.count(), h.count());
  EXPECT_DOUBLE_EQ(empty.meanUs(), h.meanUs());
}

TEST(Log2Histogram, SingleBucketQuantilesInterpolateWithinSpan) {
  // All samples land in bucket 5 ([32, 63] µs): every quantile must stay
  // inside that bucket's span and never exceed the observed max.
  Log2Histogram h;
  for (std::uint64_t us = 32; us <= 60; ++us) h.record(us);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const double v = h.quantileUs(q);
    EXPECT_GE(v, 32.0) << "q=" << q;
    EXPECT_LE(v, 60.0) << "q=" << q;
  }
  EXPECT_LE(h.quantileUs(0.5), h.quantileUs(0.99));
}

TEST(Log2Histogram, QuantileClampsOutOfRangeArguments) {
  Log2Histogram h;
  h.record(10);
  h.record(40);
  EXPECT_DOUBLE_EQ(h.quantileUs(-1.0), h.quantileUs(0.0));
  EXPECT_DOUBLE_EQ(h.quantileUs(2.0), h.quantileUs(1.0));
}

TEST(Log2Histogram, SaturatingSumSurvivesHugeSampleMerges) {
  // Two near-max samples overflow the 64-bit sum (wrapping, by design —
  // unsigned arithmetic); count, max, and quantiles must stay sane.
  Log2Histogram a;
  Log2Histogram b;
  a.record(~0ull);
  b.record(~0ull - 1);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.maxUs(), ~0ull);
  EXPECT_EQ(a.bucket(Log2Histogram::kBuckets - 1), 2u);
  EXPECT_GT(a.quantileUs(0.5), 0.0);
}

TEST(AtomicHistogram, SnapshotMatchesSingleThreadedRecording) {
  AtomicHistogram ah;
  Log2Histogram expect;
  for (std::uint64_t us : {1u, 2u, 3u, 100u, 5000u, 5000u}) {
    ah.record(us);
    expect.record(us);
  }
  const Log2Histogram snap = ah.snapshot();
  EXPECT_EQ(snap.count(), expect.count());
  EXPECT_EQ(snap.maxUs(), expect.maxUs());
  EXPECT_EQ(snap.sumUs(), expect.sumUs());
  EXPECT_DOUBLE_EQ(snap.quantileUs(0.5), expect.quantileUs(0.5));
}

TEST(AtomicHistogram, ConcurrentRecordLosesNothing) {
  // 8 threads × 10k records; also snapshots mid-flight so TSan exercises
  // the record/snapshot race the relaxed-atomic contract allows.
  AtomicHistogram ah;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&ah, &go, t] {
      while (!go.load()) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        ah.record((i % 64) + static_cast<std::uint64_t>(t));
    });
  go.store(true);
  const Log2Histogram racy = ah.snapshot();  // valid but possibly partial
  EXPECT_LE(racy.count(), kThreads * kPerThread);
  for (std::thread& t : threads) t.join();
  const Log2Histogram final = ah.snapshot();
  EXPECT_EQ(final.count(), kThreads * kPerThread);
  EXPECT_GE(final.maxUs(), 63u);
}

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  MetricsRegistry reg;
  Counter& a = reg.counter("cgra_x_total", "first help wins");
  Counter& b = reg.counter("cgra_x_total", "ignored on re-registration");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  AtomicHistogram& h1 = reg.histogram("cgra_y_us", "h");
  AtomicHistogram& h2 = reg.histogram("cgra_y_us", "h");
  EXPECT_EQ(&h1, &h2);
  Gauge& g1 = reg.gauge("cgra_z", "g");
  Gauge& g2 = reg.gauge("cgra_z", "g");
  EXPECT_EQ(&g1, &g2);
}

TEST(MetricsRegistry, PrometheusExpositionFormat) {
  MetricsRegistry reg;
  reg.counter("cgra_requests_total", "request lines read").inc(42);
  reg.gauge("cgra_queue_depth", "admitted requests in flight").set(-1);
  AtomicHistogram& h = reg.histogram("cgra_latency_us", "service latency");
  h.record(0);   // bucket 0, le="1"
  h.record(5);   // bucket 2, le="7"
  const std::string text = reg.renderPrometheus();
  EXPECT_NE(text.find("# HELP cgra_requests_total request lines read\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cgra_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("cgra_requests_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cgra_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("cgra_queue_depth -1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cgra_latency_us histogram\n"),
            std::string::npos);
  // Cumulative buckets up to the top populated one, then +Inf, sum, count.
  EXPECT_NE(text.find("cgra_latency_us_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("cgra_latency_us_bucket{le=\"7\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("cgra_latency_us_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("cgra_latency_us_sum 5\n"), std::string::npos);
  EXPECT_NE(text.find("cgra_latency_us_count 2\n"), std::string::npos);
  // Trailing empty buckets are elided: nothing past le="7" but +Inf.
  EXPECT_EQ(text.find("cgra_latency_us_bucket{le=\"15\"}"),
            std::string::npos);
}

TEST(MetricsRegistry, EmptyHistogramExposesOnlyInfBucket) {
  MetricsRegistry reg;
  reg.histogram("cgra_idle_us", "never recorded");
  const std::string text = reg.renderPrometheus();
  EXPECT_NE(text.find("cgra_idle_us_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("cgra_idle_us_count 0\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SHA-256: both engines against FIPS 180-4 and against each other.

enum class Engine { Scalar, ShaNi };

class Sha256Engine : public ::testing::TestWithParam<Engine> {
protected:
  void SetUp() override {
    if (GetParam() == Engine::Scalar) {
      compress_ = sha256_detail::compressScalar;
      return;
    }
#ifdef CGRA_SHA256_HAVE_SHANI
    if (sha256_detail::shaNiSupported()) {
      compress_ = sha256_detail::compressShaNi;
      return;
    }
#endif
    GTEST_SKIP() << "this CPU has no SHA extensions";
  }

  Sha256 hasher() const { return Sha256(compress_); }

  std::string hexOf(const std::string& data) const {
    Sha256 h = hasher();
    h.update(data);
    return h.hex();
  }

private:
  sha256_detail::CompressFn compress_ = nullptr;
};

std::string scalarHexOf(const std::string& data) {
  Sha256 h(sha256_detail::compressScalar);
  h.update(data);
  return h.hex();
}

TEST_P(Sha256Engine, FipsVectors) {
  EXPECT_EQ(hexOf(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hexOf("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hexOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hexOf("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                  "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(hexOf(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Engine, FinalizedDigestIsStable) {
  Sha256 h = hasher();
  h.update("abc");
  const std::string first = h.hex();
  EXPECT_EQ(h.hex(), first);
  h.reset();
  h.update("ab");
  h.update(nullptr, 0);  // an empty update leaves the state alone
  h.update("c");
  EXPECT_EQ(h.hex(), first);
}

std::string randomBytes(Rng& rng, std::size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.next());
  return out;
}

/// Feeds `data` to `h` in pieces cut at random points.
void updateInRandomPieces(Sha256& h, const std::string& data, Rng& rng) {
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t n = static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(data.size() - pos)));
    h.update(data.data() + pos, n);
    pos += n;
  }
}

TEST_P(Sha256Engine, AgreesWithScalarOnRandomSplits) {
  // The reference is the scalar engine over the whole input in one update;
  // the default one-shot helper must agree too.
  Rng rng(0x5A256);
  std::vector<std::size_t> lengths = {0, 1, 55, 56, 63, 64, 65, 119, 120,
                                      127, 128, 4095, 4096};
  while (lengths.size() < 300)
    lengths.push_back(static_cast<std::size_t>(rng.range(0, 4096)));
  for (const std::size_t len : lengths) {
    const std::string data = randomBytes(rng, len);
    const std::string expected = scalarHexOf(data);
    EXPECT_EQ(Sha256::hexOf(data), expected) << "one-shot, length " << len;
    Sha256 split = hasher();
    updateInRandomPieces(split, data, rng);
    EXPECT_EQ(split.hex(), expected) << "split, length " << len;
  }
}

TEST_P(Sha256Engine, UpdateU64MatchesLittleEndianBytes) {
  // Interleaves updateU64 words with byte runs of random length, so the
  // words land at every offset within a block, including across a block
  // boundary; the reference hashes the same bytes in one scalar update.
  Rng rng(0x64);
  for (int trial = 0; trial < 200; ++trial) {
    Sha256 h = hasher();
    std::string bytes;
    const int pieces = static_cast<int>(rng.range(0, 600));
    for (int i = 0; i < pieces; ++i) {
      if (rng.chance(2, 3)) {
        const std::uint64_t v = rng.next();
        h.updateU64(v);
        for (unsigned b = 0; b < 8; ++b)
          bytes.push_back(static_cast<char>(v >> (8 * b)));
      } else {
        const std::string run =
            randomBytes(rng, static_cast<std::size_t>(rng.range(0, 70)));
        h.update(run);
        bytes += run;
      }
    }
    EXPECT_EQ(h.hex(), scalarHexOf(bytes)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, Sha256Engine,
                         ::testing::Values(Engine::Scalar, Engine::ShaNi),
                         [](const auto& info) {
                           return info.param == Engine::Scalar ? "Scalar"
                                                               : "ShaNi";
                         });

TEST(Sha256, ConcurrentFirstUseAgrees) {
  // Eight threads race the one-time engine selection (each ctest case is
  // its own process, so this is the first hash) and must agree.
  const std::string data(10000, 'x');
  std::vector<std::string> digests(8);
  std::vector<std::thread> threads;
  std::atomic<bool> go{false};
  for (std::size_t t = 0; t < digests.size(); ++t)
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      digests[t] = Sha256::hexOf(data);
    });
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  for (const std::string& d : digests) EXPECT_EQ(d, scalarHexOf(data));
}

}  // namespace
}  // namespace cgra
