// Process-wide telemetry primitives (DESIGN.md §13): named atomic counters,
// gauges, and mergeable log2 histograms collected in a `MetricsRegistry`
// with Prometheus-style text exposition.
//
// Two histogram flavours share one bucket layout (bucket i covers
// [2^i, 2^(i+1)) µs, bucket 0 covers 0–1 µs, 40 buckets ≈ 2^40 µs):
//
//  - `Log2Histogram` is the plain single-writer structure: O(1) record, a
//    few hundred bytes, never allocates, mergeable across threads that
//    each own a local copy. Quantiles are
//    estimated by linear interpolation inside the containing bucket —
//    exact enough for p50/p99 reporting and, unlike a reservoir, never
//    degrades under millions of samples.
//  - `AtomicHistogram` is the shared multi-writer flavour: every field is a
//    relaxed atomic so hot paths record without taking any lock, and
//    `snapshot()` materialises a `Log2Histogram` for quantile queries.
//    Snapshots are racy-consistent (fields are read independently), which
//    is the standard contract for scrape-style metrics.
//
// The registry hands out stable references (deque-backed) so callers can
// cache `Counter&`/`AtomicHistogram&` at setup and record lock-free
// forever after; registration itself is mutex-guarded and idempotent by
// name.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

namespace cgra {

class Log2Histogram {
public:
  static constexpr std::size_t kBuckets = 40;  ///< covers up to ~2^40 µs

  void record(std::uint64_t us) {
    ++buckets_[bucketFor(us)];
    ++count_;
    sumUs_ += us;
    if (us > maxUs_) maxUs_ = us;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t maxUs() const { return maxUs_; }
  std::uint64_t sumUs() const { return sumUs_; }
  std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }
  double meanUs() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sumUs_) /
                             static_cast<double>(count_);
  }

  /// Estimated value at quantile `q` in [0, 1]: the sample rank is located
  /// in its bucket and interpolated linearly across the bucket's span.
  double quantileUs(double q) const {
    if (count_ == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Rank of the target sample, 1-based; q=0 maps to the first sample.
    const double rank = q * static_cast<double>(count_ - 1) + 1.0;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      const std::uint64_t lo = i == 0 ? 0 : (1ull << i);
      const std::uint64_t hi = (1ull << (i + 1)) - 1;
      if (rank <= static_cast<double>(seen + buckets_[i])) {
        const double within =
            (rank - static_cast<double>(seen)) /
            static_cast<double>(buckets_[i]);
        double v = static_cast<double>(lo) +
                   within * static_cast<double>(hi - lo);
        const double cap = static_cast<double>(maxUs_);
        return v > cap ? cap : v;
      }
      seen += buckets_[i];
    }
    return static_cast<double>(maxUs_);
  }

  void merge(const Log2Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sumUs_ += other.sumUs_;
    if (other.maxUs_ > maxUs_) maxUs_ = other.maxUs_;
  }

  static std::size_t bucketFor(std::uint64_t us) {
    std::size_t b = 0;
    while (us > 1 && b + 1 < kBuckets) {
      us >>= 1;
      ++b;
    }
    return b;
  }

private:
  friend class AtomicHistogram;  // snapshot() bulk-loads bucket images

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sumUs_ = 0;
  std::uint64_t maxUs_ = 0;
};

/// Multi-writer histogram: record() is lock-free (relaxed atomics), safe to
/// call concurrently from every worker thread on every request.
class AtomicHistogram {
public:
  void record(std::uint64_t us) {
    buckets_[Log2Histogram::bucketFor(us)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sumUs_.fetch_add(us, std::memory_order_relaxed);
    std::uint64_t prev = maxUs_.load(std::memory_order_relaxed);
    while (prev < us && !maxUs_.compare_exchange_weak(
                            prev, us, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Racy-consistent copy for quantile queries and exposition: each field
  /// is read independently with relaxed loads, so a snapshot taken during
  /// concurrent record() calls may be off by in-flight samples but is
  /// always a valid histogram.
  Log2Histogram snapshot() const {
    Log2Histogram out;
    std::uint64_t bucketTotal = 0;
    for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
      out.buckets_[i] = buckets_[i].load(std::memory_order_relaxed);
      bucketTotal += out.buckets_[i];
    }
    // Keep count consistent with the bucket image we actually read (the
    // independent count_ cell may be ahead or behind by in-flight records).
    out.count_ = bucketTotal;
    out.sumUs_ = sumUs_.load(std::memory_order_relaxed);
    out.maxUs_ = maxUs_.load(std::memory_order_relaxed);
    return out;
  }

private:
  std::array<std::atomic<std::uint64_t>, Log2Histogram::kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sumUs_{0};
  std::atomic<std::uint64_t> maxUs_{0};
};

class Counter {
public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

private:
  std::atomic<std::int64_t> v_{0};
};

/// Named metric registry with Prometheus text exposition. Registration is
/// mutex-guarded and idempotent by name; returned references stay valid for
/// the registry's lifetime (deque storage), so hot paths cache them once.
class MetricsRegistry {
public:
  Counter& counter(const std::string& name, const std::string& help) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& e : counters_)
      if (e.name == name) return e.metric;
    counters_.emplace_back(name, help);
    return counters_.back().metric;
  }

  Gauge& gauge(const std::string& name, const std::string& help) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& e : gauges_)
      if (e.name == name) return e.metric;
    gauges_.emplace_back(name, help);
    return gauges_.back().metric;
  }

  AtomicHistogram& histogram(const std::string& name,
                             const std::string& help) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& e : histograms_)
      if (e.name == name) return e.metric;
    histograms_.emplace_back(name, help);
    return histograms_.back().metric;
  }

  /// Prometheus text exposition format, version 0.0.4: `# HELP` / `# TYPE`
  /// preamble per metric; histograms expand to cumulative `_bucket{le=...}`
  /// series plus `_sum` and `_count`. Empty trailing buckets are elided
  /// (only buckets up to the highest populated one, then `+Inf`).
  std::string renderPrometheus() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream out;
    for (const auto& e : counters_) {
      out << "# HELP " << e.name << ' ' << e.help << '\n';
      out << "# TYPE " << e.name << " counter\n";
      out << e.name << ' ' << e.metric.value() << '\n';
    }
    for (const auto& e : gauges_) {
      out << "# HELP " << e.name << ' ' << e.help << '\n';
      out << "# TYPE " << e.name << " gauge\n";
      out << e.name << ' ' << e.metric.value() << '\n';
    }
    for (const auto& e : histograms_) {
      const Log2Histogram snap = e.metric.snapshot();
      out << "# HELP " << e.name << ' ' << e.help << '\n';
      out << "# TYPE " << e.name << " histogram\n";
      std::size_t top = 0;
      for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i)
        if (snap.bucket(i) != 0) top = i;
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i <= top; ++i) {
        cumulative += snap.bucket(i);
        out << e.name << "_bucket{le=\"" << ((1ull << (i + 1)) - 1) << "\"} "
            << cumulative << '\n';
      }
      out << e.name << "_bucket{le=\"+Inf\"} " << snap.count() << '\n';
      out << e.name << "_sum " << snap.sumUs() << '\n';
      out << e.name << "_count " << snap.count() << '\n';
    }
    return out.str();
  }

private:
  template <typename M>
  struct Entry {
    // In-place constructible: atomic-backed metrics are non-copyable, so
    // the deque must emplace entries rather than push temporaries.
    Entry(std::string n, std::string h)
        : name(std::move(n)), help(std::move(h)) {}
    std::string name;
    std::string help;
    M metric;
  };

  mutable std::mutex mu_;
  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<AtomicHistogram>> histograms_;
};

}  // namespace cgra
