// Helpers of the serving benchmark: latency percentiles, seeded arrival
// schedules, answer fingerprints, the version-bracket answer checker and
// span self-time arithmetic (all deterministic and unit-tested by
// selftest.cc). Nothing here touches the library.

#ifndef SERVEBENCH_HELPERS_H_
#define SERVEBENCH_HELPERS_H_

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

namespace servebench {

// ---- percentiles ----

/// Nearest-rank percentile of `samples` (sorted ascending): the value at
/// rank ceil(q * n). Returns 0 for an empty set.
double Percentile(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-percentile of n samples.
int64_t SamplesBeyond(int64_t n, double q);

/// The reporting rule: a percentile is reported only when at least ten
/// samples lie beyond it.
inline bool PercentileReportable(int64_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

// ---- seeded schedules ----

/// Uniform double in [0, 1) from 53 random bits (identical on every
/// platform, unlike std::uniform_real_distribution).
double Unit(std::mt19937_64& rng);

/// Open-loop Poisson arrivals at `rate` per second over [0, seconds):
/// arrival offsets in microseconds, ascending.
std::vector<int64_t> PoissonArrivals(uint64_t seed, double rate,
                                     double seconds);

/// Zipf(s) sampler over ranks 0..n-1 (rank 0 most popular).
class Zipf {
 public:
  Zipf(int n, double s);
  int Sample(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---- answers ----

/// A compact answer identity: node count plus a 64-bit hash of the sorted
/// node ids. Two answers compare equal iff both fields do.
struct Fingerprint {
  int64_t size = 0;
  uint64_t hash = 0;
  bool operator==(const Fingerprint& o) const {
    return size == o.size && hash == o.hash;
  }
};
Fingerprint FingerprintOf(const std::vector<int32_t>& sorted_ids);

/// Reads whose answer must equal the oracle at SOME document version
/// between the version observed before Submit (v0) and after the answer
/// resolved (v1). The checker walks versions upward; at each version the
/// caller supplies the oracle for the queries still open there.
class BracketChecker {
 public:
  void Add(int64_t id, uint64_t v0, uint64_t v1, int query, Fingerprint got);

  /// Distinct queries with an unmatched read whose bracket contains v.
  std::vector<int> Needed(uint64_t v) const;

  /// Matches the unmatched reads open at v against oracle(query).
  void Resolve(uint64_t v, const std::function<Fingerprint(int)>& oracle);

  /// Reads no version of their bracket explained (ids, in Add order).
  std::vector<int64_t> Unmatched() const;

  uint64_t max_version() const;

 private:
  struct Read {
    int64_t id;
    uint64_t v0, v1;
    int query;
    Fingerprint got;
    bool matched = false;
  };
  std::vector<Read> reads_;
};

// ---- spans ----

/// One traced call into a layer: [start, end) in nanoseconds, the index of
/// the enclosing span (-1 for a root) and the request it served.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// The layer a span belongs to: its name up to the first '.'.
std::string LayerOf(const std::string& span_name);

}  // namespace servebench

#endif  // SERVEBENCH_HELPERS_H_
