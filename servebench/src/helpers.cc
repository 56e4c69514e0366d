#include "helpers.h"

#include <algorithm>
#include <cmath>

namespace servebench {

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const int64_t n = static_cast<int64_t>(sorted.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  return sorted[rank - 1];
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  return n - rank;
}

double Unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::vector<int64_t> PoissonArrivals(uint64_t seed, double rate,
                                     double seconds) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> out;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - Unit(rng)) / rate;
    if (t >= seconds) break;
    out.push_back(static_cast<int64_t>(t * 1e6));
  }
  return out;
}

Zipf::Zipf(int n, double s) {
  cdf_.reserve(n);
  double sum = 0;
  for (int k = 1; k <= n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(sum);
  }
  for (double& c : cdf_) c /= sum;
}

int Zipf::Sample(std::mt19937_64& rng) const {
  const double u = Unit(rng);
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<int>(it - cdf_.begin());
}

Fingerprint FingerprintOf(const std::vector<int32_t>& sorted_ids) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the id bytes
  for (int32_t id : sorted_ids) {
    uint32_t v = static_cast<uint32_t>(id);
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return {static_cast<int64_t>(sorted_ids.size()), h};
}

void BracketChecker::Add(int64_t id, uint64_t v0, uint64_t v1, int query,
                         Fingerprint got) {
  reads_.push_back({id, v0, v1, query, got});
}

std::vector<int> BracketChecker::Needed(uint64_t v) const {
  std::vector<int> out;
  for (const Read& r : reads_) {
    if (!r.matched && r.v0 <= v && v <= r.v1) out.push_back(r.query);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void BracketChecker::Resolve(uint64_t v,
                             const std::function<Fingerprint(int)>& oracle) {
  for (Read& r : reads_) {
    if (!r.matched && r.v0 <= v && v <= r.v1 && oracle(r.query) == r.got) {
      r.matched = true;
    }
  }
}

std::vector<int64_t> BracketChecker::Unmatched() const {
  std::vector<int64_t> out;
  for (const Read& r : reads_) {
    if (!r.matched) out.push_back(r.id);
  }
  return out;
}

uint64_t BracketChecker::max_version() const {
  uint64_t v = 0;
  for (const Read& r : reads_) v = std::max(v, r.v1);
  return v;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = -1;  // the merged run being extended
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (a >= b) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace servebench
