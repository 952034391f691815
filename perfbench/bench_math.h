// The benchmark's own arithmetic: exact percentiles with the sample-count
// rule, ratios that stay defined when a workload never exercises a layer,
// and the tracing overhead. Header-only so the self-tests
// (bench_math_test.cc) need nothing but this file.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace snapper::perfbench {

/// Nearest-rank percentile of `samples` (q in [0, 1]); 0 when empty. Sorts
/// a copy, so callers may pass samples in arrival order.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Samples strictly above the nearest-rank q-percentile of `n` samples.
inline size_t SamplesBeyond(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return n - std::min(n, static_cast<size_t>(std::max(rank, 0.0)));
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one outlier decides the number.
inline constexpr size_t kMinSamplesBeyond = 10;

/// The percentile ladder reported as a timing's tail.
inline constexpr double kTailLadder[] = {0.999, 0.99, 0.95, 0.9, 0.5};

/// True when the q-percentile of `n` samples has enough samples beyond it.
inline bool Reportable(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

/// The highest percentile of kTailLadder that `n` samples can report, or 0
/// when even the median has fewer than kMinSamplesBeyond samples above it.
inline double HighestReportablePercentile(size_t n) {
  for (double q : kTailLadder) {
    if (Reportable(n, q)) return q;
  }
  return 0;
}

/// num / den, or 0 when the denominator is 0 (a layer the workload never
/// used, such as prepares per ACT on a PACT-only workload).
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Share of throughput lost to tracing: 1 - traced / untraced. 0 when the
/// untraced reference committed nothing (no base to compare against).
inline double OverheadFrac(double traced_tps, double untraced_tps) {
  return untraced_tps <= 0 ? 0 : 1.0 - traced_tps / untraced_tps;
}

}  // namespace snapper::perfbench
