// Shared pieces of perfbench: the result document, host timing, percentile
// helpers, the in-memory span log of the traced run, and the determinism
// digest.
//
// Percentile convention.  Every percentile here takes a *percent* (50, 99,
// 99.9), never a fraction -- TickSamples in this benchmark, and
// hload::LatencyRecorder::PercentileNs in the layers.  CheckPercentileConvention
// pins both on known distributions at the start of every run, so a caller
// passing 0.99 (which yields the p1) cannot go unnoticed.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/hload/recorder.h"

namespace hflight {
class FlightRecorder;
}  // namespace hflight
namespace hprof {
class SiteTable;
}  // namespace hprof

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  // span exports of the traced run
};

struct Metric {
  double value = 0;
  std::string unit;
};

// What one run reports.  `attempted`/`failed` count the reference-rate
// operations (the workload proper); ladder and overload rungs are
// measurements and feed the metrics instead.
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> notes;  // context printed next to the result
  std::vector<std::string> violations;  // correctness failures; any -> exit 1

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& name, double value) { notes[name] = value; }
  void Violation(const std::string& what) { violations.push_back(what); }
};

inline double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values);

// Host time on a shared machine drifts by tens of percent between runs, with
// no steal time: the thread's CPU time drifts with it.  Every host time this
// benchmark reports is therefore *calibrated*: the median of its measured
// samples x kCalibrationNominalS / the median time of a fixed CPU workload (a
// binary-heap queue plus scattered table reads, written here, touching no
// repository code) run between the measured repeats.  Medians on both sides
// keep a short burst from skewing either.  The result is seconds on a host
// whose calibration loop takes kCalibrationNominalS.
inline constexpr double kCalibrationNominalS = 0.05;
double CalibrationSeconds();

// Collects calibration runs and turns raw host-time samples into calibrated
// seconds.  The first calibration run of a process (cold table) is discarded.
class HostClock {
 public:
  HostClock() { CalibrationSeconds(); }
  void Calibrate() { calibrations_.push_back(CalibrationSeconds()); }
  double Calibrated(const std::vector<double>& raw_samples) const {
    return Median(raw_samples) * kCalibrationNominalS / Median(calibrations_);
  }

 private:
  std::vector<double> calibrations_;
};

// Simulated latencies, kept exactly in integer ticks.
//
// Percentiles are mid-quantiles (Parzen): the empirical CDF is evaluated at
// the middle of each value's jump and interpolated linearly between distinct
// values.  For distinct samples this is the usual interpolated quantile; for
// tick-quantised latencies, where thousands of ops share one uncontended path
// cost, it still moves with the share of ops at each value instead of
// sticking to the atom a nearest-rank percentile would return.
class TickSamples {
 public:
  void Record(std::uint64_t ticks) {
    values_.push_back(ticks);
    sorted_ = false;
  }
  std::size_t count() const { return values_.size(); }
  // `percent` is on the percent scale: 50, 99, 99.9.  Returns ticks.
  double PercentileTicks(double percent) const;
  double PercentileUs(double percent) const;

 private:
  mutable std::vector<std::uint64_t> values_;
  mutable bool sorted_ = true;
};

// Returns an empty string when both percentile paths the repository uses --
// hload::LatencyRecorder::PercentileNs and TickSamples -- behave as percent
// scale on known distributions, else a description of the defect.
std::string CheckPercentileConvention();

// Peak resident set of this process (VmHWM), MiB.
double PeakRssMb();

// Order-sensitive 64-bit fold (splitmix finaliser) for determinism digests.
inline std::uint64_t Fold(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

// In-memory spans of the traced run, one per layer boundary the benchmark
// calls into.  Times are simulated ticks.  A span's self time is its
// duration minus the durations of its children (children never overlap here:
// each parent awaits one call at a time).
class SpanLog {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t request = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };

  std::uint64_t NextId() { return ++last_id_; }
  void Add(const std::string& name, std::uint64_t id, std::uint64_t parent,
           std::uint64_t request, std::uint64_t start, std::uint64_t end);

  // Total self time per span name, in ticks.
  std::map<std::string, std::uint64_t> SelfTicksByName() const;
  // Writes {"ticks_per_us", "names", "spans": [[name, id, parent, request,
  // start, end], ...]} to `path`.  Returns false on I/O failure.
  bool WriteJson(const std::string& path, double ticks_per_us) const;

 private:
  std::uint32_t Intern(const std::string& name);

  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_ids_;
};

// Observers of a traced run; all null in untraced runs.
struct Tracing {
  SpanLog* spans = nullptr;
  hflight::FlightRecorder* flight = nullptr;
  hprof::SiteTable* sites = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
