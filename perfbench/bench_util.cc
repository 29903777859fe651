#include "perfbench/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "src/hsim/types.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {
volatile std::uint64_t calibration_sink = 0;  // keeps the loop's work observable
}  // namespace

double CalibrationSeconds() {
  constexpr std::size_t kQueue = 4096;
  constexpr std::size_t kTableMask = (std::size_t{1} << 17) - 1;
  constexpr int kSteps = 800'000;
  static std::vector<std::uint64_t> table(kTableMask + 1, 1);
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> queue;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 11;
  };
  for (std::size_t i = 0; i < kQueue; ++i) {
    queue.push(next());
  }
  const double t0 = NowSeconds();
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    const std::uint64_t v = next();
    acc += queue.top() ^ table[v & kTableMask];
    queue.pop();
    queue.push(v + (acc & 0xff));
    table[(v >> 20) & kTableMask] += acc;
  }
  const double elapsed = NowSeconds() - t0;
  calibration_sink = acc;
  return elapsed;
}

double TickSamples::PercentileTicks(double percent) const {
  if (values_.empty()) {
    return 0;
  }
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  const double target = std::clamp(percent, 0.0, 100.0) / 100.0;
  double prev_value = 0;
  double prev_mid = -1;  // mid-CDF of the previous distinct value
  std::size_t i = 0;
  while (i < values_.size()) {
    std::size_t j = i;
    while (j < values_.size() && values_[j] == values_[i]) {
      ++j;
    }
    const double value = static_cast<double>(values_[i]);
    const double mid = (static_cast<double>(i) + static_cast<double>(j - i) / 2.0) / n;
    if (target <= mid) {
      if (prev_mid < 0) {
        return value;
      }
      return prev_value + (value - prev_value) * (target - prev_mid) / (mid - prev_mid);
    }
    prev_value = value;
    prev_mid = mid;
    i = j;
  }
  return prev_value;
}

double TickSamples::PercentileUs(double percent) const {
  return PercentileTicks(percent) / static_cast<double>(hsim::kCyclesPerMicrosecond);
}

std::string CheckPercentileConvention() {
  hload::LatencyRecorder r;
  for (std::uint64_t ns = 1; ns <= 100'000; ++ns) {
    r.Record(ns);
  }
  // The recorder's buckets are within 1/32 relative error above 32 ns.
  const struct {
    double percent;
    double expect_ns;
  } cases[] = {{50, 50'000}, {99, 99'000}, {99.9, 99'900}};
  std::ostringstream err;
  for (const auto& c : cases) {
    const double got = static_cast<double>(r.PercentileNs(c.percent));
    if (std::fabs(got - c.expect_ns) > c.expect_ns / 32.0) {
      err << "PercentileNs(" << c.percent << ") = " << got << " ns, expected ~" << c.expect_ns
          << " ns; ";
    }
  }
  // A fraction passed where a percent is expected must not read as a tail.
  if (r.PercentileNs(0.99) > 2'000) {
    err << "PercentileNs(0.99) is not the p1; ";
  }

  TickSamples t;
  for (std::uint64_t v = 1; v <= 100'000; ++v) {
    t.Record(v);
  }
  for (const auto& c : cases) {
    const double got = t.PercentileTicks(c.percent);
    if (std::fabs(got - c.expect_ns) > 1.0) {
      err << "TickSamples p" << c.percent << " = " << got << ", expected " << c.expect_ns
          << "; ";
    }
  }
  // Discrete case: half the mass at 10 ticks, half at 20.  The mid-quantile
  // median sits between the atoms; the tails sit on them.
  TickSamples d;
  for (int i = 0; i < 500; ++i) {
    d.Record(10);
    d.Record(20);
  }
  if (d.PercentileTicks(50) != 15.0 || d.PercentileTicks(10) != 10.0 ||
      d.PercentileTicks(99) != 20.0) {
    err << "TickSamples mid-quantiles wrong on a two-atom distribution; ";
  }
  return err.str();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::uint32_t SpanLog::Intern(const std::string& name) {
  const auto [it, inserted] =
      name_ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) {
    names_.push_back(name);
  }
  return it->second;
}

void SpanLog::Add(const std::string& name, std::uint64_t id, std::uint64_t parent,
                  std::uint64_t request, std::uint64_t start, std::uint64_t end) {
  spans_.push_back(Span{Intern(name), id, parent, request, start, end});
}

std::map<std::string, std::uint64_t> SpanLog::SelfTicksByName() const {
  std::unordered_map<std::uint64_t, std::uint64_t> child_ticks;
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_ticks[s.parent] += s.end - s.start;
    }
  }
  std::map<std::string, std::uint64_t> self;
  for (const Span& s : spans_) {
    const std::uint64_t dur = s.end - s.start;
    const auto it = child_ticks.find(s.id);
    const std::uint64_t children = it == child_ticks.end() ? 0 : it->second;
    self[names_[s.name]] += dur > children ? dur - children : 0;
  }
  return self;
}

bool SpanLog::WriteJson(const std::string& path, double ticks_per_us) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"ticks_per_us\": %g, \"names\": [", ticks_per_us);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", names_[i].c_str());
  }
  std::fprintf(f, "],\n\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "[%u,%llu,%llu,%llu,%llu,%llu]%s\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end), i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
