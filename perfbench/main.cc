// perfbench: one binary for every workload of the repository's benchmark.
//
//   perfbench --workload <mesh_read|mesh_write|kernel_faults> --seed N
//             --seconds S --trace <0|1> [--out-dir DIR]
//   perfbench --selftest    (only the percentile-convention check)
//
// Prints an "env" line (host and build facts), a "notes" line (context such
// as sample counts) and, last, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any correctness check fails, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/bench_util.h"
#include "perfbench/workloads.h"
#include "src/hlock/lock_free.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <mesh_read|mesh_write|kernel_faults> "
               "--seed N --seconds S --trace <0|1> [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    const std::string defect = perfbench::CheckPercentileConvention();
    std::printf("percentile convention: %s\n", defect.empty() ? "ok" : defect.c_str());
    return defect.empty() ? 0 : 1;
  }
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  if (opt.seconds <= 0) {
    return Usage("--seconds must be positive");
  }

  perfbench::Report report;
  const std::string convention = perfbench::CheckPercentileConvention();
  if (!convention.empty()) {
    report.Violation("percentile convention: " + convention);
  }
  if (opt.workload == "mesh_read") {
    perfbench::RunMeshRead(opt, &report);
  } else if (opt.workload == "mesh_write") {
    perfbench::RunMeshWrite(opt, &report);
  } else if (opt.workload == "kernel_faults") {
    perfbench::RunKernelFaults(opt, &report);
  } else {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (!opt.trace) {
    report.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  }

  const hlock::LockFreeFreeList probe;
  std::printf("{\"env\": {\"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
              "\"lockfree_freelist_is_lock_free\": %s, \"workload\": %s, \"seed\": %llu, "
              "\"trace\": %d}}\n",
              std::thread::hardware_concurrency(), JsonString(PERFBENCH_COMPILER).c_str(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str(),
              probe.head_is_lock_free() ? "true" : "false", JsonString(opt.workload).c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  std::string notes;
  for (const auto& [name, value] : report.notes) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    notes += (notes.empty() ? "" : ", ") + JsonString(name) + ": " + buf;
  }
  std::printf("{\"notes\": {%s}}\n", notes.c_str());
  for (const std::string& v : report.violations) {
    std::fprintf(stderr, "perfbench: VIOLATION: %s\n", v.c_str());
  }

  std::string metrics;
  for (const auto& [name, m] : report.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ", ") + JsonString(name) + ": {\"value\": " + buf +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  const bool correct = report.violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}
