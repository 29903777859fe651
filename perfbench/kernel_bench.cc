// kernel_faults: the paper's own workload (Section 4.2 / Figure 7), run
// closed loop on one simulated 16-processor HECTOR with clusters of 4.
//
// The benchmark drives hkernel only through KernelSystem's public entry
// points (CreateProgram, PageFault, UnmapGlobal, IdleLoop, the per-CPU
// IrqPoint) with its own drivers, modelled on the mixed fault test: even
// processors run independent programs faulting on private pages; odd
// processors run one SPMD program in fault / barrier / unmap rounds over four
// shared pages homed at processor 1.  The seed picks each private fault's
// page, the user work between faults and each round's page order.
//
// A closed loop cannot be pushed past its client count, so its offered-load
// ladder is the number of active processors (Figure 7's x axis): capacity is
// the fault rate of the largest processor count in {16, 12, 8, 4} whose p99
// fault latency meets the SLO.  The 16-processor run is also the reference
// and the heaviest load the workload can offer, so its throughput is the
// overload goodput as well.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/hflight/flight.h"
#include "src/hkernel/kernel.h"
#include "src/hkernel/workloads.h"
#include "src/hprof/lock_site.h"
#include "src/hsim/engine.h"
#include "src/hsim/machine.h"
#include "src/hsim/random.h"
#include "src/hsim/types.h"

namespace perfbench {
namespace {

using hkernel::KernelSystem;
using hsim::Tick;

constexpr std::uint32_t kProcs = 16;
constexpr std::uint32_t kClusterSize = 4;
constexpr std::uint32_t kPrivatePages = 8;
constexpr std::uint32_t kSharedPages = 4;
constexpr std::uint32_t kActiveLadder[] = {16, 12, 8, 4};
constexpr double kSloP99Us = 2000.0;
const Tick kWarmup = hsim::UsToTicks(2'000);
const Tick kWindow = hsim::UsToTicks(1'000'000);
// Every fault must be done this long after the window closes.
const Tick kGrace = hsim::UsToTicks(50'000);


struct KernelResult {
  TickSamples latency;  // window faults, both kinds
  TickSamples fault_private;
  TickSamples fault_shared;
  TickSamples unmap;
  std::uint64_t window_faults = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  Tick lock_cycles = 0;  // over window faults
  std::uint64_t reserve_waits = 0;
  KernelSystem::Counters counters;
  halloc::CacheStats desc_cache;
  Tick bus_wait = 0;
  Tick mem_wait = 0;
  Tick ring_wait = 0;
  std::uint64_t loc_ring = 0;
  std::uint64_t loc_total = 0;
  std::uint64_t events = 0;
  double setup_s = 0;  // machine, kernel and program construction
  double host_s = 0;   // simulating the run
  std::uint64_t digest = 0;
  bool drained = false;

  double throughput() const {
    return static_cast<double>(window_faults) / (hsim::TicksToUs(kWindow) / 1e6);
  }
};

class KernelRig {
 public:
  // Set-up: the machine, the clustered kernel and every program.
  KernelRig(std::uint32_t active, std::uint64_t seed, hprof::SiteTable* sites)
      : machine_(&engine_, hsim::MachineConfig{}),
        system_(&machine_, [] {
          hkernel::KernelConfig kc;
          kc.cluster_size = kClusterSize;
          return kc;
        }()),
        active_(active),
        seed_(seed) {
    if (sites != nullptr) {
      system_.AttachLockProfiler(sites);  // before CreateProgram: region sites too
    }
    spmd_ = &system_.CreateProgram();
    for (std::uint32_t p = 0; p < active_; p += 2) {
      private_[p] = &system_.CreateProgram();
    }
  }

  KernelResult Run(const Tracing& tracing) {
    tracing_ = tracing;
    if (tracing.flight != nullptr) {
      system_.AttachFlightRecorder(tracing.flight);
    }
    const double h0 = NowSeconds();
    std::uint32_t shared_procs = 0;
    for (std::uint32_t p = 1; p < active_; p += 2) {
      ++shared_procs;
    }
    barrier_ = std::make_unique<hkernel::SimBarrier>(&system_, shared_procs);
    for (hsim::ProcId p = 0; p < kProcs; ++p) {
      if (p >= active_) {
        engine_.Spawn(system_.IdleLoop(machine_.processor(p), &stop_));
      } else {
        ++drivers_;
        engine_.Spawn(p % 2 == 0 ? Independent(p) : Shared(p));
      }
    }
    result_.drained = engine_.RunUntil(kWarmup + kWindow + kGrace);
    result_.events = engine_.events_processed();
    result_.host_s = NowSeconds() - h0;
    Summarize();
    return std::move(result_);
  }

 private:
  hsim::Rng ProcRng(hsim::ProcId p) const {
    return hsim::Rng(seed_ * 0x9E3779B97F4A7C15ull + (p + 1) * 0xD6E8FEB86659FD93ull);
  }

  hsim::Task<void> Fault(hsim::Processor& p, hkernel::Program& prog, std::uint64_t page,
                         bool shared) {
    hkernel::FaultOutcome out;
    const Tick t0 = p.now();
    ++result_.issued;
    co_await system_.PageFault(p, prog, page, &out);
    ++result_.completed;
    const Tick t1 = p.now();
    result_.digest = Fold(Fold(result_.digest, t1), page);
    if (t0 >= kWarmup && t1 <= kWarmup + kWindow) {
      ++result_.window_faults;
      result_.latency.Record(out.total);
      (shared ? result_.fault_shared : result_.fault_private).Record(out.total);
      result_.lock_cycles += out.lock_cycles;
      result_.reserve_waits += static_cast<std::uint64_t>(out.reserve_waits);
    }
    if (tracing_.spans != nullptr) {
      const std::uint64_t id = tracing_.spans->NextId();
      tracing_.spans->Add("hkernel.PageFault", id, 0, id, t0, t1);
    }
  }

  hsim::Task<void> Independent(hsim::ProcId pid) {
    hsim::Processor& p = machine_.processor(pid);
    hkernel::CpuKernel& k = system_.cpu(pid);
    hsim::Rng rng = ProcRng(pid);
    while (p.now() < kWarmup + kWindow) {
      const std::uint64_t page = KernelSystem::MakePage(pid, rng.NextBelow(kPrivatePages));
      co_await Fault(p, *private_[pid], page, /*shared=*/false);
      co_await k.IrqPoint(p);
      co_await p.Compute(16 + rng.NextBelow(32));  // user work between faults
    }
    co_await DriverDone(p);
  }

  hsim::Task<void> Shared(hsim::ProcId pid) {
    hsim::Processor& p = machine_.processor(pid);
    hkernel::CpuKernel& k = system_.cpu(pid);
    hsim::Rng rng = ProcRng(pid);
    constexpr hsim::ProcId kLeader = 1;
    while (true) {
      const std::uint64_t rot = rng.NextBelow(kSharedPages);
      for (std::uint32_t n = 0; n < kSharedPages; ++n) {
        const std::uint64_t page = KernelSystem::MakePage(kLeader, (n + rot) % kSharedPages);
        co_await Fault(p, *spmd_, page, /*shared=*/true);
        co_await k.IrqPoint(p);
      }
      co_await barrier_->Wait(p);
      if (pid == kLeader) {
        for (std::uint32_t n = 0; n < kSharedPages; ++n) {
          const std::uint64_t page = KernelSystem::MakePage(kLeader, n);
          const Tick t0 = p.now();
          co_await system_.UnmapGlobal(p, page);
          if (t0 >= kWarmup && p.now() <= kWarmup + kWindow) {
            result_.unmap.Record(p.now() - t0);
          }
          if (tracing_.spans != nullptr) {
            const std::uint64_t id = tracing_.spans->NextId();
            tracing_.spans->Add("hkernel.UnmapGlobal", id, 0, id, t0, p.now());
          }
        }
        shared_stop_ = p.now() >= kWarmup + kWindow;
      }
      co_await barrier_->Wait(p);
      if (shared_stop_) {
        break;
      }
    }
    co_await DriverDone(p);
  }

  // A finished driver keeps servicing RPCs (peers still fault on pages it
  // homes) until every driver is done.
  hsim::Task<void> DriverDone(hsim::Processor& p) {
    if (--drivers_ == 0) {
      stop_ = true;
    }
    co_await system_.IdleLoop(p, &stop_);
  }

  void Summarize() {
    KernelResult& r = result_;
    r.counters = system_.counters();
    r.desc_cache = system_.desc_arena().core().TotalCacheStats();
    for (std::uint32_t s = 0; s < machine_.config().stations; ++s) {
      r.bus_wait += machine_.bus(s).total_wait();
    }
    for (std::uint32_t m = 0; m < kProcs; ++m) {
      r.mem_wait += machine_.memory(m).total_wait();
      const hsim::OpStats& st = machine_.processor(m).stats();
      r.loc_ring += st.loc_ring;
      r.loc_total += st.loc_total();
    }
    r.ring_wait = machine_.total_ring_wait();
    r.digest = Fold(Fold(Fold(r.digest, r.events), engine_.now()), r.counters.rpcs);
  }

  hsim::Engine engine_;
  hsim::Machine machine_;
  KernelSystem system_;
  std::uint32_t active_;
  std::uint64_t seed_;
  hkernel::Program* spmd_ = nullptr;
  hkernel::Program* private_[kProcs] = {};
  std::unique_ptr<hkernel::SimBarrier> barrier_;
  std::uint32_t drivers_ = 0;
  bool stop_ = false;
  bool shared_stop_ = false;
  Tracing tracing_;
  KernelResult result_;
};

KernelResult RunKernel(std::uint32_t active, std::uint64_t seed, const Tracing& tracing,
                       Report* report) {
  const double t0 = NowSeconds();
  KernelRig rig(active, seed, tracing.sites);
  const double setup_s = NowSeconds() - t0;
  KernelResult r = rig.Run(tracing);
  r.setup_s = setup_s;
  const std::string at = " with " + std::to_string(active) + " processors";
  if (!r.drained || r.completed != r.issued) {
    report->Violation(std::to_string(r.issued - r.completed) +
                      " faults not done by the simulated deadline" + at);
  }
  if (r.counters.rpc_ops_applied != r.counters.rpcs) {
    report->Violation("rpc_ops_applied != rpcs" + at);
  }
  if (r.window_faults == 0) {
    report->Violation("no fault completed inside the measurement window" + at);
  }
  return r;
}

void ReportLayers(const KernelResult& r, const SpanLog& spans, const hprof::SiteTable& sites,
                  double untraced_host_s, double traced_host_s, Report* report) {
  const double faults = static_cast<double>(std::max<std::uint64_t>(r.completed, 1));
  const double window = static_cast<double>(std::max<std::uint64_t>(r.window_faults, 1));
  report->Set("hsim.events_per_op", static_cast<double>(r.events) / faults, "count");
  report->Set("hsim.ns_per_event",
              1e9 * untraced_host_s / static_cast<double>(std::max<std::uint64_t>(r.events, 1)),
              "ns");
  report->Set("hsim.ring_wait_us", hsim::TicksToUs(r.ring_wait) / faults, "us");
  report->Set("hsim.bus_wait_us", hsim::TicksToUs(r.bus_wait) / faults, "us");
  report->Set("hsim.mem_wait_us", hsim::TicksToUs(r.mem_wait) / faults, "us");
  report->Set("hsim.loc_ring_frac",
              static_cast<double>(r.loc_ring) /
                  static_cast<double>(std::max<std::uint64_t>(r.loc_total, 1)),
              "fraction");
  report->Set("hlock.lock_overhead_us", hsim::TicksToUs(r.lock_cycles) / window, "us");
  hmetrics::LatencyHistogram waits;
  std::uint64_t handoffs = 0;
  std::uint64_t cross = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const hprof::LockSiteStats& s = sites.site(i);
    waits.Merge(s.wait());
    for (hprof::Handoff h : {hprof::Handoff::kSameProcessor, hprof::Handoff::kSameCluster,
                             hprof::Handoff::kCrossCluster}) {
      handoffs += s.handoffs(h);
    }
    cross += s.handoffs(hprof::Handoff::kCrossCluster);
  }
  report->Set("hlock.acquire_us_p99", hsim::TicksToUs(waits.percentile(99)), "us");
  report->Set("hlock.cross_cluster_handoff_frac",
              static_cast<double>(cross) /
                  static_cast<double>(std::max<std::uint64_t>(handoffs, 1)),
              "fraction");
  report->Set("hkernel.fault_private_us_p99", r.fault_private.PercentileUs(99), "us");
  report->Set("hkernel.fault_shared_us_p99", r.fault_shared.PercentileUs(99), "us");
  report->Set("hkernel.unmap_us_p99", r.unmap.PercentileUs(99), "us");
  report->Set("hkernel.rpc_refused_frac",
              static_cast<double>(r.counters.rpc_would_deadlock) /
                  static_cast<double>(std::max<std::uint64_t>(r.counters.rpcs, 1)),
              "fraction");
  report->Set("hkernel.reserve_waits_per_fault", static_cast<double>(r.reserve_waits) / window,
              "count");
  const std::uint64_t depot = r.desc_cache.alloc_depot + r.desc_cache.free_depot;
  const std::uint64_t calls = r.desc_cache.allocs() + r.desc_cache.frees();
  report->Set("halloc.depot_frac",
              static_cast<double>(depot) / static_cast<double>(std::max<std::uint64_t>(calls, 1)),
              "fraction");
  const auto self = spans.SelfTicksByName();
  const auto it = self.find("hkernel.PageFault");
  report->Set("self.hkernel_us_per_op",
              it == self.end() ? 0.0 : hsim::TicksToUs(it->second) / faults, "us");
  report->Set("obs.trace_overhead_frac", traced_host_s / untraced_host_s - 1.0, "fraction");
}

}  // namespace

void RunKernelFaults(const Options& opt, Report* report) {
  const double budget_end = NowSeconds() + opt.seconds;

  if (opt.trace) {
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    KernelResult kept_result;
    SpanLog kept_spans;
    std::unique_ptr<hprof::SiteTable> kept_sites;
    HostClock clock;
    do {
      const KernelResult plain = RunKernel(kProcs, opt.seed, {}, report);
      SpanLog spans;
      hflight::FlightConfig fc;
      fc.clusters = kProcs / kClusterSize;
      fc.ticks_per_us = static_cast<double>(hsim::kCyclesPerMicrosecond);
      hflight::FlightRecorder flight(fc);
      auto sites =
          std::make_unique<hprof::SiteTable>(static_cast<double>(hsim::kCyclesPerMicrosecond));
      KernelResult traced = RunKernel(kProcs, opt.seed, {&spans, &flight, sites.get()}, report);
      if (traced.digest != plain.digest) {
        report->Violation("traced run diverged from the untraced run (simulated metrics differ)");
      }
      if (!untraced_s.empty() && plain.digest != kept_result.digest) {
        report->Violation("two runs with one seed gave different simulated results");
      }
      clock.Calibrate();
      untraced_s.push_back(plain.host_s);
      traced_s.push_back(traced.host_s);
      report->attempted += plain.issued;
      report->failed += plain.issued - plain.completed;
      if (traced_s.size() == 1) {
        kept_result = std::move(traced);
        kept_spans = std::move(spans);
        kept_sites = std::move(sites);
      }
    } while (NowSeconds() < budget_end || traced_s.size() < 3);
    ReportLayers(kept_result, kept_spans, *kept_sites, clock.Calibrated(untraced_s),
                 clock.Calibrated(traced_s), report);
    const std::string path = opt.out_dir + "/spans-" + opt.workload + ".json";
    if (!kept_spans.WriteJson(path, static_cast<double>(hsim::kCyclesPerMicrosecond))) {
      report->Violation("could not write " + path);
    }
    return;
  }

  // Reference (16 processors), repeated until the run's time is up: host
  // set-up and simulation times are medians over the repeats, and every
  // repeat must replay the first bit for bit.
  std::vector<double> host_s;
  std::vector<double> setups;
  KernelResult ref;
  HostClock clock;
  do {
    KernelResult r = RunKernel(kProcs, opt.seed, {}, report);
    clock.Calibrate();
    if (!host_s.empty() && r.digest != ref.digest) {
      report->Violation("two runs with one seed gave different simulated results");
    }
    host_s.push_back(r.host_s);
    setups.push_back(r.setup_s);
    if (host_s.size() == 1) {
      ref = std::move(r);
    }
  } while (NowSeconds() < budget_end || host_s.size() < 3);
  report->Note("reference.repeats", static_cast<double>(host_s.size()));
  report->Note("reference.raw_host_s", Median(host_s));

  double capacity = 0;
  double knee_p99 = 0;
  for (std::uint32_t active : kActiveLadder) {
    KernelResult lower;  // the reference run is the top rung
    if (active != kProcs) {
      lower = RunKernel(active, opt.seed, {}, report);
    }
    const KernelResult& rung = active == kProcs ? ref : lower;
    if (rung.latency.PercentileUs(99) <= kSloP99Us) {
      capacity = rung.throughput();
      knee_p99 = rung.latency.PercentileUs(99);
      break;
    }
  }
  if (capacity == 0) {
    report->Violation("no processor count meets the fault-latency SLO");
  }

  report->attempted = ref.issued;
  report->failed = ref.issued - ref.completed;
  report->Set("capacity_ops_s", capacity, "1/s");
  report->Set("knee_p99_us", knee_p99, "us");
  report->Set("p50_us", ref.latency.PercentileUs(50), "us");
  report->Set("p99_us", ref.latency.PercentileUs(99), "us");
  report->Set("p999_us", ref.latency.PercentileUs(99.9), "us");
  report->Note("samples", static_cast<double>(ref.latency.count()));
  report->Set("throughput_ops_s", ref.throughput(), "1/s");
  report->Set("overload_goodput_ops_s", ref.throughput(), "1/s");
  report->Set("frac_completed",
              static_cast<double>(ref.completed) / static_cast<double>(ref.issued), "fraction");
  report->Set("sim_host_s", clock.Calibrated(host_s), "s");
  report->Set("setup_s", clock.Calibrated(setups), "s");
}

}  // namespace perfbench
