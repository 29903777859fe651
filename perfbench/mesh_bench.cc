// mesh_read / mesh_write: open-loop load on a 4-machine hmesh.
//
// The driver is the benchmark's own, not hmesh::RunClient: it needs a
// simulated-time deadline, an in-flight cap above MeshConfig::lanes, and
// spans around each ClientRead/ClientWrite.  Each machine replays an
// hload::PlanOps stream (Poisson arrivals, zipf keys) on its processor 1;
// every op is timed from its *scheduled* send, so a stalled mesh or a
// binding in-flight cap shows up in the latency of later ops.
//
// A run measures, for one seed:
//   - an offered-rate ladder (per machine) -> capacity_ops_s, knee_p99_us;
//   - the reference rate, repeated -> p50/p99/p999, throughput, sim_host_s
//     (every repeat must replay bit-identically: the determinism check);
//   - an overload rung at about 2x today's knee -> overload_goodput_ops_s and
//     frac_completed.  With more ops in flight per machine than lanes the
//     mesh can livelock; the rung's deadline (and its stall watchdog) turn
//     that into unfinished ops instead of a hung run.
// Teardown never calls Shutdown + RunUntilIdle on a possibly stalled mesh:
// it kills every machine first (fencing all of its tasks), then drains the
// engine under a bounded simulated horizon.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/hflight/flight.h"
#include "src/hload/workload.h"
#include "src/hmesh/client.h"
#include "src/hmesh/mesh.h"
#include "src/hprof/lock_site.h"
#include "src/hsim/engine.h"
#include "src/hsim/types.h"

namespace perfbench {
namespace {

using hmesh::Mesh;
using hmesh::MeshStatus;
using hsim::Tick;

constexpr std::uint32_t kMachines = 4;
constexpr std::uint32_t kDriverProc = 1;
// Per-machine cap on ops in flight.  Above MeshConfig::lanes (32) on purpose:
// a cap at or below lanes (RunClient's default window is 8) hides the lane
// livelock and already binds below the knee.
constexpr std::uint32_t kInFlightCap = 64;
// Simulated time after the last scheduled arrival by which every op must be
// done; later ops count as unfinished.
constexpr Tick kGrace = hsim::UsToTicks(10'000);
// No completion for this long with ops in flight: the mesh is stalled.
constexpr Tick kStallWindow = hsim::UsToTicks(5'000);
// Bound on the teardown drain once every machine is fenced.
constexpr Tick kTeardownHorizon = hsim::UsToTicks(100'000);

struct MeshWorkload {
  double read_fraction;
  std::vector<double> ladder;  // offered ops/s per machine, ascending
  std::uint64_t ladder_ops;    // planned ops per machine per rung
  double reference_rate;
  std::uint64_t reference_ops;
  double overload_rate;
  std::uint64_t overload_ops;
  double slo_p99_us;
};

// The SLO and the rates are part of the benchmark's definition.  Ladder
// rungs sit clear of every seed's SLO crossing (see README.md), so the knee
// rung does not flip with the seed.
const MeshWorkload kMeshRead{.read_fraction = 0.95,
                             .ladder = {225e3, 300e3, 375e3},
                             .ladder_ops = 24'000,
                             .reference_rate = 100e3,
                             .reference_ops = 60'000,
                             .overload_rate = 600e3,
                             .overload_ops = 4'000,
                             .slo_p99_us = 1000.0};
const MeshWorkload kMeshWrite{.read_fraction = 0.50,
                              .ladder = {30e3, 45e3, 65e3, 85e3},
                              .ladder_ops = 10'000,
                              .reference_rate = 25e3,
                              .reference_ops = 24'000,
                              .overload_rate = 120e3,
                              .overload_ops = 2'000,
                              .slo_p99_us = 1000.0};

inline Tick NsToTicks(std::uint64_t ns) { return ns * hsim::kCyclesPerMicrosecond / 1000; }

struct OpRecord {
  Tick scheduled = 0;
  Tick issued = 0;
  Tick done = 0;             // 0: not done by the deadline
  std::uint64_t result = 0;  // acked version (write) or value read
  MeshStatus status = MeshStatus::kPending;
  bool local = false;
};

struct RungResult {
  double rate = 0;  // per machine
  std::uint64_t planned = 0;
  std::uint64_t ok = 0;
  TickSamples latency;  // ok ops, scheduled -> done
  bool backlog_grows = false;
  Tick last_done = 0;  // relative to the rung start
  Tick deadline = 0;   // relative to the rung start
  std::uint64_t events = 0;
  double setup_s = 0;  // mesh construction, preload and plans
  double host_s = 0;   // simulating the rung
  double plan_s = 0;
  std::uint64_t digest = 0;
  // Per-layer raw material.
  TickSamples read_local;  // issue -> done
  TickSamples read_fwd;
  TickSamples write;
  TickSamples late;  // issue - scheduled
  std::uint64_t stalled = 0;
  std::uint64_t reads = 0;
  std::uint64_t local_reads = 0;
  std::uint64_t puts_served = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t retransmits = 0;
  Tick store_busy = 0;
  Tick bus_wait = 0;
  Tick mem_wait = 0;
  Tick ring_wait = 0;
  std::uint64_t flight_closed = 0;

  bool Passes(double slo_us) const {
    return ok == planned && !backlog_grows && latency.PercentileUs(99) <= slo_us;
  }
};

class MeshRig {
 public:
  // Set-up: the mesh (construction + preload) and every machine's plan.
  MeshRig(const MeshWorkload& w, double rate, std::uint64_t ops, std::uint64_t seed)
      : mesh_(&engine_, MakeConfig()) {
    mesh_.Start();
    hload::WorkloadConfig wc;
    wc.seed = seed;
    wc.num_clusters = kMachines;
    wc.keys_per_cluster = mesh_.config().keys_per_machine;
    wc.read_fraction = w.read_fraction;
    wc.zipf_theta = 0.99;
    const double t0 = NowSeconds();
    plans_.resize(kMachines);
    ops_.resize(kMachines);
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      plans_[m] = hload::PlanOps(wc, m, ops, rate);
      ops_[m].resize(plans_[m].size());
      for (const hload::PlannedOp& op : plans_[m]) {
        span_ = std::max(span_, NsToTicks(op.at_ns));
      }
    }
    result_.plan_s = NowSeconds() - t0;
    result_.rate = rate;
  }

  ~MeshRig() { Teardown(); }

  RungResult Run(const Tracing& tracing, Report* report) {
    tracing_ = tracing;
    if (tracing.flight != nullptr) {
      mesh_.AttachFlightRecorder(tracing.flight);
    }
    if (tracing.sites != nullptr) {
      mesh_.AttachLockProfiler(tracing.sites);
    }
    const double h0 = NowSeconds();
    const std::uint64_t e0 = engine_.events_processed();
    start_ = engine_.now();
    deadline_ = start_ + span_ + kGrace;
    std::uint64_t planned = 0;
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      planned += plans_[m].size();
      engine_.Spawn(Generate(m));
    }
    while (done_ < planned && engine_.now() < deadline_ && !Stalled()) {
      engine_.RunUntil(std::min(engine_.now() + hsim::UsToTicks(100), deadline_));
    }
    closed_ = true;
    result_.events = engine_.events_processed() - e0;
    result_.host_s = NowSeconds() - h0;
    result_.planned = planned;
    Summarize();
    Check(report);
    Teardown();
    if (!drained_) {
      report->Violation("mesh teardown did not drain within the bounded horizon");
    }
    return std::move(result_);
  }

 private:
  static hmesh::MeshConfig MakeConfig() {
    hmesh::MeshConfig mc;
    mc.machines = kMachines;
    return mc;
  }

  // A livelocked mesh completes nothing yet keeps the engine busy with
  // retransmits until the deadline; once no op has completed for
  // kStallWindow with ops in flight, the rung ends early with the same
  // outcome (every op not done yet fails) at a fraction of the host time.
  bool Stalled() const {
    std::uint32_t in_flight = 0;
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      in_flight += in_flight_[m];
    }
    return in_flight > 0 && engine_.now() > std::max(last_done_, start_) + kStallWindow;
  }

  hsim::Task<void> Generate(std::uint32_t m) {
    hsim::Processor& p = mesh_.machine(m).processor(kDriverProc);
    for (std::uint64_t i = 0; i < plans_[m].size(); ++i) {
      const Tick scheduled = start_ + NsToTicks(plans_[m][i].at_ns);
      co_await engine_.WaitUntil(scheduled);
      while (in_flight_[m] >= kInFlightCap) {
        if (closed_) {
          co_return;
        }
        co_await p.BackoffDelay(16);
      }
      if (closed_) {
        co_return;
      }
      OpRecord& rec = ops_[m][i];
      rec.scheduled = scheduled;
      rec.issued = p.now();
      ++in_flight_[m];
      engine_.Spawn(RunOp(m, i));
    }
  }

  hsim::Task<void> RunOp(std::uint32_t m, std::uint64_t i) {
    hsim::Processor& p = mesh_.machine(m).processor(kDriverProc);
    const hload::PlannedOp& op = plans_[m][i];
    OpRecord& rec = ops_[m][i];
    const std::uint64_t op_id = hmesh::ClientOpId(m, i);
    hflight::FlightRecord* frec = nullptr;
    if (tracing_.flight != nullptr) {
      frec = tracing_.flight->Open(m, rec.scheduled);
      frec->enqueue = rec.scheduled;
      frec->start = rec.issued;
      frec->exec = rec.issued;
    }
    MeshStatus status;
    std::uint64_t result = 0;
    bool local = false;
    if (op.is_write) {
      // The written value is the op id, so reads can be traced to a write.
      status = co_await mesh_.ClientWrite(p, m, op.key, op_id, op_id, &result, frec);
    } else {
      status = co_await mesh_.ClientRead(p, m, op.key, &result, &local, frec);
    }
    const Tick end = engine_.now();
    --in_flight_[m];
    if (closed_) {
      co_return;  // teardown fencing: not a completion
    }
    if (frec != nullptr) {
      frec->done = end;
      tracing_.flight->Close(
          frec, status == MeshStatus::kOk ? hflight::Fate::kOk : hflight::Fate::kAbandoned, end);
    }
    rec.done = end;
    last_done_ = end;
    rec.status = status;
    rec.result = result;
    rec.local = local;
    ++done_;
    if (tracing_.spans != nullptr) {
      SpanLog& log = *tracing_.spans;
      const std::uint64_t root = log.NextId();
      log.Add(op.is_write ? "hmesh.ClientWrite" : "hmesh.ClientRead", log.NextId(), root, op_id,
              rec.issued, end);
      log.Add("driver.op", root, 0, op_id, rec.scheduled, end);
    }
  }

  void Summarize() {
    RungResult& r = result_;
    std::uint64_t digest = 0;
    std::vector<std::pair<Tick, int>> backlog_events;  // +1 arrival, -1 completion
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      for (std::uint64_t i = 0; i < ops_[m].size(); ++i) {
        const OpRecord& rec = ops_[m][i];
        const hload::PlannedOp& op = plans_[m][i];
        const Tick scheduled = start_ + NsToTicks(op.at_ns);
        digest = Fold(Fold(Fold(digest, rec.done), rec.result),
                      static_cast<std::uint64_t>(rec.status));
        backlog_events.emplace_back(scheduled, +1);
        if (rec.done == 0 || rec.status != MeshStatus::kOk) {
          continue;
        }
        backlog_events.emplace_back(rec.done, -1);
        ++r.ok;
        r.last_done = std::max(r.last_done, rec.done - start_);
        r.latency.Record(rec.done - scheduled);
        r.late.Record(rec.issued - scheduled);
        r.stalled += rec.issued > scheduled ? 1 : 0;
        const Tick call = rec.done - rec.issued;
        if (op.is_write) {
          r.write.Record(call);
        } else {
          ++r.reads;
          r.local_reads += rec.local ? 1 : 0;
          (rec.local ? r.read_local : r.read_fwd).Record(call);
        }
      }
    }
    // Backlog (scheduled but not yet completed) at the middle and the end of
    // the arrival window.  It "grows" when the second half of the window
    // completes under 98% of what arrived in it.
    std::sort(backlog_events.begin(), backlog_events.end());
    const Tick mid = start_ + span_ / 2;
    const Tick end = start_ + span_;
    std::int64_t backlog = 0;
    std::int64_t at_mid = 0;
    std::int64_t arrivals_second_half = 0;
    for (const auto& [t, d] : backlog_events) {
      if (t > end) {
        break;
      }
      if (t <= mid) {
        at_mid = backlog + d;
      } else if (d > 0) {
        ++arrivals_second_half;
      }
      backlog += d;
    }
    const double slack = std::max(64.0, 0.02 * static_cast<double>(arrivals_second_half));
    r.backlog_grows = static_cast<double>(backlog - at_mid) > slack;
    r.deadline = deadline_ - start_;

    const hmesh::MeshConfig& mc = mesh_.config();
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      const Mesh::NodeCounters& c = mesh_.node_counters(m);
      r.puts_served += c.puts_served;
      r.updates_applied += c.updates_applied;
      r.retransmits += c.retransmits;
      r.store_busy += (c.local_reads + c.gets_served) * mc.get_service +
                      c.puts_served * mc.put_service +
                      (c.updates_applied + c.updates_stale) * mc.update_service;
      hsim::Machine& mach = mesh_.machine(m);
      for (std::uint32_t s = 0; s < mach.config().stations; ++s) {
        r.bus_wait += mach.bus(s).total_wait();
      }
      for (std::uint32_t mod = 0; mod < mach.num_processors(); ++mod) {
        r.mem_wait += mach.memory(mod).total_wait();
      }
      r.ring_wait += mach.total_ring_wait();
    }
    if (tracing_.flight != nullptr) {
      r.flight_closed = tracing_.flight->closed();
    }
    digest = Fold(Fold(digest, mesh_.Digest()), r.events);
    r.digest = digest;
  }

  // Exactly-once: every acked write maps to exactly one applied version, the
  // one it was acked with.  No lost acked write: every key's owner holds the
  // newest acked version (or a newer one from a write still in flight).
  // Reads return the preload or a value some planned write to that key wrote.
  void Check(Report* report) {
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> newest;  // key -> ver, val
    std::uint64_t bad_once = 0;
    std::uint64_t bad_reads = 0;
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      for (std::uint64_t i = 0; i < ops_[m].size(); ++i) {
        const OpRecord& rec = ops_[m][i];
        const hload::PlannedOp& op = plans_[m][i];
        if (rec.done == 0 || rec.status != MeshStatus::kOk) {
          continue;
        }
        if (op.is_write) {
          const std::uint64_t op_id = hmesh::ClientOpId(m, i);
          const auto it = mesh_.op_versions().find(op_id);
          if (it == mesh_.op_versions().end() || it->second.size() != 1 ||
              it->second[0] != rec.result) {
            ++bad_once;
          }
          auto& slot = newest[op.key];
          if (rec.result > slot.first) {
            slot = {rec.result, op_id};
          }
        } else if (!ValidRead(op.key, rec.result)) {
          ++bad_reads;
        }
      }
    }
    std::uint64_t lost = 0;
    for (const auto& [key, acked] : newest) {
      const Mesh::Entry* e = mesh_.Lookup(mesh_.ring().OwnerOf(key), key);
      if (e == nullptr || e->version < acked.first ||
          (e->version == acked.first && e->value != acked.second)) {
        ++lost;
      }
    }
    const std::string at = " at " + std::to_string(static_cast<long long>(result_.rate)) +
                           " ops/s per machine";
    if (bad_once != 0) {
      report->Violation(std::to_string(bad_once) + " acked writes not applied exactly once" + at);
    }
    if (lost != 0) {
      report->Violation(std::to_string(lost) + " keys lost their newest acked write" + at);
    }
    if (bad_reads != 0) {
      report->Violation(std::to_string(bad_reads) + " reads returned a value never written" + at);
    }
  }

  bool ValidRead(std::uint64_t key, std::uint64_t value) const {
    if (value == key * 7 + 1) {
      return true;  // Mesh::Start's preload
    }
    const std::uint64_t m = (value >> 40) - 1;
    const std::uint64_t i = value & ((std::uint64_t{1} << 40) - 1);
    return m < kMachines && i < plans_[m].size() && plans_[m][i].is_write &&
           plans_[m][i].key == key;
  }

  void Teardown() {
    if (torn_down_) {
      return;
    }
    torn_down_ = true;
    closed_ = true;
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      mesh_.Kill(m);
    }
    mesh_.Shutdown();
    drained_ = engine_.RunUntil(engine_.now() + kTeardownHorizon);
  }

  hsim::Engine engine_;
  Mesh mesh_;
  std::vector<std::vector<hload::PlannedOp>> plans_;
  std::vector<std::vector<OpRecord>> ops_;
  std::uint32_t in_flight_[kMachines] = {};
  std::uint64_t done_ = 0;
  Tick span_ = 0;
  Tick start_ = 0;
  Tick deadline_ = 0;
  Tick last_done_ = 0;
  bool closed_ = false;
  bool torn_down_ = false;
  bool drained_ = false;
  Tracing tracing_;
  RungResult result_;
};

RungResult RunRung(const MeshWorkload& w, double rate, std::uint64_t ops, std::uint64_t seed,
                   const Tracing& tracing, Report* report) {
  const double t0 = NowSeconds();
  MeshRig rig(w, rate, ops, seed);
  const double setup_s = NowSeconds() - t0;
  RungResult r = rig.Run(tracing, report);
  r.setup_s = setup_s;
  return r;
}

double TicksToSeconds(Tick t) { return hsim::TicksToUs(t) / 1e6; }

// Capacity: the highest offered rate (whole mesh) whose p99 meets the SLO
// with every op done and no growing backlog.  The fixed ladder runs upward to
// its first failing rung; the gap to the last passing rung is then bisected
// kBisections times on the deterministic simulator.  The knee p99 is taken at
// the last passing *ladder* rung: just below the lane-livelock cliff the p99
// of a bisected rate swings with the seed far more than the capacity does.
constexpr int kBisections = 4;

struct Capacity {
  double ops_s = 0;
  double knee_p99_us = 0;
};

Capacity FindCapacity(const MeshWorkload& w, std::uint64_t seed, Report* report) {
  Capacity cap;
  double pass = 0;
  double fail = 0;
  double p99_us = 0;
  const auto probe = [&](double rate) {
    const RungResult r = RunRung(w, rate, w.ladder_ops, seed, {}, report);
    const std::string rung = "rung_" + std::to_string(static_cast<long long>(rate)) + ".";
    report->Note(rung + "p99_us", r.latency.PercentileUs(99));
    report->Note(rung + "frac_ok", static_cast<double>(r.ok) / static_cast<double>(r.planned));
    report->Note(rung + "backlog_grows", r.backlog_grows ? 1 : 0);
    if (r.Passes(w.slo_p99_us)) {
      pass = rate;
      p99_us = r.latency.PercentileUs(99);
      return true;
    }
    fail = rate;
    return false;
  };
  for (double rate : w.ladder) {
    if (!probe(rate)) {
      break;
    }
    cap.knee_p99_us = p99_us;
  }
  if (pass == 0) {
    return cap;
  }
  for (int i = 0; i < kBisections && fail > pass; ++i) {
    probe((pass + fail) / 2);
  }
  cap.ops_s = pass * kMachines;
  return cap;
}

void ReportLayers(const RungResult& r, const SpanLog& spans, double untraced_host_s,
                  double traced_host_s, Report* report) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(r.ok, 1));
  const double duration = static_cast<double>(std::max<Tick>(r.last_done, 1));
  report->Set("hmesh.read_local_us_p50", r.read_local.PercentileUs(50), "us");
  report->Set("hmesh.read_fwd_us_p99", r.read_fwd.PercentileUs(99), "us");
  report->Set("hmesh.write_us_p50", r.write.PercentileUs(50), "us");
  report->Set("hmesh.write_us_p99", r.write.PercentileUs(99), "us");
  report->Set("hmesh.frac_local_reads",
              static_cast<double>(r.local_reads) /
                  static_cast<double>(std::max<std::uint64_t>(r.reads, 1)),
              "fraction");
  report->Set("hmesh.update_amp",
              static_cast<double>(r.updates_applied) /
                  static_cast<double>(std::max<std::uint64_t>(r.puts_served, 1)),
              "count");
  report->Set("hmesh.retransmits_per_kop", 1000.0 * static_cast<double>(r.retransmits) / ops,
              "count");
  report->Set("hmesh.store_util", static_cast<double>(r.store_busy) / (kMachines * duration),
              "fraction");
  report->Set("hmesh.window_stall_frac", static_cast<double>(r.stalled) / ops, "fraction");
  report->Set("hload.gen_late_us_p99", r.late.PercentileUs(99), "us");
  report->Set("hload.plan_s", r.plan_s, "s");
  report->Set("hsim.events_per_op", static_cast<double>(r.events) / ops, "count");
  report->Set("hsim.ns_per_event",
              1e9 * untraced_host_s / static_cast<double>(std::max<std::uint64_t>(r.events, 1)),
              "ns");
  report->Set("hsim.ring_wait_us", hsim::TicksToUs(r.ring_wait) / ops, "us");
  report->Set("hsim.bus_wait_us", hsim::TicksToUs(r.bus_wait) / ops, "us");
  report->Set("hsim.mem_wait_us", hsim::TicksToUs(r.mem_wait) / ops, "us");
  const auto self = spans.SelfTicksByName();
  const auto self_us = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : hsim::TicksToUs(it->second) / ops;
  };
  report->Set("self.driver_us_per_op", self_us("driver.op"), "us");
  report->Set("self.hmesh_us_per_op",
              self_us("hmesh.ClientRead") + self_us("hmesh.ClientWrite"), "us");
  report->Set("obs.trace_overhead_frac", traced_host_s / untraced_host_s - 1.0, "fraction");
}

void RunMesh(const MeshWorkload& w, const Options& opt, Report* report) {
  const double budget_end = NowSeconds() + opt.seconds;

  if (opt.trace) {
    // Per-layer run: untraced and traced reference rungs alternate; the
    // traced one must replay the untraced one bit for bit.
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    RungResult traced_result;
    SpanLog kept;
    std::uint64_t digest = 0;
    HostClock clock;
    do {
      const RungResult plain = RunRung(w, w.reference_rate, w.reference_ops, opt.seed, {}, report);
      SpanLog spans;
      hflight::FlightConfig fc;
      fc.clusters = kMachines;
      fc.ticks_per_us = static_cast<double>(hsim::kCyclesPerMicrosecond);
      hflight::FlightRecorder flight(fc);
      hprof::SiteTable sites(static_cast<double>(hsim::kCyclesPerMicrosecond));
      RungResult traced =
          RunRung(w, w.reference_rate, w.reference_ops, opt.seed, {&spans, &flight, &sites},
                  report);
      if (traced.digest != plain.digest) {
        report->Violation("traced run diverged from the untraced run (simulated metrics differ)");
      }
      if (traced.flight_closed < traced.ok) {
        report->Violation("flight recorder closed fewer records than completed ops");
      }
      if (digest != 0 && plain.digest != digest) {
        report->Violation("two runs with one seed gave different simulated results");
      }
      digest = plain.digest;
      clock.Calibrate();
      untraced_s.push_back(plain.host_s);
      traced_s.push_back(traced.host_s);
      if (traced_s.size() == 1) {
        traced_result = std::move(traced);
        kept = std::move(spans);
      }
      report->attempted += plain.planned;
      report->failed += plain.planned - plain.ok;
    } while (NowSeconds() < budget_end || traced_s.size() < 3);
    ReportLayers(traced_result, kept, clock.Calibrated(untraced_s), clock.Calibrated(traced_s),
                 report);
    const std::string path = opt.out_dir + "/spans-" + opt.workload + ".json";
    if (!kept.WriteJson(path, static_cast<double>(hsim::kCyclesPerMicrosecond))) {
      report->Violation("could not write " + path);
    }
    return;
  }

  double phase_start = NowSeconds();
  const Capacity cap = FindCapacity(w, opt.seed, report);
  report->Note("ladder.host_s", NowSeconds() - phase_start);
  phase_start = NowSeconds();
  if (cap.ops_s == 0) {
    report->Violation("lowest ladder rung misses the SLO: no capacity measured");
  }

  // Overload: when the lane livelock strikes is a matter of chance, so the rung runs
  // kOverloadRuns independent plans (sub-seeds of the run's seed) and
  // reports their pooled completions.
  constexpr int kOverloadRuns = 24;
  std::uint64_t over_ok = 0;
  std::uint64_t over_planned = 0;
  double over_seconds = 0;
  for (int i = 0; i < kOverloadRuns; ++i) {
    const RungResult over = RunRung(w, w.overload_rate, w.overload_ops,
                                    opt.seed * kOverloadRuns + i, {}, report);
    over_ok += over.ok;
    over_planned += over.planned;
    over_seconds += TicksToSeconds(over.deadline);
    report->Note("overload." + std::to_string(i) + ".frac_ok",
                 static_cast<double>(over.ok) / static_cast<double>(over.planned));
  }

  report->Note("overload.host_s", NowSeconds() - phase_start);

  // Reference rung, repeated until the run's time is up: host set-up and
  // simulation times are medians over the repeats, and every repeat must
  // replay the first bit for bit.
  std::vector<double> host_s;
  std::vector<double> setups;
  RungResult ref;
  HostClock clock;
  do {
    RungResult r = RunRung(w, w.reference_rate, w.reference_ops, opt.seed, {}, report);
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

  report->attempted = ref.planned;
  report->failed = ref.planned - ref.ok;
  report->Set("capacity_ops_s", cap.ops_s, "1/s");
  report->Set("knee_p99_us", cap.knee_p99_us, "us");
  report->Set("p50_us", ref.latency.PercentileUs(50), "us");
  report->Set("p99_us", ref.latency.PercentileUs(99), "us");
  report->Set("p999_us", ref.latency.PercentileUs(99.9), "us");
  report->Note("samples", static_cast<double>(ref.latency.count()));
  report->Set("throughput_ops_s",
              static_cast<double>(ref.ok) / TicksToSeconds(std::max<Tick>(ref.last_done, 1)),
              "1/s");
  report->Set("overload_goodput_ops_s", static_cast<double>(over_ok) / over_seconds, "1/s");
  report->Set("frac_completed",
              static_cast<double>(over_ok) / static_cast<double>(over_planned), "fraction");
  report->Set("sim_host_s", clock.Calibrated(host_s), "s");
  report->Set("setup_s", clock.Calibrated(setups), "s");
}

}  // namespace

void RunMeshRead(const Options& opt, Report* report) { RunMesh(kMeshRead, opt, report); }
void RunMeshWrite(const Options& opt, Report* report) { RunMesh(kMeshWrite, opt, report); }

}  // namespace perfbench
