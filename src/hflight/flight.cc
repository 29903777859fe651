#include "src/hflight/flight.h"

#include <algorithm>
#include <cstddef>

#include "src/hprof/lock_site.h"

namespace hflight {
namespace {

std::uint32_t RoundUpPow2(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

// One ring per cluster: the cluster's records, in place, plus a padded claim
// cursor.  Overwrite-oldest means Open can never fail and never allocates.
struct FlightRecorder::Ring {
  explicit Ring(std::uint32_t size) : records(size) {}
  std::vector<FlightRecord> records;
  alignas(64) std::atomic<std::uint64_t> cursor{0};
};

FlightRecorder::FlightRecorder(const FlightConfig& cfg) : cfg_(cfg) {
  if (cfg_.clusters == 0) {
    cfg_.clusters = 1;
  }
  const std::uint32_t ring_size = RoundUpPow2(std::max<std::uint32_t>(cfg_.ring_size, 2));
  cfg_.ring_size = ring_size;
  ring_mask_ = ring_size - 1;
  if (cfg_.reservoir_size == 0) {
    cfg_.reservoir_size = 1;
  }
  rng_state_ = cfg_.seed;
  reservoir_.reserve(cfg_.reservoir_size);

  rings_.reserve(cfg_.clusters);
  for (std::uint32_t c = 0; c < cfg_.clusters; ++c) {
    rings_.push_back(std::make_unique<Ring>(ring_size));
  }
}

FlightRecorder::~FlightRecorder() = default;

FlightRecord* FlightRecorder::Open(std::uint32_t cluster, std::uint64_t begin_ticks,
                                   std::uint64_t parent_id) {
  Ring& ring = *rings_[cluster < cfg_.clusters ? cluster : 0];
  const std::uint64_t slot = ring.cursor.fetch_add(1, std::memory_order_relaxed) & ring_mask_;
  FlightRecord* rec = &ring.records[slot];
  if (rec->open) {
    overwritten_open_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  opened_.fetch_add(1, std::memory_order_relaxed);
  rec->Reset(id, cluster < cfg_.clusters ? cluster : 0, begin_ticks, parent_id);
  return rec;
}

FlightRecord* FlightRecorder::OpenLeg(std::uint32_t cluster, std::uint64_t send_ticks,
                                      std::uint64_t parent_id, std::uint64_t now_ticks) {
  FlightRecord* rec = Open(cluster, std::min(send_ticks, now_ticks), parent_id);
  rec->enqueue = rec->begin;
  rec->start = now_ticks;
  rec->exec = now_ticks;
  return rec;
}

void FlightRecorder::Close(FlightRecord* rec, Fate fate, std::uint64_t end_ticks) {
  rec->fate = fate;
  rec->end = end_ticks;
  rec->Finalize();
  rec->open = false;
  const std::uint64_t total = rec->total();

  SpinGuard guard(&mu_);
  ++closed_;
  ++fates_[static_cast<int>(fate)];
  for (int p = 0; p < kNumPhases; ++p) {
    phase_hist_[p].Record(rec->phase[p]);
  }
  total_hist_.Record(total);
  for (std::uint32_t i = 0; i < rec->num_site_waits; ++i) {
    const SiteWait& sw = rec->site_waits[i];
    if (sw.site < sites_.size()) {
      SiteAgg& agg = sites_[sw.site];
      ++agg.waits;
      agg.ticks += sw.ticks;
      agg.cross_ticks += sw.cross_ticks;
    }
  }

  // Vitter reservoir over end-to-end totals; the promotion threshold is the
  // configured quantile of the reservoir, refreshed every 64 closes so the
  // nth_element cost amortizes away.
  if (reservoir_.size() < cfg_.reservoir_size) {
    reservoir_.push_back(total);
  } else {
    const std::uint64_t j = SplitMix64(&rng_state_) % closed_;
    if (j < reservoir_.size()) {
      reservoir_[j] = total;
    }
  }
  if (closed_ >= cfg_.warmup_closes && (!threshold_valid_ || closed_ % 64 == 0)) {
    RecomputeThreshold();
  }
  if (threshold_valid_ && total >= threshold_) {
    if (promoted_.size() < cfg_.max_promoted) {
      rec->was_promoted = true;
      promoted_.push_back(*rec);
    } else {
      ++promoted_dropped_;
    }
  }
}

void FlightRecorder::RecomputeThreshold() {
  if (reservoir_.empty()) {
    return;
  }
  std::vector<std::uint64_t> scratch = reservoir_;
  double q = cfg_.tail_quantile;
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  const std::size_t k =
      static_cast<std::size_t>(q * static_cast<double>(scratch.size() - 1) + 0.5);
  std::nth_element(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(k),
                   scratch.end());
  threshold_ = scratch[k];
  threshold_valid_ = true;
}

std::uint32_t FlightRecorder::InternSite(const std::string& name) {
  SpinGuard guard(&mu_);
  auto it = site_ids_.find(name);
  if (it != site_ids_.end()) {
    return it->second;
  }
  const std::uint32_t id = static_cast<std::uint32_t>(sites_.size());
  sites_.push_back(SiteAgg{name, 0, 0, 0});
  site_ids_.emplace(name, id);
  return id;
}

std::string FlightRecorder::SiteName(std::uint32_t id) const {
  SpinGuard guard(&mu_);
  return id < sites_.size() ? sites_[id].name : std::string("site#") + std::to_string(id);
}

std::uint64_t FlightRecorder::closed() const {
  SpinGuard guard(&mu_);
  return closed_;
}

std::uint64_t FlightRecorder::threshold_ticks() const {
  SpinGuard guard(&mu_);
  return threshold_valid_ ? threshold_ : 0;
}

std::uint64_t FlightRecorder::promoted_dropped() const {
  SpinGuard guard(&mu_);
  return promoted_dropped_;
}

std::vector<FlightRecord> FlightRecorder::promoted() const {
  SpinGuard guard(&mu_);
  return promoted_;
}

std::uint64_t FlightRecorder::fate_count(Fate f) const {
  SpinGuard guard(&mu_);
  return fates_[static_cast<int>(f)];
}

void FlightRecorder::ExportSpans(hmetrics::TraceSession* trace) const {
  if (trace == nullptr || !trace->enabled(hmetrics::kTraceFlight)) {
    return;
  }
  SpinGuard guard(&mu_);
  for (const FlightRecord& rec : promoted_) {
    const std::uint32_t tid = rec.origin_cluster;
    const auto total = trace->BeginSpan(hmetrics::kTraceFlight, "flight/total", tid, rec.begin);
    trace->EndSpan(total, rec.end);
    trace->AddArg(total, "id", std::to_string(rec.id));
    if (rec.parent != 0) {
      trace->AddArg(total, "parent", std::to_string(rec.parent));
    }
    trace->AddArg(total, "fate", FateName(rec.fate));
    if (rec.retries > 0) {
      trace->AddArg(total, "retries", std::to_string(rec.retries));
    }
    if (rec.rpc_retransmits > 0) {
      trace->AddArg(total, "rpc_retransmits", std::to_string(rec.rpc_retransmits));
    }
    std::uint64_t ts = rec.begin;
    for (int p = 0; p < kNumPhases; ++p) {
      const std::uint64_t dur = rec.phase[p];
      if (dur == 0) {
        continue;
      }
      const auto span = trace->BeginSpan(hmetrics::kTraceFlight,
                                         std::string("flight/") + PhaseName(static_cast<Phase>(p)),
                                         tid, ts);
      trace->EndSpan(span, ts + dur);
      trace->AddArg(span, "id", std::to_string(rec.id));
      ts += dur;
    }
  }
}

namespace {

void WriteHist(hmetrics::JsonWriter* w, const hmetrics::LatencyHistogram& h) {
  w->BeginObject();
  w->Field("count", h.count());
  w->Field("sum", h.sum());
  w->Field("min", h.min());
  w->Field("max", h.max());
  w->Field("mean", h.mean());
  w->Field("p50", h.percentile(50));
  w->Field("p95", h.percentile(95));
  w->Field("p99", h.percentile(99));
  w->EndObject();
}

}  // namespace

void FlightRecorder::WriteJson(hmetrics::JsonWriter* w) const {
  SpinGuard guard(&mu_);
  w->BeginObject();
  w->Field("schema", kFlightSchema);
  w->Field("ticks_per_us", cfg_.ticks_per_us);
  w->Field("clusters", std::uint64_t{cfg_.clusters});
  w->Field("ring_size", std::uint64_t{cfg_.ring_size});
  w->Field("tail_quantile", cfg_.tail_quantile);
  w->Field("seed", cfg_.seed);
  w->Field("opened", opened_.load(std::memory_order_relaxed));
  w->Field("closed", closed_);
  w->Field("overwritten_open", overwritten_open_.load(std::memory_order_relaxed));
  w->Field("threshold_ticks", threshold_valid_ ? threshold_ : 0);
  w->Field("promoted_dropped", promoted_dropped_);
  w->Key("fates");
  w->BeginObject();
  for (int f = 0; f < kNumFates; ++f) {
    if (fates_[f] > 0) {
      w->Field(FateName(static_cast<Fate>(f)), fates_[f]);
    }
  }
  w->EndObject();
  w->Key("phases");
  w->BeginObject();
  for (int p = 0; p < kNumPhases; ++p) {
    w->Key(PhaseName(static_cast<Phase>(p)));
    WriteHist(w, phase_hist_[p]);
  }
  w->EndObject();
  w->Key("total");
  WriteHist(w, total_hist_);
  w->Key("sites");
  w->BeginArray();
  for (const SiteAgg& s : sites_) {
    w->BeginObject();
    w->Field("name", s.name);
    w->Field("waits", s.waits);
    w->Field("wait_ticks", s.ticks);
    w->Field("cross_ticks", s.cross_ticks);
    w->EndObject();
  }
  w->EndArray();
  w->Key("promoted");
  w->BeginArray();
  for (const FlightRecord& rec : promoted_) {
    w->BeginObject();
    w->Field("id", rec.id);
    if (rec.parent != 0) {
      w->Field("parent", rec.parent);
    }
    w->Field("cluster", std::uint64_t{rec.origin_cluster});
    w->Field("fate", FateName(rec.fate));
    w->Field("begin", rec.begin);
    w->Field("end", rec.end);
    w->Field("total", rec.total());
    if (rec.retries > 0) {
      w->Field("retries", std::uint64_t{rec.retries});
    }
    if (rec.rpc_retransmits > 0) {
      w->Field("rpc_retransmits", std::uint64_t{rec.rpc_retransmits});
    }
    w->Field("lock_wait_cross", rec.lock_wait_cross);
    w->Key("phases");
    w->BeginObject();
    for (int p = 0; p < kNumPhases; ++p) {
      w->Field(PhaseName(static_cast<Phase>(p)), rec.phase[p]);
    }
    w->EndObject();
    if (rec.num_site_waits > 0) {
      w->Key("site_waits");
      w->BeginArray();
      for (std::uint32_t i = 0; i < rec.num_site_waits; ++i) {
        const SiteWait& sw = rec.site_waits[i];
        w->BeginObject();
        w->Field("site", sw.site < sites_.size() ? sites_[sw.site].name
                                                 : "site#" + std::to_string(sw.site));
        w->Field("ticks", sw.ticks);
        w->Field("cross_ticks", sw.cross_ticks);
        w->EndObject();
      }
      w->EndArray();
    }
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

std::string FlightRecorder::ToJson() const {
  hmetrics::JsonWriter w;
  WriteJson(&w);
  return w.Take();
}

// ---------------------------------------------------------------------------
// ScopedLedger: the native-thread bridge from hprof's WaitObserver hook to
// the armed record.  A single process-wide observer instance reads the
// calling thread's armed {recorder, record} pair; the per-site intern id is
// memoized by site address so the steady state is one TL load + two compares
// per lock event.

namespace {

struct TlLedger {
  FlightRecorder* recorder = nullptr;
  FlightRecord* record = nullptr;
  const hprof::LockSiteStats* memo_site = nullptr;
  std::uint32_t memo_id = 0;
};

thread_local TlLedger tls_ledger;

class LedgerObserver final : public hprof::WaitObserver {
 public:
  void OnLockWait(const hprof::LockSiteStats& site, std::uint64_t wait, bool contended,
                  hprof::Handoff handoff) override {
    (void)contended;
    TlLedger& tl = tls_ledger;
    if (tl.record == nullptr) {
      return;
    }
    if (tl.memo_site != &site) {
      tl.memo_id = tl.recorder->InternSite(site.name());
      tl.memo_site = &site;
    }
    tl.record->AddLockWait(tl.memo_id, wait, handoff == hprof::Handoff::kCrossCluster);
  }

  void OnLockHold(const hprof::LockSiteStats& site, std::uint64_t hold) override {
    (void)site;
    if (tls_ledger.record != nullptr) {
      tls_ledger.record->AddHold(hold);
    }
  }
};

LedgerObserver g_ledger_observer;

}  // namespace

ScopedLedger::ScopedLedger(FlightRecorder* recorder, FlightRecord* rec) {
  if (recorder == nullptr || rec == nullptr) {
    return;
  }
  installed_ = true;
  prev_observer_ = hprof::ThreadWaitObserver();
  prev_recorder_ = tls_ledger.recorder;
  prev_record_ = tls_ledger.record;
  tls_ledger.recorder = recorder;
  tls_ledger.record = rec;
  tls_ledger.memo_site = nullptr;
  hprof::ThreadWaitObserver() = &g_ledger_observer;
}

ScopedLedger::~ScopedLedger() {
  if (!installed_) {
    return;
  }
  hprof::ThreadWaitObserver() = static_cast<hprof::WaitObserver*>(prev_observer_);
  tls_ledger.recorder = prev_recorder_;
  tls_ledger.record = prev_record_;
  tls_ledger.memo_site = nullptr;
}

}  // namespace hflight
