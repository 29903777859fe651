// Tests for the flight recorder: ring overwrite semantics, the Finalize
// ledger identity (phases sum exactly to total), tail-sampler determinism,
// the ScopedLedger / hprof WaitObserver charge path, span export, and the
// hurricane-flight/1 round trip.

#include "src/hflight/flight.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/hmetrics/json.h"
#include "src/hmetrics/trace.h"
#include "src/hprof/lock_site.h"

namespace hflight {
namespace {

std::uint64_t PhaseSum(const FlightRecord& rec) {
  std::uint64_t sum = 0;
  for (int i = 0; i < kNumPhases; ++i) {
    sum += rec.phase[i];
  }
  return sum;
}

TEST(FlightRecordTest, FinalizeFullPipelineSumsToTotal) {
  FlightRecord rec;
  rec.Reset(1, 0, 1000, 0);
  rec.enqueue = 1100;  // admit 100
  rec.start = 1400;    // inbox 300
  rec.exec = 1500;     // batch 100
  rec.AddLockWait(7, 250, true);
  rec.AddHold(100);
  rec.AddRpc(50, 2);
  rec.done = 2500;  // exec span 1000: lock_wait 250, hold 100, rpc 50, other 600
  rec.end = 2600;   // reply 100
  rec.Finalize();
  EXPECT_EQ(rec.total(), 1600u);
  EXPECT_EQ(PhaseSum(rec), rec.total());
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kAdmit)], 100u);
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kInbox)], 300u);
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kBatch)], 100u);
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kLockWait)], 250u);
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kHold)], 100u);
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kRpc)], 50u);
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kOther)], 600u);
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kReply)], 100u);
  EXPECT_EQ(rec.rpc_retransmits, 2u);
}

TEST(FlightRecordTest, FinalizeUnsetStampsCollapse) {
  // A rejected request never entered a queue: only begin and end are real.
  FlightRecord rec;
  rec.Reset(2, 1, 500, 0);
  rec.end = 900;
  rec.Finalize();
  EXPECT_EQ(PhaseSum(rec), 400u);
  // All unset stamps collapse to begin, so everything lands in other/reply.
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kAdmit)], 0u);
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kInbox)], 0u);
}

TEST(FlightRecordTest, FinalizeCapsOversizedAccumulators) {
  // Accumulators larger than the exec..done span (double-counted waits,
  // clock skew) must cap, never push the sum past total().
  FlightRecord rec;
  rec.Reset(3, 0, 0, 0);
  rec.enqueue = 10;
  rec.start = 20;
  rec.exec = 30;
  rec.AddLockWait(1, 1000000, false);
  rec.AddHold(1000000);
  rec.AddRpc(1000000, 0);
  rec.done = 130;
  rec.end = 140;
  rec.Finalize();
  EXPECT_EQ(PhaseSum(rec), rec.total());
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kLockWait)], 100u);
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kHold)], 0u);
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kRpc)], 0u);
  EXPECT_EQ(rec.phase[static_cast<int>(Phase::kOther)], 0u);
}

TEST(FlightRecordTest, FinalizeOutOfOrderStampsClampMonotonic) {
  FlightRecord rec;
  rec.Reset(4, 0, 100, 0);
  rec.enqueue = 90;  // before begin: clamps up
  rec.start = 300;
  rec.exec = 250;  // before start: clamps up to start
  rec.done = 999999;  // past end: clamps down
  rec.end = 400;
  rec.Finalize();
  EXPECT_EQ(PhaseSum(rec), rec.total());
}

TEST(FlightRecordTest, SiteWaitsMergeAndFoldOnOverflow) {
  FlightRecord rec;
  rec.Reset(5, 0, 0, 0);
  rec.AddLockWait(10, 5, false);
  rec.AddLockWait(10, 7, true);  // merges into the existing slot
  EXPECT_EQ(rec.num_site_waits, 1u);
  EXPECT_EQ(rec.site_waits[0].ticks, 12u);
  EXPECT_EQ(rec.site_waits[0].cross_ticks, 7u);
  rec.AddLockWait(11, 1, false);
  rec.AddLockWait(12, 1, false);
  rec.AddLockWait(13, 1, false);
  EXPECT_EQ(rec.num_site_waits, 4u);
  // A fifth distinct site folds into the last slot; the ticks survive.
  rec.AddLockWait(14, 9, true);
  EXPECT_EQ(rec.num_site_waits, 4u);
  EXPECT_EQ(rec.site_waits[3].ticks, 10u);
  EXPECT_EQ(rec.lock_wait, 5u + 7u + 1u + 1u + 1u + 9u);
}

TEST(FlightRecorderTest, OpenNeverFailsAndOverwritesOldest) {
  FlightConfig cfg;
  cfg.clusters = 1;
  cfg.ring_size = 8;
  FlightRecorder fr(cfg);
  // Fill the ring with open records, then lap it: every Open must succeed,
  // and laps overwrite still-open records (counted).
  std::vector<FlightRecord*> first_lap;
  for (int i = 0; i < 8; ++i) {
    FlightRecord* rec = fr.Open(0, 100 + i);
    ASSERT_NE(rec, nullptr);
    first_lap.push_back(rec);
  }
  EXPECT_EQ(fr.overwritten_open(), 0u);
  for (int i = 0; i < 8; ++i) {
    FlightRecord* rec = fr.Open(0, 200 + i);
    ASSERT_NE(rec, nullptr);
    // The ring reuses the same slots in order.
    EXPECT_EQ(rec, first_lap[i]);
  }
  EXPECT_EQ(fr.opened(), 16u);
  EXPECT_EQ(fr.overwritten_open(), 8u);
}

TEST(FlightRecorderTest, OpenLegStartsAtTheSendAndExecutesNow) {
  FlightRecorder fr(FlightConfig{});
  const FlightRecord* leg = fr.OpenLeg(0, /*send=*/100, /*parent=*/7, /*now=*/400);
  EXPECT_EQ(leg->parent, 7u);
  EXPECT_EQ(leg->begin, 100u);  // the inbox phase covers the wire
  EXPECT_EQ(leg->enqueue, 100u);
  EXPECT_EQ(leg->start, 400u);
  EXPECT_EQ(leg->exec, 400u);
  // A send stamp later than the handler's now is capped at now.
  const FlightRecord* skewed = fr.OpenLeg(0, /*send=*/900, /*parent=*/7, /*now=*/400);
  EXPECT_EQ(skewed->begin, 400u);
  EXPECT_EQ(skewed->enqueue, 400u);
}

TEST(FlightRecorderTest, CloseFeedsFatesAndHistograms) {
  FlightConfig cfg;
  cfg.clusters = 2;
  cfg.ring_size = 16;
  FlightRecorder fr(cfg);
  for (int i = 0; i < 10; ++i) {
    FlightRecord* rec = fr.Open(i % 2, 0);
    fr.Close(rec, i < 7 ? Fate::kOk : Fate::kExpired, 100 + i);
  }
  EXPECT_EQ(fr.closed(), 10u);
  EXPECT_EQ(fr.fate_count(Fate::kOk), 7u);
  EXPECT_EQ(fr.fate_count(Fate::kExpired), 3u);
  EXPECT_EQ(fr.total_hist().count(), 10u);
  EXPECT_EQ(fr.total_hist().min(), 100u);
  EXPECT_EQ(fr.total_hist().max(), 109u);
}

// Drives `n` closes with a bimodal latency mix and returns the promoted ids.
std::vector<std::uint64_t> RunSampler(std::uint64_t seed, int n) {
  FlightConfig cfg;
  cfg.clusters = 1;
  cfg.ring_size = 16;
  cfg.tail_quantile = 0.9;
  cfg.warmup_closes = 16;
  cfg.reservoir_size = 64;
  cfg.seed = seed;
  FlightRecorder fr(cfg);
  for (int i = 0; i < n; ++i) {
    FlightRecord* rec = fr.Open(0, 0);
    fr.Close(rec, Fate::kOk, i % 5 == 4 ? 1000 : 100);
  }
  std::vector<std::uint64_t> ids;
  for (const FlightRecord& rec : fr.promoted()) {
    ids.push_back(rec.id);
  }
  return ids;
}

TEST(FlightRecorderTest, TailSamplerIsDeterministicAndSelective) {
  const std::vector<std::uint64_t> a = RunSampler(42, 500);
  const std::vector<std::uint64_t> b = RunSampler(42, 500);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  // Only the slow cohort (every 5th close, ids 5,10,15,... after warmup) may
  // be promoted: the q90 threshold sits inside the 20% slow mode.
  for (std::uint64_t id : a) {
    EXPECT_EQ(id % 5, 0u) << "fast record " << id << " was promoted";
  }
}

TEST(FlightRecorderTest, PromotedCapIsCountedNotSilent) {
  FlightConfig cfg;
  cfg.clusters = 1;
  cfg.ring_size = 16;
  cfg.tail_quantile = 0.0;  // promote everything past warmup
  cfg.warmup_closes = 1;
  cfg.max_promoted = 4;
  FlightRecorder fr(cfg);
  for (int i = 0; i < 64; ++i) {
    fr.Close(fr.Open(0, 0), Fate::kOk, 100);
  }
  EXPECT_EQ(fr.promoted().size(), 4u);
  // Every close cleared the (min) threshold, so kept + dropped = closed.
  EXPECT_EQ(fr.promoted().size() + fr.promoted_dropped(), fr.closed());
}

TEST(ScopedLedgerTest, ChargesObservedWaitsToArmedRecord) {
  FlightConfig cfg;
  FlightRecorder fr(cfg);
  FlightRecord* rec = fr.Open(0, 0);
  hprof::LockSiteStats site("svc.table", 4);
  {
    ScopedLedger ledger(&fr, rec);
    // First acquire: no previous owner, reported same-processor.
    site.RecordAcquire(/*owner=*/0, /*wait=*/40, /*contended=*/true, /*cluster=*/0);
    site.RecordRelease(/*hold=*/15);
    // Second acquire from another cluster: cross-cluster handoff.
    site.RecordAcquire(/*owner=*/5, /*wait=*/60, /*contended=*/true, /*cluster=*/1);
    site.RecordRelease(/*hold=*/25);
  }
  // Disarmed: further events must not charge the record.
  site.RecordAcquire(0, 999, true, 0);
  site.RecordRelease(999);

  EXPECT_EQ(rec->lock_wait, 100u);
  EXPECT_EQ(rec->lock_wait_cross, 60u);
  EXPECT_EQ(rec->hold, 40u);
  ASSERT_EQ(rec->num_site_waits, 1u);
  EXPECT_EQ(rec->site_waits[0].ticks, 100u);
  EXPECT_EQ(rec->site_waits[0].cross_ticks, 60u);
  EXPECT_EQ(fr.SiteName(rec->site_waits[0].site), "svc.table");
}

TEST(ScopedLedgerTest, NullArgumentsAreNoops) {
  FlightConfig cfg;
  FlightRecorder fr(cfg);
  hprof::LockSiteStats site("x");
  {
    ScopedLedger ledger(nullptr, nullptr);
    site.RecordAcquire(0, 10, false);
  }
  {
    ScopedLedger ledger(&fr, nullptr);
    site.RecordAcquire(0, 10, false);
  }
  SUCCEED();  // no crash, nothing armed
}

TEST(ScopedLedgerTest, NestingRestoresOuterRecord) {
  FlightConfig cfg;
  FlightRecorder fr(cfg);
  FlightRecord* outer = fr.Open(0, 0);
  FlightRecord* inner = fr.Open(0, 0);
  hprof::LockSiteStats site("nested");
  {
    ScopedLedger a(&fr, outer);
    {
      ScopedLedger b(&fr, inner);
      site.RecordAcquire(0, 5, false);
    }
    site.RecordAcquire(0, 7, false);
  }
  EXPECT_EQ(inner->lock_wait, 5u);
  EXPECT_EQ(outer->lock_wait, 7u);
}

TEST(FlightRecorderTest, ExportSpansEmitsCausalChain) {
  FlightConfig cfg;
  cfg.tail_quantile = 0.0;
  cfg.warmup_closes = 1;
  FlightRecorder fr(cfg);
  FlightRecord* parent = fr.Open(0, 100);
  parent->enqueue = 110;
  parent->start = 120;
  parent->exec = 130;
  parent->done = 190;
  fr.Close(parent, Fate::kOk, 200);
  FlightRecord* child = fr.Open(0, 140, parent->id);
  fr.Close(child, Fate::kOk, 600);

  hmetrics::TraceSession trace(hmetrics::kTraceFlight);
  fr.ExportSpans(&trace);
  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("flight/total"), std::string::npos);
  EXPECT_NE(json.find("flight/inbox"), std::string::npos);
  EXPECT_NE(json.find("\"parent\""), std::string::npos);

  // Category disabled: nothing is exported.
  hmetrics::TraceSession off(hmetrics::kTraceLocks);
  fr.ExportSpans(&off);
  EXPECT_EQ(off.event_count(), 0u);
}

TEST(FlightRecorderTest, WriteJsonRoundTrips) {
  FlightConfig cfg;
  cfg.clusters = 2;
  cfg.ticks_per_us = 16.0;
  cfg.tail_quantile = 0.5;
  cfg.warmup_closes = 4;
  FlightRecorder fr(cfg);
  const std::uint32_t site = fr.InternSite("svc.table");
  for (int i = 0; i < 20; ++i) {
    FlightRecord* rec = fr.Open(i % 2, 0);
    if (i % 4 == 3) {
      rec->exec = 10;
      rec->AddLockWait(site, 50, i % 8 == 7);
      rec->done = 900;
    }
    fr.Close(rec, Fate::kOk, i % 4 == 3 ? 1000 : 100);
  }

  hmetrics::JsonValue doc;
  std::string error;
  ASSERT_TRUE(hmetrics::JsonParser::Parse(fr.ToJson(), &doc, &error)) << error;
  EXPECT_EQ(doc["schema"].string_value, kFlightSchema);
  EXPECT_EQ(doc["closed"].number, 20.0);
  EXPECT_EQ(doc["clusters"].number, 2.0);
  ASSERT_TRUE(doc.Has("phases"));
  ASSERT_TRUE(doc["phases"].Has("lock_wait"));
  ASSERT_TRUE(doc.Has("promoted"));
  EXPECT_FALSE(doc["promoted"].array.empty());
  ASSERT_TRUE(doc.Has("sites"));
  ASSERT_EQ(doc["sites"].array.size(), 1u);
  EXPECT_EQ(doc["sites"].array[0]["name"].string_value, "svc.table");
  // Every promoted record must carry a ledger that sums to its total.
  for (const hmetrics::JsonValue& rec : doc["promoted"].array) {
    double sum = 0;
    for (int p = 0; p < kNumPhases; ++p) {
      sum += rec["phases"][PhaseName(static_cast<Phase>(p))].number;
    }
    EXPECT_EQ(sum, rec["total"].number);
  }
}

}  // namespace
}  // namespace hflight
