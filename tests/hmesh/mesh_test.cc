// hmesh core behaviour: routing + replication placement, local vs forwarded
// reads, broadcast-update write replication, exact-once under a lossy
// transport (also with more ops in flight than lanes, and across a
// kill/recover), freedom from the lane deadlock, whole-run determinism, the
// partitioned-machine no-eviction guarantee, and Kill/Recover against parked
// waiters (src/hsim/park.h).

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/hmesh/client.h"
#include "src/hmesh/mesh.h"

namespace hmesh {

// Read access to the parked-waiter queues (src/hsim/park.h) of one machine.
struct MeshTestPeer {
  static bool ServerParked(const Mesh& mesh, std::uint32_t m) {
    return !mesh.nodes_[m]->inbox_waiters.empty();
  }
  static bool LaneWaiters(const Mesh& mesh, std::uint32_t m, std::uint32_t lane_class) {
    return !mesh.nodes_[m]->lane_waiters[lane_class].empty();
  }
  static bool KeyWaiters(const Mesh& mesh, std::uint32_t m, std::uint64_t key) {
    const auto it = mesh.nodes_[m]->key_waiters.find(key);
    return it != mesh.nodes_[m]->key_waiters.end() && !it->second.empty();
  }
  static std::uint32_t ParkedCalls(const Mesh& mesh, std::uint32_t m) {
    std::uint32_t parked = 0;
    for (std::uint32_t lane = 0; lane < Mesh::kLaneClasses * mesh.config_.lanes; ++lane) {
      parked += mesh.call_waiters_[mesh.ChannelId(m, lane)].empty() ? 0 : 1;
    }
    return parked;
  }
};

namespace {

using hsim::Tick;
using hsim::UsToTicks;

// Drives the engine in slices until pred() holds or `deadline` passes.
template <typename Pred>
bool DriveUntil(hsim::Engine& eng, Tick deadline, Pred pred) {
  while (!pred() && eng.now() < deadline) {
    if (eng.RunUntil(eng.now() + UsToTicks(50))) {
      break;  // queue drained; nothing will ever change pred again
    }
  }
  return pred();
}

// Tears a mesh down without trusting it to drain: Shutdown + RunUntilIdle
// never returns on a stalled mesh, so every machine is killed first (fencing
// all of its tasks) and the drain is bounded.  True when the engine drained
// and no task is left: a parked task queues no event, so a drained queue
// alone would not show a leaked waiter.
bool KillAndDrain(hsim::Engine& eng, Mesh& mesh) {
  for (std::uint32_t m = 0; m < mesh.config().machines; ++m) {
    mesh.Kill(m);
  }
  mesh.Shutdown();
  return eng.RunUntil(eng.now() + UsToTicks(100'000)) && eng.live_tasks() == 0;
}

hsim::Task<void> OneRead(Mesh* mesh, std::uint32_t m, std::uint64_t key,
                         std::uint64_t* value, bool* local, MeshStatus* status) {
  hsim::Processor& p = mesh->machine(m).processor(1);
  *status = co_await mesh->ClientRead(p, m, key, value, local, nullptr);
}

hsim::Task<void> OneWrite(Mesh* mesh, std::uint32_t m, std::uint64_t key,
                          std::uint64_t value, std::uint64_t op_id, std::uint64_t* version,
                          MeshStatus* status) {
  hsim::Processor& p = mesh->machine(m).processor(1);
  *status = co_await mesh->ClientWrite(p, m, key, value, op_id, version, nullptr);
}

MeshConfig SmallMesh(std::uint32_t machines = 4) {
  MeshConfig config;
  config.machines = machines;
  return config;
}

TEST(MeshTest, ReplicationPlacement) {
  hsim::Engine eng;
  Mesh mesh(&eng, SmallMesh());

  // Hot keys (rank < hot_ranks, i.e. key / machines < 16) are replicated on
  // every member; cold keys on `replicas` distinct machines, owner first.
  const std::uint64_t hot = 5;
  const std::uint64_t cold = 16 * 4 + 3;  // rank 16: first cold rank
  EXPECT_EQ(mesh.HoldersOf(hot).size(), 4u);
  const auto cold_holders = mesh.HoldersOf(cold);
  ASSERT_EQ(cold_holders.size(), 2u);
  EXPECT_EQ(cold_holders[0], mesh.ring().OwnerOf(cold));
  EXPECT_NE(cold_holders[0], cold_holders[1]);
}

TEST(MeshTest, LocalAndForwardedReads) {
  hsim::Engine eng;
  Mesh mesh(&eng, SmallMesh());
  mesh.Start();

  // Hot key: every machine serves it from its own replica.
  const std::uint64_t hot = 7;
  for (std::uint32_t m = 0; m < 4; ++m) {
    std::uint64_t value = 0;
    bool local = false;
    MeshStatus status = MeshStatus::kPending;
    eng.Spawn(OneRead(&mesh, m, hot, &value, &local, &status));
    ASSERT_TRUE(DriveUntil(eng, UsToTicks(10'000),
                           [&] { return status != MeshStatus::kPending; }));
    EXPECT_EQ(status, MeshStatus::kOk);
    EXPECT_TRUE(local) << m;
    EXPECT_EQ(value, hot * 7 + 1);  // preload value
    EXPECT_EQ(mesh.node_counters(m).local_reads, 1u);
  }

  // Cold key read from a non-holder forwards to the owner over the wire.
  const std::uint64_t cold = 20 * 4 + 1;
  const auto holders = mesh.HoldersOf(cold);
  std::uint32_t outsider = 0;
  while (std::find(holders.begin(), holders.end(), outsider) != holders.end()) {
    ++outsider;
  }
  std::uint64_t value = 0;
  bool local = true;
  MeshStatus status = MeshStatus::kPending;
  eng.Spawn(OneRead(&mesh, outsider, cold, &value, &local, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(10'000), [&] { return status != MeshStatus::kPending; }));
  EXPECT_EQ(status, MeshStatus::kOk);
  EXPECT_FALSE(local);
  EXPECT_EQ(value, cold * 7 + 1);
  EXPECT_EQ(mesh.node_counters(outsider).forwarded_reads, 1u);
  EXPECT_EQ(mesh.node_counters(holders[0]).gets_served, 1u);
  EXPECT_GE(mesh.traffic(outsider, holders[0]), 1u);

  mesh.Shutdown();
  eng.RunUntilIdle();
}

hsim::Task<void> TimedRead(Mesh* mesh, std::uint32_t m, std::uint64_t key, Tick* elapsed,
                           MeshStatus* status) {
  hsim::Processor& p = mesh->machine(m).processor(1);
  const Tick begin = p.now();
  std::uint64_t value = 0;
  bool local = true;
  *status = co_await mesh->ClientRead(p, m, key, &value, &local, nullptr);
  *elapsed = p.now() - begin;
}

// A reply that lands during the poll in which the retransmit deadline passes
// ends the call: no resend, and nothing counted toward suspect_after.  One
// unloaded forwarded get on a lossless 2-machine mesh, with net_timeout set
// to every value across the net_poll window in which its reply lands.
TEST(MeshTest, ReplyLandingInLastPollIsNotRetransmitted) {
  MeshConfig config = SmallMesh(2);
  config.replicas = 1;
  config.hot_ranks = 0;  // every key lives on its owner only, so gets forward
  const std::uint64_t key = 5;
  const auto forwarded_get = [&](Tick net_timeout, Tick* elapsed,
                                 std::uint64_t* events = nullptr) {
    MeshConfig c = config;
    c.net_timeout = net_timeout;
    hsim::Engine eng;
    Mesh mesh(&eng, c);
    mesh.Start();
    const std::uint32_t client = 1 - mesh.ring().OwnerOf(key);
    MeshStatus status = MeshStatus::kPending;
    eng.Spawn(TimedRead(&mesh, client, key, elapsed, &status));
    EXPECT_TRUE(
        DriveUntil(eng, UsToTicks(10'000), [&] { return status != MeshStatus::kPending; }));
    EXPECT_EQ(status, MeshStatus::kOk);
    EXPECT_EQ(mesh.node_counters(client).forwarded_reads, 1u);
    const std::uint64_t retransmits = mesh.node_counters(client).retransmits;
    mesh.Shutdown();
    eng.RunUntilIdle();
    if (events != nullptr) {
      *events = eng.events_processed();
    }
    return retransmits;
  };

  Tick elapsed = 0;
  std::uint64_t events = 0;
  ASSERT_EQ(forwarded_get(config.net_timeout, &elapsed, &events), 0u);
  // Parked waiters resume on their poll grids, so the get completes at the
  // tick the polling loops saw the reply -- at a fraction of the events.
  EXPECT_EQ(elapsed, 864u);
  EXPECT_EQ(events, 14u);
  // From the send to the poll that observes the reply; the reply itself
  // landed within the net_poll before that poll.
  const Tick observed = elapsed - config.net_send - config.net_recv;
  ASSERT_GT(observed, config.net_poll);
  ASSERT_LT(observed, config.net_timeout);
  for (Tick t = observed - config.net_poll + 1; t <= observed; ++t) {
    Tick e = 0;
    EXPECT_EQ(forwarded_get(t, &e), 0u) << "net_timeout " << t;
    EXPECT_EQ(e, elapsed) << "net_timeout " << t;
  }
}

TEST(MeshTest, WriteReplicatesToEveryHolder) {
  hsim::Engine eng;
  Mesh mesh(&eng, SmallMesh());
  mesh.Start();

  // A hot-key write from a non-owner machine must reach all four replicas.
  const std::uint64_t hot = 3;
  const std::uint32_t owner = mesh.ring().OwnerOf(hot);
  const std::uint32_t writer = (owner + 1) % 4;
  const std::uint64_t op_id = ClientOpId(writer, 0);
  std::uint64_t version = 0;
  MeshStatus status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, hot, 777, op_id, &version, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  EXPECT_EQ(version, 2u);  // preload was version 1

  ASSERT_TRUE(DriveUntil(eng, UsToTicks(50'000), [&] { return mesh.Quiescent(); }));
  for (std::uint32_t m = 0; m < 4; ++m) {
    const Mesh::Entry* e = mesh.Lookup(m, hot);
    ASSERT_NE(e, nullptr) << m;
    EXPECT_EQ(e->value, 777u) << m;
    EXPECT_EQ(e->version, 2u) << m;
    EXPECT_EQ(e->writer_op, op_id) << m;
  }
  // Exactly one ledger entry: the op was applied at exactly one version.
  ASSERT_EQ(mesh.op_versions().count(op_id), 1u);
  EXPECT_EQ(mesh.op_versions().at(op_id).size(), 1u);

  // Cold-key write: only its two policy holders carry the data.
  const std::uint64_t cold = 25 * 4 + 2;
  const auto holders = mesh.HoldersOf(cold);
  const std::uint64_t op2 = ClientOpId(writer, 1);
  status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, cold, 888, op2, &version, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  ASSERT_TRUE(DriveUntil(eng, UsToTicks(50'000), [&] { return mesh.Quiescent(); }));
  for (std::uint32_t m = 0; m < 4; ++m) {
    const bool is_holder = std::find(holders.begin(), holders.end(), m) != holders.end();
    const Mesh::Entry* e = mesh.Lookup(m, cold);
    if (is_holder) {
      ASSERT_NE(e, nullptr) << m;
      EXPECT_EQ(e->value, 888u) << m;
    } else {
      EXPECT_TRUE(e == nullptr || e->value != 888u) << m;
    }
  }

  mesh.Shutdown();
  eng.RunUntilIdle();
}

TEST(MeshTest, RetriedPutSurvivesInterveningWriteToSameKey) {
  hsim::Engine eng;
  Mesh mesh(&eng, SmallMesh());
  mesh.Start();

  const std::uint64_t key = 3;  // hot: replicated on every machine
  const std::uint32_t writer = (mesh.ring().OwnerOf(key) + 1) % 4;
  const std::uint64_t op_a = ClientOpId(writer, 0);
  const std::uint64_t op_b = ClientOpId(writer, 1);

  std::uint64_t version_a = 0;
  std::uint64_t version_b = 0;
  std::uint64_t version_retry = 0;
  MeshStatus status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, key, 111, op_a, &version_a, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, key, 222, op_b, &version_b, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  ASSERT_GT(version_b, version_a);

  // A retry of op A whose ack was lost, arriving only after op B overwrote
  // the key.  The per-key writer slot now names op B, so only the per-node
  // applied-op table can recognise the retry: it must be answered from the
  // record at its original version, never re-executed at a fresh one.
  status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, key, 111, op_a, &version_retry, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  EXPECT_EQ(version_retry, version_a);
  ASSERT_TRUE(DriveUntil(eng, UsToTicks(50'000), [&] { return mesh.Quiescent(); }));

  // Exactly one application of each op, and the intervening write is still
  // the newest data everywhere.
  ASSERT_EQ(mesh.op_versions().count(op_a), 1u);
  EXPECT_EQ(mesh.op_versions().at(op_a), std::vector<std::uint64_t>{version_a});
  ASSERT_EQ(mesh.op_versions().count(op_b), 1u);
  EXPECT_EQ(mesh.op_versions().at(op_b), std::vector<std::uint64_t>{version_b});
  std::uint64_t dedups = 0;
  for (std::uint32_t m = 0; m < 4; ++m) {
    dedups += mesh.node_counters(m).put_dedups;
    const Mesh::Entry* e = mesh.Lookup(m, key);
    ASSERT_NE(e, nullptr) << m;
    EXPECT_EQ(e->value, 222u) << m;
    EXPECT_EQ(e->version, version_b) << m;
  }
  EXPECT_EQ(dedups, 1u);

  mesh.Shutdown();
  eng.RunUntilIdle();
}

TEST(MeshTest, RecoverRestoresEveryHeldKeyIncludingKeyZero) {
  hsim::Engine eng;
  MeshConfig mc = SmallMesh();
  Mesh mesh(&eng, mc);
  mesh.Start();

  // Crash and promptly recover a holder of key 0 with no load: nobody
  // suspects it, so the ring never changes and the victim must rebuild its
  // entire held set -- key 0 included -- purely from the sync pulls.
  const std::uint32_t victim = mesh.ring().OwnerOf(0);
  eng.Spawn(mesh.KillAt(UsToTicks(100), victim));
  eng.Spawn(mesh.RecoverAt(UsToTicks(200), victim));
  ASSERT_TRUE(DriveUntil(eng, UsToTicks(200'000),
                         [&] { return mesh.timeline(victim).synced_at != 0; }));

  for (std::uint64_t key = 0; key < mc.keys(); ++key) {
    const auto holders = mesh.HoldersOf(key);
    if (std::find(holders.begin(), holders.end(), victim) == holders.end()) {
      continue;
    }
    const Mesh::Entry* e = mesh.Lookup(victim, key);
    ASSERT_NE(e, nullptr) << "resync never restored key " << key;
    EXPECT_EQ(e->value, key * 7 + 1) << key;  // preload value
    EXPECT_EQ(e->version, 1u) << key;
  }

  mesh.Shutdown();
  eng.RunUntilIdle();
}

TEST(MeshTest, RetryAfterRecoveryDedupsFromSyncedOps) {
  hsim::Engine eng;
  Mesh mesh(&eng, SmallMesh());
  mesh.Start();

  const std::uint64_t key = 2;  // hot: every machine is a holder
  const std::uint32_t victim = mesh.ring().OwnerOf(key);
  const std::uint32_t writer = (victim + 1) % 4;
  const std::uint64_t op_a = ClientOpId(writer, 0);
  const std::uint64_t op_b = ClientOpId(writer, 1);

  std::uint64_t version_a = 0;
  std::uint64_t version_b = 0;
  MeshStatus status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, key, 111, op_a, &version_a, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, key, 222, op_b, &version_b, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(50'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  ASSERT_TRUE(DriveUntil(eng, UsToTicks(50'000), [&] { return mesh.Quiescent(); }));

  // Crash the owner (its dedup table dies with it) and recover it.  The ops
  // sync must rebuild the record for op A from the surviving replicas even
  // though every store's per-key writer slot now names op B.
  const hsim::Tick now = eng.now();
  eng.Spawn(mesh.KillAt(now + UsToTicks(100), victim));
  eng.Spawn(mesh.RecoverAt(now + UsToTicks(200), victim));
  ASSERT_TRUE(DriveUntil(eng, UsToTicks(400'000),
                         [&] { return mesh.timeline(victim).synced_at != 0; }));

  // A late retry of op A routed to the rejoined owner must dedup, not
  // re-execute.
  std::uint64_t version_retry = 0;
  status = MeshStatus::kPending;
  eng.Spawn(OneWrite(&mesh, writer, key, 111, op_a, &version_retry, &status));
  ASSERT_TRUE(
      DriveUntil(eng, UsToTicks(450'000), [&] { return status != MeshStatus::kPending; }));
  ASSERT_EQ(status, MeshStatus::kOk);
  EXPECT_EQ(version_retry, version_a);
  ASSERT_EQ(mesh.op_versions().count(op_a), 1u);
  EXPECT_EQ(mesh.op_versions().at(op_a), std::vector<std::uint64_t>{version_a});
  EXPECT_EQ(mesh.node_counters(victim).put_dedups, 1u);
  EXPECT_GT(mesh.node_counters(victim).sync_ops_in, 0u);

  mesh.Shutdown();
  eng.RunUntilIdle();
}

// --- full-load scenarios ------------------------------------------------------

struct LoadResult {
  std::uint64_t digest = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t local_reads = 0;
  std::uint64_t forwarded_reads = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t unavailable = 0;  // calls abandoned on a failover (kUnavailable)
  std::uint64_t failovers = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t partitioned = 0;
  std::vector<AckedWrite> acked;
  bool all_done = false;
};

// Audits the mesh after a drained run (AuditAckedWrites): exact-once and zero
// lost acked writes.
void AuditMesh(const Mesh& mesh, const std::vector<AckedWrite>& acked) {
  for (const AuditViolation& v : AuditAckedWrites(mesh, acked)) {
    ADD_FAILURE() << v.what;
  }
}

// One complete load scenario: 4 machines, a client per machine (none on a
// killed machine), optional transport faults, and optional machine faults.
struct LoadScenario {
  const hsim::FaultConfig* faults = nullptr;
  bool partition_window = false;  // unplug machine 1 from 1 ms to 2.5 ms
  bool kill_recover = false;      // crash machine 3 at 1 ms, recover it at 3 ms
  double read_fraction = 0.9;
  std::uint64_t ops = 200;        // per client
  double rate_per_s = 150'000;    // per client
  std::uint32_t window = 8;       // ClientConfig::window
  bool audit = true;
};

constexpr std::uint32_t kLoadVictim = 3;

LoadResult RunLoadScenario(const LoadScenario& sc) {
  hsim::Engine eng;
  MeshConfig mc = SmallMesh();
  Mesh mesh(&eng, mc);
  if (sc.faults != nullptr) {
    mesh.set_fault_plan(*sc.faults);
  }
  if (sc.partition_window) {
    // Unplug machine 1 for 1.5 ms mid-run; it stays a ring member throughout.
    mesh.fault_plan()->PartitionNode(1, UsToTicks(1000), UsToTicks(2500));
  }
  mesh.Start();

  ClientConfig cc;
  cc.workload.num_clusters = mc.machines;
  cc.workload.keys_per_cluster = mc.keys_per_machine;
  cc.workload.read_fraction = sc.read_fraction;
  cc.workload.seed = 42;
  cc.ops = sc.ops;
  cc.rate_per_s = sc.rate_per_s;
  cc.window = sc.window;
  const std::uint32_t clients = sc.kill_recover ? mc.machines - 1 : mc.machines;
  std::vector<ClientStats> stats(clients);
  for (std::uint32_t m = 0; m < clients; ++m) {
    eng.Spawn(RunClient(&mesh, m, cc, &stats[m]));
  }
  if (sc.kill_recover) {
    eng.Spawn(mesh.KillAt(UsToTicks(1000), kLoadVictim));
    eng.Spawn(mesh.RecoverAt(UsToTicks(3000), kLoadVictim));
  }

  LoadResult r;
  r.all_done = DriveUntil(eng, UsToTicks(1'000'000), [&] {
    return std::all_of(stats.begin(), stats.end(),
                       [](const ClientStats& s) { return s.done; }) &&
           (!sc.kill_recover || mesh.timeline(kLoadVictim).synced_at != 0);
  });
  // Quiescent also holds every lane back in its pool: a call that returns
  // without handing its lane back shows here.
  EXPECT_TRUE(DriveUntil(eng, UsToTicks(1'100'000), [&] { return mesh.Quiescent(); }));

  for (std::uint32_t m = 0; m < clients; ++m) {
    r.issued += stats[m].issued;
    r.completed += stats[m].completed;
    r.failed += stats[m].failed;
    r.local_reads += stats[m].local_reads;
    r.forwarded_reads += stats[m].forwarded_reads;
    r.retransmits += mesh.node_counters(m).retransmits;
    r.unavailable += mesh.node_counters(m).unavailable;
    r.acked.insert(r.acked.end(), stats[m].acked_writes.begin(),
                   stats[m].acked_writes.end());
  }
  r.failovers = mesh.failovers();
  r.resyncs = mesh.resyncs();
  if (mesh.fault_plan() != nullptr) {
    r.partitioned = mesh.fault_plan()->counters().partitioned();
  }
  r.digest = mesh.Digest();
  if (sc.audit) {
    AuditMesh(mesh, r.acked);
  }
  EXPECT_TRUE(KillAndDrain(eng, mesh));
  return r;
}

TEST(MeshLoadTest, CleanTransportExactOnce) {
  const LoadResult r = RunLoadScenario(LoadScenario{});
  ASSERT_TRUE(r.all_done);
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.local_reads, 0u);
  EXPECT_GT(r.forwarded_reads, 0u);
  // The zipf head is hot and replicated everywhere: most reads are local.
  EXPECT_GT(r.local_reads, r.forwarded_reads);
  EXPECT_EQ(r.failovers, 0u);
}

TEST(MeshLoadTest, LossyTransportExactOnce) {
  hsim::FaultConfig faults;
  faults.drop_request = 0.03;
  faults.drop_reply = 0.03;
  faults.dup_request = 0.02;
  faults.delay_request = 0.05;
  faults.seed = 99;
  const LoadResult r = RunLoadScenario(LoadScenario{.faults = &faults});
  ASSERT_TRUE(r.all_done);
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.retransmits, 0u);  // the loss actually bit
  // Losses must never evict a live machine: retransmits recover, the
  // directory only commits failover for a machine that is really down.
  EXPECT_EQ(r.failovers, 0u);
}

// The lossy run again with more ops in flight per machine than lanes: an
// offered rate far past capacity keeps the 64-op window full, so client puts
// and forwarded gets queue for lanes while retransmits and dedup run.
LoadScenario OverloadedLossy(const hsim::FaultConfig* faults) {
  return LoadScenario{.faults = faults,
                      .read_fraction = 0.5,
                      .ops = 400,
                      .rate_per_s = 2'000'000,
                      .window = 64};
}

TEST(MeshLoadTest, LossyTransportExactOnceWindowAboveLanes) {
  hsim::FaultConfig faults;
  faults.drop_request = 0.03;
  faults.drop_reply = 0.03;
  faults.dup_request = 0.02;
  faults.delay_request = 0.05;
  faults.seed = 99;
  const LoadResult r = RunLoadScenario(OverloadedLossy(&faults));
  ASSERT_TRUE(r.all_done) << "completed " << r.completed << "/" << r.issued;
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.retransmits, 0u);
  EXPECT_EQ(r.failovers, 0u);
}

// The same overload with a crash and recovery of machine 3: its resync pulls
// run on leaf lanes while the survivors' client lanes are saturated, and the
// survivors' calls to it end kUnavailable at the failover, returning their
// lanes (RunLoadScenario checks the pools are full at the end).
TEST(MeshLoadTest, KillRecoverExactOnceWindowAboveLanes) {
  hsim::FaultConfig faults;
  faults.drop_request = 0.01;
  faults.drop_reply = 0.01;
  faults.dup_request = 0.005;
  faults.seed = 1234;
  LoadScenario sc = OverloadedLossy(&faults);
  sc.kill_recover = true;
  const LoadResult r = RunLoadScenario(sc);
  ASSERT_TRUE(r.all_done) << "completed " << r.completed << "/" << r.issued;
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_EQ(r.resyncs, 1u);
  EXPECT_GT(r.unavailable, 0u);  // the failover path ran
}

TEST(MeshLoadTest, DeterministicReplay) {
  hsim::FaultConfig faults;
  faults.drop_request = 0.02;
  faults.drop_reply = 0.02;
  faults.dup_reply = 0.02;
  faults.seed = 7;
  const LoadScenario sc{.faults = &faults, .audit = false};
  const LoadResult a = RunLoadScenario(sc);
  const LoadResult b = RunLoadScenario(sc);
  ASSERT_TRUE(a.all_done);
  ASSERT_TRUE(b.all_done);
  EXPECT_EQ(a.digest, b.digest);  // bit-identical replay
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retransmits, b.retransmits);
}

TEST(MeshLoadTest, PartitionedMachineIsNotEvicted) {
  hsim::FaultConfig faults;  // no probabilistic faults; only the window
  const LoadResult r =
      RunLoadScenario(LoadScenario{.faults = &faults, .partition_window = true});
  ASSERT_TRUE(r.all_done);
  // Ops stall against the partitioned machine but complete after the heal;
  // nothing is lost and -- critically -- the live machine was never evicted.
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.partitioned, 0u);   // the window actually dropped traffic
  EXPECT_GT(r.retransmits, 0u);
  EXPECT_EQ(r.failovers, 0u);
}

// The lane deadlock: two machines, each firing 4 x lanes puts at once at keys
// the *other* owns.  With one lane pool per machine, client puts hold every
// lane while the peer's put handlers wait for a lane to send their kUpdate
// back, and nothing ever completes.  Leaf-class lanes for the fan-out break
// the cycle, so every put is acked well inside the deadline.
TEST(MeshTest, CrossOwnerPutsBeyondLanesDoNotDeadlock) {
  hsim::Engine eng;
  MeshConfig mc = SmallMesh(2);
  mc.lanes = 2;
  Mesh mesh(&eng, mc);
  mesh.Start();

  const std::uint32_t per_machine = 4 * mc.lanes;
  struct Put {
    std::uint32_t writer = 0;
    std::uint64_t key = 0;
    std::uint64_t op_id = 0;
    std::uint64_t version = 0;
    MeshStatus status = MeshStatus::kPending;
  };
  std::vector<Put> puts;
  for (std::uint32_t m = 0; m < mc.machines; ++m) {
    std::uint64_t key = 0;
    for (std::uint32_t i = 0; i < per_machine; ++i, ++key) {
      while (mesh.ring().OwnerOf(key) == m) {
        ++key;
      }
      ASSERT_LT(key, mc.keys());
      puts.push_back(Put{m, key, ClientOpId(m, i)});
    }
  }
  for (Put& put : puts) {  // no reallocation from here on: tasks hold pointers
    eng.Spawn(OneWrite(&mesh, put.writer, put.key, put.op_id, put.op_id, &put.version,
                       &put.status));
  }

  const auto acked = [&] {
    return static_cast<std::uint64_t>(std::count_if(
        puts.begin(), puts.end(), [](const Put& put) { return put.status == MeshStatus::kOk; }));
  };
  const bool all_acked =
      DriveUntil(eng, UsToTicks(20'000), [&] { return acked() == puts.size(); });
  EXPECT_TRUE(all_acked) << "only " << acked() << "/" << puts.size()
                         << " puts acked by the deadline";
  if (all_acked) {
    std::vector<AckedWrite> writes;
    for (const Put& put : puts) {
      writes.push_back(AckedWrite{put.key, put.op_id, put.version, put.op_id});
    }
    AuditMesh(mesh, writes);
  }
  EXPECT_TRUE(KillAndDrain(eng, mesh));
}

// A Kill must fence every kind of parked waiter on the victim at once: the
// idle server, a call waiting for a reply, client- and leaf-lane waiters, a
// put waiting for its key and a put waiting on its fan-out join.  Machine
// `slow` is unplugged, so calls to it never return and the victim piles up
// waiters behind them on one lane per class.
TEST(MeshTest, KillFencesEveryParkedWaiter) {
  hsim::Engine eng;
  MeshConfig mc = SmallMesh();
  mc.lanes = 1;
  Mesh mesh(&eng, mc);
  mesh.set_fault_plan(hsim::FaultConfig{});
  const std::uint32_t victim = 0;
  // A hot key the victim owns: its put updates the failover owner, then fans
  // out to the other two holders in parallel.  Unplug the first of those.
  std::uint64_t hot = 0;
  for (; mesh.ring().OwnerOf(hot) != victim; ++hot) {
    ASSERT_LT(hot, mc.hot_ranks * mc.machines);
  }
  const std::vector<std::uint32_t> holders = mesh.HoldersOf(hot);
  ASSERT_EQ(holders.size(), 4u);
  const std::uint32_t slow = holders[2];
  mesh.fault_plan()->PartitionNode(slow, 0);
  // A cold key the slow machine owns and the victim does not hold.
  std::uint64_t cold = mc.hot_ranks * mc.machines;
  for (;; ++cold) {
    ASSERT_LT(cold, mc.keys());
    const std::vector<std::uint32_t> h = mesh.HoldersOf(cold);
    if (h[0] == slow && std::find(h.begin(), h.end(), victim) == h.end()) {
      break;
    }
  }
  mesh.Start();

  std::uint64_t version = 0;
  std::uint64_t value = 0;
  bool local = false;
  MeshStatus status[4] = {MeshStatus::kPending, MeshStatus::kPending, MeshStatus::kPending,
                          MeshStatus::kPending};
  eng.Spawn(OneWrite(&mesh, victim, hot, 1, ClientOpId(victim, 0), &version, &status[0]));
  eng.Spawn(OneWrite(&mesh, victim, hot, 2, ClientOpId(victim, 1), &version, &status[1]));
  eng.Spawn(OneRead(&mesh, victim, cold, &value, &local, &status[2]));
  eng.Spawn(OneRead(&mesh, victim, cold, &value, &local, &status[3]));
  eng.RunUntil(UsToTicks(1'000));

  EXPECT_TRUE(MeshTestPeer::ServerParked(mesh, victim));
  EXPECT_TRUE(MeshTestPeer::KeyWaiters(mesh, victim, hot));      // the second put
  EXPECT_TRUE(MeshTestPeer::LaneWaiters(mesh, victim, 0));       // the second read
  EXPECT_TRUE(MeshTestPeer::LaneWaiters(mesh, victim, 1));       // the fan-out leg to holders[3]
  EXPECT_EQ(MeshTestPeer::ParkedCalls(mesh, victim), 2u);        // first read, leg to `slow`
  for (const MeshStatus s : status) {
    EXPECT_EQ(s, MeshStatus::kPending);
  }
  const std::uint64_t servers = mc.machines;
  EXPECT_EQ(eng.live_tasks(), servers + 4 + 2);  // + client ops + fan-out legs

  mesh.Kill(victim);
  eng.RunUntil(eng.now() + UsToTicks(1'000));
  for (const MeshStatus s : status) {
    EXPECT_EQ(s, MeshStatus::kUnavailable);
  }
  EXPECT_FALSE(MeshTestPeer::ServerParked(mesh, victim));
  EXPECT_FALSE(MeshTestPeer::KeyWaiters(mesh, victim, hot));
  EXPECT_FALSE(MeshTestPeer::LaneWaiters(mesh, victim, 0));
  EXPECT_FALSE(MeshTestPeer::LaneWaiters(mesh, victim, 1));
  EXPECT_EQ(MeshTestPeer::ParkedCalls(mesh, victim), 0u);
  EXPECT_EQ(eng.live_tasks(), servers - 1);  // only the survivors' servers

  mesh.Shutdown();
  EXPECT_TRUE(eng.RunUntil(eng.now() + UsToTicks(100'000)));
  EXPECT_EQ(eng.live_tasks(), 0u);
}

// Recovery inside one net_poll of the kill: the old ServerLoop, woken by the
// Kill, has not yet resumed when the new one parks on the same inbox.  The
// old one must exit without taking the new one's wakes, and the new one must
// serve a forwarded get after the rejoin.
TEST(MeshTest, RecoverWithinOnePollStillServesForwardedGets) {
  hsim::Engine eng;
  MeshConfig mc = SmallMesh();
  mc.hot_ranks = 0;  // every key on two holders, so gets from the others forward
  Mesh mesh(&eng, mc);
  mesh.Start();
  const std::uint32_t victim = 0;
  // The servers parked at tick 0, so they poll on multiples of net_poll; kill
  // one tick after a poll and recover half a poll later.
  const Tick kill_at = 20 * mc.net_poll + 1;
  const Tick recover_at = kill_at + mc.net_poll / 2;
  ASSERT_LT(recover_at, 21 * mc.net_poll);
  eng.Spawn(mesh.KillAt(kill_at, victim));
  eng.Spawn(mesh.RecoverAt(recover_at, victim));
  ASSERT_TRUE(DriveUntil(eng, UsToTicks(100'000),
                         [&] { return mesh.timeline(victim).synced_at != 0; }));
  EXPECT_EQ(eng.live_tasks(), mc.machines);  // one ServerLoop each: the old one exited
  EXPECT_TRUE(MeshTestPeer::ServerParked(mesh, victim));

  std::uint64_t key = 0;
  std::uint32_t reader = 0;
  for (;; ++key) {
    ASSERT_LT(key, mc.keys());
    if (mesh.ring().OwnerOf(key) != victim) {
      continue;
    }
    const std::vector<std::uint32_t> holders = mesh.HoldersOf(key);
    reader = 0;
    while (reader < mc.machines &&
           std::find(holders.begin(), holders.end(), reader) != holders.end()) {
      ++reader;
    }
    if (reader < mc.machines) {
      break;
    }
  }
  std::uint64_t value = 0;
  bool local = true;
  MeshStatus status = MeshStatus::kPending;
  const std::uint64_t served = mesh.node_counters(victim).gets_served;
  eng.Spawn(OneRead(&mesh, reader, key, &value, &local, &status));
  ASSERT_TRUE(
      DriveUntil(eng, eng.now() + UsToTicks(10'000), [&] { return status != MeshStatus::kPending; }));
  EXPECT_EQ(status, MeshStatus::kOk);
  EXPECT_FALSE(local);
  EXPECT_EQ(value, key * 7 + 1);
  EXPECT_EQ(mesh.node_counters(victim).gets_served, served + 1);

  mesh.Shutdown();
  eng.RunUntilIdle();
  EXPECT_EQ(eng.live_tasks(), 0u);
}

}  // namespace
}  // namespace hmesh
