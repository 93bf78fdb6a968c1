// The distributed serving tier's contracts, pinned end to end over real
// forked worker processes:
//
//   1. Healthy = exact. A router over 1/2/4/8 workers returns distances
//      bit-equal to the in-process ShardedLaesa, and neighbours and
//      QueryStats equal to the shard-local reference
//      (`ShardLocalReference`, serve/replica.h): one `ShardReplica::Query`
//      per shard under the router's seed cap, merged by `MergeTopK`.
//   2. Degraded = correctly flagged. Crashed (kill -9), unresponsive,
//      and corrupt-stream workers cost exactly their shard: results come
//      back partial with the missed shards named, surviving distances
//      stay exact, respawn restores full health, and the same fault
//      schedule over the same queries reproduces identical partial
//      results run to run.
//   3. Replicated = exact through failure. With a replica group of R=2
//      per shard (the default), losing any shard's *primary* — injected
//      crash, a mangled reply or a real kill -9 — resends the same
//      request to the standby, and the query completes exact and
//      UNFLAGGED. Only losing a whole group degrades. Slow primaries are
//      hedged; standbys that disagree in (or hang through) the sampled
//      audit are evicted;
//      the health loop revives dead replicas in the background.
//
// Every fault targets `op=query`, the one read request. A standby only
// receives audited, hedged or failed-over requests, so it counts its own
// requests: a directive without `replica=` and nth=1 takes out a whole
// group within one query (the primary's request, then the failover's).

#include <gtest/gtest.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/sharded_laesa.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"
#include "tests/serve_test_util.h"

namespace cned {
namespace {

using Workload = ServeWorkload;
using TempDir = ServeTempDir;

Workload MakeWorkload(std::size_t words, std::size_t queries,
                      std::uint64_t seed) {
  return MakeServeWorkload(words, queries, seed);
}

/// In-process reference index + its serving snapshot on disk + the
/// shard-local reference over that snapshot.
struct Deployment {
  TempDir dir;
  std::vector<std::string> protos;
  std::unique_ptr<ShardedPrototypeStore> store;
  std::unique_ptr<ShardedLaesa> index;
  std::unique_ptr<ShardLocalReference> ref;

  Deployment(const std::vector<std::string>& p, std::size_t shards,
             std::size_t pivots,
             TablePrecision precision = DefaultTablePrecision())
      : protos(p) {
    store = std::make_unique<ShardedPrototypeStore>(protos, shards);
    index = std::make_unique<ShardedLaesa>(*store, MakeDistance("dE"), pivots,
                                           /*first_pivot=*/0, precision);
    SaveServingSnapshot(*index, dir.path);
    ref = std::make_unique<ShardLocalReference>(dir.path, *index, "dE");
  }

  /// The full healthy contract for `got` = a read of (q, k).
  void Expect(const ServeResult& got, const std::string& q, std::size_t k,
              const std::string& context) const {
    ExpectServedExact(got, index->KNearest(q, k), ReferenceRead(*ref, q, k),
                      context);
  }

  /// Degraded answers: every reported distance is still the true one,
  /// and every id appears once.
  void ExpectTrueDistances(const ServeResult& got, const std::string& q,
                           const std::string& context) const {
    auto dist = MakeDistance("dE");
    std::vector<std::size_t> seen;
    for (const NeighborResult& nb : got.neighbors) {
      ASSERT_LT(nb.index, protos.size()) << context;
      EXPECT_EQ(nb.distance, dist->Distance(q, protos[nb.index])) << context;
      EXPECT_EQ(std::count(seen.begin(), seen.end(), nb.index), 0)
          << context << " duplicate id " << nb.index;
      seen.push_back(nb.index);
    }
  }
};

ServeOptions FastOptions() {
  ServeOptions opt;
  opt.distance = "dE";
  opt.op_timeout_ms = 400;  // drop faults resolve in sub-second time
  opt.op_retries = 2;
  opt.backoff_base_ms = 2;
  return opt;
}

// --- Contract 1: healthy exactness -----------------------------------------

TEST(ServeDistributedTest, HealthyReadsExactAcrossWorkerCounts) {
  Workload w = MakeWorkload(120, 8, 7100);
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    Deployment dep(w.protos, shards, 8);
    ServeRouter router(dep.dir.path, FastOptions());
    ASSERT_EQ(router.shard_count(), shards);
    ASSERT_EQ(router.size(), w.protos.size());
    ASSERT_EQ(router.pivots(), dep.index->pivots());
    for (const auto& q : w.queries) {
      const std::string ctx = "S=" + std::to_string(shards) + " q=" + q;
      dep.Expect(router.Nearest(q), q, 1, ctx + " k=1");
      dep.Expect(router.KNearest(q, 5), q, 5, ctx + " k=5");
    }
  }
}

TEST(ServeDistributedTest, BatchAndRowReadsEqualKNearest) {
  Workload w = MakeWorkload(120, 8, 7200);
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    Deployment dep(w.protos, shards, 8);
    ServeRouter router(dep.dir.path, FastOptions());
    const auto got = router.KNearestBatch(w.queries, 4);
    ASSERT_EQ(got.size(), w.queries.size());
    std::vector<double> row(dep.index->pivot_count());
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      const std::string ctx =
          "S=" + std::to_string(shards) + " q=" + w.queries[i];
      dep.Expect(got[i], w.queries[i], 4, ctx + " batch");
      dep.index->ComputePivotRow(w.queries[i], row.data());
      dep.Expect(router.KNearestWithRow(w.queries[i], 4, row), w.queries[i],
                 4, ctx + " row");
    }
    EXPECT_THROW(router.KNearestWithRow(w.queries[0], 4, {1.0}),
                 std::invalid_argument);
  }
}

// --- Contract 2: flagged degradation ---------------------------------------

TEST(ServeDistributedTest, CrashDegradesExactlyThatShard) {
  Workload w = MakeWorkload(150, 3, 7300);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Both members of shard 2 crash on their first query: the primary on
  // the scatter, the standby on the failover.
  opt.fault_spec = "crash:shard=2,op=query,nth=1";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  const ServeResult r = router.KNearest(w.queries[0], 3);
  EXPECT_TRUE(r.partial);
  ASSERT_EQ(r.missing_shards, std::vector<std::size_t>{2});
  EXPECT_EQ(r.stats.shards_degraded, 1u);
  EXPECT_EQ(r.neighbors.size(), 3u);  // pivots and three shards answered
  EXPECT_FALSE(router.worker_alive(2));
  dep.ExpectTrueDistances(r, w.queries[0], "degraded");

  // Respawn restores full health and exactness: two processes revived.
  EXPECT_FALSE(router.PingAll());
  EXPECT_EQ(router.RespawnDead(), 2u);
  EXPECT_TRUE(router.PingAll());
  dep.Expect(router.KNearest(w.queries[1], 3), w.queries[1], 3,
             "post-respawn");
}

TEST(ServeDistributedTest, UnansweredQueryWithoutRetriesDegrades) {
  Workload w = MakeWorkload(100, 2, 7400);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Shard 1's members each swallow their first query and no retry is
  // allowed: the primary (and the hedge racing it) miss the op timeout,
  // both are condemned, and the shard is missing.
  opt.fault_spec = "drop:shard=1,op=query,nth=1";
  opt.op_retries = 0;
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  const ServeResult r = router.Nearest(w.queries[0]);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards, std::vector<std::size_t>{1});
  EXPECT_FALSE(router.worker_alive(1));
  dep.ExpectTrueDistances(r, w.queries[0], "dropped");
}

TEST(ServeDistributedTest, UnresponsiveQueryIsRetriedTransparently) {
  Workload w = MakeWorkload(100, 4, 7500);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Dropped requests on two shards, hedging off: every request is
  // idempotent, so the retry to the same primary absorbs the loss with no
  // effect on the answer and nobody dies.
  opt.fault_spec = "drop:shard=1,op=query,nth=1|drop:shard=3,op=query,nth=2";
  opt.hedge_delay_ms = -1;
  ServeRouter router(dep.dir.path, opt);
  for (const auto& q : w.queries) {
    const ServeResult r = router.KNearest(q, 3);
    dep.Expect(r, q, 3, "retried q=" + q);
    EXPECT_EQ(r.failovers, 0u);
  }
  EXPECT_TRUE(router.PingAll());
}

TEST(ServeDistributedTest, CorruptReplyIsTreatedAsDeadShard) {
  Workload w = MakeWorkload(100, 2, 7600);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  opt.fault_spec = "corrupt:shard=0,op=query,nth=1";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  const ServeResult r = router.Nearest(w.queries[0]);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards, std::vector<std::size_t>{0});
  EXPECT_FALSE(router.worker_alive(0));
}

TEST(ServeDistributedTest, DeadlineExpiryReturnsFlaggedPartialIncumbents) {
  Workload w = MakeWorkload(200, 1, 7700);
  Deployment dep(w.protos, 4, 12);
  ServeOptions opt = FastOptions();
  // Every shard answers after the query deadline: the router must hand
  // back the exact pivot incumbents, flagged, with the shards named —
  // not block.
  opt.fault_spec = "delay:op=query,ms=300";
  opt.query_deadline_ms = 250;
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  const ServeResult r = router.KNearest(w.queries[0], 5);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(r.stats.shards_degraded, r.missing_shards.size());
  EXPECT_EQ(r.stats.distance_computations, dep.index->pivot_count());
  EXPECT_EQ(r.neighbors.size(), 5u);
  dep.ExpectTrueDistances(r, w.queries[0], "deadline");
}

TEST(ServeDistributedTest, DeadlineMissesOnlyTheShardsThatHaveNotAnswered) {
  Workload w = MakeWorkload(200, 3, 7750);
  Deployment dep(w.protos, 4, 12);
  ServeOptions opt = FastOptions();
  // Only shard 0 answers after the deadline. The router gathers shard 0
  // first and spends the whole budget there, but shards 1..3 answered
  // long before: their replies must be merged, not declared missing.
  opt.replicas = 1;
  opt.fault_spec = "delay:shard=0,op=query,ms=500";
  opt.query_deadline_ms = 150;
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  auto dist = MakeDistance("dE");
  const std::size_t k = 5;
  for (const auto& q : w.queries) {
    const ServeResult r = router.KNearest(q, k);
    EXPECT_TRUE(r.partial) << q;
    EXPECT_EQ(r.missing_shards, std::vector<std::size_t>{0}) << q;
    EXPECT_EQ(r.stats.shards_degraded, 1u) << q;
    EXPECT_GT(r.stats.distance_computations, dep.index->pivot_count()) << q;
    dep.ExpectTrueDistances(r, q, "slow shard 0 q=" + q);
    // Exact over what answered: the pivots plus shards 1..3.
    std::vector<double> want;
    for (std::size_t i = 0; i < w.protos.size(); ++i) {
      const auto& piv = dep.index->pivots();
      if (dep.store->ShardOf(i) != 0 ||
          std::find(piv.begin(), piv.end(), i) != piv.end()) {
        want.push_back(dist->Distance(q, w.protos[i]));
      }
    }
    std::sort(want.begin(), want.end());
    want.resize(k);
    ASSERT_EQ(r.neighbors.size(), k) << q;
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(r.neighbors[i].distance, want[i]) << q << " rank " << i;
    }
  }
}

TEST(ServeDistributedTest, CrashMidBatchCostsOneQueryAndAutoRespawns) {
  Workload w = MakeWorkload(120, 6, 7800);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Shard 1's primary dies on query 3, its standby on the failover:
  // respawn runs between queries, so exactly one answer is partial.
  opt.fault_spec =
      "crash:shard=1,op=query,nth=3,replica=0|"
      "crash:shard=1,op=query,nth=1,replica=1";
  // The schedule counts the standby's requests; a hedge on a slow machine
  // would spend one early.
  opt.hedge_delay_ms = -1;
  ServeRouter router(dep.dir.path, opt);
  const auto got = router.KNearestBatch(w.queries, 3);
  ASSERT_EQ(got.size(), w.queries.size());
  std::size_t partials = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].partial) {
      ++partials;
      EXPECT_EQ(i, 2u);
      EXPECT_EQ(got[i].missing_shards, std::vector<std::size_t>{1}) << i;
      continue;
    }
    dep.Expect(got[i], w.queries[i], 3, "batch q=" + w.queries[i]);
  }
  EXPECT_EQ(partials, 1u);
  EXPECT_TRUE(router.worker_alive(1));
}

TEST(ServeDistributedTest, KillNineOfWholeGroupIsSurvivedFlaggedAndRecovered) {
  Workload w = MakeWorkload(120, 5, 7900);
  Deployment dep(w.protos, 4, 8);
  ServeRouter router(dep.dir.path, FastOptions());
  dep.Expect(router.KNearest(w.queries[0], 3), w.queries[0], 3, "pre-kill");

  // A real kill -9 of shard 2's *entire replica group*, not an injected
  // fault: the workers vanish between queries and the router finds out
  // mid-query from the dead sockets. With no member left to fail over
  // to, the shard degrades.
  std::vector<pid_t> victims;
  for (std::size_t r = 0; r < router.replica_count(); ++r) {
    const pid_t victim = router.replica_pid(2, r);
    ASSERT_GT(victim, 0);
    ASSERT_EQ(kill(victim, SIGKILL), 0);
    victims.push_back(victim);
  }

  const ServeResult during = router.KNearest(w.queries[1], 3);
  EXPECT_TRUE(during.partial);
  EXPECT_EQ(during.missing_shards, std::vector<std::size_t>{2});
  dep.ExpectTrueDistances(during, w.queries[1], "during");

  // auto_respawn brings shard 2 back for the next query, under fresh pids.
  dep.Expect(router.KNearest(w.queries[2], 3), w.queries[2], 3,
             "post-respawn");
  EXPECT_TRUE(router.worker_alive(2));
  EXPECT_NE(router.worker_pid(2), victims[0]);
}

// --- Contract 3: replica-group failover ------------------------------------

TEST(ServeDistributedTest, EveryPrimaryCrashedFailsOverExactUnflagged) {
  Workload w = MakeWorkload(150, 3, 8400);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Each shard's *primary* (replica 0) crashes on its 2nd query. The
  // standby maps the same snapshot, so the resent request answers
  // identically and the query comes back exact and unflagged.
  opt.fault_spec = "crash:op=query,nth=2,replica=0";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  const ServeResult r0 = router.KNearest(w.queries[0], 3);
  dep.Expect(r0, w.queries[0], 3, "pre-crash");
  EXPECT_EQ(r0.failovers, 0u);
  const ServeResult r = router.KNearest(w.queries[1], 3);
  dep.Expect(r, w.queries[1], 3, "failover");
  EXPECT_EQ(r.failovers, 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(router.primary_of(s), 1u) << "shard " << s;
    EXPECT_FALSE(router.replica_alive(s, 0)) << "shard " << s;
    EXPECT_TRUE(router.replica_alive(s, 1)) << "shard " << s;
  }

  // The promotion is durable: the next query runs on the standbys with no
  // further failovers (and no respawn ever happened).
  const ServeResult r2 = router.KNearest(w.queries[2], 3);
  dep.Expect(r2, w.queries[2], 3, "post-failover");
  EXPECT_EQ(r2.failovers, 0u);
}

TEST(ServeDistributedTest, EveryPrimaryCrashedMidBatchStaysExactUnflagged) {
  Workload w = MakeWorkload(150, 5, 8500);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  opt.fault_spec = "crash:op=query,nth=2,replica=0";
  ServeRouter router(dep.dir.path, opt);
  const auto got = router.KNearestBatch(w.queries, 3);
  ASSERT_EQ(got.size(), w.queries.size());
  std::size_t failovers = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    dep.Expect(got[i], w.queries[i], 3, "batch failover q=" + w.queries[i]);
    failovers += got[i].failovers;
  }
  EXPECT_EQ(failovers, 4u);  // one per shard, all in the second query
}

TEST(ServeDistributedTest, MangledPrimaryReplyFailsOverExact) {
  Workload w = MakeWorkload(120, 2, 8550);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Shard 2's primary flips a byte of its first reply, CRC intact: the
  // answer no longer decodes, so the primary is dead and the standby
  // answers the same request.
  opt.fault_spec = "mangle:shard=2,op=query,nth=1,replica=0";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  const ServeResult r = router.KNearest(w.queries[0], 3);
  dep.Expect(r, w.queries[0], 3, "mangled primary");
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_FALSE(router.replica_alive(2, 0));
  EXPECT_EQ(router.primary_of(2), 1u);
}

TEST(ServeDistributedTest, RealKillNineOfPrimaryFailsOverMidQuery) {
  Workload w = MakeWorkload(120, 5, 8600);
  Deployment dep(w.protos, 4, 8);
  ServeRouter router(dep.dir.path, FastOptions());
  dep.Expect(router.KNearest(w.queries[0], 3), w.queries[0], 3, "pre-kill");

  // A real kill -9 of shard 2's primary. The router has no idea until the
  // next query's scatter hits the dead socket — it then resends the
  // request to the standby and the answer stays exact and unflagged.
  const pid_t victim = router.worker_pid(2);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(kill(victim, SIGKILL), 0);

  const ServeResult during = router.KNearest(w.queries[1], 3);
  dep.Expect(during, w.queries[1], 3, "kill -9 failover");
  EXPECT_GE(during.failovers, 1u);
  EXPECT_TRUE(router.worker_alive(2));
  EXPECT_NE(router.worker_pid(2), victim);

  // auto_respawn refills the group between queries.
  dep.Expect(router.KNearest(w.queries[2], 3), w.queries[2], 3,
             "post-respawn");
  EXPECT_TRUE(router.PingAll());
  for (std::size_t r = 0; r < router.replica_count(); ++r) {
    EXPECT_TRUE(router.replica_alive(2, r)) << "replica " << r;
  }
}

TEST(ServeDistributedTest, SlowPrimaryQueriesAreHedgedToTheStandby) {
  Workload w = MakeWorkload(120, 2, 8700);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Shard 1's primary answers 100ms late — well inside the op timeout, so
  // without hedging the query would simply crawl. With a 10ms hedge floor
  // the router races the whole request to the standby and takes its
  // (identical) answer; nobody dies, nothing degrades.
  opt.fault_spec = "delay:shard=1,op=query,replica=0,ms=100";
  opt.hedge_delay_ms = 10;
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  std::size_t hedged = 0;
  for (const auto& q : w.queries) {
    const ServeResult r = router.KNearest(q, 3);
    dep.Expect(r, q, 3, "hedged q=" + q);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_EQ(r.replicas_evicted, 0u);
    hedged += r.hedged_evals;
  }
  EXPECT_GT(hedged, 0u);
  // Hedging is a race, not a verdict: the slow primary keeps its job.
  EXPECT_TRUE(router.replica_alive(1, 0));
  EXPECT_TRUE(router.replica_alive(1, 1));
  EXPECT_EQ(router.primary_of(1), 0u);
}

TEST(ServeDistributedTest, DisagreeingStandbyIsEvictedByTheAudit) {
  Workload w = MakeWorkload(120, ServeRouter::kAuditPeriod, 8800);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Shard 2's *standby* mangles the first reply it sends: byte-wrong but
  // CRC-valid. A standby only sees audited requests, and every audited
  // reply is byte-compared with the primary's, so the audit of query
  // kAuditPeriod catches it. The primary's reply is merged — the answer
  // stays exact — and the corrupt standby is evicted.
  opt.fault_spec = "mangle:shard=2,op=query,nth=1,replica=1";
  opt.hedge_delay_ms = -1;  // only the audit may reach the standby
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  std::size_t evicted = 0;
  for (const auto& q : w.queries) {
    const ServeResult r = router.KNearest(q, 3);
    dep.Expect(r, q, 3, "audited q=" + q);
    EXPECT_EQ(r.failovers, 0u);
    evicted += r.replicas_evicted;
  }
  EXPECT_EQ(evicted, 1u);
  EXPECT_TRUE(router.replica_alive(2, 0));
  EXPECT_FALSE(router.replica_alive(2, 1));
  EXPECT_EQ(router.primary_of(2), 0u);
  for (std::size_t s : {0u, 1u, 3u}) {
    EXPECT_TRUE(router.replica_alive(s, 1)) << "agreeing standby " << s;
  }
}

TEST(ServeDistributedTest, HungStandbyIsEvictedByTheAuditOnce) {
  Workload w = MakeWorkload(120, 3 * ServeRouter::kAuditPeriod, 8850);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Every standby hangs far past the op timeout (alive, never answering).
  // The first audit waits out the timeout once and evicts them; the
  // respawned standbys are clean, so later audits cost nothing extra.
  opt.fault_spec = "delay:op=query,replica=1,ms=5000";
  opt.hedge_delay_ms = -1;  // only the audit may reach the standby
  ServeRouter router(dep.dir.path, opt);

  std::size_t evicted = 0;
  std::size_t first_audit = w.queries.size();
  std::vector<double> ms;
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    const auto& q = w.queries[i];
    const auto t0 = std::chrono::steady_clock::now();
    const ServeResult r = router.KNearest(q, 3);
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    dep.Expect(r, q, 3, "hung standby q=" + q);
    EXPECT_EQ(r.failovers, 0u);
    if (r.replicas_evicted > 0 && first_audit == w.queries.size()) {
      first_audit = i;
    }
    evicted += r.replicas_evicted;
  }
  EXPECT_EQ(evicted, router.shard_count());
  EXPECT_LT(first_audit, ServeRouter::kAuditPeriod);
  // The query after the first audit respawns the standbys; from then on
  // no query pays the op timeout, two more audits included.
  for (std::size_t i = ServeRouter::kAuditPeriod + 1; i < ms.size(); ++i) {
    EXPECT_LT(ms[i], opt.op_timeout_ms) << "query " << i;
  }
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    EXPECT_TRUE(router.replica_alive(s, 1)) << "respawned standby " << s;
  }
}

TEST(ServeDistributedTest, AllShardsDeadReturnsAllMissingAscending) {
  Workload w = MakeWorkload(100, 2, 8900);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // Every replica of every shard crashes on its first query: the whole
  // fleet is gone. Every shard is named, ascending; the pivot row runs
  // router-side, so the answer still holds the exact pivot incumbents.
  opt.fault_spec = "crash:op=query,nth=1";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  const ServeResult r = router.KNearest(w.queries[0], 3);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(r.stats.shards_degraded, 4u);
  ASSERT_EQ(r.neighbors.size(), 3u);
  dep.ExpectTrueDistances(r, w.queries[0], "fleet lost");
  for (const NeighborResult& nb : r.neighbors) {
    EXPECT_NE(std::find(router.pivots().begin(), router.pivots().end(),
                        nb.index),
              router.pivots().end());
  }
}

TEST(ServeDistributedTest, HealthLoopRevivesKilledReplicasInBackground) {
  Workload w = MakeWorkload(100, 2, 9000);
  Deployment dep(w.protos, 2, 6);
  ServeOptions opt = FastOptions();
  // Synchronous respawn off: only the background health loop can bring
  // the killed group back.
  opt.auto_respawn = false;
  opt.health_interval_ms = 25;
  ServeRouter router(dep.dir.path, opt);
  dep.Expect(router.KNearest(w.queries[0], 3), w.queries[0], 3, "pre-kill");

  for (std::size_t r = 0; r < router.replica_count(); ++r) {
    const pid_t victim = router.replica_pid(1, r);
    ASSERT_GT(victim, 0);
    ASSERT_EQ(kill(victim, SIGKILL), 0);
  }

  // The loop pings (failure detection), reaps, respawns, re-pings. Give
  // it a generous window; the test only needs eventual recovery.
  bool healthy = false;
  for (int i = 0; i < 400 && !healthy; ++i) {
    healthy = router.replica_alive(1, 0) && router.replica_alive(1, 1) &&
              router.PingAll();
    if (!healthy) usleep(20 * 1000);
  }
  EXPECT_TRUE(healthy);
  dep.Expect(router.KNearest(w.queries[1], 3), w.queries[1], 3,
             "post-revival");
}

TEST(ServeDistributedTest, UnreplicatedTierStillServesExactlyAtROne) {
  Workload w = MakeWorkload(100, 3, 9100);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  opt.replicas = 1;
  ServeRouter router(dep.dir.path, opt);
  ASSERT_EQ(router.replica_count(), 1u);
  for (const auto& q : w.queries) {
    const ServeResult r = router.KNearest(q, 3);
    dep.Expect(r, q, 3, "R=1 q=" + q);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_EQ(r.hedged_evals, 0u);
  }
}

// --- Satellite: option validation ------------------------------------------

TEST(ServeDistributedTest, InvalidOptionsThrowNamingTheField) {
  Workload w = MakeWorkload(40, 1, 9200);
  Deployment dep(w.protos, 2, 4);
  auto expect_invalid = [&](ServeOptions opt, const std::string& field) {
    try {
      ServeRouter router(dep.dir.path, opt);
      FAIL() << "expected std::invalid_argument for " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "message '" << e.what() << "' does not name " << field;
    }
  };
  ServeOptions opt = FastOptions();
  opt.replicas = 0;
  expect_invalid(opt, "replicas");
  opt = FastOptions();
  opt.op_timeout_ms = 0;
  expect_invalid(opt, "op_timeout_ms");
  opt = FastOptions();
  opt.query_deadline_ms = -5;
  expect_invalid(opt, "query_deadline_ms");
  opt = FastOptions();
  opt.op_retries = -1;
  expect_invalid(opt, "op_retries");
  opt = FastOptions();
  opt.backoff_base_ms = -1;
  expect_invalid(opt, "backoff_base_ms");
  opt = FastOptions();
  opt.health_interval_ms = -1;
  expect_invalid(opt, "health_interval_ms");
  opt = FastOptions();
  opt.distance = "";
  expect_invalid(opt, "distance");
}

// --- Satellite: degraded-mode determinism ----------------------------------

void ExpectSameServeResult(const ServeResult& a, const ServeResult& b,
                           const std::string& context) {
  EXPECT_EQ(a.partial, b.partial) << context;
  EXPECT_EQ(a.missing_shards, b.missing_shards) << context;
  EXPECT_TRUE(a.stats == b.stats) << context;
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << context;
  for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].index, b.neighbors[i].index) << context;
    EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance) << context;
  }
}

TEST(ServeDistributedTest, DegradedResultsAreDeterministicAcrossRuns) {
  Workload w = MakeWorkload(140, 5, 8000);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  // A mixed schedule: shard 2 loses its whole group on query 3 (primary
  // crash, then the standby on the failover), and shard 0's primary
  // swallows its 4th request. Counted per directive, the schedule is a
  // pure function of the request sequence — so two fresh routers over the
  // same queries must degrade identically, down to the stats.
  opt.fault_spec =
      "crash:shard=2,op=query,nth=3,replica=0|"
      "crash:shard=2,op=query,nth=1,replica=1|"
      "drop:shard=0,op=query,nth=4,replica=0";
  opt.respawn_fault_spec = "";
  // Hedging off: the dropped request is retried, and no hedge can spend a
  // standby's scheduled request early.
  opt.hedge_delay_ms = -1;
  auto run = [&]() {
    ServeRouter router(dep.dir.path, opt);
    std::vector<ServeResult> out;
    for (const auto& q : w.queries) out.push_back(router.KNearest(q, 3));
    return out;
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  std::size_t partials = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    ExpectSameServeResult(first[i], second[i], "run q=" + w.queries[i]);
    partials += first[i].partial ? 1 : 0;
  }
  EXPECT_EQ(partials, 1u);  // the schedule really fired, exactly once
}

TEST(ServeDistributedTest, DegradedBatchResultsAreDeterministicAcrossRuns) {
  Workload w = MakeWorkload(140, 6, 8100);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = FastOptions();
  opt.fault_spec =
      "crash:shard=3,op=query,nth=2,replica=0|"
      "crash:shard=3,op=query,nth=1,replica=1";
  opt.hedge_delay_ms = -1;
  auto run = [&]() {
    ServeRouter router(dep.dir.path, opt);
    return router.KNearestBatch(w.queries, 3);
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  std::size_t partials = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    ExpectSameServeResult(first[i], second[i],
                          "batch run q=" + w.queries[i]);
    partials += first[i].partial ? 1 : 0;
  }
  EXPECT_EQ(partials, 1u);
}

// --- Snapshot-level robustness ---------------------------------------------

TEST(ServeDistributedTest, CorruptShardSnapshotNeverServes) {
  Workload w = MakeWorkload(80, 2, 8200);
  Deployment dep(w.protos, 2, 6);
  // Flip one payload byte in shard 1's index slice: its worker must fail
  // the pre-map checksum pass and answer with errors, degrading the shard
  // — corrupted bytes are never silently merged into results.
  {
    const std::string path = ShardIndexPath(dep.dir.path, 1);
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 200, SEEK_SET);
    int c = fgetc(f);
    fseek(f, 200, SEEK_SET);
    fputc(c ^ 0x40, f);
    fclose(f);
  }
  ServeOptions opt = FastOptions();
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  const ServeResult r = router.Nearest(w.queries[0]);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards, std::vector<std::size_t>{1});
}

TEST(ServeDistributedTest, ExecFormWorkerBinaryServesIdentically) {
  // The fork+exec deployment form (ServeOptions::worker_binary) must be
  // the same protocol peer as the default in-process fork. The built
  // `cned_shard_worker` sits next to this test binary.
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) GTEST_SKIP() << "cannot resolve own binary path";
  const auto bin = self.parent_path() / "cned_shard_worker";
  if (!std::filesystem::exists(bin)) {
    GTEST_SKIP() << "cned_shard_worker not built";
  }
  Workload w = MakeWorkload(100, 4, 8300);
  Deployment dep(w.protos, 3, 8);
  ServeOptions opt = FastOptions();
  opt.worker_binary = bin.string();
  ServeRouter router(dep.dir.path, opt);
  for (const auto& q : w.queries) {
    dep.Expect(router.KNearest(q, 3), q, 3, "exec q=" + q);
  }
}

TEST(ServeDistributedTest, RouterRejectsMissingManifest) {
  TempDir empty;
  EXPECT_THROW(ServeRouter(empty.path, FastOptions()), std::exception);
}

// --- Satellite: retry waits are gated by the query deadline -----------------

TEST(ServeDistributedTest, DeadlineGatesRetryWaitsToQueryBudget) {
  // Every query request is swallowed and the per-op timeout (4s) dwarfs
  // the query deadline (200ms). Every wait is capped by the remaining
  // budget and nothing is resent once it is spent: the query must come
  // back (flagged partial) in deadline-order time, not op-timeout-order
  // time.
  Workload w = MakeWorkload(80, 1, 9300);
  Deployment dep(w.protos, 2, 6);
  ServeOptions opt = FastOptions();
  opt.fault_spec = "drop:op=query";
  opt.op_timeout_ms = 4000;
  opt.op_retries = 2;
  opt.backoff_base_ms = 0;
  opt.query_deadline_ms = 200;
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  const auto t0 = std::chrono::steady_clock::now();
  const ServeResult r = router.KNearest(w.queries[0], 3);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards.size(), 2u);
  // Generous slop for CI, still an order of magnitude under one op timeout.
  EXPECT_LT(elapsed_ms, 1500) << "deadline did not gate the retry waits";
}

// --- The mutable tier over the wire -----------------------------------------

TEST(ServeDistributedTest, MutationsServeExactlyOnEveryReadPathReplicated) {
  Workload w = MakeWorkload(120, 5, 9400);
  Deployment dep(w.protos, 4, 8);
  ServeRouter router(dep.dir.path, FastOptions());  // default R=2
  auto dist = MakeDistance("dE");

  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];

  // Inserts land in per-shard deltas, round-robin by id.
  for (int i = 0; i < 10; ++i) {
    const std::string s = w.protos[i * 7] + "+" + std::to_string(i);
    const std::uint64_t id = router.Insert(s);
    EXPECT_EQ(id, w.protos.size() + i);
    live[id] = s;
    dep.ref->Insert(id, s);
  }
  for (const auto& q : w.queries) {
    const ServeResult r = router.KNearest(q, 5);
    ExpectServesLiveOracle(r, live, *dist, q, 5, "delta-only q=" + q);
    const ServeResult want = ReferenceRead(*dep.ref, q, 5);
    EXPECT_TRUE(r.stats == want.stats) << "delta-only stats q=" << q;
  }

  // Removes: base ids (0 is a shard pivot), plus one delta id — with dedup
  // and unknown-id rejection.
  for (const std::uint64_t id :
       {std::uint64_t{0}, std::uint64_t{5}, std::uint64_t{61},
        std::uint64_t{w.protos.size() + 2}}) {
    EXPECT_TRUE(router.Remove(id)) << id;
    live.erase(id);
    dep.ref->Remove(id);
  }
  EXPECT_FALSE(router.Remove(0)) << "double remove must dedup";
  EXPECT_FALSE(router.Remove(w.protos.size() + 1000)) << "unknown id";
  EXPECT_EQ(router.live_size(), live.size());
  EXPECT_EQ(router.next_insert_id(), w.protos.size() + 10);

  for (const auto& q : w.queries) {
    const ServeResult r = router.KNearest(q, 5);
    ExpectServesLiveOracle(r, live, *dist, q, 5, "masked q=" + q);
    const ServeResult want = ReferenceRead(*dep.ref, q, 5);
    EXPECT_TRUE(r.stats == want.stats) << "masked stats q=" << q;
    ExpectServesLiveOracle(router.Nearest(q), live, *dist, q, 1,
                           "masked nearest q=" + q);
  }
  // The batch path masks too — including the removed pivot id 0, which
  // must be skipped as an incumbent but never returned.
  const auto batch = router.KNearestBatch(w.queries, 5);
  ASSERT_EQ(batch.size(), w.queries.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ExpectServesLiveOracle(batch[i], live, *dist, w.queries[i], 5,
                           "masked batch q=" + w.queries[i]);
  }
  EXPECT_TRUE(router.PingAll());
}

TEST(ServeDistributedTest, MutationsServeExactlyAtROne) {
  Workload w = MakeWorkload(80, 4, 9500);
  Deployment dep(w.protos, 2, 6);
  ServeOptions opt = FastOptions();
  opt.replicas = 1;
  ServeRouter router(dep.dir.path, opt);
  auto dist = MakeDistance("dE");

  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];
  for (int i = 0; i < 6; ++i) {
    const std::string s = w.protos[i * 5] + "~" + std::to_string(i);
    live[router.Insert(s)] = s;
  }
  for (const std::uint64_t id : {std::uint64_t{3}, std::uint64_t{40},
                                 std::uint64_t{w.protos.size()}}) {
    ASSERT_TRUE(router.Remove(id));
    live.erase(id);
  }
  EXPECT_EQ(router.live_size(), live.size());
  for (const auto& q : w.queries) {
    ExpectServesLiveOracle(router.KNearest(q, 4), live, *dist, q, 4,
                           "R=1 q=" + q);
  }
  const auto batch = router.KNearestBatch(w.queries, 4);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ExpectServesLiveOracle(batch[i], live, *dist, w.queries[i], 4,
                           "R=1 batch q=" + w.queries[i]);
  }
}

TEST(ServeDistributedTest, RespawnedReplicaReplaysJournalBeforeRejoining) {
  Workload w = MakeWorkload(100, 4, 9600);
  Deployment dep(w.protos, 2, 6);
  ServeRouter router(dep.dir.path, FastOptions());
  auto dist = MakeDistance("dE");

  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];
  for (int i = 0; i < 8; ++i) {
    const std::string s = w.protos[i * 9] + "#" + std::to_string(i);
    live[router.Insert(s)] = s;
  }
  ASSERT_TRUE(router.Remove(7));
  live.erase(7);

  // Kill shard 0's standby. It missed nothing yet — but the next mutation
  // only reaches the survivors, so the journal is now the sole record.
  const pid_t standby = router.replica_pid(0, 1);
  ASSERT_GT(standby, 0);
  ASSERT_EQ(kill(standby, SIGKILL), 0);
  const std::string after_kill = w.protos[3] + "#late";
  live[router.Insert(after_kill)] = after_kill;
  ASSERT_TRUE(router.Remove(11));
  live.erase(11);

  // A query routes around the corpse; the respawn then must replay the
  // whole journal into the fresh process before it rejoins the group.
  ExpectServesLiveOracle(router.KNearest(w.queries[0], 4), live, *dist,
                         w.queries[0], 4, "around the corpse");
  router.RespawnDead();
  ASSERT_TRUE(router.PingAll());

  // Promote the replayed replica the hard way: kill the primary. If the
  // replay was incomplete the standby would now serve a stale world —
  // missing #late, resurrecting id 11 — and the oracle check would catch
  // either.
  const pid_t primary = router.replica_pid(0, 0);
  ASSERT_GT(primary, 0);
  ASSERT_EQ(kill(primary, SIGKILL), 0);
  for (const auto& q : w.queries) {
    ExpectServesLiveOracle(router.KNearest(q, 4), live, *dist, q, 4,
                           "replayed standby q=" + q);
  }
  EXPECT_EQ(router.live_size(), live.size());
}

TEST(ServeDistributedTest, MutatedTierStaysExactAcrossPrecisionsAndKernels) {
  // The tombstone mask writes +inf into the lower-bound slab *after*
  // dequantization, so the admissible-rounding guarantee must survive at
  // every table precision, under every compiled kernel — over the wire.
  // Workers are forked, so the active kernel is set before the router
  // spawns them.
  Workload w = MakeWorkload(60, 3, 9700);
  auto dist = MakeDistance("dE");
  const std::string saved_kernel = ActiveSweepKernels().name;
  for (const TablePrecision precision :
       {TablePrecision::kF32, TablePrecision::kU8}) {
    Deployment dep(w.protos, 2, 6, precision);
    for (const SweepKernels* kern : AvailableSweepKernels()) {
      ASSERT_TRUE(SetActiveSweepKernels(kern->name));
      ServeRouter router(dep.dir.path, FastOptions());
      const std::string ctx = std::string("precision ") +
                              std::to_string(static_cast<int>(precision)) +
                              " kernel " + kern->name;

      std::map<std::uint64_t, std::string> live;
      for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];
      for (int i = 0; i < 4; ++i) {
        const std::string s = w.protos[i * 11] + "^" + std::to_string(i);
        live[router.Insert(s)] = s;
      }
      for (const std::uint64_t id : {std::uint64_t{0}, std::uint64_t{13},
                                     std::uint64_t{w.protos.size() + 1}}) {
        ASSERT_TRUE(router.Remove(id)) << ctx;
        live.erase(id);
      }
      for (const auto& q : w.queries) {
        ExpectServesLiveOracle(router.KNearest(q, 3), live, *dist, q, 3,
                               ctx + " q=" + q);
      }
      const auto batch = router.KNearestBatch({w.queries[0]}, 3);
      ASSERT_EQ(batch.size(), 1u);
      ExpectServesLiveOracle(batch[0], live, *dist, w.queries[0], 3,
                             ctx + " batch");
    }
  }
  ASSERT_TRUE(SetActiveSweepKernels(saved_kernel));
}

}  // namespace
}  // namespace cned
