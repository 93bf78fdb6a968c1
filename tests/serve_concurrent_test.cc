// The concurrent serving tier's contract under real thread-level
// concurrency, pinned over forked worker processes:
//
//   1. Concurrent = exact. Eight closed-loop client threads hammering one
//      ServeEngine — which batches their pivot stages while their
//      reads share the worker connections — get distances bit-equal to
//      the in-process ShardedLaesa and neighbours and QueryStats equal to
//      the shard-local reference, even while injected faults kill and
//      mangle standby replicas under the sampled audit.
//   2. Mixed ops never flag while any replica survives. Concurrent
//      Nearest/KNearest/Insert/Remove (writers contend for the world lock
//      readers hold shared) produce no partial, no shed, and no missing
//      shards, because every injected fault targets replica=1 only —
//      each group always keeps a live member.
//   3. The mutations land: after the storm quiesces, every inserted and
//      not-removed string is found at distance 0, and every removed one
//      is not.
//
// This test is wired into the ASan and TSan CI jobs: it is the one that
// races the admission queue, the world lock, the per-group failover
// locks, and the connection reactor against each other.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/sharded_laesa.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"
#include "tests/serve_test_util.h"

namespace cned {
namespace {

constexpr std::size_t kThreads = 8;

/// Results may interleave with concurrent mutations, so only invariants
/// hold: never flagged, never shed, sorted finite distances.
void ExpectWellFormed(const ServeResult& res, std::size_t k,
                      const std::string& context) {
  EXPECT_FALSE(res.shed) << context;
  EXPECT_FALSE(res.partial) << context;
  EXPECT_TRUE(res.missing_shards.empty()) << context;
  EXPECT_LE(res.neighbors.size(), k) << context;
  for (std::size_t i = 0; i < res.neighbors.size(); ++i) {
    EXPECT_TRUE(std::isfinite(res.neighbors[i].distance))
        << context << " i=" << i;
    if (i > 0) {
      EXPECT_GE(res.neighbors[i].distance, res.neighbors[i - 1].distance)
          << context << " i=" << i;
    }
  }
}

TEST(ServeConcurrentTest, EightClientsStayExactWhileStandbysDieAndMangle) {
  const ServeWorkload w = MakeServeWorkload(300, 16, 9100);
  ShardedPrototypeStore store(w.protos, 4);
  ShardedLaesa index(store, MakeDistance("dE"), 8, /*first_pivot=*/0);
  ServeTempDir dir;
  SaveServingSnapshot(index, dir.path);
  const ShardLocalReference reference(dir.path, index, "dE");

  ServeOptions opt;
  opt.distance = "dE";
  opt.replicas = 2;
  opt.op_timeout_ms = 2000;  // TSan headroom
  opt.op_retries = 2;
  opt.backoff_base_ms = 2;
  opt.auto_respawn = true;
  // Standbys only (replica=1), which see only the audited eighth of the
  // queries: a crash, a mangled reply (audit disagreement, standby
  // evicted), then another crash. Every group keeps its primary, so
  // nothing may ever flag — and nothing may perturb a single reported
  // bit.
  opt.fault_spec =
      "crash:shard=1,op=query,nth=5,replica=1|"
      "mangle:shard=2,op=query,nth=9,replica=1|"
      "crash:shard=0,op=query,nth=20,replica=1";
  // Only audits reach the standbys, so the mangle is always an audited
  // reply (under a sanitizer a hedge could otherwise take it).
  opt.hedge_delay_ms = -1;
  ServeRouter router(dir.path, opt);

  ServeEngineOptions eopt;
  eopt.max_batch = 4;
  eopt.max_inflight = 2 * kThreads;
  eopt.max_queue = 256;
  eopt.admission_timeout_ms = 60000;  // exactness phase must never shed
  ServeEngine engine(router, eopt);

  // References, computed up front: in-process distances, shard-local
  // neighbours and stats.
  const std::size_t k = 5;
  std::vector<std::vector<NeighborResult>> inproc(w.queries.size());
  std::vector<ServeResult> want(w.queries.size());
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    inproc[i] = index.KNearest(w.queries[i], k);
    want[i] = ReferenceRead(reference, w.queries[i], k);
  }

  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> evicted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < w.queries.size(); ++i) {
          const std::size_t qi = (i + t * 3) % w.queries.size();
          const ServeResult got = engine.KNearest(w.queries[qi], k);
          bool same = !got.shed && !got.partial &&
                      got.missing_shards.empty() &&
                      got.neighbors.size() == inproc[qi].size() &&
                      got.neighbors.size() == want[qi].neighbors.size() &&
                      got.stats == want[qi].stats;
          for (std::size_t j = 0; same && j < inproc[qi].size(); ++j) {
            same = got.neighbors[j].distance == inproc[qi][j].distance &&
                   got.neighbors[j].index == want[qi].neighbors[j].index &&
                   got.neighbors[j].distance == want[qi].neighbors[j].distance;
          }
          if (!same) mismatches.fetch_add(1);
          evicted.fetch_add(got.replicas_evicted);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u)
      << "concurrent results diverged from the references";
  EXPECT_GE(evicted.load(), 1u) << "the audit never caught the mangle";
  EXPECT_GE(engine.batched_queries(), kThreads * 3 * w.queries.size());
  EXPECT_EQ(engine.shed_queries(), 0u);
}

TEST(ServeConcurrentTest, MixedQueryInsertRemoveStormNeverFlags) {
  const ServeWorkload w = MakeServeWorkload(300, 12, 9200);
  ShardedPrototypeStore store(w.protos, 4);
  ShardedLaesa index(store, MakeDistance("dE"), 8, /*first_pivot=*/0);
  ServeTempDir dir;
  SaveServingSnapshot(index, dir.path);

  ServeOptions opt;
  opt.distance = "dE";
  opt.replicas = 2;
  opt.op_timeout_ms = 2000;
  opt.op_retries = 2;
  opt.backoff_base_ms = 2;
  opt.auto_respawn = true;
  // Standby-only churn while mutations fly: a crash and a mangle on the
  // audited requests, and a recurring slow primary (every 7th query on
  // shard 2) to keep the hedging path hot. Groups always keep a live
  // member, so nothing may flag.
  opt.fault_spec =
      "crash:shard=3,op=query,nth=3,replica=1|"
      "mangle:shard=1,op=query,nth=5,replica=1|"
      "delay:shard=2,op=query,replica=0,ms=60,every=7";
  ServeRouter router(dir.path, opt);

  ServeEngineOptions eopt;
  eopt.max_batch = 4;
  eopt.max_inflight = 2 * kThreads;
  eopt.max_queue = 256;
  eopt.admission_timeout_ms = 60000;
  ServeEngine engine(router, eopt);

  // Each thread interleaves queries with inserting its own unique
  // strings and removing every second one of them. Mutations take the
  // world lock exclusive against the readers' shared holds.
  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::vector<std::vector<std::pair<std::uint64_t, std::string>>> kept(
      kThreads);
  std::vector<std::vector<std::string>> removed(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 10; ++i) {
        const std::string& q = w.queries[(t + i) % w.queries.size()];
        const std::size_t kk = (i % 2 == 0) ? 1 : 4;
        const ServeResult res = i % 2 == 0 ? engine.Nearest(q)
                                           : engine.KNearest(q, kk);
        {
          // EXPECT_* is not thread-safe; collect and assert on the main
          // thread after the join.
          const std::string ctx =
              "t=" + std::to_string(t) + " i=" + std::to_string(i);
          if (res.shed || res.partial || !res.missing_shards.empty()) {
            std::lock_guard<std::mutex> lock(failures_mu);
            failures.push_back(ctx + " flagged/shed");
          }
          for (std::size_t j = 1; j < res.neighbors.size(); ++j) {
            if (res.neighbors[j].distance < res.neighbors[j - 1].distance) {
              std::lock_guard<std::mutex> lock(failures_mu);
              failures.push_back(ctx + " unsorted neighbours");
            }
          }
        }
        if (i % 3 == 0) {
          const std::string s = "qz" + std::to_string(t) + "ws" +
                                std::to_string(i) + "xv";
          const std::uint64_t id = router.Insert(s);
          if (i % 6 == 0) {
            kept[t].emplace_back(id, s);
          } else {
            router.Remove(id);
            removed[t].push_back(s);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;

  // Quiesced: every surviving insert is served (distance 0, its own id),
  // every removed one is gone (the synthetic strings are nowhere near
  // the dictionary, so distance 0 can only be the string itself).
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (const auto& [id, s] : kept[t]) {
      const ServeResult res = engine.Nearest(s);
      ASSERT_EQ(res.neighbors.size(), 1u) << s;
      EXPECT_EQ(res.neighbors[0].distance, 0.0) << s;
      EXPECT_EQ(res.neighbors[0].index, id) << s;
    }
    for (const std::string& s : removed[t]) {
      const ServeResult res = engine.Nearest(s);
      ASSERT_EQ(res.neighbors.size(), 1u) << s;
      EXPECT_GT(res.neighbors[0].distance, 0.0) << s;
    }
  }
}

}  // namespace
}  // namespace cned
