// Seeded differential test of the served read path. Each trial draws a
// deployment — dictionary words under dE or digit contours under the
// paper's dC, S in {1, 2, 4} shards, R in {1, 2} replicas, f64 or u8
// pivot tables — and a schedule of Insert/Remove, then checks every
// served answer three ways:
//
//   * its distances equal the in-process index's (ShardedLaesa before any
//     mutation, MutableLaesa with the same mutations after) and an
//     ExhaustiveSearch over the live set;
//   * every id is live, appears once, and carries its true distance;
//   * neighbours and QueryStats equal the shard-local reference
//     (`ShardLocalReference`, serve/replica.h): the same snapshot's
//     ShardReplica objects driven in process with the router's seed cap
//     and merge.
//
// Sizes are small (forked workers, cubic dC): the point is coverage of
// the combinations, not load. Wired into the ASan+UBSan CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/digit_contours.h"
#include "datasets/perturb.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/exhaustive.h"
#include "search/mutable_laesa.h"
#include "search/sharded_laesa.h"
#include "search/table_quant.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"
#include "tests/serve_test_util.h"

namespace cned {
namespace {

struct Trial {
  bool digits = false;
  std::size_t shards = 1;
  int replicas = 1;
  TablePrecision precision = TablePrecision::kF64;
  std::uint64_t seed = 0;
};

std::string Describe(const Trial& t) {
  return std::string(t.digits ? "digits/dC" : "dict/dE") +
         " S=" + std::to_string(t.shards) +
         " R=" + std::to_string(t.replicas) + " " +
         TablePrecisionName(t.precision) + " seed=" + std::to_string(t.seed);
}

/// Exact top-k distance profile of the live set, by brute force.
std::vector<double> ExhaustiveDistances(
    const std::map<std::uint64_t, std::string>& live,
    const StringDistancePtr& dist, const std::string& q, std::size_t k) {
  std::vector<std::string> strings;
  for (const auto& [id, s] : live) strings.push_back(s);
  const ExhaustiveSearch exhaustive(strings, dist);
  std::vector<double> out;
  for (const NeighborResult& r : exhaustive.KNearest(q, k)) {
    out.push_back(r.distance);
  }
  return out;
}

void ExpectAllAgree(const ServeResult& got,
                    const std::vector<NeighborResult>& inproc,
                    const ServeResult& ref,
                    const std::map<std::uint64_t, std::string>& live,
                    const StringDistancePtr& dist, const std::string& q,
                    std::size_t k, const std::string& ctx) {
  ExpectServedExact(got, inproc, ref, ctx);
  ExpectServesLiveOracle(got, live, *dist, q, k, ctx);
  const std::vector<double> truth = ExhaustiveDistances(live, dist, q, k);
  ASSERT_EQ(got.neighbors.size(), truth.size()) << ctx;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(got.neighbors[i].distance, truth[i]) << ctx << " i=" << i;
  }
}

void RunTrial(const Trial& t) {
  const std::string name = Describe(t);
  SCOPED_TRACE(name);
  Rng rng(t.seed);
  std::vector<std::string> protos;
  std::vector<std::string> queries;
  const std::string distance = t.digits ? "dC" : "dE";
  const Alphabet alphabet =
      t.digits ? Alphabet::ChainCode() : Alphabet::Latin();
  if (t.digits) {
    DigitContourOptions opt;
    opt.per_class = 4;
    opt.seed = t.seed;
    opt.width = 16;
    opt.height = 20;
    protos = GenerateDigitContours(opt).strings;
  } else {
    protos = MakeServeWorkload(90, 0, t.seed).protos;
  }
  // Near and far queries alike (1 to 8 edits): a far query's k-th
  // neighbour sits close to the pivots' cap, where an inexact bound would
  // show.
  for (int i = 0; i < (t.digits ? 3 : 5); ++i) {
    const std::string& src = protos[rng.Index(protos.size())];
    queries.push_back(PerturbString(src, 1 + rng.Index(8), alphabet, rng));
  }
  const StringDistancePtr dist = MakeDistance(distance);
  ShardedPrototypeStore store(protos, t.shards);
  ShardedLaesa index(store, dist, 6, /*first_pivot=*/0, t.precision);
  ServeTempDir dir;
  SaveServingSnapshot(index, dir.path);
  ShardLocalReference ref(dir.path, index, distance);

  ServeOptions opt;
  opt.distance = distance;
  opt.replicas = t.replicas;
  ServeRouter router(dir.path, opt);
  MutableLaesa::Options mopt;
  mopt.num_pivots = 6;
  mopt.table_precision = t.precision;
  MutableLaesa mutable_index(protos, dist, mopt);

  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < protos.size(); ++i) live[i] = protos[i];
  const std::size_t k = 1 + rng.Index(5);

  // Unmutated: the in-process reference is the sharded index itself.
  for (const std::string& q : queries) {
    ExpectAllAgree(router.KNearest(q, k), index.KNearest(q, k),
                   ReferenceRead(ref, q, k), live, dist, q, k, "base q=" + q);
  }

  // A drawn schedule of inserts and removes. Inserts are one edit away
  // from a query or a prototype, so they compete for the top k; removes
  // hit inserted ids, pivots and any live id alike.
  std::vector<std::uint64_t> inserted;
  const std::size_t ops = 6 + rng.Index(6);
  for (std::size_t i = 0; i < ops; ++i) {
    if (live.empty() || rng.Index(2) == 0) {
      const std::string& src = rng.Index(2) == 0
                                   ? queries[rng.Index(queries.size())]
                                   : protos[rng.Index(protos.size())];
      const std::string s = PerturbString(src, 1, alphabet, rng);
      const std::uint64_t id = router.Insert(s);
      ASSERT_EQ(mutable_index.Insert(s), id);
      ref.Insert(id, s);
      live[id] = s;
      inserted.push_back(id);
      continue;
    }
    std::uint64_t id = 0;
    switch (rng.Index(3)) {
      case 0:
        id = inserted.empty() ? live.begin()->first
                              : inserted[rng.Index(inserted.size())];
        break;
      case 1:
        id = index.pivots()[rng.Index(index.pivots().size())];
        break;
      default: {
        auto it = live.begin();
        std::advance(it,
                     static_cast<std::ptrdiff_t>(rng.Index(live.size())));
        id = it->first;
      }
    }
    const bool was_live = live.erase(id) == 1;
    ASSERT_EQ(router.Remove(id), was_live) << id;
    ASSERT_EQ(mutable_index.Remove(id), was_live) << id;
    ref.Remove(id);
  }
  ASSERT_EQ(router.live_size(), live.size());
  for (const std::string& q : queries) {
    ExpectAllAgree(router.KNearest(q, k), mutable_index.KNearest(q, k),
                   ReferenceRead(ref, q, k), live, dist, q, k, "mutated q=" + q);
  }
}

TEST(ServeDifferentialTest, ServedEqualsInProcessExhaustiveAndShardLocal) {
  Rng draw(20261020);
  constexpr int kTrials = 12;
  for (int i = 0; i < kTrials; ++i) {
    Trial t;
    // Dataset x shard count cycle, so every pair is covered; replicas,
    // precision and the schedule are drawn.
    t.digits = i % 2 == 1;
    const std::size_t shard_choices[] = {1, 2, 4};
    t.shards = shard_choices[(i / 2) % 3];
    t.replicas = 1 + static_cast<int>(draw.Index(2));
    t.precision =
        draw.Index(2) == 0 ? TablePrecision::kF64 : TablePrecision::kU8;
    t.seed = static_cast<std::uint64_t>(draw.UniformInt(1, 1 << 30));
    RunTrial(t);
  }
}

}  // namespace
}  // namespace cned
