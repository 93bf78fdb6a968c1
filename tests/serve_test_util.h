#ifndef CNED_TESTS_SERVE_TEST_UTIL_H_
#define CNED_TESTS_SERVE_TEST_UTIL_H_

// Shared helpers for the serving-tier suites (serve_distributed_test,
// serve_concurrent_test, serve_differential_test): scratch directories,
// dictionary workloads, and the served contract's checks against the
// shard-local reference (ShardLocalReference, serve/replica.h).

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "search/sharded_laesa.h"
#include "serve/replica.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"

namespace cned {

struct ServeWorkload {
  std::vector<std::string> protos;
  std::vector<std::string> queries;
};

inline ServeWorkload MakeServeWorkload(std::size_t words, std::size_t queries,
                                       std::uint64_t seed) {
  DictionaryOptions opt;
  opt.word_count = words;
  opt.seed = seed;
  ServeWorkload w;
  w.protos = GenerateDictionary(opt).strings;
  Rng rng(seed + 1);
  w.queries = MakeQueries(w.protos, queries, 2, Alphabet::Latin(), rng);
  return w;
}

struct ServeTempDir {
  std::string path;
  ServeTempDir() {
    char tmpl[] = "/tmp/cned_serve_XXXXXX";
    char* p = mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path = p != nullptr ? p : "";
  }
  ~ServeTempDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
  ServeTempDir(const ServeTempDir&) = delete;
  ServeTempDir& operator=(const ServeTempDir&) = delete;
};

/// The shard-local reference's answer to (query, k) as a ServeResult.
inline ServeResult ReferenceRead(const ShardLocalReference& ref,
                                 std::string_view query, std::size_t k) {
  ServeResult out;
  out.neighbors = ref.KNearest(query, k, &out.stats);
  return out;
}

/// The served contract for one healthy answer: unflagged, neighbours (ids
/// and distances) and QueryStats equal to the shard-local reference's
/// (ShardLocalReference, serve/replica.h), and distances bit-equal to the
/// in-process index's.
inline void ExpectServedExact(const ServeResult& got,
                              const std::vector<NeighborResult>& inproc,
                              const ServeResult& ref,
                              const std::string& context) {
  EXPECT_FALSE(got.partial) << context;
  EXPECT_FALSE(got.shed) << context;
  EXPECT_TRUE(got.missing_shards.empty()) << context;
  ASSERT_EQ(got.neighbors.size(), inproc.size()) << context;
  ASSERT_EQ(got.neighbors.size(), ref.neighbors.size()) << context;
  for (std::size_t i = 0; i < inproc.size(); ++i) {
    EXPECT_EQ(got.neighbors[i].distance, inproc[i].distance)
        << context << " i=" << i;
    EXPECT_EQ(got.neighbors[i].index, ref.neighbors[i].index)
        << context << " i=" << i;
    EXPECT_EQ(got.neighbors[i].distance, ref.neighbors[i].distance)
        << context << " i=" << i;
  }
  EXPECT_TRUE(got.stats == ref.stats)
      << context << ": served (" << got.stats.distance_computations << ", "
      << got.stats.bounded_abandons << ", " << got.stats.pivot_computations
      << ", " << got.stats.shards_degraded << ") != shard-local reference ("
      << ref.stats.distance_computations << ", "
      << ref.stats.bounded_abandons << ", " << ref.stats.pivot_computations
      << ", " << ref.stats.shards_degraded << ")";
}

/// Distance-exactness oracle against a live map (id -> string): the exact
/// distance profile rank for rank vs brute force, only live ids, every
/// reported distance true, no duplicates. Tie winners are unspecified, so
/// ids are not pinned on tied ranks.
inline void ExpectServesLiveOracle(
    const ServeResult& got, const std::map<std::uint64_t, std::string>& live,
    const StringDistance& dist, const std::string& q, std::size_t k,
    const std::string& ctx) {
  EXPECT_FALSE(got.partial) << ctx;
  std::vector<NeighborResult> want;
  for (const auto& [id, s] : live) {
    want.push_back({static_cast<std::size_t>(id), dist.Distance(q, s)});
  }
  std::sort(want.begin(), want.end(), NeighborLess);
  if (want.size() > k) want.resize(k);
  ASSERT_EQ(got.neighbors.size(), want.size()) << ctx;
  std::vector<std::size_t> seen;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const NeighborResult& nb = got.neighbors[i];
    EXPECT_EQ(nb.distance, want[i].distance) << ctx << " rank " << i;
    const auto it = live.find(nb.index);
    ASSERT_NE(it, live.end())
        << ctx << " rank " << i << " returned dead/unknown id " << nb.index;
    EXPECT_EQ(nb.distance, dist.Distance(q, it->second))
        << ctx << " rank " << i;
    EXPECT_EQ(std::count(seen.begin(), seen.end(), nb.index), 0)
        << ctx << " duplicate id " << nb.index;
    seen.push_back(nb.index);
  }
}

}  // namespace cned

#endif  // CNED_TESTS_SERVE_TEST_UTIL_H_
