// Concurrent serving benchmark: N client threads issuing simultaneous
// reads through the admission-batching front end (serve/engine.h) over
// the concurrent router (serve/router.h), on a fig3-style dictionary
// workload.
//
// The machine model this measures is deliberately hostile: every process
// (router, 4 shard workers) shares whatever cores exist. A read costs one
// request per shard; concurrent reads overlap their shard work across the
// worker processes, and concurrent senders flat-combine frames into
// shared writes. The serialized baseline is the *same* stack driven by
// the same threads behind one external mutex — identical work, one query
// in flight — so the ratio isolates what concurrency buys.
//
// Measured:
//   * per-query latency (p50/p99) and throughput at 1/2/4/8/16 closed-loop
//     clients, unreplicated (R=1), through the engine;
//   * the serialized baseline at 8 clients (one-at-a-time, same stack);
//   * the replicated tier (R=2) at 8 concurrent clients;
//   * an overload segment: a deliberately tiny engine (short queue, 2
//     in-flight slots, ~instant admission deadline) hammered by 16
//     clients, which must shed — fast refusals, not collapse — while
//     every admitted query stays exact.
//
// Contracts checked (CI greps the booleans):
//   * "concurrent_exact": every non-shed answer, at every client count
//     and both replica counts, has distances bit-equal to the in-process
//     ShardedLaesa's, and neighbours and QueryStats equal to the
//     shard-local reference (ShardLocalReference, serve/replica.h);
//   * "concurrent_throughput_ok": 8 concurrent clients sustain >= 3x the
//     serialized baseline's throughput (R=1);
//   * "overload_sheds": the overload segment shed at least one query and
//     answered the rest exactly.
// "qps_1c" (one client's throughput) is reported, not gated.
//
// Human-readable progress goes to stderr; a single JSON object goes to
// stdout.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <stdlib.h>

#include "bench/bench_util.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "datasets/perturb.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/sharded_laesa.h"
#include "serve/engine.h"
#include "serve/replica.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"

namespace cned {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/cned_mserv_XXXXXX";
    char* p = mkdtemp(tmpl);
    path = p != nullptr ? p : "";
  }
  ~TempDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(
      v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  return v[i];
}

/// The served contract: distances equal the in-process index's; ids,
/// distances and stats equal the shard-local reference's.
struct Want {
  std::vector<NeighborResult> inproc;
  std::vector<NeighborResult> ref;
  QueryStats ref_stats;
};

bool Identical(const ServeResult& got, const Want& want) {
  if (got.partial || got.shed || !got.missing_shards.empty() ||
      got.neighbors.size() != want.inproc.size() ||
      got.neighbors.size() != want.ref.size() ||
      !(got.stats == want.ref_stats)) {
    return false;
  }
  for (std::size_t i = 0; i < want.ref.size(); ++i) {
    if (got.neighbors[i].distance != want.inproc[i].distance ||
        got.neighbors[i].index != want.ref[i].index ||
        got.neighbors[i].distance != want.ref[i].distance) {
      return false;
    }
  }
  return true;
}

/// One closed-loop phase: `clients` threads each issue `per_client`
/// queries back to back through `call`, which returns the ServeResult for
/// query index `qi`. Shed answers are counted, not latency-sampled.
struct Phase {
  double wall_s = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t shed = 0;
  bool exact = true;
};

Phase RunClients(std::size_t clients, std::size_t per_client,
                 std::size_t num_queries,
                 const std::function<ServeResult(std::size_t)>& call,
                 const std::function<bool(std::size_t, const ServeResult&)>&
                     check) {
  std::vector<std::vector<double>> lat(clients);
  std::vector<std::size_t> shed(clients, 0);
  std::vector<char> ok(clients, 1);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  Stopwatch wall;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t j = 0; j < per_client; ++j) {
        // Staggered round-robin: threads overlap on popular queries, so
        // the engine's duplicate-row dedup sees real work.
        const std::size_t qi = (t * 3 + j) % num_queries;
        Stopwatch w;
        const ServeResult got = call(qi);
        if (got.shed) {
          ++shed[t];
          continue;
        }
        lat[t].push_back(w.Seconds() * 1e3);
        if (!check(qi, got)) ok[t] = 0;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  Phase ph;
  ph.wall_s = wall.Seconds();
  std::vector<double> all;
  for (std::size_t t = 0; t < clients; ++t) {
    all.insert(all.end(), lat[t].begin(), lat[t].end());
    ph.shed += shed[t];
    ph.exact = ph.exact && ok[t] != 0;
  }
  ph.qps = ph.wall_s > 0.0 ? static_cast<double>(all.size()) / ph.wall_s : 0.0;
  ph.p50_ms = Percentile(all, 0.50);
  ph.p99_ms = Percentile(all, 0.99);
  return ph;
}

int Run() {
  std::ostream& log = std::cerr;
  const auto pool =
      static_cast<std::size_t>(Config::ScaledInt("MSERVER_POOL", 2000));
  const auto pivots =
      static_cast<std::size_t>(Config::ScaledInt("MSERVER_PIVOTS", 16));
  const auto num_queries =
      static_cast<std::size_t>(Config::ScaledInt("MSERVER_QUERIES", 32));
  const auto iters =
      static_cast<std::size_t>(Config::Int("MSERVER_ITERS", 25));
  const std::size_t shards = 4;
  const std::size_t k = 5;

  log << "micro_server: concurrent serving vs serialized baseline "
         "(scale=" << Config::Scale() << ")\n";

  Dataset dict = bench::MakeDictionary(pool, Config::Seed());
  Rng rng(Config::Seed() + 131);
  const auto queries =
      MakeQueries(dict.strings, num_queries, 2, Alphabet::Latin(), rng);
  auto dist = MakeDistance("dE");

  ShardedPrototypeStore store(dict.strings, shards);
  ShardedLaesa index(store, dist, pivots);
  TempDir dir;
  SaveServingSnapshot(index, dir.path);

  // References: the in-process index's distances, the shard-local
  // reference's neighbours and stats.
  const ShardLocalReference reference(dir.path, index, "dE");
  std::vector<Want> want(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    want[i].inproc = index.KNearest(queries[i], k);
    want[i].ref = reference.KNearest(queries[i], k, &want[i].ref_stats);
  }
  const auto check = [&](std::size_t qi, const ServeResult& got) {
    return Identical(got, want[qi]);
  };

  ServeOptions opt;
  opt.distance = "dE";
  opt.replicas = 1;

  ServeEngineOptions eng_opt;
  eng_opt.max_batch = 8;
  eng_opt.max_inflight = 32;
  eng_opt.max_queue = 1024;
  // The ladder must never shed — admission latency is measured, not
  // refused. The overload segment below uses a tiny engine instead.
  eng_opt.admission_timeout_ms = 120000;

  bool exact = true;
  const std::vector<std::size_t> client_counts = {1, 2, 4, 8, 16};
  std::vector<double> p50_ms, p99_ms, qps;
  double concurrent_qps_8 = 0.0;

  {
    ServeRouter router(dir.path, opt);
    ServeEngine engine(router, eng_opt);
    for (std::size_t clients : client_counts) {
      const Phase ph = RunClients(
          clients, iters, queries.size(),
          [&](std::size_t qi) { return engine.KNearest(queries[qi], k); },
          check);
      exact = exact && ph.exact && ph.shed == 0;
      p50_ms.push_back(ph.p50_ms);
      p99_ms.push_back(ph.p99_ms);
      qps.push_back(ph.qps);
      if (clients == 8) concurrent_qps_8 = ph.qps;
      log << "  C=" << clients << " R=1: " << ph.qps << " q/s, p50 "
          << ph.p50_ms << " ms, p99 " << ph.p99_ms << " ms\n";
    }
    log << "  engine: " << engine.batches() << " batches over "
        << engine.batched_queries() << " queries, " << engine.deduped_rows()
        << " rows deduped\n";
  }

  // Serialized baseline: the SAME stack, the same 8 threads, one query in
  // flight at a time.
  double serialized_qps_8 = 0.0;
  {
    ServeRouter router(dir.path, opt);
    ServeEngine engine(router, eng_opt);
    std::mutex serial_mu;
    const Phase ph = RunClients(
        8, iters, queries.size(),
        [&](std::size_t qi) {
          std::lock_guard<std::mutex> one_at_a_time(serial_mu);
          return engine.KNearest(queries[qi], k);
        },
        check);
    exact = exact && ph.exact && ph.shed == 0;
    serialized_qps_8 = ph.qps;
    log << "  C=8 serialized baseline: " << ph.qps << " q/s, p50 "
        << ph.p50_ms << " ms, p99 " << ph.p99_ms << " ms\n";
  }
  const double speedup =
      serialized_qps_8 > 0.0 ? concurrent_qps_8 / serialized_qps_8 : 0.0;
  const bool throughput_ok = speedup >= 3.0;
  log << "  concurrency speedup at 8 clients: " << speedup << "x ("
      << (throughput_ok ? "ok" : "BELOW 3x") << ")\n";

  // Replicated tier: reads go to the primaries, one in kAuditPeriod also
  // to a standby; answers must stay exact under the same concurrency.
  double rep_p50 = 0.0, rep_p99 = 0.0, rep_qps = 0.0;
  {
    ServeOptions rep_opt = opt;
    rep_opt.replicas = 2;
    ServeRouter router(dir.path, rep_opt);
    ServeEngine engine(router, eng_opt);
    const Phase ph = RunClients(
        8, std::max<std::size_t>(iters / 2, 5), queries.size(),
        [&](std::size_t qi) { return engine.KNearest(queries[qi], k); },
        check);
    exact = exact && ph.exact && ph.shed == 0;
    rep_p50 = ph.p50_ms;
    rep_p99 = ph.p99_ms;
    rep_qps = ph.qps;
    log << "  C=8 R=2: " << rep_qps << " q/s, p50 " << rep_p50 << " ms, p99 "
        << rep_p99 << " ms\n";
  }

  // Overload: a front end sized for 2 concurrent sweeps and a near-zero
  // admission budget, hammered by 16 clients. The contract is fast
  // refusal — some queries shed, every admitted one exact, nothing hangs.
  std::size_t overload_shed = 0, overload_served = 0;
  bool overload_exact = true;
  {
    ServeRouter router(dir.path, opt);
    ServeEngineOptions tiny;
    tiny.max_batch = 4;
    tiny.max_inflight = 2;
    tiny.max_queue = 4;
    tiny.admission_timeout_ms = 20;
    ServeEngine engine(router, tiny);
    const Phase ph = RunClients(
        16, iters, queries.size(),
        [&](std::size_t qi) { return engine.KNearest(queries[qi], k); },
        check);
    overload_shed = ph.shed;
    overload_served = static_cast<std::size_t>(16 * iters) - ph.shed;
    overload_exact = ph.exact;
    log << "  overload (queue=4, inflight=2): " << overload_shed
        << " shed, " << overload_served << " served exactly\n";
  }
  const bool overload_sheds = overload_shed > 0 && overload_exact;
  exact = exact && overload_exact;

  std::cout.precision(6);
  std::cout << "{\n"
            << "  \"bench\": \"micro_server\",\n"
            << "  \"prototypes\": " << dict.strings.size() << ",\n"
            << "  \"pivots\": " << pivots << ",\n"
            << "  \"queries\": " << queries.size() << ",\n"
            << "  \"iters_per_client\": " << iters << ",\n"
            << "  \"clients\": [1, 2, 4, 8, 16],\n"
            << "  \"qps_1c\": " << qps[0] << ",\n"
            << "  \"qps\": [" << qps[0] << ", " << qps[1] << ", " << qps[2]
            << ", " << qps[3] << ", " << qps[4] << "],\n"
            << "  \"p50_ms\": [" << p50_ms[0] << ", " << p50_ms[1] << ", "
            << p50_ms[2] << ", " << p50_ms[3] << ", " << p50_ms[4] << "],\n"
            << "  \"p99_ms\": [" << p99_ms[0] << ", " << p99_ms[1] << ", "
            << p99_ms[2] << ", " << p99_ms[3] << ", " << p99_ms[4] << "],\n"
            << "  \"serialized_qps_8\": " << serialized_qps_8 << ",\n"
            << "  \"concurrent_qps_8\": " << concurrent_qps_8 << ",\n"
            << "  \"pipelining_speedup\": " << speedup << ",\n"
            << "  \"replicated_qps_8\": " << rep_qps << ",\n"
            << "  \"replicated_p50_ms\": " << rep_p50 << ",\n"
            << "  \"replicated_p99_ms\": " << rep_p99 << ",\n"
            << "  \"overload_shed\": " << overload_shed << ",\n"
            << "  \"concurrent_exact\": " << (exact ? "true" : "false")
            << ",\n"
            << "  \"concurrent_throughput_ok\": "
            << (throughput_ok ? "true" : "false") << ",\n"
            << "  \"overload_sheds\": " << (overload_sheds ? "true" : "false")
            << "\n}\n";

  return exact && throughput_ok && overload_sheds ? 0 : 1;
}

}  // namespace
}  // namespace cned

int main() { return cned::Run(); }
