// The layered benchmark runner.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--source-id <text>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 pushes the same
// queries up the layer ladder one client at a time and reports the
// per-layer metrics. Every answer is checked by the exactness oracle.
// Human-readable progress goes to stderr; stdout ends with one JSON line
// {"correct", "attempted", "failed", "metrics"}. perfbench/METRICS.md
// defines every metric.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/contextual.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "inputs.h"
#include "oracle.h"
#include "procstat.h"
#include "search/exhaustive.h"
#include "search/mutable_laesa.h"
#include "search/sharded_laesa.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"
#include "serve/engine.h"
#include "serve/frame.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cned::NeighborResult;
using cned::QueryStats;
using cned::ServeResult;

// ---------------------------------------------------------------------------
// Run constants.
// ---------------------------------------------------------------------------
constexpr double kServedShare = 0.8;      // of --seconds
constexpr double kWarmupSeconds = 2.0;    // served load before measuring
constexpr std::size_t kWindows = 5;       // in-process/served slices
constexpr std::size_t kExhaustiveSample = 8;
constexpr std::size_t kWarmupQueries = 4;
constexpr std::size_t kLadderServed = 40;  // 1-client router/engine steps
constexpr std::size_t kLadderInprocDigits = 48;
constexpr std::size_t kWriteBurst = 32;    // router inserts and removes
constexpr std::size_t kMutableBurst = 64;  // MutableLaesa inserts/removes

/// Wall time of one call, in ms.
template <typename F>
double TimeMs(F&& f) {
  const double t0 = NowSeconds();
  f();
  return (NowSeconds() - t0) * 1e3;
}

/// Operations attempted and failed, across every check of the run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Records one check; the first few failures are named on stderr.
  void Add(bool ok, const char* what) {
    ++attempted;
    if (!ok && ++failed <= 5) std::fprintf(stderr, "  FAILED: %s\n", what);
  }
};

/// A served answer is usable only when complete and unrefused.
bool Whole(const ServeResult& r) {
  return !r.partial && !r.shed && r.missing_shards.empty();
}

// ---------------------------------------------------------------------------
// The serving world: index, snapshot, router (S=4, R=2), engine.
// ---------------------------------------------------------------------------
struct SetupTimes {
  double build_s = 0, snapshot_s = 0, spawn_s = 0, engine_s = 0;
  double snapshot_mb = 0;
  double total() const { return build_s + snapshot_s + spawn_s + engine_s; }
};

class World {
 public:
  World(const Inputs& in, const std::string& dir) : dir_(dir) {
    const double t0 = NowSeconds();
    distance = cned::MakeDistance(in.spec->distance);
    store = std::make_unique<cned::ShardedPrototypeStore>(in.data, kShards);
    index = std::make_unique<cned::ShardedLaesa>(*store, distance, kPivots);
    const double t1 = NowSeconds();
    fs::create_directories(dir_);
    cned::SaveServingSnapshot(*index, dir_);
    const double t2 = NowSeconds();
    cned::ServeOptions opt;
    opt.distance = in.spec->distance;
    router = std::make_unique<cned::ServeRouter>(dir_, opt);
    // Servable: one query has completed through every shard group. The
    // first prototype is the first pivot, so its 1-NN settles at distance
    // 0 in the first exchange: the cheapest full round trip, the same on
    // every seed.
    router->KNearest(in.data[0], 1);
    const double t3 = NowSeconds();
    engine = std::make_unique<cned::ServeEngine>(*router,
                                                 cned::ServeEngineOptions());
    const double t4 = NowSeconds();
    times.build_s = t1 - t0;
    times.snapshot_s = t2 - t1;
    times.spawn_s = t3 - t2;
    times.engine_s = t4 - t3;
    for (const auto& e : fs::directory_iterator(dir_)) {
      times.snapshot_mb += static_cast<double>(e.file_size()) / (1024.0 * 1024.0);
    }
  }
  ~World() {
    engine.reset();
    router.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::vector<pid_t> Pids() const {
    std::vector<pid_t> p;
    for (std::size_t s = 0; s < router->shard_count(); ++s) {
      for (std::size_t r = 0; r < router->replica_count(); ++r) {
        p.push_back(router->replica_pid(s, r));
      }
    }
    return p;
  }

  cned::StringDistancePtr distance;
  std::unique_ptr<cned::ShardedPrototypeStore> store;
  std::unique_ptr<cned::ShardedLaesa> index;
  std::unique_ptr<cned::ServeRouter> router;
  std::unique_ptr<cned::ServeEngine> engine;
  SetupTimes times;

 private:
  std::string dir_;
};

/// Counts replica pids that changed since `before` (a respawn).
std::size_t Respawns(const World& w, const std::vector<pid_t>& before) {
  const std::vector<pid_t> now = w.Pids();
  std::size_t n = 0;
  for (std::size_t i = 0; i < now.size(); ++i) n += now[i] != before[i];
  return n;
}

/// Summed /proc counters of every replica, and the per-replica cpu.
struct WorkerSample {
  ProcSample total;
  std::vector<double> cpu_ms;
};
WorkerSample SampleWorkers(const World& w) {
  WorkerSample ws;
  ws.total.ok = true;
  for (pid_t p : w.Pids()) {
    const ProcSample s = SampleProcess(p);
    ws.total.ok = ws.total.ok && s.ok;
    ws.total.cpu_ms += s.cpu_ms;
    ws.total.ctx_switches += s.ctx_switches;
    ws.total.rss_mb += s.rss_mb;
    ws.cpu_ms.push_back(s.cpu_ms);
  }
  return ws;
}

// ---------------------------------------------------------------------------
// Closed loops.
// ---------------------------------------------------------------------------
struct Sample {
  std::size_t op = 0;  // query index
  double start = 0.0;
  double end = 0.0;
  ServeResult res;
};

/// `clients` threads take queries from one shared cursor over `sequence`
/// (consecutive cursor values are distinct queries, so no duplicates are
/// in flight) until `seconds` pass.
std::vector<Sample> ClosedLoop(
    std::size_t clients, double seconds,
    const std::vector<std::uint32_t>& sequence,
    const std::function<ServeResult(std::size_t)>& call) {
  std::atomic<std::size_t> cursor{0};
  std::vector<std::vector<Sample>> per(clients);
  const double stop = NowSeconds() + seconds;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      while (NowSeconds() < stop) {
        Sample s;
        s.op = sequence[cursor.fetch_add(1) % sequence.size()];
        s.start = NowSeconds();
        s.res = call(s.op);
        s.end = NowSeconds();
        per[t].push_back(std::move(s));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::vector<Sample> all;
  for (auto& v : per) {
    for (Sample& s : v) all.push_back(std::move(s));
  }
  return all;
}

/// Closed-loop answers against the in-process reference (computed here for
/// queries that have none yet; no write has landed while closed loops run);
/// ids must carry their true distances. A shed answer fails: with at most
/// kClients callers the engine's queue never fills, so a healthy engine
/// sheds nothing here.
void CheckClosed(const Inputs& in, const std::vector<Sample>& samples,
                 const cned::ShardedLaesa& index,
                 std::vector<std::vector<NeighborResult>>* refs,
                 Tally* tally) {
  const cned::StringDistance& d = index.pivot_distance();
  for (const Sample& s : samples) {
    std::vector<NeighborResult>& ref = (*refs)[s.op];
    if (ref.empty()) ref = index.KNearest(in.queries[s.op], kK);
    const bool ok =
        Whole(s.res) && SameDistances(s.res.neighbors, ref) &&
        IdsCarryTheirDistances(s.res.neighbors, in.data.size(), [&](std::size_t id) {
          return d.Distance(in.queries[s.op], in.data[id]);
        });
    tally->Add(ok, "served answer is whole and matches the in-process reference");
  }
}

std::vector<double> LatenciesMs(const std::vector<Sample>& v) {
  std::vector<double> out;
  for (const Sample& s : v) out.push_back((s.end - s.start) * 1e3);
  return out;
}

/// In-process reference: exhaustive scan on a seeded sample of queries.
void CheckAgainstExhaustive(const Inputs& in, const World& w,
                            const std::vector<std::vector<NeighborResult>>& ref,
                            Tally* tally) {
  const cned::ExhaustiveSearch exhaustive(in.data, w.distance);
  for (std::size_t i = 0; i < std::min(kExhaustiveSample, in.read_sequence.size()); ++i) {
    const std::uint32_t q = in.read_sequence[i];
    tally->Add(SameDistances(ref[q], exhaustive.KNearest(in.queries[q], kK)),
               "in-process reference matches exhaustive search");
  }
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".bench_build/perfbench-out";
  std::string source_id = "unknown";
};

/// The run's provenance, printed before the result line.
void PrintProvenance(const Args& a, const Inputs& in) {
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
      "%g, \"trace\": %d, \"source\": \"%s\", \"nproc\": %u, "
      "\"sweep_kernel\": \"%s\", \"table_precision\": \"%s\", "
      "\"prototypes\": %zu, \"queries\": %zu, \"k\": %zu, \"pivots\": %zu, "
      "\"shards\": %zu, \"clients\": %zu}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace, a.source_id.c_str(), std::thread::hardware_concurrency(),
      cned::ActiveSweepKernels().name,
      cned::TablePrecisionName(cned::DefaultTablePrecision()), in.data.size(),
      in.queries.size(), kK, kPivots, kShards, kClients);
}

std::string SnapDir(const Args& a, int rep) {
  return a.out + "/snap-" + a.workload + "-" + std::to_string(getpid()) + "-" +
         std::to_string(rep);
}

/// Builds a world and logs its setup times.
std::unique_ptr<World> SetUp(const Args& a, const Inputs& in, int rep) {
  auto w = std::make_unique<World>(in, SnapDir(a, rep));
  std::fprintf(stderr, "  setup %d: %.3f s (build %.3f, snapshot %.3f, spawn %.3f)\n",
               rep, w->times.total(), w->times.build_s, w->times.snapshot_s,
               w->times.spawn_s);
  return w;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.
// ---------------------------------------------------------------------------
int RunEndToEnd(const Args& a, const Inputs& in) {
  Tally tally;
  const WorkloadSpec& spec = *in.spec;
  // setup_s is the median of spec.setup_reps setups. The first builds the
  // world that serves; the others are spread over the windows below and
  // torn down at once, so that a slow stretch of the machine hits only some
  // of them.
  std::unique_ptr<World> w = SetUp(a, in, 0);
  const std::vector<pid_t> pids = w->Pids();
  std::vector<SetupTimes> setups = {w->times};
  const std::size_t extra_setups = static_cast<std::size_t>(spec.setup_reps - 1);

  std::vector<std::vector<NeighborResult>> ref(in.queries.size());
  const auto engine_call = [&](std::size_t q) {
    return w->engine->KNearest(in.queries[q], kK);
  };
  for (std::size_t i = 0; i < kWarmupQueries; ++i) {
    w->index->KNearest(in.queries[in.read_sequence[i]], kK);
  }
  // Warm-up at full load (answers checked, not timed), then memory.
  CheckClosed(in, ClosedLoop(kClients, kWarmupSeconds, in.read_sequence, engine_call),
              *w->index, &ref, &tally);
  double rss = SampleSelf().rss_mb;
  for (pid_t p : w->Pids()) rss += SampleProcess(p).rss_mb;

  // In-process latency is timed on one thread; each query's latency is the
  // best of spec.inproc_reps timings (the others lost time to whatever else
  // the machine ran) and p50/p90 are taken across queries. The in-process
  // timings (passes over the sequence) and the served load alternate in
  // kWindows slices, so a slow stretch of the machine hits one slice of each
  // rather than a whole phase. The served p50/p90 are medians over the
  // windows' own.
  const std::size_t n = in.read_sequence.size();
  const std::size_t timings = n * static_cast<std::size_t>(spec.inproc_reps);
  std::vector<double> inproc_ms(n, INFINITY), serve_ms, win_p50, win_p90;
  double served_s = 0.0;
  for (std::size_t win = 0; win < kWindows; ++win) {
    for (std::size_t t = win * timings / kWindows; t < (win + 1) * timings / kWindows; ++t) {
      const std::uint32_t q = in.read_sequence[t % n];
      inproc_ms[t % n] = std::min(inproc_ms[t % n], TimeMs([&] { ref[q] = w->index->KNearest(in.queries[q], kK); }));
    }
    const double t0 = NowSeconds();
    const std::vector<Sample> served = ClosedLoop(
        kClients, kServedShare * a.seconds / kWindows, in.read_sequence, engine_call);
    served_s += NowSeconds() - t0;
    CheckClosed(in, served, *w->index, &ref, &tally);
    const std::vector<double> ms = LatenciesMs(served);
    win_p50.push_back(Quantile(ms, 0.5));
    win_p90.push_back(Quantile(ms, 0.9));
    serve_ms.insert(serve_ms.end(), ms.begin(), ms.end());
    for (std::size_t r = win * extra_setups / kWindows; r < (win + 1) * extra_setups / kWindows; ++r) {
      setups.push_back(SetUp(a, in, static_cast<int>(r + 1))->times);
    }
  }
  CheckAgainstExhaustive(in, *w, ref, &tally);
  const std::size_t respawns = Respawns(*w, pids);
  for (std::size_t i = 0; i < respawns; ++i) tally.Add(false, "no replica respawned");

  std::sort(setups.begin(), setups.end(), [](const SetupTimes& x, const SetupTimes& y) {
    return x.total() < y.total();
  });
  std::vector<Metric> m = {
      {"setup_s", setups[setups.size() / 2].total(), "s"},
      {"rss_mb", rss, "MB"},
      {"inproc_p50_ms", Quantile(inproc_ms, 0.5), "ms"},
      {"inproc_p90_ms", Quantile(inproc_ms, 0.9), "ms"},
      {"serve_p50_ms", Quantile(win_p50, 0.5), "ms"},
      {"serve_p90_ms", Quantile(win_p90, 0.5), "ms"},
      {"serve_qps", static_cast<double>(serve_ms.size()) / served_s, "1/s"},
  };
  std::fprintf(stderr, "  samples: inproc %zu, served %zu; failed %llu of %llu\n",
               inproc_ms.size(), serve_ms.size(),
               static_cast<unsigned long long>(tally.failed),
               static_cast<unsigned long long>(tally.attempted));
  for (const auto& [name, v] : {std::pair{"inproc", &inproc_ms}, std::pair{"served", &serve_ms}}) {
    std::fprintf(stderr, "  %s deciles (ms):", name);
    for (int d = 1; d < 10; ++d) std::fprintf(stderr, " %.1f", Quantile(*v, d / 10.0));
    std::fprintf(stderr, "\n");
  }
  PrintResult(tally, m);
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: the layer ladder.
// ---------------------------------------------------------------------------

/// Frame codec cost: encode + CRC + decode of the row-path request a query
/// sends (its string and pivot row), in ns per KiB of frame.
double CodecNsPerKb(const Inputs& in) {
  std::vector<cned::PayloadWriter> payloads;
  for (const std::string& q : in.queries) {
    cned::PayloadWriter p;
    p.Str(q);
    p.F64(INFINITY);
    for (std::size_t i = 0; i < kPivots; ++i) p.F64(static_cast<double>(i));
    payloads.push_back(std::move(p));
  }
  std::size_t bytes = 0;
  std::vector<char> wire;
  cned::FrameBuffer decoder;
  cned::Frame frame;
  const double t0 = NowSeconds();
  for (int rep = 0; rep < 200; ++rep) {
    wire.clear();
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      cned::EncodeFrame(&wire, cned::FrameType::kBeginRow, static_cast<std::uint32_t>(i),
                        1, payloads[i].buf.data(), payloads[i].buf.size());
    }
    decoder.Append(wire.data(), wire.size());
    while (decoder.Pop(&frame) == cned::FrameBuffer::Next::kFrame) {
    }
    bytes += wire.size();
  }
  return (NowSeconds() - t0) * 1e9 / (static_cast<double>(bytes) / 1024.0);
}

/// One client issues `seq` in order through `call`, each call one span.
std::vector<Sample> OneClient(Tracer* tracer, const char* span,
                              const std::vector<std::uint32_t>& seq,
                              const std::function<ServeResult(std::size_t)>& call) {
  std::vector<Sample> out;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    Sample s;
    s.op = seq[i];
    const int id = tracer->Begin(span, i);
    s.start = NowSeconds();
    s.res = call(s.op);
    s.end = NowSeconds();
    tracer->End(id);
    out.push_back(std::move(s));
  }
  return out;
}

/// The engine's admission counters at one instant.
struct Admission {
  double claims = 0, claimed = 0, deduped = 0, shed = 0;
  explicit Admission(const cned::ServeEngine& e)
      : claims(double(e.batches())), claimed(double(e.batched_queries())),
        deduped(double(e.deduped_rows())), shed(double(e.shed_queries())) {}
};

int RunTraced(const Args& a, const Inputs& in) {
  Tally tally;
  std::unique_ptr<World> w = SetUp(a, in, 0);
  const SetupTimes setup = w->times;
  const std::vector<pid_t> pids = w->Pids();
  const WorkloadSpec& spec = *in.spec;
  const bool dc = std::string(spec.distance) == "dC";

  // The traced index: the same tables, mapped under the timing decorator.
  const std::string saved = a.out + "/traced-" + std::to_string(getpid()) + ".bin";
  w->index->Save(saved);
  auto timed = std::make_shared<TimedDistance>(w->distance);
  const cned::ShardedLaesa traced =
      cned::ShardedLaesa::Map(saved, *w->store, timed);
  Tracer tracer(timed.get());

  std::vector<std::uint32_t> ladder = in.read_sequence;
  if (spec.digits) ladder.resize(std::min(ladder.size(), kLadderInprocDigits));
  const std::size_t nq = ladder.size();
  const std::size_t np = traced.pivot_count();

  // Steps 1-3: pivot row, row sweep, lazy KNearest -- traced and bare.
  std::vector<double> row(np);
  std::vector<double> pivot_ms, rowsweep_ms, rowsweep_self_ms, row_path_bare_ms;
  std::vector<double> lazy_bare_ms, lazy_traced_ms;
  std::uint64_t pivot_evals = 0, sweep_evals = 0, lazy_evals = 0,
                lazy_abandons = 0, lazy_dist_ns = 0, cells = 0;
  std::size_t stats_mismatch = 0;
  std::vector<std::vector<NeighborResult>> ref(in.queries.size());
  double lazy_traced_total = 0.0;
  for (std::size_t i = 0; i < nq; ++i) {
    const std::string& q = in.queries[ladder[i]];
    const int path = tracer.Begin("inproc.row_path", i);
    int s = tracer.Begin("pivot_stage.ComputePivotRow", i, path);
    traced.ComputePivotRow(q, row.data());
    tracer.End(s);
    pivot_ms.push_back(tracer.DurationSeconds(s) * 1e3);
    pivot_evals += tracer.spans()[s].dist_evals;
    s = tracer.Begin("index.KNearestWithPivotRow", i, path);
    traced.KNearestWithPivotRow(q, kK, row.data());
    tracer.End(s);
    tracer.End(path);
    rowsweep_ms.push_back(tracer.DurationSeconds(s) * 1e3);
    rowsweep_self_ms.push_back(tracer.SelfSeconds(s) * 1e3);
    sweep_evals += tracer.spans()[s].dist_evals;

    row_path_bare_ms.push_back(TimeMs([&] {
      w->index->ComputePivotRow(q, row.data());
      w->index->KNearestWithPivotRow(q, kK, row.data());
    }));
    QueryStats bare, withtrace;
    lazy_bare_ms.push_back(TimeMs([&] { ref[ladder[i]] = w->index->KNearest(q, kK, &bare); }));
    cned::ResetContextualCellsEvaluated();
    s = tracer.Begin("inproc.KNearest", i);
    const auto got = traced.KNearest(q, kK, &withtrace);
    tracer.End(s);
    cells += cned::ContextualCellsEvaluated();
    lazy_traced_ms.push_back(tracer.DurationSeconds(s) * 1e3);
    lazy_traced_total += tracer.DurationSeconds(s);
    lazy_evals += tracer.spans()[s].dist_evals;
    lazy_dist_ns += tracer.spans()[s].dist_ns;
    lazy_abandons += tracer.spans()[s].dist_abandons;
    stats_mismatch += !(bare == withtrace);
    tally.Add(SameDistances(got, ref[ladder[i]]), "traced index answers as the bare one");
  }
  const cned::ExhaustiveSearch exhaustive(in.data, w->distance);
  for (std::size_t i = 0; i < std::min(kExhaustiveSample, nq); ++i) {
    const std::uint32_t q = ladder[i];
    tally.Add(SameDistances(ref[q], exhaustive.KNearest(in.queries[q], kK)),
              "in-process reference matches exhaustive search");
  }
  tally.Add(stats_mismatch == 0, "traced QueryStats equal the untraced ones");

  // The served ladder runs over a prefix of the same queries.
  const std::size_t ns = std::min(kLadderServed, nq);
  std::vector<std::uint32_t> served_seq(ladder.begin(), ladder.begin() + ns);
  const std::vector<double> lazy_prefix(lazy_bare_ms.begin(), lazy_bare_ms.begin() + ns);
  const std::vector<double> rowpath_prefix(row_path_bare_ms.begin(),
                                           row_path_bare_ms.begin() + ns);
  std::uint64_t hedges = 0, failovers = 0, evictions = 0, served_total = 0;
  const auto account = [&](const std::vector<Sample>& v) {
    for (const Sample& s : v) {
      hedges += s.res.hedged_evals;
      failovers += s.res.failovers;
      evictions += s.res.replicas_evicted;
      ++served_total;
    }
  };

  // Step 4: ServeRouter::KNearest, one client; /proc around it.
  const ProcSample self0 = SampleSelf();
  const WorkerSample work0 = SampleWorkers(*w);
  const std::vector<Sample> router_1c =
      OneClient(&tracer, "serve.ServeRouter::KNearest", served_seq,
                [&](std::size_t q) { return w->router->KNearest(in.queries[q], kK); });
  const ProcSample self_d = SampleSelf() - self0;
  const WorkerSample work1 = SampleWorkers(*w);
  const ProcSample work_d = work1.total - work0.total;
  tally.Add(self_d.ok && work_d.ok, "/proc counters readable");
  std::vector<double> worker_cpu;
  for (std::size_t i = 0; i < work1.cpu_ms.size(); ++i) {
    worker_cpu.push_back(work1.cpu_ms[i] - work0.cpu_ms[i]);
  }
  CheckClosed(in, router_1c, *w->index, &ref, &tally);
  account(router_1c);
  const double router_p50 = Quantile(LatenciesMs(router_1c), 0.5);

  // Step 5: ServeEngine::KNearest, one client, then four.
  const auto engine_call = [&](std::size_t q) {
    return w->engine->KNearest(in.queries[q], kK);
  };
  double t0 = NowSeconds();
  const std::vector<Sample> engine_1c =
      OneClient(&tracer, "serve.ServeEngine::KNearest", served_seq, engine_call);
  const double qps_1c = static_cast<double>(ns) / (NowSeconds() - t0);
  CheckClosed(in, engine_1c, *w->index, &ref, &tally);
  account(engine_1c);
  const double engine_p50 = Quantile(LatenciesMs(engine_1c), 0.5);

  // Four clients over the ladder queries; the admission counters cover
  // this loop.
  const Admission before(*w->engine);
  t0 = NowSeconds();
  const std::vector<Sample> engine_4c =
      ClosedLoop(kClients, 0.2 * a.seconds, ladder, engine_call);
  const double qps_4c = static_cast<double>(engine_4c.size()) / (NowSeconds() - t0);
  CheckClosed(in, engine_4c, *w->index, &ref, &tally);
  account(engine_4c);
  const Admission after(*w->engine);

  // Step 6: frame codec.
  const double codec = CodecNsPerKb(in);

  // Step 7: router writes, then the mutable tier (after every read phase:
  // the first write takes the router off its fast path).
  std::vector<double> ins_ms, rem_ms;
  for (std::size_t i = 0; i < kWriteBurst; ++i) {
    ins_ms.push_back(TimeMs([&] { w->router->Insert(in.queries[i % in.queries.size()]); }));
    // Distinct live base ids.
    const std::uint64_t id = in.data.size() - 1 - i * 7;
    bool ok = false;
    rem_ms.push_back(TimeMs([&] { ok = w->router->Remove(id); }));
    tally.Add(ok, "router remove acknowledged");
  }
  // The mutable tier's own ops evaluate no distance; its base build does,
  // which on digits_dc would double the run, so that workload skips it.
  double mut_ins_us = 0.0, mut_rem_us = 0.0;
  if (!spec.digits) {
    cned::MutableLaesa::Options mopt;
    mopt.num_pivots = kPivots;
    cned::MutableLaesa mut(in.data, w->distance, mopt);
    std::vector<double> iu, ru;
    for (std::size_t i = 0; i < kMutableBurst; ++i) {
      iu.push_back(1e3 * TimeMs([&] { mut.Insert(in.queries[i % in.queries.size()]); }));
      bool ok = false;
      ru.push_back(1e3 * TimeMs([&] { ok = mut.Remove(i * 11 % in.data.size()); }));
      tally.Add(ok, "mutable remove acknowledged");
    }
    mut_ins_us = Quantile(iu, 0.5);
    mut_rem_us = Quantile(ru, 0.5);
  }
  const std::size_t respawns = Respawns(*w, pids);
  for (std::size_t i = 0; i < respawns; ++i) tally.Add(false, "no replica respawned");

  // Derived per-layer numbers.
  const double q = static_cast<double>(nq);
  const double nsq = static_cast<double>(ns);
  const double inproc_p50 = Quantile(lazy_prefix, 0.5);
  const double dist_share =
      lazy_traced_total > 0 ? static_cast<double>(lazy_dist_ns) * 1e-9 / lazy_traced_total : 0.0;
  const double router_overhead = router_p50 - inproc_p50;
  const double engine_overhead = engine_p50 - Quantile(rowpath_prefix, 0.5);
  const double claims = after.claims - before.claims;
  const double claimed = after.claimed - before.claimed;
  const double dedup = claimed > 0 ? (after.deduped - before.deduped) / claimed : 0.0;
  const double worker_mean = Mean(worker_cpu);
  const double worker_max =
      worker_cpu.empty() ? 0.0 : *std::max_element(worker_cpu.begin(), worker_cpu.end());

  // Predicted dominant layers. No duplicate is ever in flight on a closed
  // loop, so admission must dedup nothing.
  bool prediction = true;
  if (std::string(spec.name) == "dict_de") prediction = router_overhead > 0.5 * engine_p50;
  if (spec.digits) prediction = dist_share >= 0.5;
  prediction = prediction && dedup == 0.0;
  std::fprintf(stderr,
               "  prediction %s: router.overhead %.2f of engine p50 %.2f ms; "
               "distances.share %.3f; dedup %.3f\n",
               prediction ? "confirmed" : "NOT confirmed", router_overhead,
               engine_p50, dist_share, dedup);

  std::vector<Metric> m = {
      {"distances.evals_per_query", double(lazy_evals) / q, "count"},
      {"distances.abandon_frac", lazy_evals ? double(lazy_abandons) / double(lazy_evals) : 0.0, "ratio"},
      {"distances.us_per_eval", lazy_evals ? double(lazy_dist_ns) * 1e-3 / double(lazy_evals) : 0.0, "us"},
      {"distances.share", dist_share, "ratio"},
      {"core.cells_per_query", dc ? double(cells) / q : 0.0, "count"},
      {"pivot_stage.ms_per_query", Mean(pivot_ms), "ms"},
      {"pivot_stage.evals_per_query", double(pivot_evals) / q, "count"},
      {"index.row_ms_per_query", Mean(rowsweep_ms), "ms"},
      {"index.self_ms_per_query", Mean(rowsweep_self_ms), "ms"},
      {"index.candidates_per_query", double(sweep_evals) / q, "count"},
      {"mutable.insert_us", mut_ins_us, "us"},
      {"mutable.remove_us", mut_rem_us, "us"},
      {"router.p50_ms_1c", router_p50, "ms"},
      {"router.overhead_ms", router_overhead, "ms"},
      {"router.ctx_switches_per_query", double(self_d.ctx_switches) / nsq, "count"},
      {"router.cpu_ms_per_query", self_d.cpu_ms / nsq, "ms"},
      {"worker.cpu_ms_per_query", work_d.cpu_ms / nsq, "ms"},
      {"worker.ctx_switches_per_query", double(work_d.ctx_switches) / nsq, "count"},
      {"worker.cpu_max_over_mean", worker_mean > 0 ? worker_max / worker_mean : 0.0, "ratio"},
      {"router.hedges_per_query", double(hedges) / double(served_total), "count"},
      {"router.failovers_per_query", double(failovers) / double(served_total), "count"},
      {"router.evictions_per_query", double(evictions) / double(served_total), "count"},
      {"router.insert_p50_ms", Quantile(ins_ms, 0.5), "ms"},
      {"router.remove_p50_ms", Quantile(rem_ms, 0.5), "ms"},
      {"frame.codec_ns_per_kb", codec, "ns/KiB"},
      {"engine.p50_ms_1c", engine_p50, "ms"},
      {"engine.overhead_ms", engine_overhead, "ms"},
      {"engine.batch_size", claims > 0 ? claimed / claims : 0.0, "count"},
      {"engine.shed_frac", !engine_4c.empty() ? (after.shed - before.shed) / double(engine_4c.size()) : 0.0, "ratio"},
      {"engine.concurrency_gain", qps_4c / qps_1c, "ratio"},
      {"setup.build_s", setup.build_s, "s"},
      {"setup.snapshot_s", setup.snapshot_s, "s"},
      {"setup.spawn_s", setup.spawn_s, "s"},
      {"setup.engine_s", setup.engine_s, "s"},
      {"setup.snapshot_mb", setup.snapshot_mb, "MB"},
      {"trace.overhead_frac", Quantile(lazy_traced_ms, 0.5) / Quantile(lazy_bare_ms, 0.5) - 1.0, "ratio"},
      {"trace.stats_match", stats_mismatch == 0 ? 1.0 : 0.0, "bool"},
      {"trace.prediction_ok", prediction ? 1.0 : 0.0, "bool"},
      {"failed_frac", tally.attempted ? double(tally.failed) / double(tally.attempted) : 0.0, "ratio"},
  };
  const std::string spans = a.out + "/spans-" + a.workload + "-" +
                            std::to_string(a.seed) + ".jsonl";
  if (!tracer.WriteJsonLines(spans)) std::fprintf(stderr, "  cannot write %s\n", spans.c_str());
  std::error_code ec;
  fs::remove(saved, ec);
  PrintResult(tally, m);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--out") a->out = v;
    else if (k == "--source-id") a->source_id = v;
    else return false;
  }
  return argc % 2 == 1 && FindWorkload(a->workload) != nullptr &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Knobs that change what is measured must not leak in from outside.
  for (const char* knob : {"CNED_SWEEP_KERNEL", "CNED_TABLE_PRECISION",
                           "CNED_SNAPSHOT_VERIFY", "CNED_FAULT"}) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", knob);
      return 2;
    }
  }
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <dict_de|digits_dc> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out <dir>] "
                 "[--source-id <text>]\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(a.out);
    const Inputs in = MakeInputs(*FindWorkload(a.workload), a.seed);
    std::fprintf(stderr, "perfbench %s seed=%llu seconds=%g trace=%d\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 a.seconds, a.trace);
    PrintProvenance(a, in);
    return a.trace == 0 ? RunEndToEnd(a, in) : RunTraced(a, in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
