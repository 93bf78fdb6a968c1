#include "serve/router.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/binary_io.h"
#include "distances/registry.h"
#include "serve/frame.h"
#include "serve/shard_snapshot.h"
#include "serve/wire.h"
#include "serve/worker.h"

namespace cned {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void ValidateServeOptions(const ServeOptions& o) {
  auto fail = [](const char* field, long long got, const char* want) {
    throw std::invalid_argument(std::string("ServeOptions.") + field + " " +
                                want + " (got " + std::to_string(got) + ")");
  };
  if (o.distance.empty()) {
    throw std::invalid_argument(
        "ServeOptions.distance must name a registered distance");
  }
  if (o.replicas < 1) fail("replicas", o.replicas, "must be >= 1");
  if (o.op_timeout_ms <= 0) fail("op_timeout_ms", o.op_timeout_ms, "must be > 0");
  if (o.query_deadline_ms <= 0) {
    fail("query_deadline_ms", o.query_deadline_ms, "must be > 0");
  }
  if (o.op_retries < 0) fail("op_retries", o.op_retries, "must be >= 0");
  if (o.backoff_base_ms < 0) {
    fail("backoff_base_ms", o.backoff_base_ms, "must be >= 0");
  }
  if (o.health_interval_ms < 0) {
    fail("health_interval_ms", o.health_interval_ms, "must be >= 0");
  }
  if (o.max_respawns_per_tick < 0) {
    fail("max_respawns_per_tick", o.max_respawns_per_tick, "must be >= 0");
  }
}

/// Exponential backoff before retry `attempt` (1-based), capped at the
/// time remaining before `deadline_ms` (-1 = unbounded) so a retrying op
/// can never sleep a query past its budget.
void BackoffSleep(int backoff_base_ms, int attempt, std::int64_t deadline_ms) {
  const int shift = attempt - 1 < 20 ? attempt - 1 : 20;
  std::int64_t sleep_ms = static_cast<std::int64_t>(backoff_base_ms) << shift;
  if (deadline_ms >= 0) {
    const std::int64_t left = deadline_ms - NowMs();
    if (left <= 0) return;
    if (sleep_ms > left) sleep_ms = left;
  }
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

constexpr std::uint32_t kReplyType =
    static_cast<std::uint32_t>(FrameType::kReply);

}  // namespace

ServeRouter::ServeRouter(const std::string& snapshot_dir,
                         const ServeOptions& options)
    : distance_((ValidateServeOptions(options), MakeDistance(options.distance))),
      dir_(snapshot_dir),
      options_(options),
      replicas_per_shard_(static_cast<std::size_t>(options.replicas)) {
  // The manifest is small (pivot ids + strings); the copying reader also
  // gives the router the same always-on checksum verification the workers
  // run on their shard files.
  BinaryReader reader(ManifestPath(dir_));
  const auto counts =
      reader.Header(kRouterManifestMagic, kRouterManifestVersion);
  n_ = counts[0];
  const std::uint64_t shards = counts[1];
  const std::uint64_t np = counts[2];
  const std::uint64_t arena_bytes = counts[3];
  if (shards == 0 || np == 0 || np > n_) {
    throw std::runtime_error("ServeRouter: malformed manifest counts");
  }
  reader.RequireArray(shards, sizeof(std::uint64_t));
  shard_sizes_.resize(shards);
  reader.Align();
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "64-bit shard sizes expected");
  reader.Raw(shard_sizes_.data(), shards * sizeof(std::uint64_t));
  bases_.resize(shards + 1);
  bases_[0] = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    bases_[s + 1] = bases_[s] + shard_sizes_[s];
  }
  if (bases_[shards] != n_) {
    throw std::runtime_error("ServeRouter: shard sizes do not sum to n");
  }
  reader.RequireArray(np, sizeof(std::uint64_t));
  pivots_.resize(np);
  reader.Align();
  reader.Raw(pivots_.data(), np * sizeof(std::uint64_t));
  pivot_rank_.assign(n_, -1);
  for (std::size_t p = 0; p < np; ++p) {
    if (pivots_[p] >= n_ || pivot_rank_[pivots_[p]] >= 0) {
      throw std::runtime_error("ServeRouter: bad manifest pivot ids");
    }
    pivot_rank_[pivots_[p]] = static_cast<std::int32_t>(p);
  }
  reader.RequireArray(np, sizeof(std::uint64_t));
  std::vector<std::uint64_t> lens(np);
  reader.Align();
  reader.Raw(lens.data(), np * sizeof(std::uint64_t));
  std::uint64_t lens_total = 0;
  for (std::uint64_t l : lens) lens_total += l;
  if (lens_total != arena_bytes) {
    throw std::runtime_error("ServeRouter: manifest pivot arena mismatch");
  }
  reader.Align();
  pivot_strings_.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    pivot_strings_[p].resize(lens[p]);
    reader.Raw(pivot_strings_[p].data(), lens[p]);
  }

  next_insert_id_ = n_;
  shard_dead_.assign(shards, 0);
  delta_live_.assign(shards, 0);
  shard_ops_.resize(shards);

  groups_.resize(shards);
  {
    std::lock_guard<std::mutex> rlock(respawn_mu_);
    for (std::size_t s = 0; s < shards; ++s) {
      groups_[s] = std::make_unique<Group>();
      groups_[s]->members.resize(replicas_per_shard_);
      for (std::size_t r = 0; r < replicas_per_shard_; ++r) {
        SpawnReplica(s, r, options_.fault_spec);
      }
    }
    if (!PingAllLocked()) {
      bool any = false;
      for (const auto& gp : groups_) {
        for (const Replica& m : gp->members) any = any || m.alive;
      }
      if (!any) {
        throw std::runtime_error("ServeRouter: no worker came up");
      }
    }
  }
  if (options_.health_interval_ms > 0) {
    health_thread_ = std::thread(&ServeRouter::HealthLoop, this);
  }
}

ServeRouter::~ServeRouter() {
  if (health_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(health_mu_);
      stop_health_ = true;
    }
    health_cv_.notify_all();
    health_thread_.join();
  }
  for (auto& gp : groups_) {
    for (Replica& m : gp->members) {
      if (m.conn != nullptr && !m.conn->failed()) {
        // Best-effort clean shutdown; the SIGKILL below is the guarantee.
        m.conn->Send(FrameType::kShutdown, m.conn->NextSeq(), 0, nullptr, 0);
      }
      m.conn.reset();
      if (m.pid > 0) {
        kill(m.pid, SIGKILL);
        int status = 0;
        waitpid(m.pid, &status, 0);
      }
    }
  }
}

// Drift-free ticking: each deadline is the previous deadline plus the
// interval, not "now + interval" after the work finished, so slow ticks
// do not stretch the period; ticks missed entirely are skipped (never
// bunched). The loop takes only respawn_mu_ — pings share the
// connections at query id 0 while queries are in flight, and a replica
// revived here serves only queries that start later.
void ServeRouter::HealthLoop() {
  const auto interval = std::chrono::milliseconds(options_.health_interval_ms);
  const std::size_t cap =
      options_.max_respawns_per_tick > 0
          ? static_cast<std::size_t>(options_.max_respawns_per_tick)
          : 0;
  auto next = Clock::now() + interval;
  std::unique_lock<std::mutex> lock(health_mu_);
  for (;;) {
    if (health_cv_.wait_until(lock, next, [this] { return stop_health_; })) {
      return;
    }
    lock.unlock();
    {
      std::lock_guard<std::mutex> rlock(respawn_mu_);
      PingAllLocked();
      RespawnDeadLocked(cap);
    }
    lock.lock();
    next += interval;
    const auto now = Clock::now();
    if (next <= now) {
      const auto behind = now - next;
      next += interval * (behind / interval + 1);
    }
  }
}

void ServeRouter::SpawnReplica(std::size_t s, std::size_t r,
                               const std::string& fault_spec) {
  // Gather every router-side fd before forking so the child can drop
  // them: a crashed sibling's socket must still read EOF at the router.
  // Connections cannot be retired concurrently — that happens only under
  // respawn_mu_, which the caller holds — so the fds stay valid across
  // the fork (a query marking one failed uses shutdown(2), not close(2)).
  std::vector<int> router_fds;
  for (const auto& gp : groups_) {
    if (gp == nullptr) continue;
    std::lock_guard<std::mutex> lock(gp->mu);
    for (const Replica& other : gp->members) {
      if (other.conn != nullptr) router_fds.push_back(other.conn->fd());
    }
  }
  Group& g = *groups_[s];
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    std::lock_guard<std::mutex> lock(g.mu);
    g.members[r].alive = false;
    return;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(sv[0]);
    close(sv[1]);
    std::lock_guard<std::mutex> lock(g.mu);
    g.members[r].alive = false;
    return;
  }
  if (pid == 0) {
    close(sv[0]);
    for (const int fd : router_fds) close(fd);
    WorkerConfig config;
    config.shard_id = s;
    config.replica_id = r;
    config.store_path = ShardStorePath(dir_, s);
    config.index_path = ShardIndexPath(dir_, s);
    config.distance = options_.distance;
    config.fault_spec = fault_spec;
    if (!options_.worker_binary.empty()) {
      // Exec form: hand the socket over as fd 3.
      if (sv[1] != 3) {
        dup2(sv[1], 3);
        close(sv[1]);
      }
      execl(options_.worker_binary.c_str(), options_.worker_binary.c_str(),
            "--fd=3", ("--shard=" + std::to_string(s)).c_str(),
            ("--replica=" + std::to_string(r)).c_str(),
            ("--store=" + config.store_path).c_str(),
            ("--index=" + config.index_path).c_str(),
            ("--distance=" + config.distance).c_str(),
            ("--fault=" + config.fault_spec).c_str(), (char*)nullptr);
      _exit(127);
    }
    _exit(RunShardWorker(sv[1], config));
  }
  close(sv[1]);
  std::lock_guard<std::mutex> lock(g.mu);
  Replica& rep = g.members[r];
  rep.pid = pid;
  rep.conn = std::make_shared<Conn>(sv[0]);
  rep.alive = true;
}

void ServeRouter::ReapReplica(std::size_t s, std::size_t r) {
  std::shared_ptr<Conn> conn;
  pid_t pid = -1;
  {
    Group& g = *groups_[s];
    std::lock_guard<std::mutex> lock(g.mu);
    Replica& rep = g.members[r];
    conn = std::move(rep.conn);
    rep.conn.reset();
    pid = rep.pid;
    rep.pid = -1;
    rep.alive = false;
  }
  // Fail before dropping our reference: queries still pinned to this
  // connection wake with kClosed instead of waiting out their timeouts.
  if (conn != nullptr) conn->Fail();
  conn.reset();
  if (pid > 0) {
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
  }
}

void ServeRouter::MarkDeadGlobal(std::size_t s, std::size_t r) {
  std::shared_ptr<Conn> conn;
  {
    Group& g = *groups_[s];
    std::lock_guard<std::mutex> lock(g.mu);
    g.members[r].alive = false;
    conn = g.members[r].conn;
  }
  if (conn != nullptr) conn->Fail();
}

void ServeRouter::MarkDead(QueryCtx& ctx, std::size_t s, std::size_t r) {
  Participant& m = ctx.groups[s].members[r];
  m.alive = false;
  if (m.conn != nullptr) m.conn->Fail();
  // Propagate to the global member only while it still holds the same
  // connection: a respawn may already have replaced it, and the fresh
  // process must not be condemned for its predecessor's death.
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  if (g.members[r].conn == m.conn) g.members[r].alive = false;
}

void ServeRouter::SnapshotCtx(QueryCtx* ctx) const {
  std::uint32_t qid = ++qid_counter_;
  if (qid == 0) qid = ++qid_counter_;  // 0 is the control plane
  ctx->qid = qid;
  ctx->groups.resize(groups_.size());
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    Group& g = *groups_[s];
    GroupCtx& gc = ctx->groups[s];
    std::lock_guard<std::mutex> lock(g.mu);
    gc.members.resize(g.members.size());
    for (std::size_t r = 0; r < g.members.size(); ++r) {
      gc.members[r].conn = g.members[r].conn;
      gc.members[r].alive = g.members[r].alive &&
                            g.members[r].conn != nullptr &&
                            !g.members[r].conn->failed();
    }
    gc.primary = g.primary;
  }
}

void ServeRouter::Promote(QueryCtx& ctx, std::size_t s, std::size_t r) {
  ctx.groups[s].primary = r;
  // Mirror to the global group when its member is unchanged, steering
  // later queries (and the monitoring accessors) at the live member.
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  if (g.members[r].conn == ctx.groups[s].members[r].conn &&
      g.members[r].alive) {
    g.primary = r;
  }
}

bool ServeRouter::EnsurePrimary(QueryCtx& ctx, std::size_t s,
                                ServeResult* res) {
  GroupCtx& g = ctx.groups[s];
  if (g.members[g.primary].alive) return true;
  for (std::size_t r = 0; r < g.members.size(); ++r) {
    if (g.members[r].alive) {
      Promote(ctx, s, r);
      if (res != nullptr) ++res->failovers;
      return true;
    }
  }
  return false;
}

bool ServeRouter::ControlSendRecv(std::size_t s, std::size_t r, FrameType type,
                                  const std::vector<char>& payload,
                                  std::vector<char>* reply) {
  std::shared_ptr<Conn> conn;
  {
    Group& g = *groups_[s];
    std::lock_guard<std::mutex> lock(g.mu);
    if (!g.members[r].alive) return false;
    conn = g.members[r].conn;
  }
  if (conn == nullptr || conn->failed()) {
    MarkDeadGlobal(s, r);
    return false;
  }
  for (int attempt = 0; attempt <= options_.op_retries; ++attempt) {
    if (attempt > 0) {
      BackoffSleep(options_.backoff_base_ms, attempt, /*deadline_ms=*/-1);
    }
    const std::uint32_t seq = conn->NextSeq();
    conn->Expect(seq, /*qid=*/0);
    if (!conn->Send(type, seq, /*qid=*/0, payload.data(), payload.size())) {
      conn->Cancel(seq);
      MarkDeadGlobal(s, r);
      return false;
    }
    Frame frame;
    const RecvStatus st = conn->Wait(seq, options_.op_timeout_ms, &frame);
    if (st == RecvStatus::kOk) {
      if (frame.type != kReplyType) {
        MarkDeadGlobal(s, r);
        return false;
      }
      if (reply != nullptr) *reply = std::move(frame.payload);
      return true;
    }
    if (st != RecvStatus::kTimeout) {
      MarkDeadGlobal(s, r);
      return false;
    }
    conn->Cancel(seq);
  }
  MarkDeadGlobal(s, r);
  return false;
}

std::size_t ServeRouter::ShardOf(std::size_t global) const {
  const auto it =
      std::upper_bound(bases_.begin() + 1, bases_.end(), global);
  return static_cast<std::size_t>(it - (bases_.begin() + 1));
}

int ServeRouter::RemainingMs(std::int64_t deadline_ms) const {
  const std::int64_t left = deadline_ms - NowMs();
  if (left <= 0) return 0;
  const int cap = options_.op_timeout_ms;
  return left < cap ? static_cast<int>(left) : cap;
}

pid_t ServeRouter::worker_pid(std::size_t s) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  return g.members[g.primary].pid;
}

bool ServeRouter::worker_alive(std::size_t s) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  for (const Replica& m : g.members) {
    if (m.alive) return true;
  }
  return false;
}

std::size_t ServeRouter::primary_of(std::size_t s) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  return g.primary;
}

pid_t ServeRouter::replica_pid(std::size_t s, std::size_t r) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  return g.members[r].pid;
}

bool ServeRouter::replica_alive(std::size_t s, std::size_t r) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  return g.members[r].alive;
}

bool ServeRouter::AnyDead() const {
  for (const auto& gp : groups_) {
    std::lock_guard<std::mutex> lock(gp->mu);
    for (const Replica& m : gp->members) {
      if (!m.alive) return true;
    }
  }
  return false;
}

void ServeRouter::MaybeRespawn() {
  // Cheap any-dead scan first: the common healthy query never touches
  // respawn_mu_ and never serializes behind another caller's respawn.
  if (!options_.auto_respawn || !AnyDead()) return;
  std::lock_guard<std::mutex> lock(respawn_mu_);
  RespawnDeadLocked(/*limit=*/0);
}

ServeResult ServeRouter::Nearest(std::string_view query) {
  return KNearest(query, 1);
}

ServeResult ServeRouter::KNearest(std::string_view query, std::size_t k) {
  // The pivot stage reads only the immutable manifest: it runs before the
  // world lock, so a waiting writer is never held up by it.
  std::vector<double> row(pivots_.size());
  for (std::size_t p = 0; p < row.size(); ++p) {
    row[p] = distance_->Distance(query, pivot_strings_[p]);
  }
  std::shared_lock<std::shared_mutex> world(world_mu_);
  return Read(query, k, row.data());
}

std::vector<ServeResult> ServeRouter::KNearestBatch(
    const std::vector<std::string>& queries, std::size_t k) {
  std::vector<ServeResult> out;
  out.reserve(queries.size());
  for (const std::string& q : queries) out.push_back(KNearest(q, k));
  return out;
}

ServeResult ServeRouter::KNearestWithRow(std::string_view query, std::size_t k,
                                         const std::vector<double>& row) {
  if (row.size() != pivots_.size()) {
    throw std::invalid_argument(
        "ServeRouter::KNearestWithRow: row must have num_pivots() entries");
  }
  std::shared_lock<std::shared_mutex> world(world_mu_);
  return Read(query, k, row.data());
}

ServeResult ServeRouter::Read(std::string_view query, std::size_t k,
                              const double* row) {
  // Respawn between queries: one lost group costs one partial answer, and
  // revived replicas (re-mapped, checksum-verified, journal-replayed) serve
  // from the next query on.
  MaybeRespawn();
  ServeResult res;
  std::size_t delta_total = 0;
  for (const std::size_t v : delta_live_) delta_total += v;
  k = std::min(k, n_ - base_dead_total_ + delta_total);
  if (k == 0) return res;
  const std::int64_t deadline = NowMs() + options_.query_deadline_ms;
  const std::size_t shards = shard_sizes_.size();
  const std::size_t np = pivots_.size();
  QueryCtx ctx;
  SnapshotCtx(&ctx);

  // The pivot incumbents. A tombstoned pivot's row entry still tightens
  // every worker's bounds (an admissible use), but it is no longer a
  // member of the live set.
  std::vector<NeighborResult> candidates;
  candidates.reserve(np + shards * k);
  for (std::size_t p = 0; p < np; ++p) {
    if (base_tombs_.empty() || !TestTombstone(base_tombs_.data(), pivots_[p])) {
      candidates.push_back({pivots_[p], row[p]});
    }
  }
  res.stats.distance_computations = np;
  res.stats.pivot_computations = np;

  PayloadWriter w;
  EncodeShardQuery(w, query, k, SeedCap(candidates, k), row, np);
  const bool audit = ctx.qid % kAuditPeriod == 0;
  std::vector<ShardCall> calls(shards);
  std::vector<char> sent(shards, 0);
  for (std::size_t s = 0; s < shards; ++s) {
    sent[s] = ScatterShard(ctx, s, w.buf, audit, &calls[s], &res) ? 1 : 0;
  }
  for (std::size_t s = 0; s < shards; ++s) {
    ShardAnswer a;
    if (sent[s] && GatherShard(ctx, s, w.buf, k, deadline, &calls[s], &a,
                               &res)) {
      res.stats.distance_computations += a.computations;
      res.stats.bounded_abandons += a.abandons;
      candidates.insert(candidates.end(), a.hits.begin(), a.hits.end());
    } else {
      res.missing_shards.push_back(s);
    }
  }
  res.neighbors = MergeTopK(std::move(candidates), k);
  res.partial = !res.missing_shards.empty();
  res.stats.shards_degraded = res.missing_shards.size();
  return res;
}

bool ServeRouter::SendLeg(QueryCtx& ctx, std::size_t s, std::size_t r,
                          const std::vector<char>& payload, Leg* leg) {
  Participant& m = ctx.groups[s].members[r];
  leg->r = r;
  leg->pending = false;
  if (!m.alive) return false;
  leg->seq = m.conn->NextSeq();
  m.conn->Expect(leg->seq, ctx.qid);
  if (!m.conn->Send(FrameType::kBeginRow, leg->seq, ctx.qid, payload.data(),
                    payload.size())) {
    m.conn->Cancel(leg->seq);
    MarkDead(ctx, s, r);
    return false;
  }
  leg->pending = true;
  return true;
}

ServeRouter::LegState ServeRouter::WaitLeg(QueryCtx& ctx, std::size_t s,
                                           Leg* leg, int wait_ms,
                                           std::vector<char>* bytes) {
  Frame frame;
  const RecvStatus st =
      ctx.groups[s].members[leg->r].conn->Wait(leg->seq, wait_ms, &frame);
  if (st == RecvStatus::kTimeout) return LegState::kPending;
  leg->pending = false;
  if (st == RecvStatus::kOk && frame.type == kReplyType) {
    *bytes = std::move(frame.payload);
    return LegState::kAnswered;
  }
  // kError (a worker-side exception), an unexpected type, or a corrupt or
  // closed stream — never resynchronised: the member is dead.
  MarkDead(ctx, s, leg->r);
  return LegState::kFailed;
}

void ServeRouter::CancelLeg(QueryCtx& ctx, std::size_t s, Leg* leg) {
  if (!leg->pending) return;
  ctx.groups[s].members[leg->r].conn->Cancel(leg->seq);
  leg->pending = false;
}

bool ServeRouter::Accept(QueryCtx& ctx, std::size_t s, std::size_t r,
                         const std::vector<char>& bytes, std::size_t k,
                         ShardAnswer* out) {
  bool ok = DecodeShardAnswer(bytes, k, out);
  for (std::size_t i = 0; ok && i < out->hits.size(); ++i) {
    const std::size_t id = out->hits[i].index;
    ok = (id >= bases_[s] && id < bases_[s + 1]) ||
         (id >= n_ && id < next_insert_id_ &&
          (id - n_) % shard_sizes_.size() == s);
  }
  // A CRC-valid reply that does not decode to this shard's answer means
  // the member's state is suspect: it is as dead as a crashed one.
  if (!ok) MarkDead(ctx, s, r);
  return ok;
}

std::size_t ServeRouter::GroupCtx::Standby(std::size_t skip,
                                           std::size_t turn) const {
  std::size_t live = 0;
  for (std::size_t r = 0; r < members.size(); ++r) {
    live += r != skip && members[r].alive ? 1 : 0;
  }
  if (live == 0) return members.size();
  turn %= live;
  for (std::size_t r = 0; r < members.size(); ++r) {
    if (r == skip || !members[r].alive) continue;
    if (turn-- == 0) return r;
  }
  return members.size();
}

bool ServeRouter::ScatterShard(QueryCtx& ctx, std::size_t s,
                               const std::vector<char>& payload, bool audit,
                               ShardCall* call, ServeResult* res) {
  GroupCtx& g = ctx.groups[s];
  bool sent = false;
  while (!sent && EnsurePrimary(ctx, s, res)) {
    sent = SendLeg(ctx, s, g.primary, payload, &call->lead);
  }
  if (!sent) return false;
  call->attempt_start = NowMs();
  if (audit) {
    // Rotate the audited standby with the query id, so every member of a
    // larger group is checked in turn.
    const std::size_t r = g.Standby(g.primary, ctx.qid / kAuditPeriod);
    call->audit =
        r < g.members.size() && SendLeg(ctx, s, r, payload, &call->side);
  }
  return true;
}

// One shard's gather. The request is in flight on the lead (the current
// primary) and, for an audited query, on a standby. Events, in the order
// the loop checks them:
//   * the lead answers: merged; an audit copy is then compared byte for
//     byte (a standby that disagrees, or misses the op timeout, is
//     evicted), a hedge copy cancelled;
//   * the lead fails (crash, kError, malformed or undecodable reply): a
//     standby copy already in flight takes over, else the request fails
//     over to the next live member — both count as failovers;
//   * the hedge trigger passes: the request is raced on a standby (an
//     audit copy simply becomes the race) and the first valid reply wins;
//   * the op timeout passes: the copies are withdrawn and the lead is
//     retried with backoff; once its retries are spent it is dead (and so
//     is a standby that missed the same window), and the request fails
//     over;
//   * the deadline passes: a reply already buffered is still taken, else
//     the shard is missing; nobody is condemned.
// A connection has no cross-connection wait, so a race alternates short
// waits between its two legs.
bool ServeRouter::GatherShard(QueryCtx& ctx, std::size_t s,
                              const std::vector<char>& payload, std::size_t k,
                              std::int64_t deadline_ms, ShardCall* call,
                              ShardAnswer* out, ServeResult* res) {
  constexpr int kRaceSliceMs = 2;
  GroupCtx& g = ctx.groups[s];
  Leg& lead = call->lead;
  Leg& side = call->side;
  const bool hedging = options_.hedge_delay_ms >= 0;
  int attempt = 0;
  std::vector<char> bytes;
  for (;;) {
    if (!lead.pending) {
      if (side.pending) {
        Promote(ctx, s, side.r);
        ++res->failovers;
        lead = side;
        side = Leg();
        call->audit = false;
      } else {
        // Failover: the next live member, with a fresh retry budget.
        bool sent = false;
        while (!sent && EnsurePrimary(ctx, s, res)) {
          sent = SendLeg(ctx, s, g.primary, payload, &lead);
        }
        if (!sent) return false;  // the whole replica group is lost
        attempt = 0;
        call->attempt_start = NowMs();
      }
    }
    std::int64_t now = NowMs();
    if (now >= deadline_ms) {
      // Shards are gathered in turn, so a slow one can spend the deadline
      // while a later shard's reply already sits on its connection: take
      // a buffered reply before declaring the shard missing.
      bool answered = false;
      for (Leg* leg : {&lead, &side}) {
        answered = answered ||
                   (leg->pending &&
                    WaitLeg(ctx, s, leg, 0, &bytes) == LegState::kAnswered &&
                    Accept(ctx, s, leg->r, bytes, k, out));
      }
      CancelLeg(ctx, s, &lead);
      CancelLeg(ctx, s, &side);
      return answered;
    }
    const std::int64_t attempt_end =
        call->attempt_start + options_.op_timeout_ms;
    const std::int64_t trigger =
        hedging ? call->attempt_start + HedgeTriggerMs()
                : std::numeric_limits<std::int64_t>::max();
    const bool racing = side.pending && !call->audit;
    std::int64_t until = std::min(deadline_ms, attempt_end);
    if (!racing && now < trigger) until = std::min(until, trigger);
    int wait = static_cast<int>(std::max<std::int64_t>(0, until - now));
    if (racing) wait = std::min(wait, kRaceSliceMs);

    LegState st = WaitLeg(ctx, s, &lead, wait, &bytes);
    if (st == LegState::kAnswered) {
      if (!Accept(ctx, s, lead.r, bytes, k, out)) continue;
      RecordLeadReply(NowMs() - call->attempt_start);
      if (call->audit && side.pending) {
        // The standby got the request with the lead and has the same op
        // timeout to answer it. One that disagrees, or that misses the
        // window (hung, not dead — a read-only workload would otherwise
        // pay the window on every audit), is evicted.
        std::vector<char> copy;
        const std::int64_t window = std::min(deadline_ms, attempt_end);
        st = WaitLeg(ctx, s, &side,
                     static_cast<int>(
                         std::max<std::int64_t>(0, window - NowMs())),
                     &copy);
        if ((st == LegState::kAnswered && copy != bytes) ||
            (st == LegState::kPending && NowMs() >= attempt_end)) {
          MarkDead(ctx, s, side.r);
          ++res->replicas_evicted;
        }
      }
      CancelLeg(ctx, s, &side);
      return true;
    }
    if (st == LegState::kFailed) continue;
    if (racing &&
        WaitLeg(ctx, s, &side, wait, &bytes) == LegState::kAnswered &&
        Accept(ctx, s, side.r, bytes, k, out)) {
      // The hedge won. A race is not a verdict: the slow primary keeps
      // its job.
      CancelLeg(ctx, s, &lead);
      return true;
    }

    now = NowMs();
    if (now >= attempt_end) {
      const bool side_missed = side.pending && !call->audit;
      CancelLeg(ctx, s, &lead);
      CancelLeg(ctx, s, &side);
      call->audit = false;
      if (++attempt < 1 + options_.op_retries) {
        BackoffSleep(options_.backoff_base_ms, attempt, deadline_ms);
        if (SendLeg(ctx, s, lead.r, payload, &lead)) {
          call->attempt_start = NowMs();
        }
      } else {
        MarkDead(ctx, s, lead.r);
        if (side_missed) MarkDead(ctx, s, side.r);
      }
    } else if (now >= trigger) {
      if (side.pending) {
        call->audit = false;  // the audit copy doubles as the hedge
      } else {
        const std::size_t r = g.Standby(lead.r, 0);
        if (r < g.members.size() && SendLeg(ctx, s, r, payload, &side)) {
          ++res->hedged_evals;
        }
      }
    }
  }
}

int ServeRouter::HedgeTriggerMs() const {
  std::lock_guard<std::mutex> lock(clock_mu_);
  // Twice the retransmit estimate: a false hedge duplicates a whole
  // shard query, not a packet, and shard reply times (queueing behind
  // other queries, query-length-dependent dC work) have an
  // exponential-like tail — srtt + 4 rttvar alone fires on a few percent
  // of healthy requests.
  const double estimate = std::ceil(2.0 * (srtt_ms_ + 4.0 * rttvar_ms_));
  return estimate > options_.hedge_delay_ms ? static_cast<int>(estimate)
                                            : options_.hedge_delay_ms;
}

// The retransmit-timeout estimator of TCP (Jacobson/Karels): a smoothed
// reply time and a smoothed mean deviation, gains 1/8 and 1/4.
void ServeRouter::RecordLeadReply(std::int64_t ms) {
  const double x = static_cast<double>(ms);
  std::lock_guard<std::mutex> lock(clock_mu_);
  if (!clock_primed_) {
    srtt_ms_ = x;
    rttvar_ms_ = x / 2.0;
    clock_primed_ = true;
    return;
  }
  rttvar_ms_ += 0.25 * (std::fabs(srtt_ms_ - x) - rttvar_ms_);
  srtt_ms_ += 0.125 * (x - srtt_ms_);
}

bool ServeRouter::PingAll() {
  std::lock_guard<std::mutex> lock(respawn_mu_);
  return PingAllLocked();
}

bool ServeRouter::PingAllLocked() {
  bool all = true;
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    for (std::size_t r = 0; r < groups_[s]->members.size(); ++r) {
      {
        std::lock_guard<std::mutex> lock(groups_[s]->mu);
        if (!groups_[s]->members[r].alive) {
          all = false;
          continue;
        }
      }
      std::vector<char> reply;
      if (!ControlSendRecv(s, r, FrameType::kPing, {}, &reply)) {
        all = false;
        continue;
      }
      PayloadReader pr(reply);
      // The ping reply echoes the worker's identity: a replica serving
      // the wrong shard (or the wrong group slot) is as dead as one
      // serving nothing.
      if (pr.U64() != s || pr.U64() != r || !pr.Done()) {
        MarkDeadGlobal(s, r);
        all = false;
      }
    }
  }
  return all;
}

std::size_t ServeRouter::RespawnDead() {
  std::lock_guard<std::mutex> lock(respawn_mu_);
  return RespawnDeadLocked(/*limit=*/0);
}

std::size_t ServeRouter::RespawnDeadLocked(std::size_t limit) {
  std::size_t revived = 0, attempts = 0;
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    Group& g = *groups_[s];
    for (std::size_t r = 0; r < g.members.size(); ++r) {
      {
        std::lock_guard<std::mutex> lock(g.mu);
        if (g.members[r].alive) continue;
      }
      // The cap counts respawn *attempts*, so a permanently failing spawn
      // cannot loop one tick forever; the remainder waits its turn.
      if (limit > 0 && attempts >= limit) continue;
      ++attempts;
      ReapReplica(s, r);
      SpawnReplica(s, r, options_.respawn_fault_spec);
      {
        std::lock_guard<std::mutex> lock(g.mu);
        if (!g.members[r].alive) continue;
      }
      std::vector<char> reply;
      if (ControlSendRecv(s, r, FrameType::kPing, {}, &reply)) {
        // A fresh fork maps only the immutable snapshot; replay the
        // shard's mutation journal so it rejoins at the group's current
        // delta/tombstone state (ops are idempotent by id, so a partial
        // previous life is harmless).
        if (ReplayMutations(s, r)) ++revived;
      }
    }
    // A fully-restored group keeps its current primary; a group whose
    // primary slot is still dead points at the first live member so the
    // next query starts on a live primary without a mid-query promotion.
    std::lock_guard<std::mutex> lock(g.mu);
    if (!g.members[g.primary].alive) {
      for (std::size_t r = 0; r < g.members.size(); ++r) {
        if (g.members[r].alive) {
          g.primary = r;
          break;
        }
      }
    }
  }
  return revived;
}

std::uint64_t ServeRouter::Insert(std::string_view s) {
  // World-exclusive: mutations are globally serialized in journal order
  // and never interleave with an in-flight read (per-shard writer order
  // is a consequence). respawn_mu_ follows in the lock hierarchy — the
  // journal append below is thereby visible to both lock holders.
  std::unique_lock<std::shared_mutex> world(world_mu_);
  std::lock_guard<std::mutex> rlock(respawn_mu_);
  if (options_.auto_respawn) RespawnDeadLocked(/*limit=*/0);
  const std::uint64_t id = next_insert_id_++;
  const std::size_t owner =
      static_cast<std::size_t>((id - n_) % shard_sizes_.size());
  ++delta_live_[owner];
  MutationOp op;
  op.insert = true;
  op.id = id;
  op.s.assign(s);
  // Journal before replicating: even if the whole group is down right now,
  // the next respawn replays the journal, so the id is durably assigned
  // from the router's point of view either way.
  shard_ops_[owner].push_back(std::move(op));
  ReplicateMutation(owner, shard_ops_[owner].back());
  return id;
}

bool ServeRouter::Remove(std::uint64_t id) {
  std::unique_lock<std::shared_mutex> world(world_mu_);
  std::lock_guard<std::mutex> rlock(respawn_mu_);
  if (options_.auto_respawn) RespawnDeadLocked(/*limit=*/0);
  std::size_t owner = 0;
  if (id < n_) {
    if (base_tombs_.empty()) base_tombs_.assign(TombstoneWords(n_), 0);
    if (TestTombstone(base_tombs_.data(), id)) return false;
    SetTombstone(base_tombs_.data(), id);
    owner = ShardOf(id);
    ++shard_dead_[owner];
    ++base_dead_total_;
  } else if (id < next_insert_id_) {
    const auto it =
        std::lower_bound(dead_delta_ids_.begin(), dead_delta_ids_.end(), id);
    if (it != dead_delta_ids_.end() && *it == id) return false;
    dead_delta_ids_.insert(it, id);
    owner = static_cast<std::size_t>((id - n_) % shard_sizes_.size());
    --delta_live_[owner];
  } else {
    return false;
  }
  MutationOp op;
  op.id = id;
  shard_ops_[owner].push_back(std::move(op));
  ReplicateMutation(owner, shard_ops_[owner].back());
  return true;
}

std::size_t ServeRouter::live_size() const {
  std::shared_lock<std::shared_mutex> world(world_mu_);
  std::size_t delta = 0;
  for (const std::size_t v : delta_live_) delta += v;
  return n_ - base_dead_total_ + delta;
}

std::uint64_t ServeRouter::next_insert_id() const {
  std::shared_lock<std::shared_mutex> world(world_mu_);
  return next_insert_id_;
}

void ServeRouter::ReplicateMutation(std::size_t owner, const MutationOp& op) {
  // The usual replication step at query id 0: every live member applies
  // the op, replies are byte-checked (dedup-stable, so retries after lost
  // replies still agree), and a member that fails is dead — to be
  // replayed at respawn. Caller holds respawn_mu_, so membership is
  // stable across the exchange.
  Group& g = *groups_[owner];
  const std::size_t R = replicas_per_shard_;
  std::vector<std::shared_ptr<Conn>> conns(R);
  std::vector<char> live(R, 0);
  std::size_t primary = 0;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    for (std::size_t r = 0; r < R; ++r) {
      conns[r] = g.members[r].conn;
      live[r] = g.members[r].alive ? 1 : 0;
    }
    primary = g.primary;
  }
  PayloadWriter w;
  w.U64(op.id);
  if (op.insert) w.Str(op.s);
  const FrameType type = op.insert ? FrameType::kInsert : FrameType::kRemove;
  std::vector<std::uint32_t> seqs(R, 0);
  std::vector<char> pending(R, 0), good(R, 0);
  std::vector<std::vector<char>> reply(R);
  for (std::size_t r = 0; r < R; ++r) {
    if (!live[r] || conns[r] == nullptr || conns[r]->failed()) continue;
    seqs[r] = conns[r]->NextSeq();
    conns[r]->Expect(seqs[r], /*qid=*/0);
    if (conns[r]->Send(type, seqs[r], /*qid=*/0, w.buf.data(),
                       w.buf.size())) {
      pending[r] = 1;
    } else {
      conns[r]->Cancel(seqs[r]);
      MarkDeadGlobal(owner, r);
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    if (!pending[r]) continue;
    Frame f;
    const RecvStatus st = conns[r]->Wait(seqs[r], options_.op_timeout_ms, &f);
    if (st == RecvStatus::kOk && f.type == kReplyType) {
      reply[r] = std::move(f.payload);
      good[r] = 1;
    } else if (st == RecvStatus::kTimeout) {
      conns[r]->Cancel(seqs[r]);
      if (ControlSendRecv(owner, r, type, w.buf, &reply[r])) {
        good[r] = 1;
      }
    } else {
      MarkDeadGlobal(owner, r);
    }
  }
  std::size_t driver = R;
  if (good[primary]) {
    driver = primary;
  } else {
    for (std::size_t r = 0; r < R; ++r) {
      if (good[r]) {
        driver = r;
        break;
      }
    }
  }
  if (driver == R) return;  // journal replay repairs at respawn
  if (driver != primary) {
    std::lock_guard<std::mutex> lock(g.mu);
    if (g.members[driver].alive) g.primary = driver;
  }
  for (std::size_t r = 0; r < R; ++r) {
    if (r == driver || !good[r]) continue;
    if (reply[r] != reply[driver]) MarkDeadGlobal(owner, r);
  }
}

bool ServeRouter::ReplayMutations(std::size_t s, std::size_t r) {
  for (const MutationOp& op : shard_ops_[s]) {
    PayloadWriter w;
    w.U64(op.id);
    if (op.insert) w.Str(op.s);
    std::vector<char> reply;
    if (!ControlSendRecv(s, r,
                         op.insert ? FrameType::kInsert : FrameType::kRemove,
                         w.buf, &reply)) {
      return false;  // ControlSendRecv already marked the replica dead
    }
  }
  return true;
}

}  // namespace cned
