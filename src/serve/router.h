#ifndef CNED_SERVE_ROUTER_H_
#define CNED_SERVE_ROUTER_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "distances/distance.h"
#include "search/nn_searcher.h"
#include "serve/reactor.h"
#include "serve/replica.h"

namespace cned {

/// Tuning and robustness knobs of the scatter/gather router. Validated at
/// router construction: an out-of-range field throws std::invalid_argument
/// naming the offending field.
struct ServeOptions {
  /// Distance registry name (distances/registry.h). Required; must match
  /// the distance the snapshot was built with.
  std::string distance;

  /// Replica-group size: every shard is served by `replicas` worker
  /// processes over the same snapshot files. Mutations are broadcast to
  /// every live member; reads go to the primary, fail over to a standby,
  /// and are hedged and sampled-audited against one (see ServeRouter).
  /// 1 = the unreplicated tier; must be >= 1.
  int replicas = 2;

  /// Per-request reply timeout. A member that misses it is retried (every
  /// request is idempotent) up to `op_retries` times, then marked dead and
  /// the request fails over to the next live member. The *shard* degrades
  /// only when its whole replica group is lost.
  int op_timeout_ms = 2000;
  /// Whole-query deadline. When it expires, every shard that has not
  /// answered is listed as missing and the query returns the pivot
  /// incumbents plus the answers it has, flagged partial.
  int query_deadline_ms = 10000;
  /// Extra attempts (beyond the first) per member for a request that timed
  /// out.
  int op_retries = 2;
  /// Exponential backoff between retries: `backoff_base_ms << attempt`,
  /// with each sleep capped at the time remaining until the query
  /// deadline so retries can never sleep a query past its budget.
  int backoff_base_ms = 5;
  /// Hedging floor for shard queries: when the primary has not replied
  /// after max(this, twice the router's retransmit-style estimate — the
  /// smoothed primary reply time plus four mean deviations, learnt as TCP
  /// learns its retransmit timeout) and a live standby exists, the router
  /// races the whole request to the standby and takes whichever reply
  /// lands first. Either answer is exact, so this only cuts the
  /// slow-shard tail; the learnt term keeps a healthy loaded tier from
  /// hedging its ordinary queueing. Negative disables hedging.
  int hedge_delay_ms = 25;
  /// Respawn dead workers (kill, waitpid, fork, re-Map, ping) before each
  /// query, so one crash degrades one query, not the rest of the session.
  /// A replica respawned while other queries are in flight never serves
  /// them — each query pinned its participants (and their connections)
  /// when it started.
  bool auto_respawn = true;
  /// > 0 runs a background health loop at this period: ping-based failure
  /// detection plus respawn/re-map of dead replicas. The loop is
  /// drift-free (each tick is scheduled from the previous deadline, not
  /// from when the work finished) and runs *concurrently* with queries —
  /// pings multiplex over the shared connections, and a replica it
  /// revives only serves queries that start afterwards. 0 disables the
  /// thread — the synchronous `auto_respawn` path alone keeps groups at
  /// full strength.
  int health_interval_ms = 0;
  /// Caps how many dead replicas one health tick will respawn, bounding
  /// the fork/re-map/replay work a tick can inject into a loaded server;
  /// the remainder waits for the next tick (or for a query-path respawn,
  /// which is never capped — a caller already paying for a query wants
  /// full strength). 0 = uncapped.
  int max_respawns_per_tick = 4;

  /// CNED_FAULT-grammar fault schedule for the initial workers
  /// (serve/fault.h); empty = fault-free.
  std::string fault_spec;
  /// Fault schedule handed to *respawned* workers. Kept separate (and
  /// default clean) so an nth-based crash directive does not re-fire on
  /// every respawn.
  std::string respawn_fault_spec;
  /// Path to the `cned_shard_worker` binary. Empty (the default) forks
  /// workers in-process — no exec, the test/bench path; non-empty
  /// fork+execs the binary per shard replica.
  std::string worker_binary;
};

/// One query's answer plus its degradation and failover record.
struct ServeResult {
  std::vector<NeighborResult> neighbors;
  /// `num_pivots()` row evaluations plus the sum of the answering shards'
  /// evaluations and abandons (see ServeRouter: not the global sweep's
  /// count).
  QueryStats stats;
  /// True when any shard's candidates were not considered — the
  /// neighbours are then exact over the pivots and the answering shards
  /// only. A shard whose primary failed but whose standby answered is NOT
  /// partial.
  bool partial = false;
  /// True when the admission front end (serve/engine.h) refused the query
  /// under overload instead of running it; neighbors/stats are empty. The
  /// router itself never sheds — only the engine sets this.
  bool shed = false;
  /// The shards this query is missing, ascending: the whole replica group
  /// was lost, or the shard had not answered by the query deadline.
  std::vector<std::size_t> missing_shards;
  /// Failovers performed during this query: a shard request resent to (or
  /// answered by) a standby after its primary died. The result stays exact
  /// and unflagged.
  std::size_t failovers = 0;
  /// Shard requests raced to a standby after the hedge trigger (the field
  /// keeps its name from the per-candidate protocol it used to count).
  std::size_t hedged_evals = 0;
  /// Standby replicas evicted because their audited reply disagreed
  /// byte-for-byte with the primary's (corrupt state; the primary's reply
  /// was merged) or did not arrive within the op timeout (hung).
  std::size_t replicas_evicted = 0;
};

/// Fault-tolerant scatter/gather serving tier over a per-shard snapshot
/// directory (serve/shard_snapshot.h).
///
/// Topology: this router process + a replica group of R worker processes
/// per shard (ServeOptions::replicas), each connected by a socketpair
/// speaking the checksummed framing of serve/frame.h. All members of a
/// group map the *same* shard snapshot files; the router loads only the
/// manifest (shard shapes + pivot ids + pivot strings), so no process
/// ever materialises the whole index.
///
/// A read is shard-local exact search, one idempotent request per shard:
///   1. the router holds the query's global pivot row (it computes it from
///      the manifest's pivot strings, or the caller supplies it) and
///      seeds the incumbents with the live pivots' distances;
///   2. it sends every shard {query, k, row, cap = the k-th pivot
///      incumbent} (FrameType::kBeginRow);
///   3. each worker runs the ordinary masked row sweep over its own slice,
///      then its live delta, every evaluation capped by min(cap, its local
///      k-th), and answers its local top-k plus its evaluation counts
///      (ShardReplica::Query);
///   4. the router merges pivots and shard hits into the top k
///      (MergeTopK: (distance, id) order, each id once).
/// Contract: distances are bit-exact (the merge holds the true top-k
/// distance profile); every id carries its true distance and appears
/// once; `stats` = num_pivots() row evaluations + the shards' evaluations
/// and abandons — which is what a reference built from `ShardReplica`
/// objects over the same snapshot reports, not what the in-process global
/// sweep reports; among equal-distance neighbours at the k-th boundary,
/// which one wins is unspecified.
///
/// Concurrency: N caller threads query at once over the shared worker
/// connections. Each query carries a router-assigned nonzero id, each
/// connection is a reactor (serve/reactor.h) matching replies to callers
/// by sequence number and coalescing concurrent sends, and each query
/// pins the (connection, alive) participants it may talk to when it
/// starts — a replica respawned mid-flight never serves it.
/// Lock hierarchy (outer to inner): `world_mu_` (shared for reads,
/// exclusive for mutations — a read never sees half a mutation, which
/// keeps the per-shard journal order), then `respawn_mu_`
/// (spawn/reap/replay; the health loop takes only this), then each
/// group's `mu` (membership snapshots, short).
///
/// Replication:
///   * mutations are journaled per owner shard and broadcast to every live
///     member (replies byte-checked; a disagreeing member is dead), and a
///     respawned member replays the journal before it serves;
///   * a read goes to the primary only; a member that crashes, returns a
///     malformed frame or exhausts its retries is marked dead and the same
///     request fails over to the next live member — exact and unflagged,
///     counted in `failovers`;
///   * a primary slow past the hedge trigger is raced by the whole request
///     on a standby (`hedged_evals`);
///   * one query in kAuditPeriod (chosen by query id, so fault schedules
///     stay reproducible) is also sent to a second live member and the two
///     replies byte-compared; the standby is evicted on disagreement, or
///     when it misses the op timeout (`replicas_evicted`). A standby sees only audited, hedged or
///     failed-over requests, and every audited reply is compared, so a
///     `mangle` fault on a standby is caught;
///   * past `query_deadline_ms`, shards that have not answered go to
///     `missing_shards` and the answer is flagged `partial` (a reply that
///     already arrived is still merged, even when an earlier shard spent
///     the deadline);
///   * dead replicas are respawned (fresh fork + checksum-verified
///     re-map + journal replay) — synchronously before a query when
///     `auto_respawn` is set, and/or from the background health loop;
///   * `stats.shards_degraded` counts the missing shards (0 when healthy).
class ServeRouter {
 public:
  /// Loads the manifest and spawns `options.replicas` workers per shard.
  /// Throws std::invalid_argument on out-of-range options,
  /// std::runtime_error on a malformed manifest or if *every* worker
  /// fails to come up; individual dead workers only degrade queries.
  ServeRouter(const std::string& snapshot_dir, const ServeOptions& options);
  ~ServeRouter();
  ServeRouter(const ServeRouter&) = delete;
  ServeRouter& operator=(const ServeRouter&) = delete;

  std::size_t size() const { return n_; }
  std::size_t shard_count() const { return shard_sizes_.size(); }
  std::size_t replica_count() const { return replicas_per_shard_; }
  /// One read in this many (those whose query id it divides) is audited
  /// against a second live replica (class comment).
  static constexpr std::uint32_t kAuditPeriod = 8;
  std::size_t num_pivots() const { return pivots_.size(); }
  const std::vector<std::size_t>& pivots() const { return pivots_; }
  /// The manifest's pivot strings (immutable), in pivot-ordinal order —
  /// what the admission front end needs to run the pivot stage itself.
  const std::vector<std::string>& pivot_strings() const {
    return pivot_strings_;
  }
  /// The router's distance (immutable after construction).
  const StringDistance& metric() const { return *distance_; }

  /// The k nearest live prototypes of `query`: the router evaluates the
  /// pivot row itself, then runs the shard-local read (class comment).
  /// Thread-safe: concurrent calls share the worker connections.
  ServeResult Nearest(std::string_view query);
  ServeResult KNearest(std::string_view query, std::size_t k);

  /// --- Live mutability (the distributed mutable tier). -------------------
  ///
  /// The router is the source of truth: every op is journaled per owner
  /// shard before it is broadcast to all live members of that shard's
  /// group, and a respawned replica is replayed from the journal before it
  /// serves — so a crash never loses a mutation the router acknowledged.
  /// Ops are idempotent worker-side (dedup by stable id) with dedup-stable
  /// replies, which keeps both the retry path and the group byte-agreement
  /// check sound. Mutations take the world lock exclusively: they are
  /// globally serialized in journal order and never interleave with a
  /// read.

  /// Appends one prototype; returns its stable global id (ids start at
  /// size() and are never reused). The owner shard is id-round-robin.
  std::uint64_t Insert(std::string_view s);

  /// Tombstones a stable id (base or delta). Returns false when the id is
  /// unknown or already removed. A removed prototype is masked inside the
  /// workers' seed compactions — it can never surface as a neighbour.
  bool Remove(std::uint64_t id);

  /// Live prototypes: base + inserts - removals. (size() stays the frozen
  /// base count, mirroring the snapshot.)
  std::size_t live_size() const;
  /// The id the next Insert will assign.
  std::uint64_t next_insert_id() const;

  /// KNearest over each query in turn (respawning between queries, so one
  /// lost group costs one partial answer).
  std::vector<ServeResult> KNearestBatch(
      const std::vector<std::string>& queries, std::size_t k);

  /// One read whose pivot row the caller already computed (`row[p]` =
  /// d(query, pivot p), all pivots) — the seam the admission front end
  /// (serve/engine.h) drives after its blocked query x pivot pass. Stats
  /// still count the `num_pivots()` row evaluations, so the result equals
  /// KNearest's for the same query. Throws std::invalid_argument when
  /// `row.size() != num_pivots()`.
  ServeResult KNearestWithRow(std::string_view query, std::size_t k,
                              const std::vector<double>& row);

  /// Heartbeat: pings every replica (retrying per options), marking the
  /// ones that miss as dead. Returns true when all replicas are healthy.
  bool PingAll();

  /// Kills (SIGKILL + waitpid) and respawns every dead replica, re-mapping
  /// its shard. Returns the number of processes brought back to healthy.
  std::size_t RespawnDead();

  /// Group inspection hooks for tests and monitoring. `worker_pid` /
  /// `worker_alive` keep their PR-6 per-shard meaning: the pid of the
  /// current *primary*, and whether *any* member of the group is alive.
  pid_t worker_pid(std::size_t s) const;
  bool worker_alive(std::size_t s) const;
  std::size_t primary_of(std::size_t s) const;
  pid_t replica_pid(std::size_t s, std::size_t r) const;
  bool replica_alive(std::size_t s, std::size_t r) const;

 private:
  struct Replica {
    pid_t pid = -1;
    std::shared_ptr<Conn> conn;
    bool alive = false;
  };

  /// One shard's replica group. `primary` indexes `members`; promotion
  /// just moves it. Membership is fixed at construction — respawn revives
  /// dead members in place (with a *fresh* connection, so queries that
  /// pinned the old one keep failing cleanly instead of talking to the
  /// new process). `mu` guards members and primary; it is the innermost
  /// lock and is never held across an exchange.
  struct Group {
    mutable std::mutex mu;
    std::vector<Replica> members;
    std::size_t primary = 0;
  };

  /// One group member as pinned by a query when it starts: the connection
  /// this query (and only this query's failover/hedging) may use, plus the
  /// query-local alive flag.
  struct Participant {
    std::shared_ptr<Conn> conn;
    bool alive = false;
  };
  struct GroupCtx {
    std::vector<Participant> members;
    std::size_t primary = 0;

    /// The `turn`-th (mod the count) live member other than `skip`, or
    /// members.size() when there is none.
    std::size_t Standby(std::size_t skip, std::size_t turn) const;
  };
  /// A query's pinned world: its id and its participant snapshot.
  struct QueryCtx {
    std::uint32_t qid = 0;
    std::vector<GroupCtx> groups;
  };

  /// One in-flight shard request: the pinned member it went to and the
  /// sequence number its reply will carry.
  struct Leg {
    std::size_t r = 0;
    std::uint32_t seq = 0;
    bool pending = false;
  };
  /// One shard's part of a read: the request on its current primary
  /// (`lead`) and, for an audited query, the same request on a standby
  /// (`side`, sent at scatter) — or, once the hedge trigger passes, the
  /// hedge.
  struct ShardCall {
    Leg lead;
    Leg side;
    bool audit = false;
    std::int64_t attempt_start = 0;
  };
  enum class LegState { kAnswered, kPending, kFailed };

  /// Spawn/reap run under `respawn_mu_`.
  void SpawnReplica(std::size_t s, std::size_t r,
                    const std::string& fault_spec);
  void ReapReplica(std::size_t s, std::size_t r);

  /// Global death: fails the member's connection (waking every query
  /// waiting on it) and clears the alive flag.
  void MarkDeadGlobal(std::size_t s, std::size_t r);
  /// Query-context death: fails the pinned connection and clears the ctx
  /// flag; propagates to the global member only if it still holds the
  /// *same* connection (a respawn may already have replaced it — the
  /// fresh process must not be condemned for its predecessor's death).
  void MarkDead(QueryCtx& ctx, std::size_t s, std::size_t r);

  /// New query id (nonzero) + participant snapshot under each group's mu.
  void SnapshotCtx(QueryCtx* ctx) const;

  /// If the ctx group's primary is dead, promote the first live ctx
  /// member (in member order — deterministic), mirroring to the global
  /// group when its connection is unchanged. Returns true when a live
  /// primary exists afterwards; counts the promotion in `res` when one
  /// happened.
  bool EnsurePrimary(QueryCtx& ctx, std::size_t s, ServeResult* res);
  /// Promote ctx member `r` to ctx primary and, identity permitting, to
  /// global primary.
  void Promote(QueryCtx& ctx, std::size_t s, std::size_t r);

  /// The control-plane (query id 0) exchange against the *current* global
  /// member — ping, respawn replay, mutation replication — retried like a
  /// read. Caller holds `respawn_mu_`, so membership is stable across the
  /// exchange.
  bool ControlSendRecv(std::size_t s, std::size_t r, FrameType type,
                       const std::vector<char>& payload,
                       std::vector<char>* reply);

  /// Sends the shard request to pinned member `r` of shard `s` as `leg`.
  /// False (member marked dead) when the send fails.
  bool SendLeg(QueryCtx& ctx, std::size_t s, std::size_t r,
               const std::vector<char>& payload, Leg* leg);
  /// Waits up to `wait_ms` for `leg`'s reply. kAnswered hands back the
  /// reply payload in `bytes`; kFailed means the member crashed, answered
  /// kError or broke the stream, and is marked dead.
  LegState WaitLeg(QueryCtx& ctx, std::size_t s, Leg* leg, int wait_ms,
                   std::vector<char>* bytes);
  void CancelLeg(QueryCtx& ctx, std::size_t s, Leg* leg);
  /// Decodes member `r`'s reply bytes into shard `s`'s answer, checking
  /// that every hit is an id the shard owns; marks the member dead and
  /// returns false otherwise.
  bool Accept(QueryCtx& ctx, std::size_t s, std::size_t r,
              const std::vector<char>& bytes, std::size_t k,
              ShardAnswer* out);
  /// Starts shard `s`'s part of a read: the request to its primary (failing
  /// over while sends fail) and, when `audit` and a live standby exists,
  /// to that standby. False when the group has no live member.
  bool ScatterShard(QueryCtx& ctx, std::size_t s,
                    const std::vector<char>& payload, bool audit,
                    ShardCall* call, ServeResult* res);
  /// Gathers shard `s`'s answer: retries, failover, hedging and the audit
  /// comparison, all bounded by `deadline_ms`. False when the shard is
  /// missing (group lost or deadline passed).
  bool GatherShard(QueryCtx& ctx, std::size_t s,
                   const std::vector<char>& payload, std::size_t k,
                   std::int64_t deadline_ms, ShardCall* call,
                   ShardAnswer* out, ServeResult* res);
  /// The hedge trigger: max(hedge_delay_ms, 2 x (smoothed lead reply time
  /// + four mean deviations)), and the update feeding it.
  int HedgeTriggerMs() const;
  void RecordLeadReply(std::int64_t ms);

  /// The one read path. Caller holds `world_mu_` shared; `row` has
  /// num_pivots() entries.
  ServeResult Read(std::string_view query, std::size_t k, const double* row);

  /// One journaled mutation, replicated to every live member of the owner
  /// shard's group.
  struct MutationOp {
    bool insert = false;
    std::uint64_t id = 0;
    std::string s;
  };
  void ReplicateMutation(std::size_t owner, const MutationOp& op);
  /// Replays the owner shard's journal to a freshly respawned member —
  /// delta and tombstone state is process-local, so the journal is what
  /// brings the new process to the group's current state. Returns false
  /// (replica already marked dead) when any op fails to apply.
  bool ReplayMutations(std::size_t s, std::size_t r);

  std::size_t ShardOf(std::size_t global) const;
  int RemainingMs(std::int64_t deadline_ms) const;

  /// Cheap any-dead scan; only when one exists does the query path take
  /// `respawn_mu_` and run a full (uncapped) respawn.
  void MaybeRespawn();
  bool AnyDead() const;

  bool PingAllLocked();
  /// Respawns up to `limit` dead replicas (0 = all), then re-aims every
  /// group's primary at a live member. Caller holds `respawn_mu_`.
  std::size_t RespawnDeadLocked(std::size_t limit);
  void HealthLoop();

  // Manifest state (immutable after construction — read lock-free).
  std::size_t n_ = 0;
  std::vector<std::size_t> shard_sizes_;
  std::vector<std::size_t> bases_;        // size S+1
  std::vector<std::size_t> pivots_;       // global pivot ids
  std::vector<std::int32_t> pivot_rank_;  // global id -> ordinal or -1
  std::vector<std::string> pivot_strings_;
  StringDistancePtr distance_;

  std::string dir_;
  ServeOptions options_;
  std::size_t replicas_per_shard_ = 1;
  /// unique_ptr: Group owns a mutex and must not move when the vector is
  /// sized. The vector itself is construction-immutable.
  std::vector<std::unique_ptr<Group>> groups_;

  /// Router-wide query-id source; 0 is reserved for the control plane.
  mutable std::atomic<std::uint32_t> qid_counter_{0};

  // Mutable-tier bookkeeping (the router-side mirror of the workers'
  // delta/tombstone state; drives the k clamp, pivot seeding, and respawn
  // replay). Guarded by `world_mu_`.
  std::uint64_t next_insert_id_ = 0;       // initialised to n_
  std::vector<std::uint64_t> base_tombs_;  // bitmap over base ids; lazy
  std::vector<std::size_t> shard_dead_;    // base tombstones per shard
  std::size_t base_dead_total_ = 0;
  std::vector<std::size_t> delta_live_;        // live delta per shard
  std::vector<std::uint64_t> dead_delta_ids_;  // sorted, Remove dedup
  std::vector<std::vector<MutationOp>> shard_ops_;  // per-shard journal

  /// Reads hold this shared (N in flight at once); mutations hold it
  /// exclusive — a mutation never interleaves with a read, which keeps
  /// the per-shard journal/writer order.
  mutable std::shared_mutex world_mu_;
  /// Serializes spawn/reap/replay (and the fork itself). Journal appends
  /// hold world-exclusive AND this, so holding either is enough to read
  /// the journal. The health loop takes only this — never the world lock.
  mutable std::mutex respawn_mu_;

  /// Reply-time estimate behind the hedge trigger (RecordLeadReply).
  mutable std::mutex clock_mu_;
  bool clock_primed_ = false;
  double srtt_ms_ = 0.0;
  double rttvar_ms_ = 0.0;

  std::mutex health_mu_;  // stop flag + cv only
  std::condition_variable health_cv_;
  bool stop_health_ = false;
  std::thread health_thread_;
};

}  // namespace cned

#endif  // CNED_SERVE_ROUTER_H_
