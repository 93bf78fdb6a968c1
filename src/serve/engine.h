#ifndef CNED_SERVE_ENGINE_H_
#define CNED_SERVE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/router.h"

namespace cned {

/// Admission front-end knobs. Validated at construction: an out-of-range
/// field throws std::invalid_argument naming it.
struct ServeEngineOptions {
  /// Queries claimed per admission pass. The driver pulls up to this many
  /// queued queries at once and computes all their pivot rows in one
  /// blocked, deduplicated pass before their reads start. Must be >= 1.
  std::size_t max_batch = 8;
  /// Claimed queries not yet answered: the admission thread claims from
  /// the queue only while fewer than this many are in flight, bounding the
  /// load the engine puts on the workers. Must be >= 1.
  std::size_t max_inflight = 16;
  /// Admission-queue capacity. A query arriving when this many are
  /// already queued is shed immediately — the overload answer is a fast
  /// refusal, not an unbounded queue. Must be >= 1.
  std::size_t max_queue = 256;
  /// Per-query admission deadline: the longest a query may wait *to be
  /// claimed by the admission thread*. Once claimed it always completes —
  /// the read
  /// itself is bounded by the router's own query deadline, not this one.
  /// Must be >= 1. (A healthy engine never comes near it.)
  int admission_timeout_ms = 1000;
};

/// The admission front end of the concurrent serving tier: a thread-safe
/// facade over `ServeRouter` that batches concurrent callers' pivot stages
/// through one admission thread and sheds load under overload instead of
/// collapsing.
///
/// Mechanism:
///   1. every caller enqueues its query and parks;
///   2. the admission thread claims up to `max_batch` queued entries (while
///      fewer than `max_inflight` claimed queries are unanswered) and runs
///      one blocked query x pivot pass for all of them — pivots iterate in
///      the outer loop so each pivot string streams once per claim while
///      hot in cache, and duplicate query strings are computed once;
///   3. each caller wakes once its row is ready and runs
///      `ServeRouter::KNearestWithRow` on its own thread — the router's
///      one read path, with its retries, failover, hedging and partial
///      flagging.
///
/// Exactness: row entries are independent per (query, pivot) pair and the
/// router charges them to each query's stats, so every non-shed result
/// equals `ServeRouter::KNearest` of the same query, regardless of how
/// claims formed or rows were deduplicated.
///
/// Overload: a query is shed — returned immediately with
/// `ServeResult::shed` set and nothing else — when the admission queue is
/// full on arrival, or when its `admission_timeout_ms` deadline expires
/// before the driver claims it. Shedding is the *front end's* contract
/// only; the router beneath never sheds.
class ServeEngine {
 public:
  /// Borrows `router` (caller keeps it alive and outliving the engine)
  /// and starts the driver thread. Throws std::invalid_argument on
  /// out-of-range options.
  ServeEngine(ServeRouter& router, const ServeEngineOptions& options);
  /// Stops and joins the driver. No KNearest call may be outstanding.
  ~ServeEngine();
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// k nearest neighbours of `query`, closest first — or a shed refusal.
  /// Thread-safe; this is the serving entry point.
  ServeResult KNearest(std::string_view query, std::size_t k);
  ServeResult Nearest(std::string_view query) { return KNearest(query, 1); }

  /// Monitoring counters (cumulative since construction).
  /// Admission claims the driver made (each claims >= 1 queries).
  std::uint64_t batches() const { return batches_.load(); }
  /// Queries claimed by the driver (every non-shed query counts once;
  /// batches_ <= batched_queries_).
  std::uint64_t batched_queries() const { return batched_queries_.load(); }
  /// Row computations saved by duplicate-query dedup within claims.
  std::uint64_t deduped_rows() const { return deduped_rows_.load(); }
  /// Queries refused under overload (queue full or admission deadline).
  std::uint64_t shed_queries() const { return shed_queries_.load(); }

 private:
  /// One queued query: its string, its k, and its pivot row once the
  /// admission thread computed it. Lives on the caller's stack — the queue holds
  /// pointers, and an entry leaves the queue either by being claimed by
  /// the driver (`claimed`) or by its caller shedding it on deadline,
  /// never both.
  struct Pending {
    std::string query;
    std::size_t k = 0;
    std::vector<double> row;
    bool claimed = false;  // claimed: the caller must wait for its row
    bool ready = false;    // row computed; the caller runs its read
    /// Precise wakeup: exactly the caller whose row landed is notified,
    /// not every parked caller.
    std::condition_variable cv;
  };

  /// Body of the admission thread: claims and computes rows until stop_.
  void DriverMain();

  /// Runs one blocked, deduplicated pivot pass over `batch` (entries are
  /// claimed, so only the admission thread touches them).
  void ComputeRows(const std::vector<Pending*>& batch);

  ServeRouter& router_;
  const ServeEngineOptions options_;

  std::mutex mu_;  // queue_, inflight_, stop_, every Pending's flags
  std::condition_variable claim_cv_;
  std::deque<Pending*> queue_;
  std::size_t inflight_ = 0;  // claimed and not yet answered
  bool stop_ = false;

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_queries_{0};
  std::atomic<std::uint64_t> deduped_rows_{0};
  std::atomic<std::uint64_t> shed_queries_{0};

  std::thread driver_;  // last member: joins before the rest tears down
};

}  // namespace cned

#endif  // CNED_SERVE_ENGINE_H_
