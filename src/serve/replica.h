#ifndef CNED_SERVE_REPLICA_H_
#define CNED_SERVE_REPLICA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mapped_file.h"
#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"

namespace cned {

/// One shard's answer to a shard query (`ShardReplica::Query`): its local
/// top-k below the cap, closest first, under global ids, plus what it
/// cost.
struct ShardAnswer {
  std::vector<NeighborResult> hits;
  std::uint64_t computations = 0;
  std::uint64_t abandons = 0;
};

/// The router's merge of a served query (serve/router.h), also the merge a
/// reference built from `ShardReplica` objects uses: every candidate (the
/// live pivot incumbents plus each answered shard's hits) in
/// (distance, id) order, each id once, truncated to k.
std::vector<NeighborResult> MergeTopK(std::vector<NeighborResult> candidates,
                                      std::size_t k);

/// The cap a shard query carries: the k-th smallest of the live pivot
/// incumbents' distances (+inf with fewer than k). No shard hit at or
/// above it could displace a pivot.
double SeedCap(const std::vector<NeighborResult>& pivot_incumbents,
               std::size_t k);

/// The worker-process half of served search: one shard's prototypes, its
/// slice of the global pivot table, and its live delta.
///
/// A shard query is one stateless, idempotent call: given the query, its
/// global pivot row and the router's cap, the replica runs the ordinary
/// masked row sweep over its own slice (length bounds, every pivot row
/// applied dense, tombstones masked, then the adaptive phase of
/// search/laesa.h's `RowSweepAdaptive`) followed by a bounded scan of its
/// live delta, every evaluation capped by min(cap, local k-th). The answer
/// is a pure function of (replica state, request), so the router may
/// resend it to any group member, race it, or byte-compare two members'
/// replies. The sweep slabs are thread-local; no per-query state outlives
/// the call.
///
/// Construction verifies both snapshot files' CRC footers with a full
/// `VerifySnapshotChecksum` pass before mapping them: a worker serving a
/// silently corrupted shard would poison every merged result, so the
/// serving tier pays the one sequential read up front.
class ShardReplica {
 public:
  /// Maps shard files written by `SaveServingSnapshot`. Throws
  /// std::runtime_error on checksum or validation failure, or when the two
  /// files disagree about the deployment shape.
  ShardReplica(const std::string& store_path, const std::string& index_path,
               const std::string& distance_name);

  std::size_t shard_id() const { return shard_id_; }
  std::size_t base() const { return base_; }
  std::size_t size() const { return store_.size(); }
  std::size_t total_size() const { return n_total_; }
  std::size_t num_pivots() const { return pivots_.size(); }

  /// Storage precision of the mapped table slice (shard_snapshot.h v2
  /// carries quantized tables; v1 is always f64).
  TablePrecision table_precision() const { return precision_; }

  /// The shard query: this shard's k nearest non-pivot live prototypes
  /// (base slice, then delta) strictly below `cap`, bounded as the class
  /// comment describes. `row` holds num_pivots() entries, d(query, pivot
  /// p) in manifest order.
  ShardAnswer Query(std::string_view query, std::size_t k, const double* row,
                    double cap) const;

  /// --- Live mutability (mutable tier ops, replicated by the router). ----

  /// Appends one prototype to this shard's delta under its router-assigned
  /// global id. Idempotent: per-shard ids arrive ascending, so a re-sent id
  /// is recognised and ignored. Returns true when newly applied.
  bool Insert(std::uint64_t id, std::string_view s);

  /// Tombstones a global id in this shard's base segment or delta.
  /// Idempotent; returns true when newly applied, false for unknown or
  /// already-dead ids.
  bool Remove(std::uint64_t id);

  std::size_t base_dead() const { return base_dead_; }
  std::size_t delta_count() const { return delta_store_.size(); }
  std::size_t delta_dead() const { return delta_dead_; }
  std::size_t total_dead() const { return base_dead_ + delta_dead_; }

 private:
  std::size_t shard_id_ = 0;
  std::size_t base_ = 0;
  std::size_t n_total_ = 0;
  std::size_t shard_count_ = 0;

  /// The any-precision view of the mapped table slice (table_quant.h). The
  /// row meta is the GLOBAL per-row meta the build computed, so a worker's
  /// bounds match the in-process sharded index bit for bit.
  QuantTableView table_view() const {
    QuantTableView view;
    view.precision = precision_;
    if (precision_ == TablePrecision::kF64) {
      view.f64 = table_;
    } else {
      view.q = qtable_;
      view.rows = row_meta_;
    }
    return view;
  }

  PrototypeStore store_;  // mapped shard store
  StringDistancePtr distance_;
  std::vector<std::size_t> pivots_;       // global pivot ids
  std::vector<std::int32_t> pivot_rank_;  // global id -> ordinal or -1
  TablePrecision precision_ = TablePrecision::kF64;
  const double* table_ = nullptr;         // row-major np x n_s, mapped (f64)
  const void* qtable_ = nullptr;          // quantized codes, mapped (v2)
  const QuantRowMeta* row_meta_ = nullptr;  // global per-row meta, mapped
  std::shared_ptr<MappedFile> index_mapping_;

  // Mutable-tier state, process-local (rebuilt by the router's op-journal
  // replay when a replica respawns). Tombstone bitmaps are allocated on
  // first use; empty means no deletes.
  std::vector<std::uint64_t> tombs_;  // over base slots
  std::size_t base_dead_ = 0;
  PrototypeStore delta_store_;               // owned, appendable
  std::vector<std::uint64_t> delta_ids_;     // global id per delta slot
  std::vector<std::uint64_t> delta_tombs_;   // over delta slots
  std::size_t delta_dead_ = 0;
};

class ShardedLaesa;

/// The served read computed in one process: one ShardReplica per shard of
/// a serving snapshot, queried under the seed cap of the live pivot
/// incumbents and merged by MergeTopK — what a healthy ServeRouter
/// answers, neighbours and QueryStats included. The reference the serving
/// tests and benches compare against. Mutations follow the router's
/// ownership rule (inserted id i lands on shard (i - size) mod shards).
class ShardLocalReference {
 public:
  /// `index` is the in-process index the snapshot in `dir` was saved from
  /// (SaveServingSnapshot); it supplies the pivots and the distance and
  /// must outlive the reference.
  ShardLocalReference(const std::string& dir, const ShardedLaesa& index,
                      const std::string& distance_name);

  void Insert(std::uint64_t id, std::string_view s);
  void Remove(std::uint64_t id);

  std::vector<NeighborResult> KNearest(std::string_view query, std::size_t k,
                                       QueryStats* stats = nullptr) const;

 private:
  const ShardedLaesa& index_;
  std::size_t live_;
  std::vector<std::unique_ptr<ShardReplica>> shards_;
  std::vector<std::size_t> removed_pivots_;
};

}  // namespace cned

#endif  // CNED_SERVE_REPLICA_H_
