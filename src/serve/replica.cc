#include "serve/replica.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/binary_io.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "search/sharded_laesa.h"
#include "serve/shard_snapshot.h"

namespace cned {

std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.bin";
}

std::string ShardStorePath(const std::string& dir, std::size_t shard) {
  return dir + "/shard" + std::to_string(shard) + ".store.bin";
}

std::string ShardIndexPath(const std::string& dir, std::size_t shard) {
  return dir + "/shard" + std::to_string(shard) + ".index.bin";
}

void SaveServingSnapshot(const ShardedLaesa& index, const std::string& dir) {
  index.SaveRouterManifest(ManifestPath(dir));
  for (std::size_t s = 0; s < index.shard_count(); ++s) {
    index.store().shard(s).SaveBinary(ShardStorePath(dir, s));
    index.SaveShard(s, ShardIndexPath(dir, s));
  }
}

ShardReplica::ShardReplica(const std::string& store_path,
                           const std::string& index_path,
                           const std::string& distance_name)
    : distance_(MakeDistance(distance_name)) {
  // Full checksum pass over both files before any section is interpreted:
  // the worker is the tier's integrity gate (the mapped loaders below
  // validate structure, not payload bytes).
  VerifySnapshotChecksum(store_path);
  VerifySnapshotChecksum(index_path);
  store_ = PrototypeStore::Map(store_path);

  MappedReader reader(MappedFile::Open(index_path));
  std::uint32_t version = 0;
  const auto counts = reader.Header(kShardSliceMagic, kShardSliceVersion,
                                    kShardSliceVersionQuant, &version);
  n_total_ = counts[0];
  shard_count_ = counts[1];
  const std::uint64_t np = counts[2];
  shard_id_ = counts[3];
  const std::uint64_t n_s = counts[4];
  base_ = counts[5];
  if (shard_id_ >= shard_count_ || base_ > n_total_ ||
      n_s > n_total_ - base_) {
    throw std::runtime_error("ShardReplica: inconsistent shard header (" +
                             index_path + ")");
  }
  if (n_s != store_.size()) {
    throw std::runtime_error(
        "ShardReplica: index slice and store disagree on shard size (" +
        index_path + ")");
  }
  if (np == 0 || np > n_total_) {
    throw std::runtime_error("ShardReplica: bad pivot count (" + index_path +
                             ")");
  }
  if (version == kShardSliceVersionQuant) {
    // v2 leads with the {precision, reserved} section (shard_snapshot.h).
    const std::uint64_t* prec = reader.Array<std::uint64_t>(2);
    if (prec[0] < 1 || prec[0] > 3) {
      throw std::runtime_error("ShardReplica: bad table precision (" +
                               index_path + ")");
    }
    precision_ =
        static_cast<TablePrecision>(static_cast<std::uint32_t>(prec[0]));
  }
  const std::uint64_t* pivots = reader.Array<std::uint64_t>(np);
  pivots_.assign(pivots, pivots + np);
  // Full-length rank array, exactly as the in-process index keeps it: the
  // flagged kernel gathers rank[global id] for ids in this segment, and the
  // seed kernel reads the slice at base_ — both stay in bounds.
  pivot_rank_.assign(n_total_, -1);
  for (std::size_t p = 0; p < np; ++p) {
    if (pivots_[p] >= n_total_ || pivot_rank_[pivots_[p]] >= 0) {
      throw std::runtime_error("ShardReplica: bad pivot ids (" + index_path +
                               ")");
    }
    pivot_rank_[pivots_[p]] = static_cast<std::int32_t>(p);
  }
  if (version == kShardSliceVersion) {
    table_ = reader.Array<double>(np * n_s);
  } else {
    row_meta_ = reader.Array<QuantRowMeta>(np);
    qtable_ = reader.Section(np * n_s, TablePrecisionBytes(precision_));
  }
  index_mapping_ = reader.file();
}

bool ShardReplica::Insert(std::uint64_t id, std::string_view s) {
  // Per-shard ids are assigned (and replayed) in ascending order, so a
  // duplicate delivery — a retry after a lost reply — is exactly an id that
  // is not past the current tail.
  if (!delta_ids_.empty() && id <= delta_ids_.back()) return false;
  delta_store_.Add(s);
  delta_ids_.push_back(id);
  if (!delta_tombs_.empty()) {
    delta_tombs_.resize(TombstoneWords(delta_store_.size()), 0);
  }
  return true;
}

bool ShardReplica::Remove(std::uint64_t id) {
  if (id >= base_ && id - base_ < store_.size()) {
    const std::size_t j = id - base_;
    if (tombs_.empty()) tombs_.assign(TombstoneWords(store_.size()), 0);
    if (TestTombstone(tombs_.data(), j)) return false;
    SetTombstone(tombs_.data(), j);
    ++base_dead_;
    return true;
  }
  const auto it = std::lower_bound(delta_ids_.begin(), delta_ids_.end(), id);
  if (it == delta_ids_.end() || *it != id) return false;
  const std::size_t j = static_cast<std::size_t>(it - delta_ids_.begin());
  if (delta_tombs_.empty()) {
    delta_tombs_.assign(TombstoneWords(delta_store_.size()), 0);
  }
  if (TestTombstone(delta_tombs_.data(), j)) return false;
  SetTombstone(delta_tombs_.data(), j);
  ++delta_dead_;
  return true;
}

ShardAnswer ShardReplica::Query(std::string_view query, std::size_t k,
                                const double* row, double cap) const {
  ShardAnswer out;
  const std::size_t n_s = store_.size();
  // The clamp keeps a hostile k from sizing an allocation; it cannot
  // change the answer (no shard holds more candidates).
  k = std::min(k, n_s + delta_store_.size());
  if (k == 0) return out;
  out.hits.reserve(k + 1);
  const SweepKernels& kern = ActiveSweepKernels();
  SweepScratch& slabs = TlsSweepScratch();
  slabs.idx.resize(n_s);
  slabs.lower.resize(n_s);
  std::uint32_t* idx = slabs.idx.data();
  double* lower = slabs.lower.data();

  // The masked row sweep over this slice: length bounds, every global
  // pivot row applied dense, tombstoned slots forced to +inf, then the
  // seed compaction against the router's cap drops pivots (the router
  // holds their exact distances) and everything the cap already rules out.
  distance_->LengthLowerBounds(query.size(), store_.lengths_data(), n_s,
                               lower);
  const QuantTableView view = table_view();
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    QuantUpdateLowerDense(kern, view, p, n_s, row[p], lower);
  }
  if (base_dead_ > 0) ApplyTombstoneMask(tombs_.data(), n_s, lower);
  const SweepCompactResult seed =
      kern.compact_seed(lower, pivot_rank_.data() + base_, n_s,
                        static_cast<std::uint32_t>(base_), cap, idx, lower);
  RowSweepAdaptive(query, *distance_, store_, base_, idx, lower, seed, k, cap,
                   out.hits, &out.computations, &out.abandons);

  // The live delta, in ascending-id order, under the same running bound.
  for (std::size_t j = 0; j < delta_store_.size(); ++j) {
    if (!delta_tombs_.empty() && TestTombstone(delta_tombs_.data(), j)) {
      continue;
    }
    const double c = out.hits.size() < k || cap < out.hits.back().distance
                         ? cap
                         : out.hits.back().distance;
    const double d = distance_->DistanceBounded(query, delta_store_.view(j), c);
    ++out.computations;
    if (d >= c) {
      ++out.abandons;
      continue;
    }
    InsertNeighborTopK(out.hits, k,
                       {static_cast<std::size_t>(delta_ids_[j]), d});
  }
  return out;
}

std::vector<NeighborResult> MergeTopK(std::vector<NeighborResult> candidates,
                                      std::size_t k) {
  std::sort(candidates.begin(), candidates.end(), NeighborLess);
  std::vector<NeighborResult> out;
  out.reserve(std::min(k, candidates.size()));
  for (const NeighborResult& c : candidates) {
    if (out.size() == k) break;
    const bool seen =
        std::any_of(out.begin(), out.end(),
                    [&](const NeighborResult& o) { return o.index == c.index; });
    if (!seen) out.push_back(c);
  }
  return out;
}

double SeedCap(const std::vector<NeighborResult>& pivot_incumbents,
               std::size_t k) {
  if (k == 0 || pivot_incumbents.size() < k) {
    return std::numeric_limits<double>::infinity();
  }
  std::vector<double> d;
  d.reserve(pivot_incumbents.size());
  for (const NeighborResult& p : pivot_incumbents) d.push_back(p.distance);
  std::nth_element(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   d.end());
  return d[k - 1];
}

ShardLocalReference::ShardLocalReference(const std::string& dir,
                                         const ShardedLaesa& index,
                                         const std::string& distance_name)
    : index_(index), live_(index.size()) {
  for (std::size_t s = 0; s < index.shard_count(); ++s) {
    shards_.push_back(std::make_unique<ShardReplica>(
        ShardStorePath(dir, s), ShardIndexPath(dir, s), distance_name));
  }
}

void ShardLocalReference::Insert(std::uint64_t id, std::string_view s) {
  if (shards_[(id - index_.size()) % shards_.size()]->Insert(id, s)) ++live_;
}

void ShardLocalReference::Remove(std::uint64_t id) {
  for (auto& shard : shards_) {
    if (shard->Remove(id)) --live_;
  }
  if (id < index_.size()) removed_pivots_.push_back(id);
}

std::vector<NeighborResult> ShardLocalReference::KNearest(
    std::string_view query, std::size_t k, QueryStats* stats) const {
  k = std::min(k, live_);
  if (k == 0) return {};
  const std::size_t np = index_.pivot_count();
  std::vector<double> row(np);
  index_.ComputePivotRow(query, row.data(), stats);
  std::vector<NeighborResult> candidates;
  for (std::size_t p = 0; p < np; ++p) {
    const std::size_t id = index_.pivots()[p];
    if (std::find(removed_pivots_.begin(), removed_pivots_.end(), id) ==
        removed_pivots_.end()) {
      candidates.push_back({id, row[p]});
    }
  }
  const double cap = SeedCap(candidates, k);
  for (const auto& shard : shards_) {
    const ShardAnswer a = shard->Query(query, k, row.data(), cap);
    if (stats != nullptr) {
      stats->distance_computations += a.computations;
      stats->bounded_abandons += a.abandons;
    }
    candidates.insert(candidates.end(), a.hits.begin(), a.hits.end());
  }
  return MergeTopK(std::move(candidates), k);
}

}  // namespace cned
