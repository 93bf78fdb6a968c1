#include "search/laesa.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/binary_io.h"
#include "common/parallel.h"
#include "search/pivot_selection.h"
#include "search/sweep_kernel.h"

namespace cned {

Laesa::Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
             std::size_t num_pivots, std::size_t first_pivot,
             TablePrecision table_precision)
    : prototypes_(prototypes),
      distance_(std::move(distance)),
      precision_(table_precision) {
  if (store().empty()) {
    throw std::invalid_argument("Laesa: empty prototype set");
  }
  num_pivots = std::min(num_pivots, store().size());
  if (num_pivots == 0) {
    throw std::invalid_argument("Laesa: need at least one pivot");
  }
  pivots_ = SelectPivotsMaxMin(store(), *distance_, num_pivots, first_pivot);
  preprocessing_computations_ +=
      static_cast<std::uint64_t>(pivots_.size()) * store().size();
  BuildTable();
}

Laesa::Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
             std::vector<std::size_t> pivot_indices,
             TablePrecision table_precision)
    : prototypes_(prototypes),
      distance_(std::move(distance)),
      pivots_(std::move(pivot_indices)),
      precision_(table_precision) {
  if (store().empty()) {
    throw std::invalid_argument("Laesa: empty prototype set");
  }
  if (pivots_.empty()) {
    throw std::invalid_argument("Laesa: need at least one pivot");
  }
  for (std::size_t p : pivots_) {
    if (p >= store().size()) {
      throw std::invalid_argument("Laesa: pivot index out of range");
    }
  }
  BuildTable();
}

void Laesa::BuildTable() {
  const PrototypeStore& protos = store();
  const std::size_t n = protos.size();
  pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    pivot_rank_[pivots_[p]] = static_cast<std::int32_t>(p);
  }
  pivot_dist_.resize(pivots_.size() * n);
  // One task per table entry: the atomic work queue in ParallelFor balances
  // the load even when string lengths (and thus per-distance cost) vary
  // wildly. Every distance kernel is thread-safe (thread-local workspaces).
  ParallelFor(pivots_.size() * n, [&](std::size_t t) {
    const std::size_t p = t / n;
    const std::size_t i = t % n;
    pivot_dist_[t] = distance_->Distance(protos[pivots_[p]], protos[i]);
  });
  preprocessing_computations_ +=
      static_cast<std::uint64_t>(pivots_.size()) * n;
  if (precision_ != TablePrecision::kF64) {
    // Quantize row by row (round-down codes + per-row gap, table_quant.h)
    // and drop the exact table — the narrow codes ARE the index from here
    // on, so build, save, load and map all sweep the same bytes.
    const std::size_t width = TablePrecisionBytes(precision_);
    quant_table_.resize(pivots_.size() * n * width);
    row_meta_.resize(pivots_.size());
    for (std::size_t p = 0; p < pivots_.size(); ++p) {
      QuantRowEncoder enc;
      enc.Scan(pivot_dist_.data() + p * n, n);
      enc.Prepare(precision_);
      enc.Encode(pivot_dist_.data() + p * n, n,
                 quant_table_.data() + p * n * width);
      row_meta_[p] = enc.Finish();
    }
    pivot_dist_.clear();
    pivot_dist_.shrink_to_fit();
  }
}

// Unified flat sweep behind Nearest (k = 1), NearestApprox (slack = 1+eps)
// and KNearest: a candidate is eliminated when lower_bound * slack reaches
// the k-th incumbent.
//
// Elimination and the incumbent update share one semantic: a candidate that
// cannot *strictly* improve on the k-th incumbent is dead. That is what
// lets the incumbent itself be the `DistanceBounded` bound — the kernel may
// abandon any evaluation that provably reaches it, because such a value
// could at most tie.
//
// The per-visit pass — tighten with the visited pivot's contiguous table
// row, eliminate, compact, pick the next candidate — runs on the shared
// dispatched sweep kernels (sweep_kernel.h), so the flat, sharded and
// mapped indexes execute literally the same vector code over their packed
// candidate slabs. The kernels preserve the classic scan's semantics
// bit for bit: compaction is stable and min-bound ties resolve to the
// smallest index.
std::vector<NeighborResult> Laesa::Sweep(std::string_view query, std::size_t k,
                                         double slack, QueryStats* stats,
                                         const std::uint64_t* tombstones)
    const {
  const PrototypeStore& protos = store();
  const std::size_t n = protos.size();
  k = std::min(k, n);
  if (k == 0) return {};

  const SweepKernels& kern = ActiveSweepKernels();
  const QuantTableView view = table_view();
  SweepScratch& scratch = TlsSweepScratch();
  scratch.idx.resize(n);
  scratch.lower.resize(n);
  std::uint32_t* idx = scratch.idx.data();
  double* lower = scratch.lower.data();

  // Free zeroth pivot: length-only lower bounds, filled by one flat pass
  // over the store's packed length array before any distance is computed.
  distance_->LengthLowerBounds(query.size(), protos.lengths_data(), n, lower);
  // Count live pivots from pivot_rank_, not pivots_.size(): the ablation
  // constructor and Load accept duplicate pivot indices, which occupy one
  // candidate slot but several pivots_ entries.
  std::size_t live_pivots = FillIotaCountPivots(idx, pivot_rank_.data(), n);

  std::size_t live = n;  // candidates in the packed prefix [0, live)

  // Current k best, sorted ascending (k is small in practice).
  std::vector<NeighborResult> best;
  best.reserve(k + 1);
  const double inf = std::numeric_limits<double>::infinity();
  auto kth = [&]() { return best.size() < k ? inf : best.back().distance; };

  std::uint64_t computations = 0, abandons = 0, pivot_computations = 0;

  std::size_t s = pivots_[0];  // start from the first base prototype
  if (tombstones != nullptr) {
    // Deletes are eliminated inside the compaction before anything is
    // visited: force the masked slots' bounds to +inf, then one flagged
    // pass drops them from the packed slab (lower >= bound is inclusive,
    // so +inf falls even to the infinite starting incumbent) and hands
    // back the minimal-bound live start — pivots first, as usual.
    ApplyTombstoneMask(tombstones, n, lower);
    const SweepCompactResult pre = kern.eliminate_and_compact_flagged(
        idx, lower, pivot_rank_.data(), live, /*skip=*/0xFFFFFFFFu, slack,
        inf);
    live = pre.live;
    live_pivots -= pre.pivots_died;
    s = live_pivots > 0 ? pre.next_pivot : pre.next;
    if (s == kSweepNone) live = 0;
  }
  while (live > 0) {
    const bool s_is_pivot = pivot_rank_[s] >= 0;

    // Pivot distances stay exact: the full value tightens a whole row of
    // lower bounds (both sides of |d - row[i]|), which an abandoned
    // evaluation cannot. Non-pivot distances only ever update the
    // incumbents, so the k-th incumbent bounds their kernel — the search
    // trajectory (and computation count) is identical to the unbounded
    // sweep, only the per-evaluation DP work shrinks.
    const double cap = s_is_pivot ? inf : kth();
    const double d = distance_->DistanceBounded(query, protos[s], cap);
    ++computations;
    pivot_computations += s_is_pivot ? 1 : 0;
    if (d >= cap) {
      ++abandons;
    } else {
      InsertNeighborTopK(best, k, {s, d});
    }

    // Tighten with the visited pivot's row (a non-pivot visit leaves the
    // bounds as they are), then one eliminate-and-compact pass picks the
    // next candidate — the surviving pivot with minimal lower bound while
    // pivots remain (the "approximating" step of LAESA), otherwise the
    // surviving prototype with minimal lower bound.
    if (s_is_pivot) {
      QuantUpdateLowerPacked(kern, view,
                             static_cast<std::size_t>(pivot_rank_[s]), n, d,
                             idx, 0, lower, live);
    }
    const SweepCompactResult pass = kern.eliminate_and_compact_flagged(
        idx, lower, pivot_rank_.data(), live, static_cast<std::uint32_t>(s),
        slack, kth());
    live = pass.live;
    live_pivots -= pass.pivots_died;
    if (live == 0) break;
    s = live_pivots > 0 ? pass.next_pivot : pass.next;
    if (s == kSweepNone) break;  // defensive: accounting can never reach this
  }

  if (stats != nullptr) {
    stats->distance_computations += computations;
    stats->bounded_abandons += abandons;
    stats->pivot_computations += pivot_computations;
  }
  return best;
}

// The batched counterpart of `Sweep`: the caller already paid for every
// query-pivot distance (they are shared across the batch), so all pivot
// rows are applied before any elimination — the tightest pivot-based lower
// bounds the table can give — and only the surviving non-pivots are then
// visited adaptively. Same elimination semantics as `Sweep` (a candidate
// that can at most tie the k-th incumbent is dead), different trajectory:
// see pivot_stage.h.
std::vector<NeighborResult> Laesa::SweepWithRow(std::string_view query,
                                                std::size_t k,
                                                const double* row,
                                                QueryStats* stats) const {
  const PrototypeStore& protos = store();
  const std::size_t n = protos.size();
  k = std::min(k, n);
  if (k == 0) return {};

  const SweepKernels& kern = ActiveSweepKernels();
  SweepScratch& scratch = TlsSweepScratch();
  scratch.idx.resize(n);
  scratch.lower.resize(n);
  std::uint32_t* idx = scratch.idx.data();
  double* lower = scratch.lower.data();

  distance_->LengthLowerBounds(query.size(), protos.lengths_data(), n, lower);

  // Seed the incumbents with every pivot distance (each live pivot once —
  // the ablation constructor and Load accept duplicate pivot entries).
  // These evaluations are already paid for, so ties admit the lower index.
  std::vector<NeighborResult> best;
  best.reserve(k + 1);
  const double inf = std::numeric_limits<double>::infinity();
  auto kth = [&]() { return best.size() < k ? inf : best.back().distance; };
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    if (pivot_rank_[pivots_[p]] != static_cast<std::int32_t>(p)) continue;
    InsertNeighborTopK(best, k, {pivots_[p], row[p]}, /*admit_ties=*/true);
  }

  // Tighten every lower bound with every pivot row (no elimination yet:
  // each row pass is the dense streamed-max kernel), then eliminate against
  // the fully seeded k-th incumbent, compact the surviving non-pivots into
  // the packed slabs and pick the first minimal-bound survivor — one
  // compact_seed pass.
  const QuantTableView view = table_view();
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    QuantUpdateLowerDense(kern, view, p, n, row[p], lower);
  }
  const SweepCompactResult seed = kern.compact_seed(
      lower, pivot_rank_.data(), n, 0, kth(), idx, lower);
  std::uint64_t computations = 0, abandons = 0;
  RowSweepAdaptive(query, *distance_, protos, /*base=*/0, idx, lower, seed, k,
                   inf, best, &computations, &abandons);

  if (stats != nullptr) {
    stats->distance_computations += computations;
    stats->bounded_abandons += abandons;
  }
  return best;
}

// The adaptive non-pivot phase, identical in structure to `Sweep`'s loop
// with no table row left to apply. Under cap = +inf the bound is exactly
// the k-th incumbent, so `Laesa::SweepWithRow` keeps its trajectory.
void RowSweepAdaptive(std::string_view query, const StringDistance& distance,
                      const PrototypeStore& protos, std::size_t base,
                      std::uint32_t* idx, double* lower,
                      const SweepCompactResult& seed, std::size_t k,
                      double cap, std::vector<NeighborResult>& best,
                      std::uint64_t* computations, std::uint64_t* abandons) {
  const SweepKernels& kern = ActiveSweepKernels();
  auto bound = [&]() {
    return best.size() < k || cap < best.back().distance
               ? cap
               : best.back().distance;
  };
  std::size_t live = seed.live;
  std::size_t s = seed.next;
  while (live > 0 && s != kSweepNone) {
    const double c = bound();
    const double d = distance.DistanceBounded(query, protos[s - base], c);
    ++*computations;
    if (d >= c) {
      ++*abandons;
    } else {
      InsertNeighborTopK(best, k, {s, d});
    }
    const SweepCompactResult pass = kern.eliminate_and_compact(
        idx, lower, live, static_cast<std::uint32_t>(s), bound());
    live = pass.live;
    s = pass.next;
  }
}

void Laesa::ComputePivotRow(std::string_view query, double* row,
                            QueryStats* stats) const {
  const PrototypeStore& protos = store();
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    row[p] = distance_->Distance(query, protos[pivots_[p]]);
  }
  if (stats != nullptr) {
    stats->distance_computations += pivots_.size();
    stats->pivot_computations += pivots_.size();
  }
}

NeighborResult Laesa::NearestWithPivotRow(std::string_view query,
                                          const double* row,
                                          QueryStats* stats) const {
  return SweepWithRow(query, 1, row, stats).front();
}

std::vector<NeighborResult> Laesa::KNearestWithPivotRow(
    std::string_view query, std::size_t k, const double* row,
    QueryStats* stats) const {
  return SweepWithRow(query, k, row, stats);
}

NeighborResult Laesa::Nearest(std::string_view query,
                              QueryStats* stats) const {
  return Sweep(query, 1, /*slack=*/1.0, stats).front();
}

NeighborResult Laesa::NearestApprox(std::string_view query, double epsilon,
                                    QueryStats* stats) const {
  if (epsilon < 0.0) {
    throw std::invalid_argument("Laesa::NearestApprox: epsilon must be >= 0");
  }
  return Sweep(query, 1, 1.0 + epsilon, stats).front();
}

std::vector<NeighborResult> Laesa::KNearest(std::string_view query,
                                            std::size_t k,
                                            QueryStats* stats) const {
  return Sweep(query, k, /*slack=*/1.0, stats);
}

NeighborResult Laesa::NearestMasked(std::string_view query,
                                    const std::uint64_t* tombstones,
                                    QueryStats* stats) const {
  auto best = Sweep(query, 1, /*slack=*/1.0, stats, tombstones);
  if (best.empty()) {
    throw std::out_of_range("Laesa::NearestMasked: every prototype deleted");
  }
  return best.front();
}

std::vector<NeighborResult> Laesa::KNearestMasked(
    std::string_view query, std::size_t k, const std::uint64_t* tombstones,
    QueryStats* stats) const {
  return Sweep(query, k, /*slack=*/1.0, stats, tombstones);
}

std::vector<NeighborResult> Laesa::RangeSearch(std::string_view query,
                                               double radius,
                                               QueryStats* stats) const {
  const PrototypeStore& protos = store();
  const std::size_t n = protos.size();
  const SweepKernels& kern = ActiveSweepKernels();
  SweepScratch& scratch = TlsSweepScratch();
  scratch.lower.resize(n);
  double* lower = scratch.lower.data();
  // Length-difference bounds seed the candidate filter for free, as in the
  // nearest-neighbour sweep.
  distance_->LengthLowerBounds(query.size(), protos.lengths_data(), n, lower);

  std::vector<NeighborResult> hits;
  std::uint64_t computations = 0, abandons = 0;

  // Phase 1: compute query-pivot distances, tighten every lower bound with
  // the pivot's contiguous table row (the dense streamed-max kernel). Pivot
  // distances stay exact: their full value feeds every candidate's lower
  // bound, which is worth far more than an abandoned evaluation saves.
  const QuantTableView view = table_view();
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    const std::size_t s = pivots_[p];
    const double d = distance_->Distance(query, protos[s]);
    ++computations;
    if (d <= radius) hits.push_back({s, d});
    QuantUpdateLowerDense(kern, view, p, n, d, lower);
  }
  // Phase 2: verify every surviving non-pivot (pivots were computed in
  // phase 1). Hits are inclusive (d <= radius), so the kernel bound is the
  // next representable value above the radius — an abandoned evaluation
  // then certifies d > radius.
  const double cap =
      std::nextafter(radius, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    if (pivot_rank_[i] >= 0 || lower[i] > radius) continue;
    const double d = distance_->DistanceBounded(query, protos[i], cap);
    ++computations;
    if (d >= cap) {
      ++abandons;
    } else if (d <= radius) {
      hits.push_back({i, d});
    }
  }
  std::sort(hits.begin(), hits.end(), NeighborLess);
  if (stats != nullptr) {
    stats->distance_computations += computations;
    stats->bounded_abandons += abandons;
    stats->pivot_computations += pivots_.size();
  }
  return hits;
}

// Text format: "LAESA 1" is the original exact-table form, written for f64
// indexes exactly as before. Quantized indexes write "LAESA 2 <precision>"
// followed by the per-row decode meta (precision-17 doubles: round-trip
// exact) and the codes as integers — u8 values, f16 bit patterns, f32 bit
// patterns — so a text round-trip restores the codes bit for bit.
void Laesa::Save(std::ostream& out) const {
  const std::size_t n = store().size();
  const std::size_t entries = pivots_.size() * n;
  if (precision_ == TablePrecision::kF64) {
    out << "LAESA 1\n" << n << ' ' << pivots_.size() << '\n';
  } else {
    out << "LAESA 2 " << TablePrecisionName(precision_) << '\n'
        << n << ' ' << pivots_.size() << '\n';
  }
  for (std::size_t p : pivots_) out << p << ' ';
  out << '\n';
  out.precision(17);
  switch (precision_) {
    case TablePrecision::kF64: {
      const double* table = table_data();
      for (std::size_t t = 0; t < entries; ++t) out << table[t] << ' ';
      break;
    }
    case TablePrecision::kF32: {
      for (const QuantRowMeta* m = row_meta_data();
           m != row_meta_data() + pivots_.size(); ++m) {
        out << m->scale << ' ' << m->offset << ' ' << m->gap << '\n';
      }
      const float* codes = static_cast<const float*>(quant_data());
      for (std::size_t t = 0; t < entries; ++t) {
        std::uint32_t bits;
        std::memcpy(&bits, codes + t, sizeof(bits));
        out << bits << ' ';
      }
      break;
    }
    case TablePrecision::kF16: {
      for (const QuantRowMeta* m = row_meta_data();
           m != row_meta_data() + pivots_.size(); ++m) {
        out << m->scale << ' ' << m->offset << ' ' << m->gap << '\n';
      }
      const std::uint16_t* codes =
          static_cast<const std::uint16_t*>(quant_data());
      for (std::size_t t = 0; t < entries; ++t) out << codes[t] << ' ';
      break;
    }
    case TablePrecision::kU8: {
      for (const QuantRowMeta* m = row_meta_data();
           m != row_meta_data() + pivots_.size(); ++m) {
        out << m->scale << ' ' << m->offset << ' ' << m->gap << '\n';
      }
      const std::uint8_t* codes =
          static_cast<const std::uint8_t*>(quant_data());
      for (std::size_t t = 0; t < entries; ++t) {
        out << static_cast<unsigned>(codes[t]) << ' ';
      }
      break;
    }
  }
  out << '\n';
}

Laesa Laesa::Load(std::istream& in, PrototypeStoreRef prototypes,
                  StringDistancePtr distance) {
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (!in || magic != "LAESA" || (version != 1 && version != 2)) {
    throw std::runtime_error("Laesa::Load: bad header");
  }
  TablePrecision precision = TablePrecision::kF64;
  if (version == 2) {
    std::string name;
    in >> name;
    if (!in || !ParseTablePrecision(name, &precision) ||
        precision == TablePrecision::kF64) {
      throw std::runtime_error("Laesa::Load: bad table precision");
    }
  }
  std::size_t n = 0, np = 0;
  in >> n >> np;
  if (!in) throw std::runtime_error("Laesa::Load: bad header");
  if (n != prototypes->size()) {
    throw std::runtime_error("Laesa::Load: prototype count mismatch");
  }
  if (np == 0 || np > n) {
    throw std::runtime_error("Laesa::Load: bad pivot count");
  }
  Laesa index(InternalTag{}, prototypes, std::move(distance));
  index.precision_ = precision;
  index.pivots_.resize(np);
  for (std::size_t& p : index.pivots_) {
    in >> p;
    if (!in || p >= n) throw std::runtime_error("Laesa::Load: bad pivot");
  }
  index.pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < np; ++p) {
    index.pivot_rank_[index.pivots_[p]] = static_cast<std::int32_t>(p);
  }
  if (precision == TablePrecision::kF64) {
    index.pivot_dist_.resize(np * n);
    for (double& d : index.pivot_dist_) {
      in >> d;
      if (!in) throw std::runtime_error("Laesa::Load: truncated table");
    }
    return index;
  }
  index.row_meta_.resize(np);
  for (QuantRowMeta& m : index.row_meta_) {
    in >> m.scale >> m.offset >> m.gap;
    if (!in) throw std::runtime_error("Laesa::Load: truncated table");
  }
  const std::size_t width = TablePrecisionBytes(precision);
  index.quant_table_.resize(np * n * width);
  for (std::size_t t = 0; t < np * n; ++t) {
    std::uint32_t code = 0;
    in >> code;
    if (!in) throw std::runtime_error("Laesa::Load: truncated table");
    switch (precision) {
      case TablePrecision::kF32:
        std::memcpy(index.quant_table_.data() + t * 4, &code, 4);
        break;
      case TablePrecision::kF16: {
        const std::uint16_t h = static_cast<std::uint16_t>(code);
        std::memcpy(index.quant_table_.data() + t * 2, &h, 2);
        break;
      }
      default:
        index.quant_table_[t] = static_cast<unsigned char>(code);
        break;
    }
  }
  return index;
}

namespace {
constexpr char kLaesaMagic[8] = {'C', 'N', 'E', 'D', 'L', 'S', 'A', '1'};
constexpr std::uint32_t kLaesaVersion = 1;
// Version 2 adds quantized tables: counts gain the precision, and a 32-byte
// per-row QuantRowMeta section sits between the pivots and the (narrow)
// code table. f64 indexes keep writing version 1, byte-identical to every
// snapshot produced before quantization existed.
constexpr std::uint32_t kLaesaVersionQuant = 2;

/// Range-checks a version-2 header's precision count (f64 snapshots are
/// version 1 by construction, so 0 is rejected too).
TablePrecision CheckedPrecision(std::uint64_t raw, const char* who) {
  if (raw < 1 || raw > 3) {
    throw std::runtime_error(std::string(who) + ": bad table precision");
  }
  return static_cast<TablePrecision>(static_cast<std::uint32_t>(raw));
}
}  // namespace

void Laesa::Save(const std::string& path) const {
  BinaryWriter writer(path);
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "64-bit pivot indices expected");
  if (precision_ == TablePrecision::kF64) {
    const std::uint64_t counts[2] = {store().size(), pivots_.size()};
    writer.Header(kLaesaMagic, kLaesaVersion, counts, 2);
    writer.Align();
    writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
    writer.Align();
    // Through the view, so a mapped index re-snapshots byte-identically.
    writer.Raw(table_data(),
               pivots_.size() * store().size() * sizeof(double));
    writer.Finish();
    return;
  }
  const std::uint64_t counts[3] = {store().size(), pivots_.size(),
                                   static_cast<std::uint64_t>(precision_)};
  writer.Header(kLaesaMagic, kLaesaVersionQuant, counts, 3);
  writer.Align();
  writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
  writer.Align();
  writer.Raw(row_meta_data(), pivots_.size() * sizeof(QuantRowMeta));
  writer.Align();
  writer.Raw(quant_data(), pivots_.size() * store().size() *
                               TablePrecisionBytes(precision_));
  writer.Finish();
}

Laesa Laesa::Load(const std::string& path, PrototypeStoreRef prototypes,
                  StringDistancePtr distance) {
  BinaryReader reader(path);
  std::uint32_t version = 0;
  const auto counts =
      reader.Header(kLaesaMagic, kLaesaVersion, kLaesaVersionQuant, &version);
  const std::uint64_t n = counts[0];
  const std::uint64_t np = counts[1];
  if (n != prototypes->size()) {
    throw std::runtime_error("Laesa::Load: prototype count mismatch");
  }
  if (np == 0 || np > n) {
    throw std::runtime_error("Laesa::Load: bad pivot count");
  }
  Laesa index(InternalTag{}, prototypes, std::move(distance));
  reader.RequireArray(np, sizeof(std::uint64_t));
  index.pivots_.resize(np);
  reader.Align();
  reader.Raw(index.pivots_.data(), np * sizeof(std::uint64_t));
  index.pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < np; ++p) {
    if (index.pivots_[p] >= n) {
      throw std::runtime_error("Laesa::Load: pivot index out of range");
    }
    index.pivot_rank_[index.pivots_[p]] = static_cast<std::int32_t>(p);
  }
  if (version == kLaesaVersion) {
    reader.RequireArray(np * n, sizeof(double));
    index.pivot_dist_.resize(np * n);
    reader.Align();
    reader.Raw(index.pivot_dist_.data(), np * n * sizeof(double));
    return index;
  }
  index.precision_ = CheckedPrecision(counts[2], "Laesa::Load");
  const std::size_t width = TablePrecisionBytes(index.precision_);
  reader.RequireArray(np, sizeof(QuantRowMeta));
  index.row_meta_.resize(np);
  reader.Align();
  reader.Raw(index.row_meta_.data(), np * sizeof(QuantRowMeta));
  reader.RequireArray(np * n, width);
  index.quant_table_.resize(np * n * width);
  reader.Align();
  reader.Raw(index.quant_table_.data(), np * n * width);
  return index;
}

Laesa Laesa::Map(const std::string& path, PrototypeStoreRef prototypes,
                 StringDistancePtr distance) {
  MappedReader reader(MappedFile::Open(path));
  std::uint32_t version = 0;
  const auto counts =
      reader.Header(kLaesaMagic, kLaesaVersion, kLaesaVersionQuant, &version);
  const std::uint64_t n = counts[0];
  const std::uint64_t np = counts[1];
  if (n != prototypes->size()) {
    throw std::runtime_error("Laesa::Map: prototype count mismatch");
  }
  if (np == 0 || np > n) {
    throw std::runtime_error("Laesa::Map: bad pivot count");
  }
  Laesa index(InternalTag{}, prototypes, std::move(distance));
  // The pivot index array is tiny (np entries); copying it keeps the
  // `pivots()` API. The table — the O(pivots x N) bulk — stays a view.
  const std::uint64_t* pivots = reader.Array<std::uint64_t>(np);
  index.pivots_.assign(pivots, pivots + np);
  index.pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < np; ++p) {
    if (index.pivots_[p] >= n) {
      throw std::runtime_error("Laesa::Map: pivot index out of range");
    }
    index.pivot_rank_[index.pivots_[p]] = static_cast<std::int32_t>(p);
  }
  // np <= n <= the live store's size, so np * n cannot overflow before
  // Array()'s own division-form extent check sees it.
  if (version == kLaesaVersion) {
    index.mapped_table_ = reader.Array<double>(np * n);
    index.mapping_ = reader.file();
    return index;
  }
  index.precision_ = CheckedPrecision(counts[2], "Laesa::Map");
  index.mapped_meta_ = reader.Array<QuantRowMeta>(np);
  // The code section is served zero-copy too: the sweep reads the narrow
  // elements straight off the page cache through the kernels' widening
  // loads.
  index.mapped_quant_ =
      reader.Section(np * n, TablePrecisionBytes(index.precision_));
  index.mapping_ = reader.file();
  return index;
}

}  // namespace cned
