#include "oracle.h"

#include <algorithm>

namespace perfbench {

bool SameDistances(const std::vector<cned::NeighborResult>& got,
                   const std::vector<cned::NeighborResult>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].distance != want[i].distance) return false;
  }
  return true;
}

bool IdsCarryTheirDistances(const std::vector<cned::NeighborResult>& got,
                            std::size_t id_space,
                            const std::function<double(std::size_t)>& dist_of) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::size_t id = got[i].index;
    if (id >= id_space || dist_of(id) != got[i].distance) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (got[j].index == id) return false;
    }
  }
  return true;
}

std::vector<double> TopKDistances(const std::vector<double>& dist_by_id,
                                  const std::vector<char>& live,
                                  std::size_t k) {
  std::vector<double> d;
  for (std::size_t id = 0; id < dist_by_id.size(); ++id) {
    if (live[id]) d.push_back(dist_by_id[id]);
  }
  k = std::min(k, d.size());
  std::partial_sort(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(k),
                    d.end());
  d.resize(k);
  return d;
}

WriteLogOracle::WriteLogOracle(std::size_t base_size,
                               std::vector<WriteRecord> writes)
    : base_size_(base_size), id_space_(base_size), writes_(std::move(writes)) {
  for (const WriteRecord& w : writes_) {
    if (w.insert) id_space_ = std::max<std::size_t>(id_space_, w.id + 1);
  }
}

bool WriteLogOracle::Check(const std::vector<double>& dist_by_id,
                           double q_start, double q_end,
                           const std::vector<cned::NeighborResult>& got,
                           std::size_t k) const {
  if (dist_by_id.size() != id_space_) return false;
  // Live set before any write: the base ids.
  std::vector<char> live(id_space_, 0);
  std::fill(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(base_size_), 1);
  const auto apply = [&](const WriteRecord& w, bool on) {
    // on: the write took effect; off: undo it.
    live[w.id] = static_cast<char>(w.insert ? on : !on);
  };
  std::vector<const WriteRecord*> ambiguous;
  for (const WriteRecord& w : writes_) {
    if (w.end < q_start) {
      apply(w, true);  // finished before the query began
    } else if (w.start <= q_end) {
      ambiguous.push_back(&w);  // overlaps the query: either side
    }
  }
  if (ambiguous.size() > kMaxAmbiguous) return false;
  const std::size_t m = ambiguous.size();
  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    // A prefix of the apply order holds every write that ended before one
    // of its members started.
    bool closed = true;
    for (std::size_t a = 0; a < m && closed; ++a) {
      if (!(mask >> a & 1u)) continue;
      for (std::size_t b = 0; b < m; ++b) {
        if (!(mask >> b & 1u) && ambiguous[b]->end < ambiguous[a]->start) {
          closed = false;
          break;
        }
      }
    }
    if (!closed) continue;
    for (std::size_t a = 0; a < m; ++a) apply(*ambiguous[a], mask >> a & 1u);
    const std::vector<double> want = TopKDistances(dist_by_id, live, k);
    bool ok = want.size() == got.size() &&
              IdsCarryTheirDistances(got, id_space_,
                                     [&](std::size_t id) { return dist_by_id[id]; });
    for (std::size_t i = 0; ok && i < got.size(); ++i) {
      ok = got[i].distance == want[i] && live[got[i].index];
    }
    for (std::size_t a = 0; a < m; ++a) apply(*ambiguous[a], false);
    if (ok) return true;
  }
  return false;
}

}  // namespace perfbench
