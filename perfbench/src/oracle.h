#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The exactness oracle. It compares distances only, in order: neighbour ids
// may differ among equal distances, and QueryStats and tie order are never
// compared (both are contracts a simpler search may change).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "search/nn_searcher.h"

namespace perfbench {

/// True when `got` and `want` hold the same distances in the same order.
bool SameDistances(const std::vector<cned::NeighborResult>& got,
                   const std::vector<cned::NeighborResult>& want);

/// True when every id in `got` is distinct, below `id_space`, and reported
/// with its true distance `dist_of(id)`.
bool IdsCarryTheirDistances(const std::vector<cned::NeighborResult>& got,
                            std::size_t id_space,
                            const std::function<double(std::size_t)>& dist_of);

/// One acknowledged write of an open loop, with the interval in which it
/// took effect (it was applied at some instant in [start, end]).
struct WriteRecord {
  bool insert = false;
  std::uint64_t id = 0;  // the id inserted (router-assigned) or removed
  std::string word;      // insert only
  double start = 0.0;
  double end = 0.0;
};

/// Oracle for answers served while writes land. The router applies writes
/// one at a time and never during a sweep, so a query sees the live set
/// after some prefix of the apply order. That order is not observable, but
/// it must agree with the intervals: a write that ended before another
/// started was applied first. An answer passes when it equals the exact
/// top-k of the live set after some prefix consistent with the query's own
/// [start, end]: every write that ended before the query started is in it,
/// none that started after the query ended is.
class WriteLogOracle {
 public:
  WriteLogOracle(std::size_t base_size, std::vector<WriteRecord> writes);

  /// `dist_by_id[id]` = distance from the query to the string behind every
  /// id in [0, id_space()). Returns false also when more than
  /// `kMaxAmbiguous` writes overlap the query (the check would explode).
  bool Check(const std::vector<double>& dist_by_id, double q_start,
             double q_end, const std::vector<cned::NeighborResult>& got,
             std::size_t k) const;

  /// Ids are 0..base_size-1 plus every inserted id.
  std::size_t id_space() const { return id_space_; }
  const std::vector<WriteRecord>& writes() const { return writes_; }

  static constexpr std::size_t kMaxAmbiguous = 12;

 private:
  std::size_t base_size_;
  std::size_t id_space_;
  std::vector<WriteRecord> writes_;
};

/// The k smallest values of `dist_by_id` over ids with `live[id]` set,
/// ascending.
std::vector<double> TopKDistances(const std::vector<double>& dist_by_id,
                                  const std::vector<char>& live,
                                  std::size_t k);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
