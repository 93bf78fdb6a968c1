#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Deterministic workload generation. Every input the program under test
// receives -- dataset, queries and their order -- is a pure function of
// (workload, seed); the dataset is the same for every seed. Sizes are
// constants here and never read CNED_SCALE.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kPivots = 16;
inline constexpr std::size_t kK = 5;
inline constexpr std::size_t kClients = 4;

struct WorkloadSpec {
  const char* name;
  const char* distance;   // registry name: "dE" or "dC"
  bool digits;            // digit contours instead of dictionary words
  std::size_t data_size;  // prototypes (words, or 10 x contours per class)
  std::size_t queries;    // distinct query strings
  int setup_reps;         // setups per end-to-end run (setup_s = median)
  int inproc_reps;        // timings per in-process query (best counts)
};

/// The workloads, in the order `--workload all` runs them.
const std::vector<WorkloadSpec>& Workloads();
/// nullptr when `name` is not a workload.
const WorkloadSpec* FindWorkload(std::string_view name);

struct Inputs {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  std::vector<std::string> data;     // the prototypes (base ids 0..n-1)
  std::vector<std::string> queries;  // distinct query strings
  /// The query sequence: each index once, in a seeded order.
  std::vector<std::uint32_t> read_sequence;
};

Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Canonical byte serialization of every generated input (for the
/// determinism self-test).
std::string SerializeInputs(const Inputs& in);

/// splitmix64: a tiny, fully specified generator, so query orders are
/// byte-stable across standard libraries.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next();
  std::size_t Index(std::size_t n) { return static_cast<std::size_t>(Next() % n); }

 private:
  std::uint64_t s_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
