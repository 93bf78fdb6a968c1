#include "inputs.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "datasets/perturb.h"
#include "strings/alphabet.h"

namespace perfbench {

std::uint64_t SplitMix::Next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"dict_de", "dE", false, 3000, 256, 25, 5},
      {"digits_dc", "dC", true, 600, 192, 5, 1},
  };
  return kAll;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

constexpr std::uint64_t kCorpusSeed = 2008;

// Independent sub-streams of one run seed.
std::uint64_t Derive(std::uint64_t seed, std::uint64_t stream) {
  SplitMix m(seed ^ (0x51ed2700u + stream * 0x2545f4914f6cdd1dull));
  return m.Next();
}

std::vector<std::uint32_t> Permutation(std::size_t n, SplitMix& rng) {
  std::vector<std::uint32_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.Index(i)]);
  return p;
}

}  // namespace

Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  in.spec = &spec;
  in.seed = seed;
  // The corpus is fixed per workload, as the paper searches one dictionary
  // and one digit set; the seed draws everything else. A corpus per seed
  // moved the mean work per query (distance evaluations) by 13% between
  // seeds, against 6% for query sets over one corpus.
  const cned::Dataset ds =
      spec.digits ? cned::bench::MakeDigits(spec.data_size / 10, kCorpusSeed)
                  : cned::bench::MakeDictionary(spec.data_size, kCorpusSeed);
  in.data = ds.strings;

  // Distinct perturbed queries: 2 edits in the data's own alphabet. On
  // labelled data (the digits) query i perturbs a member of class i mod 10,
  // so every seed asks about each digit equally often: contour length, and
  // with it the cubic dC cost, depends on the digit.
  const cned::Alphabet alphabet =
      spec.digits ? cned::Alphabet::ChainCode() : cned::Alphabet::Latin();
  std::vector<std::vector<std::size_t>> members(1);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const std::size_t c = ds.labeled() ? static_cast<std::size_t>(ds.labels[i]) : 0;
    if (c >= members.size()) members.resize(c + 1);
    members[c].push_back(i);
  }
  cned::Rng rng(Derive(seed, 2));
  std::unordered_set<std::string> seen;
  while (in.queries.size() < spec.queries) {
    const std::vector<std::size_t>& pool = members[in.queries.size() % members.size()];
    std::string q = cned::PerturbString(in.data[pool[rng.Index(pool.size())]], 2,
                                        alphabet, rng);
    if (!q.empty() && seen.insert(q).second) in.queries.push_back(std::move(q));
  }

  SplitMix order(Derive(seed, 3));
  in.read_sequence = Permutation(in.queries.size(), order);
  return in;
}

namespace {

void PutU64(std::string& out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}
void PutStr(std::string& out, std::string_view s) {
  PutU64(out, s.size());
  out.append(s.data(), s.size());
}

}  // namespace

std::string SerializeInputs(const Inputs& in) {
  std::string out;
  PutStr(out, in.spec->name);
  PutU64(out, in.seed);
  PutU64(out, in.data.size());
  for (const std::string& s : in.data) PutStr(out, s);
  PutU64(out, in.queries.size());
  for (const std::string& s : in.queries) PutStr(out, s);
  PutU64(out, in.read_sequence.size());
  for (std::uint32_t q : in.read_sequence) PutU64(out, q);
  return out;
}

}  // namespace perfbench
