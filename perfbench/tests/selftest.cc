// Self-test of the benchmark's own parts: input determinism, the exactness
// oracle, quantiles, and span self-time arithmetic. Exits non-zero on the first
// failed check. The smoke run that prints every metric lives in run.py
// (--selftest).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "inputs.h"
#include "oracle.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<cned::NeighborResult> Answer(
    std::vector<std::pair<std::size_t, double>> v) {
  std::vector<cned::NeighborResult> out;
  for (const auto& [id, d] : v) out.push_back({id, d});
  return out;
}

void InputsAreDeterministic() {
  for (const WorkloadSpec& w : Workloads()) {
    const std::string a = SerializeInputs(MakeInputs(w, 7));
    const std::string b = SerializeInputs(MakeInputs(w, 7));
    const std::string c = SerializeInputs(MakeInputs(w, 8));
    Check(a == b, (std::string(w.name) + ": same seed, byte-identical inputs").c_str());
    Check(a != c, (std::string(w.name) + ": other seed, other inputs").c_str());
  }
}

void OracleFlagsWrongDistances() {
  const auto want = Answer({{3, 0.5}, {9, 1.0}, {4, 1.0}});
  Check(SameDistances(Answer({{3, 0.5}, {4, 1.0}, {9, 1.0}}), want),
        "oracle: ids may differ among equal distances");
  Check(!SameDistances(Answer({{3, 0.5}, {9, 1.0}, {4, 1.5}}), want),
        "oracle: an injected wrong distance is flagged");
  Check(!SameDistances(Answer({{3, 0.5}, {9, 1.0}}), want),
        "oracle: a short answer is flagged");
  const std::vector<double> dist = {2, 2, 0.5, 1};
  const auto dist_of = [&](std::size_t id) { return dist[id]; };
  Check(IdsCarryTheirDistances(Answer({{2, 0.5}, {3, 1}}), 4, dist_of),
        "oracle: ids with their true distances pass");
  Check(!IdsCarryTheirDistances(Answer({{2, 0.5}, {1, 1}}), 4, dist_of),
        "oracle: an id reported with another id's distance is flagged");
  Check(!IdsCarryTheirDistances(Answer({{2, 0.5}, {2, 0.5}}), 4, dist_of),
        "oracle: a repeated id is flagged");
  Check(!IdsCarryTheirDistances(Answer({{7, 0.5}}), 4, dist_of),
        "oracle: an unknown id is flagged");
}

void OracleHonoursTheWriteLog() {
  // Base ids 0..3 at distances 4, 3, 2, 1 from the query. Insert id 4 at
  // distance 0 during [10, 11]; remove base id 3 during [20, 21].
  const std::vector<double> dist = {4, 3, 2, 1, 0};
  std::vector<WriteRecord> log(2);
  log[0].insert = true, log[0].id = 4, log[0].start = 10, log[0].end = 11;
  log[1].insert = false, log[1].id = 3, log[1].start = 20, log[1].end = 21;
  const WriteLogOracle oracle(4, log);
  const auto before = Answer({{3, 1}, {2, 2}});
  const auto after_insert = Answer({{4, 0}, {3, 1}});
  const auto after_both = Answer({{4, 0}, {2, 2}});
  const auto remove_only = Answer({{2, 2}, {1, 3}});
  Check(oracle.Check(dist, 1, 2, before, 2), "write log: query before any write");
  Check(!oracle.Check(dist, 1, 2, after_insert, 2),
        "write log: an insert that started after the query ended is flagged");
  Check(oracle.Check(dist, 10.5, 10.7, before, 2) &&
            oracle.Check(dist, 10.5, 10.7, after_insert, 2),
        "write log: a write overlapping the query may fall on either side");
  Check(oracle.Check(dist, 30, 31, after_both, 2), "write log: query after both");
  Check(!oracle.Check(dist, 30, 31, after_insert, 2),
        "write log: a finished remove cannot be missing");
  Check(!oracle.Check(dist, 9, 25, remove_only, 2),
        "write log: an impossible prefix (remove without the earlier insert) is flagged");
  Check(oracle.Check(dist, 9, 25, after_both, 2),
        "write log: both writes inside a long query");
  const auto dead_id = Answer({{4, 0}, {3, 1}});
  Check(!oracle.Check(dist, 30, 31, dead_id, 2),
        "write log: a removed id in the answer is flagged");
}

void QuantilesOfInfiniteSamples() {
  Check(Quantile({4, 1, 3, 2}, 0.5) == 2.5 && Quantile({4, 1, 3, 2}, 0.0) == 1.0 &&
            Quantile({4, 1, 3, 2}, 1.0) == 4.0,
        "quantiles: interpolated between ranks");
  Check(Quantile({}, 0.9) == 0.0, "quantiles: 0 for no samples");
  // Never-completed requests count as infinitely late: a quantile that
  // falls among them is infinite, never NaN (inf - inf).
  const std::vector<double> late = {1, 2, 3, 4, 5, 6, 7, INFINITY, INFINITY, INFINITY};
  Check(Quantile(late, 0.5) == 5.5, "quantiles: finite below the infinite samples");
  Check(std::isinf(Quantile(late, 0.7)), "quantiles: infinite between a finite and an infinite rank");
  Check(std::isinf(Quantile(late, 0.9)) && std::isinf(Quantile(late, 1.0)),
        "quantiles: infinite among several infinite samples");
  Check(!(Quantile(late, 0.9) <= 500.0), "quantiles: infinitely late misses any limit");
}

void SelfTimeArithmetic() {
  // root [0, 10] with 1 s of distance time of its own; children [1, 3] and
  // [2, 5] overlap (union 4 s) and hold 0.5 s of distance time between them.
  Tracer t;
  Span root{"root", 1, -1, 0.0, 10.0, 5, 0, 2000000000ull};
  const int r = t.Add(root);
  Span a{"a", 1, r, 1.0, 3.0, 2, 0, 500000000ull};
  Span b{"b", 1, r, 2.0, 5.0, 1, 0, 500000000ull};
  const int ia = t.Add(a);
  t.Add(b);
  Span leaf{"leaf", 1, ia, 1.5, 2.0, 0, 0, 0};
  t.Add(leaf);
  // root: 10 - 4 (children union) - (2 - 1) (own distance) = 5.
  Check(std::fabs(t.SelfSeconds(r) - 5.0) < 1e-9, "spans: self time of root");
  // a: 2 - 0.5 (leaf) - 0.5 (distance) = 1.
  Check(std::fabs(t.SelfSeconds(ia) - 1.0) < 1e-9, "spans: self time of a nested span");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::InputsAreDeterministic();
  perfbench::OracleFlagsWrongDistances();
  perfbench::OracleHonoursTheWriteLog();
  perfbench::QuantilesOfInfiniteSamples();
  perfbench::SelfTimeArithmetic();
  std::printf("%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
