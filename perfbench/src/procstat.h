#ifndef PERFBENCH_PROCSTAT_H_
#define PERFBENCH_PROCSTAT_H_

// Process counters sampled from outside the program, via /proc and
// getrusage, at phase boundaries.

#include <sys/types.h>

#include <cstdint>

namespace perfbench {

struct ProcSample {
  bool ok = false;               // every file was readable
  double cpu_ms = 0.0;           // user + system
  std::uint64_t ctx_switches = 0;  // voluntary + nonvoluntary
  double rss_mb = 0.0;           // VmRSS
};

/// Counters of process `pid` (its /proc/<pid>/{stat,status}).
///
/// /proc/<pid>/io is not read: it counts only read/write-family calls, and
/// the serving tier moves its frames with send/recv, so its syscall and
/// byte counts stay near zero whatever the protocol does.
ProcSample SampleProcess(pid_t pid);
/// Counters of this process; cpu from getrusage (finer than clock ticks).
ProcSample SampleSelf();

ProcSample operator-(const ProcSample& a, const ProcSample& b);

}  // namespace perfbench

#endif  // PERFBENCH_PROCSTAT_H_
