#include "procstat.h"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

namespace {

// Value of a "key: value" line, as /proc/<pid>/status writes them.
bool ReadKeyed(const std::string& path, const char* key, std::uint64_t* out) {
  std::ifstream in(path);
  std::string line;
  const std::string want = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, want.size(), want) == 0) {
      std::istringstream rest(line.substr(want.size()));
      return static_cast<bool>(rest >> *out);
    }
  }
  return false;
}

}  // namespace

ProcSample SampleProcess(pid_t pid) {
  ProcSample s;
  const std::string dir = "/proc/" + std::to_string(pid) + "/";
  std::uint64_t vol = 0, nonvol = 0, rss_kb = 0;
  bool ok = ReadKeyed(dir + "status", "voluntary_ctxt_switches", &vol) &&
            ReadKeyed(dir + "status", "nonvoluntary_ctxt_switches", &nonvol) &&
            ReadKeyed(dir + "status", "VmRSS", &rss_kb);
  // stat: "pid (comm) state ..." -- utime and stime are fields 14 and 15;
  // comm may hold spaces, so count from the closing parenthesis.
  std::ifstream stat(dir + "stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) {
    ok = false;
  } else {
    std::istringstream fields(text.substr(close + 2));
    std::string skip;
    for (int i = 3; i < 14 && fields >> skip; ++i) {
    }
    std::uint64_t utime = 0, stime = 0;
    if (fields >> utime >> stime) {
      s.cpu_ms = 1e3 * static_cast<double>(utime + stime) /
                 static_cast<double>(sysconf(_SC_CLK_TCK));
    } else {
      ok = false;
    }
  }
  s.ok = ok;
  s.ctx_switches = vol + nonvol;
  s.rss_mb = static_cast<double>(rss_kb) / 1024.0;
  return s;
}

ProcSample SampleSelf() {
  ProcSample s = SampleProcess(getpid());
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    const auto ms = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) * 1e3 +
             static_cast<double>(t.tv_usec) * 1e-3;
    };
    s.cpu_ms = ms(ru.ru_utime) + ms(ru.ru_stime);
  }
  return s;
}

ProcSample operator-(const ProcSample& a, const ProcSample& b) {
  ProcSample d;
  d.ok = a.ok && b.ok;
  d.cpu_ms = a.cpu_ms - b.cpu_ms;
  d.ctx_switches = a.ctx_switches - b.ctx_switches;
  d.rss_mb = a.rss_mb;
  return d;
}

}  // namespace perfbench
