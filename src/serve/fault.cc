#include "serve/fault.h"

#include <cstddef>
#include <stdexcept>

namespace cned {
namespace {

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::uint64_t ParseU64(const std::string& text, const std::string& what) {
  if (text.empty()) {
    throw std::invalid_argument("CNED_FAULT: empty value for " + what);
  }
  std::uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("CNED_FAULT: non-numeric value for " + what +
                                  ": '" + text + "'");
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

const char* FaultOpClass(FrameType type) {
  for (const FaultOp& op : kFaultOps) {
    if (op.type == type) return op.name;
  }
  return "other";
}

FaultSpec FaultSpec::Parse(const std::string& text) {
  FaultSpec spec;
  if (text.empty()) return spec;
  for (const std::string& part : Split(text, '|')) {
    if (part.empty()) continue;
    const std::size_t colon = part.find(':');
    const std::string kind_name = part.substr(0, colon);
    FaultDirective d;
    if (kind_name == "delay") {
      d.kind = FaultDirective::Kind::kDelay;
    } else if (kind_name == "drop") {
      d.kind = FaultDirective::Kind::kDrop;
    } else if (kind_name == "crash") {
      d.kind = FaultDirective::Kind::kCrash;
    } else if (kind_name == "corrupt") {
      d.kind = FaultDirective::Kind::kCorrupt;
    } else if (kind_name == "mangle") {
      d.kind = FaultDirective::Kind::kMangle;
    } else {
      throw std::invalid_argument("CNED_FAULT: unknown fault kind '" +
                                  kind_name + "'");
    }
    if (colon != std::string::npos && colon + 1 < part.size()) {
      for (const std::string& kv : Split(part.substr(colon + 1), ',')) {
        if (kv.empty()) continue;
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          throw std::invalid_argument("CNED_FAULT: expected key=value, got '" +
                                      kv + "'");
        }
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        if (key == "shard") {
          d.shard = static_cast<std::int64_t>(ParseU64(val, key));
        } else if (key == "replica") {
          d.replica = static_cast<std::int64_t>(ParseU64(val, key));
        } else if (key == "op") {
          bool known = false;
          std::string want;
          for (const FaultOp& op : kFaultOps) {
            known = known || val == op.name;
            want += want.empty() ? op.name : std::string("|") + op.name;
          }
          if (!known) {
            throw std::invalid_argument("CNED_FAULT: unknown op '" + val +
                                        "' (want " + want + ")");
          }
          d.op = val;
        } else if (key == "nth") {
          d.nth = ParseU64(val, key);
          if (d.nth == 0) {
            throw std::invalid_argument("CNED_FAULT: nth is 1-based");
          }
        } else if (key == "every") {
          d.every = ParseU64(val, key);
          if (d.every == 0) {
            throw std::invalid_argument("CNED_FAULT: every must be >= 1");
          }
        } else if (key == "ms") {
          d.ms = ParseU64(val, key);
        } else {
          throw std::invalid_argument("CNED_FAULT: unknown key '" + key + "'");
        }
      }
    }
    spec.directives.push_back(d);
  }
  return spec;
}

FaultInjector::Action FaultInjector::OnRequest(const std::string& op) {
  Action action;
  for (std::size_t i = 0; i < spec_.directives.size(); ++i) {
    const FaultDirective& d = spec_.directives[i];
    if (d.shard >= 0 && d.shard != shard_) continue;
    if (d.replica >= 0 && d.replica != replica_) continue;
    if (!d.op.empty() && d.op != op) continue;
    const std::uint64_t count = ++counts_[i];
    bool fires = true;
    if (d.nth != 0) fires = (count == d.nth);
    if (d.every != 0) fires = fires && (count % d.every == 0);
    if (!fires) continue;
    switch (d.kind) {
      case FaultDirective::Kind::kDelay:
        action.delay_ms += d.ms;
        break;
      case FaultDirective::Kind::kDrop:
        action.drop = true;
        break;
      case FaultDirective::Kind::kCrash:
        action.crash = true;
        break;
      case FaultDirective::Kind::kCorrupt:
        action.corrupt = true;
        break;
      case FaultDirective::Kind::kMangle:
        action.mangle = true;
        break;
    }
  }
  return action;
}

}  // namespace cned
