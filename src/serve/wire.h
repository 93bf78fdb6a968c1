#ifndef CNED_SERVE_WIRE_H_
#define CNED_SERVE_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "serve/frame.h"
#include "serve/replica.h"

namespace cned {

/// Payload codecs of the shard query (`FrameType::kBeginRow`), the one
/// request a served read sends each shard. Layouts are documented on the
/// enumerator in serve/frame.h.

inline void EncodeShardQuery(PayloadWriter& w, std::string_view query,
                             std::size_t k, double cap, const double* row,
                             std::size_t np) {
  w.Str(query);
  w.U64(k);
  w.F64(cap);
  w.U64(np);
  w.Raw(row, np * sizeof(double));
}

/// Decodes a shard query whose row must hold exactly `np` entries. The
/// row is copied out: it sits at an arbitrary offset inside the payload
/// (behind the length-prefixed query), and the sweep kernels want an
/// aligned double array. False on any malformed field.
inline bool DecodeShardQuery(PayloadReader& r, std::size_t np,
                             std::string* query, std::uint64_t* k,
                             double* cap, std::vector<double>* row) {
  *query = r.Str();
  *k = r.U64();
  *cap = r.F64();
  const std::uint64_t got_np = r.U64();
  const char* bytes =
      r.ok() && got_np == np ? r.Raw(np * sizeof(double)) : nullptr;
  if (bytes == nullptr || !r.Done()) return false;
  row->resize(np);
  if (np > 0) std::memcpy(row->data(), bytes, np * sizeof(double));
  return true;
}

inline void EncodeShardAnswer(PayloadWriter& w, const ShardAnswer& a) {
  w.U64(a.hits.size());
  for (const NeighborResult& h : a.hits) {
    w.U64(h.index);
    w.F64(h.distance);
  }
  w.U64(a.computations);
  w.U64(a.abandons);
}

/// Decodes a shard's answer to a query for `k` neighbours. A reply that
/// claims more than k hits or hits out of (distance, id) order is as
/// malformed as a short one: the router never merges it.
inline bool DecodeShardAnswer(const std::vector<char>& payload, std::size_t k,
                              ShardAnswer* out) {
  PayloadReader r(payload);
  const std::uint64_t count = r.U64();
  if (!r.ok() || count > k) return false;
  out->hits.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    NeighborResult h;
    h.index = static_cast<std::size_t>(r.U64());
    h.distance = r.F64();
    if (!r.ok() || (i > 0 && !NeighborLess(out->hits.back(), h))) return false;
    out->hits.push_back(h);
  }
  out->computations = r.U64();
  out->abandons = r.U64();
  return r.Done();
}

}  // namespace cned

#endif  // CNED_SERVE_WIRE_H_
