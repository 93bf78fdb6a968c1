// Wire-level contracts of the serving tier: checksummed framing round
// trips, corruption and truncation surface as kMalformed (never a hang or
// a garbage decode), receives are deadline-bounded, the payload codecs are
// strict about short reads and trailing bytes, and the CNED_FAULT grammar
// parses deterministically and names exactly the request classes the
// worker emits.

#include "serve/frame.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/fault.h"
#include "serve/wire.h"

namespace cned {
namespace {

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) close(fds[0]);
    if (fds[1] >= 0) close(fds[1]);
  }
  int fds[2] = {-1, -1};
};

TEST(ServeFrameTest, RoundTripsPayloadTypeSequenceAndQueryId) {
  SocketPair sp;
  PayloadWriter w;
  w.U32(7);
  w.U64(123456789012345ull);
  w.I32(-42);
  w.F64(2.5);
  w.Str("hello frame");
  ASSERT_TRUE(SendFrame(sp.fds[0], FrameType::kBeginRow, 99, 1234, w.buf.data(),
                        w.buf.size()));
  Frame f;
  ASSERT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kOk);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kBeginRow));
  EXPECT_EQ(f.seq, 99u);
  EXPECT_EQ(f.qid, 1234u);
  PayloadReader r(f.payload);
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 123456789012345ull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.F64(), 2.5);
  EXPECT_EQ(r.Str(), "hello frame");
  EXPECT_TRUE(r.Done());
}

TEST(ServeFrameTest, EmptyPayloadRoundTrips) {
  SocketPair sp;
  ASSERT_TRUE(SendFrame(sp.fds[0], FrameType::kPing, 1, 0, nullptr, 0));
  Frame f;
  ASSERT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kOk);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kPing));
  EXPECT_EQ(f.qid, 0u);
  EXPECT_TRUE(f.payload.empty());
}

TEST(ServeFrameTest, CorruptCrcIsMalformed) {
  SocketPair sp;
  const char payload[] = "payload bytes";
  ASSERT_TRUE(SendFrame(sp.fds[0], FrameType::kReply, 5, 0, payload,
                        sizeof(payload), /*corrupt_crc=*/true));
  Frame f;
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kMalformed);
}

TEST(ServeFrameTest, OversizedLengthAndUnknownTypeAreMalformed) {
  {
    // Header whose length field claims > kMaxFramePayload.
    SocketPair sp;
    std::uint32_t header[5] = {kMaxFramePayload + 1,
                               static_cast<std::uint32_t>(FrameType::kReply),
                               1, 0, 0};
    ASSERT_EQ(send(sp.fds[0], header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    Frame f;
    EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kMalformed);
  }
  {
    // Type outside the known range.
    SocketPair sp;
    std::uint32_t header[5] = {0, kMaxFrameType + 1, 1, 0, 0};
    ASSERT_EQ(send(sp.fds[0], header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    Frame f;
    EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kMalformed);
  }
}

TEST(ServeFrameTest, RetiredFrameTypesAreMalformed) {
  // The per-candidate protocol's types (BeginLazy, Eval, Step, StepRow,
  // DeltaScan, EndSweep) are unassigned: a peer still speaking it is a
  // corrupt stream, not a request to answer.
  for (const std::uint32_t type : {2u, 4u, 5u, 6u, 12u, 13u}) {
    EXPECT_FALSE(KnownFrameType(type)) << type;
    FrameBuffer fb;
    std::uint32_t header[5] = {0, type, 1, 0, 0};
    fb.Append(header, sizeof(header));
    Frame f;
    EXPECT_EQ(fb.Pop(&f), FrameBuffer::Next::kMalformed) << type;
  }
  // The shard query keeps the historical enumerator and value.
  EXPECT_EQ(static_cast<std::uint32_t>(FrameType::kBeginRow), 3u);
  for (const FrameType t : {FrameType::kPing, FrameType::kBeginRow,
                            FrameType::kShutdown, FrameType::kReply,
                            FrameType::kError, FrameType::kInsert,
                            FrameType::kRemove}) {
    EXPECT_TRUE(KnownFrameType(static_cast<std::uint32_t>(t)));
  }
}

TEST(ServeFrameTest, ShardQueryAndAnswerRoundTripStrictly) {
  const std::vector<double> row = {1.0, 0.5, 3.25};
  PayloadWriter w;
  EncodeShardQuery(w, "query", 4, 2.5, row.data(), row.size());
  {
    PayloadReader r(w.buf);
    std::string q;
    std::uint64_t k = 0;
    double cap = 0.0;
    std::vector<double> got;
    ASSERT_TRUE(DecodeShardQuery(r, row.size(), &q, &k, &cap, &got));
    EXPECT_EQ(q, "query");
    EXPECT_EQ(k, 4u);
    EXPECT_EQ(cap, 2.5);
    EXPECT_EQ(got, row);
  }
  {
    // A row of the wrong width is malformed, not silently truncated.
    PayloadReader r(w.buf);
    std::string q;
    std::uint64_t k = 0;
    double cap = 0.0;
    std::vector<double> got;
    EXPECT_FALSE(DecodeShardQuery(r, row.size() + 1, &q, &k, &cap, &got));
  }

  ShardAnswer a;
  a.hits = {{7, 0.5}, {3, 1.0}, {9, 1.0}};
  a.computations = 11;
  a.abandons = 4;
  PayloadWriter aw;
  EncodeShardAnswer(aw, a);
  ShardAnswer b;
  ASSERT_TRUE(DecodeShardAnswer(aw.buf, 3, &b));
  ASSERT_EQ(b.hits.size(), 3u);
  EXPECT_EQ(b.hits[2].index, 9u);
  EXPECT_EQ(b.computations, 11u);
  EXPECT_EQ(b.abandons, 4u);
  // More hits than asked for, a flipped count byte, trailing bytes and
  // out-of-order hits are all malformed.
  EXPECT_FALSE(DecodeShardAnswer(aw.buf, 2, &b));
  std::vector<char> mangled = aw.buf;
  mangled[0] ^= 0x01;
  EXPECT_FALSE(DecodeShardAnswer(mangled, 3, &b));
  std::vector<char> trailing = aw.buf;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeShardAnswer(trailing, 3, &b));
  ShardAnswer unsorted;
  unsorted.hits = {{3, 1.0}, {7, 0.5}};
  PayloadWriter uw;
  EncodeShardAnswer(uw, unsorted);
  EXPECT_FALSE(DecodeShardAnswer(uw.buf, 3, &b));
}

TEST(ServeFrameTest, MergeTopKKeepsEachIdOnceInDistanceIdOrder) {
  const auto merged =
      MergeTopK({{5, 2.0}, {1, 1.0}, {5, 2.0}, {3, 1.0}, {8, 0.5}}, 4);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].index, 8u);
  EXPECT_EQ(merged[1].index, 1u);  // equal distance: lower id first
  EXPECT_EQ(merged[2].index, 3u);
  EXPECT_EQ(merged[3].index, 5u);
  EXPECT_EQ(SeedCap({{1, 3.0}, {2, 1.0}, {3, 2.0}}, 2), 2.0);
  EXPECT_EQ(SeedCap({{1, 3.0}}, 2), std::numeric_limits<double>::infinity());
}

TEST(ServeFrameTest, RecvTimesOutInsteadOfHanging) {
  SocketPair sp;
  Frame f;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 50), RecvStatus::kTimeout);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 45);
  EXPECT_LT(elapsed, 5000);
}

TEST(ServeFrameTest, TruncatedFrameThenCloseIsNotOk) {
  SocketPair sp;
  // Half a header, then EOF: the receive must fail (closed), not decode.
  std::uint32_t half[2] = {16, static_cast<std::uint32_t>(FrameType::kReply)};
  ASSERT_EQ(send(sp.fds[0], half, sizeof(half), 0),
            static_cast<ssize_t>(sizeof(half)));
  close(sp.fds[0]);
  sp.fds[0] = -1;
  Frame f;
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kClosed);
}

// Regression: the remaining-time-to-ms conversion used to truncate, so a
// sub-millisecond budget became poll(0)=timeout even with a complete frame
// already sitting in the socket buffer. A zero/near-zero timeout must still
// drain buffered data — it means "take what's there", not "fail fast".
TEST(ServeFrameTest, ZeroTimeoutStillDrainsBufferedFrame) {
  SocketPair sp;
  const char payload[] = "already buffered";
  ASSERT_TRUE(
      SendFrame(sp.fds[0], FrameType::kReply, 7, 3, payload, sizeof(payload)));
  Frame f;
  ASSERT_EQ(RecvFrame(sp.fds[1], &f, 0), RecvStatus::kOk);
  EXPECT_EQ(f.seq, 7u);
  EXPECT_EQ(f.qid, 3u);

  // And with nothing buffered, a zero timeout fails fast, not a hang.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 0), RecvStatus::kTimeout);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 1000);
}

TEST(ServeFrameBufferTest, PopsMultipleFramesFromOneAppend) {
  std::vector<char> bytes;
  PayloadWriter w1;
  w1.U64(11);
  PayloadWriter w2;
  w2.Str("second");
  ASSERT_TRUE(EncodeFrame(&bytes, FrameType::kReply, 1, 100, w1.buf.data(),
                          w1.buf.size()));
  ASSERT_TRUE(EncodeFrame(&bytes, FrameType::kError, 2, 200, w2.buf.data(),
                          w2.buf.size()));
  ASSERT_TRUE(EncodeFrame(&bytes, FrameType::kShutdown, 3, 300, nullptr, 0));

  FrameBuffer fb;
  fb.Append(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kFrame);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kReply));
  EXPECT_EQ(f.seq, 1u);
  EXPECT_EQ(f.qid, 100u);
  PayloadReader r1(f.payload);
  EXPECT_EQ(r1.U64(), 11u);
  ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kFrame);
  EXPECT_EQ(f.qid, 200u);
  PayloadReader r2(f.payload);
  EXPECT_EQ(r2.Str(), "second");
  ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kFrame);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kShutdown));
  EXPECT_TRUE(f.payload.empty());
  EXPECT_EQ(fb.Pop(&f), FrameBuffer::Next::kNeedMore);
  EXPECT_EQ(fb.buffered_bytes(), 0u);
}

TEST(ServeFrameBufferTest, PartialFrameWaitsAcrossAppends) {
  std::vector<char> bytes;
  PayloadWriter w;
  w.Str("split across reads");
  ASSERT_TRUE(
      EncodeFrame(&bytes, FrameType::kBeginRow, 9, 42, w.buf.data(), w.buf.size()));

  FrameBuffer fb;
  Frame f;
  // Feed one byte at a time: never a false frame, never a lost byte.
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    fb.Append(&bytes[i], 1);
    ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kNeedMore) << "at byte " << i;
  }
  fb.Append(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kFrame);
  EXPECT_EQ(f.seq, 9u);
  EXPECT_EQ(f.qid, 42u);
  PayloadReader r(f.payload);
  EXPECT_EQ(r.Str(), "split across reads");
}

TEST(ServeFrameBufferTest, MalformedPoisonsTheStream) {
  FrameBuffer fb;
  std::uint32_t header[5] = {0, kMaxFrameType + 1, 1, 0, 0};
  fb.Append(header, sizeof(header));
  Frame f;
  EXPECT_EQ(fb.Pop(&f), FrameBuffer::Next::kMalformed);
  // A valid frame appended afterwards must NOT resynchronise the stream.
  std::vector<char> good;
  ASSERT_TRUE(EncodeFrame(&good, FrameType::kPing, 1, 0, nullptr, 0));
  fb.Append(good.data(), good.size());
  EXPECT_EQ(fb.Pop(&f), FrameBuffer::Next::kMalformed);
}

TEST(ServeFrameBufferTest, CrcMismatchIsMalformed) {
  std::vector<char> bytes;
  const char payload[] = "mangle me";
  ASSERT_TRUE(EncodeFrame(&bytes, FrameType::kReply, 1, 1, payload,
                          sizeof(payload), /*corrupt_crc=*/true));
  FrameBuffer fb;
  fb.Append(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(fb.Pop(&f), FrameBuffer::Next::kMalformed);
}

TEST(ServeFrameTest, ClosedPeerIsDetected) {
  SocketPair sp;
  close(sp.fds[0]);
  sp.fds[0] = -1;
  Frame f;
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kClosed);
}

TEST(ServeFrameTest, PayloadReaderRejectsShortAndTrailingBytes) {
  PayloadWriter w;
  w.U32(1);
  w.F64(3.5);
  {
    // Short read: asking for more than is there fails sticky.
    PayloadReader r(w.buf.data(), w.buf.size());
    r.U32();
    r.F64();
    EXPECT_TRUE(r.Done());
    EXPECT_EQ(r.U64(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.Done());
  }
  {
    // Trailing garbage is as malformed as a short read.
    PayloadReader r(w.buf.data(), w.buf.size());
    r.U32();
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r.Done());
  }
  {
    // A string whose length prefix overruns the payload.
    PayloadWriter bad;
    bad.U32(1000);  // claims 1000 bytes, none follow
    PayloadReader r(bad.buf.data(), bad.buf.size());
    EXPECT_EQ(r.Str(), "");
    EXPECT_FALSE(r.ok());
  }
}

TEST(ServeFaultTest, ParsesFullGrammar) {
  const FaultSpec spec = FaultSpec::Parse(
      "crash:shard=1,op=query,nth=3|delay:op=ping,every=2,ms=50|drop:|"
      "corrupt:shard=0,op=insert|mangle:op=remove");
  ASSERT_EQ(spec.directives.size(), 5u);
  EXPECT_EQ(spec.directives[0].kind, FaultDirective::Kind::kCrash);
  EXPECT_EQ(spec.directives[0].shard, 1);
  EXPECT_EQ(spec.directives[0].op, "query");
  EXPECT_EQ(spec.directives[0].nth, 3u);
  EXPECT_EQ(spec.directives[1].kind, FaultDirective::Kind::kDelay);
  EXPECT_EQ(spec.directives[1].op, "ping");
  EXPECT_EQ(spec.directives[1].every, 2u);
  EXPECT_EQ(spec.directives[1].ms, 50u);
  EXPECT_EQ(spec.directives[1].shard, -1);
  EXPECT_EQ(spec.directives[2].kind, FaultDirective::Kind::kDrop);
  EXPECT_EQ(spec.directives[3].kind, FaultDirective::Kind::kCorrupt);
  EXPECT_EQ(spec.directives[3].shard, 0);
  EXPECT_EQ(spec.directives[3].op, "insert");
  EXPECT_EQ(spec.directives[4].kind, FaultDirective::Kind::kMangle);
  EXPECT_EQ(spec.directives[4].op, "remove");
  EXPECT_TRUE(FaultSpec::Parse("").empty());
}

TEST(ServeFaultTest, EveryOpClassTheWorkerEmitsParses) {
  // Every request type the worker classifies into a named class must be
  // selectable by `op=`, so a mutation or a query can be targeted.
  std::size_t named = 0;
  for (std::uint32_t t = 1; t <= kMaxFrameType; ++t) {
    if (!KnownFrameType(t)) continue;
    const std::string op = FaultOpClass(static_cast<FrameType>(t));
    if (op == "other") continue;
    ++named;
    const FaultSpec spec = FaultSpec::Parse("crash:op=" + op);
    ASSERT_EQ(spec.directives.size(), 1u) << op;
    EXPECT_EQ(spec.directives[0].op, op);
  }
  EXPECT_EQ(named, std::size(kFaultOps));
  EXPECT_STREQ(FaultOpClass(FrameType::kBeginRow), "query");
  EXPECT_STREQ(FaultOpClass(FrameType::kInsert), "insert");
  EXPECT_STREQ(FaultOpClass(FrameType::kRemove), "remove");
  EXPECT_STREQ(FaultOpClass(FrameType::kPing), "ping");
}

TEST(ServeFaultTest, RetiredOpNamesThrow) {
  // A schedule written for the per-candidate protocol must fail loudly
  // instead of silently never firing.
  for (const char* op : {"begin", "eval", "step", "scan"}) {
    EXPECT_THROW(FaultSpec::Parse(std::string("crash:op=") + op),
                 std::invalid_argument)
        << op;
  }
}

TEST(ServeFaultTest, RejectsUnknownKindsKeysOpsAndValues) {
  EXPECT_THROW(FaultSpec::Parse("explode:shard=1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("crash:when=now"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("crash:op=everything"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("delay:ms=abc"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("crash:shard="), std::invalid_argument);
}

TEST(ServeFaultTest, NthFiresExactlyOnceAndCountsPerDirective) {
  FaultInjector inj(FaultSpec::Parse("crash:op=query,nth=3"), /*shard=*/0);
  EXPECT_FALSE(inj.OnRequest("query").crash);
  EXPECT_FALSE(inj.OnRequest("ping").crash);  // non-matching: no count
  EXPECT_FALSE(inj.OnRequest("query").crash);
  EXPECT_TRUE(inj.OnRequest("query").crash);  // 3rd matching request
  EXPECT_FALSE(inj.OnRequest("query").crash);
}

TEST(ServeFaultTest, EveryFiresPeriodicallyAndShardFilters) {
  FaultInjector hit(FaultSpec::Parse("delay:shard=2,every=2,ms=7"),
                    /*shard=*/2);
  EXPECT_EQ(hit.OnRequest("query").delay_ms, 0u);
  EXPECT_EQ(hit.OnRequest("query").delay_ms, 7u);
  EXPECT_EQ(hit.OnRequest("query").delay_ms, 0u);
  EXPECT_EQ(hit.OnRequest("query").delay_ms, 7u);

  FaultInjector miss(FaultSpec::Parse("delay:shard=2,every=1,ms=7"),
                     /*shard=*/1);
  EXPECT_EQ(miss.OnRequest("query").delay_ms, 0u);

  // No nth/every: fires on every match.
  FaultInjector always(FaultSpec::Parse("corrupt:op=query"), /*shard=*/0);
  EXPECT_TRUE(always.OnRequest("query").corrupt);
  EXPECT_TRUE(always.OnRequest("query").corrupt);
  EXPECT_FALSE(always.OnRequest("insert").corrupt);
}

TEST(ServeFaultTest, ReplicaSelectorTargetsOneGroupMember) {
  const FaultSpec spec = FaultSpec::Parse("crash:op=query,nth=1,replica=0");
  ASSERT_EQ(spec.directives.size(), 1u);
  EXPECT_EQ(spec.directives[0].replica, 0);

  // Same spec, same shard, different group ordinal: only replica 0 fires.
  FaultInjector primary(spec, /*shard=*/1, /*replica=*/0);
  FaultInjector standby(spec, /*shard=*/1, /*replica=*/1);
  EXPECT_TRUE(primary.OnRequest("query").crash);
  EXPECT_FALSE(standby.OnRequest("query").crash);

  // No replica key: -1, fires on every member (whole-group faults).
  const FaultSpec all = FaultSpec::Parse("crash:op=query,nth=1");
  EXPECT_EQ(all.directives[0].replica, -1);
  FaultInjector m0(all, /*shard=*/0, /*replica=*/0);
  FaultInjector m1(all, /*shard=*/0, /*replica=*/1);
  EXPECT_TRUE(m0.OnRequest("query").crash);
  EXPECT_TRUE(m1.OnRequest("query").crash);

  EXPECT_THROW(FaultSpec::Parse("crash:replica="), std::invalid_argument);
}

TEST(ServeFaultTest, MangleKindFlagsPayloadCorruption) {
  FaultInjector inj(FaultSpec::Parse("mangle:op=query,nth=2,replica=1"),
                    /*shard=*/3, /*replica=*/1);
  const auto first = inj.OnRequest("query");
  EXPECT_FALSE(first.mangle);
  const auto second = inj.OnRequest("query");
  EXPECT_TRUE(second.mangle);
  // Mangle is byte-corruption with a *valid* CRC: distinct from corrupt.
  EXPECT_FALSE(second.corrupt);
  EXPECT_FALSE(second.crash);
}

}  // namespace
}  // namespace cned
