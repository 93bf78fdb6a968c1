#include "serve/worker.h"

#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/fault.h"
#include "serve/frame.h"
#include "serve/replica.h"
#include "serve/wire.h"

namespace cned {
namespace {

void SleepMs(std::uint64_t ms) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000);
  while (nanosleep(&ts, &ts) != 0) {
  }
}

/// Flush the reply outbox past this size even with more requests pending,
/// bounding worker memory under a slow router.
constexpr std::size_t kFlushBytes = std::size_t{256} * 1024;

void EncodeError(std::vector<char>* out, std::uint32_t seq, std::uint32_t qid,
                 const std::string& message, bool corrupt) {
  PayloadWriter w;
  w.Str(message);
  EncodeFrame(out, FrameType::kError, seq, qid, w.buf.data(), w.buf.size(),
              corrupt);
}

}  // namespace

// The worker is a single-threaded drain loop: read whatever the socket
// holds, process EVERY complete buffered request, then flush all replies
// with one send — concurrent queries' requests that arrive together cost
// one wakeup and two syscalls. Shard queries are stateless, so requests
// from different queries cannot see each other. A crash fault inside a
// batch loses the batch's unflushed replies too — exactly the kill -9
// semantics the router already handles.
int RunShardWorker(int fd, const WorkerConfig& config) {
  FaultInjector injector(FaultSpec::Parse(config.fault_spec),
                         config.shard_id, config.replica_id);

  // Snapshot load failures are reported on the first request rather than
  // silently dying: keep the error and answer every request with it.
  std::unique_ptr<ShardReplica> replica;
  std::string load_error;
  try {
    replica = std::make_unique<ShardReplica>(
        config.store_path, config.index_path, config.distance);
  } catch (const std::exception& e) {
    load_error = e.what();
  }

  FrameBuffer inbuf;
  std::vector<char> outbox;
  char chunk[64 * 1024];
  for (;;) {
    Frame req;
    const FrameBuffer::Next next = inbuf.Pop(&req);
    if (next == FrameBuffer::Next::kMalformed) return 1;
    if (next == FrameBuffer::Next::kNeedMore) {
      // Out of complete requests: flush everything we owe before blocking,
      // or the router would wait on replies we are sitting on.
      if (!outbox.empty()) {
        if (!SendBytes(fd, outbox.data(), outbox.size())) return 1;
        outbox.clear();
      }
      const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
      if (r == 0) return 0;  // clean EOF: router closed the connection
      if (r < 0) {
        if (errno == EINTR) continue;
        return 1;
      }
      inbuf.Append(chunk, static_cast<std::size_t>(r));
      continue;
    }
    const FrameType type = static_cast<FrameType>(req.type);

    const FaultInjector::Action action = injector.OnRequest(FaultOpClass(type));
    if (action.crash) _exit(137);  // the kill -9 stand-in
    if (action.delay_ms > 0) SleepMs(action.delay_ms);
    if (action.drop) continue;

    if (type == FrameType::kShutdown) {
      EncodeFrame(&outbox, FrameType::kReply, req.seq, req.qid, nullptr, 0);
      SendBytes(fd, outbox.data(), outbox.size());
      return 0;
    }
    if (replica == nullptr) {
      EncodeError(&outbox, req.seq, req.qid,
                  "shard snapshot load failed: " + load_error, action.corrupt);
      continue;
    }

    PayloadWriter reply;
    bool ok = true;
    std::string error;
    try {
      PayloadReader r(req.payload);
      switch (type) {
        case FrameType::kPing: {
          reply.U64(replica->shard_id());
          reply.U64(config.replica_id);
          break;
        }
        case FrameType::kBeginRow: {
          std::string query;
          std::uint64_t k = 0;
          double cap = 0.0;
          std::vector<double> row;
          if (!DecodeShardQuery(r, replica->num_pivots(), &query, &k, &cap,
                                &row)) {
            throw std::runtime_error("malformed shard query");
          }
          EncodeShardAnswer(reply,
                            replica->Query(query, static_cast<std::size_t>(k),
                                           row.data(), cap));
          break;
        }
        case FrameType::kInsert: {
          const std::uint64_t id = r.U64();
          const std::string s = r.Str();
          if (!r.Done()) throw std::runtime_error("malformed Insert");
          replica->Insert(id, s);
          // Dedup-stable reply: the delta count after this id is applied is
          // the same whether this delivery was first or a retry, so a lost
          // reply re-sent still byte-agrees across the group.
          reply.U64(replica->delta_count());
          break;
        }
        case FrameType::kRemove: {
          const std::uint64_t id = r.U64();
          if (!r.Done()) throw std::runtime_error("malformed Remove");
          replica->Remove(id);
          // Dedup-stable for the same reason as kInsert.
          reply.U64(replica->total_dead());
          break;
        }
        default: {
          throw std::runtime_error("unexpected frame type " +
                                   std::to_string(req.type));
        }
      }
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    }

    // A mangled reply is byte-wrong but CRC-valid: the frame layer cannot
    // catch it, only the router's reply validation and replica audit can.
    if (action.mangle && !reply.buf.empty()) reply.buf[0] ^= 0x01;
    if (ok) {
      EncodeFrame(&outbox, FrameType::kReply, req.seq, req.qid,
                  reply.buf.data(), reply.buf.size(), action.corrupt);
    } else {
      EncodeError(&outbox, req.seq, req.qid, error, action.corrupt);
    }
    if (outbox.size() >= kFlushBytes) {
      if (!SendBytes(fd, outbox.data(), outbox.size())) return 1;
      outbox.clear();
    }
  }
}

}  // namespace cned
