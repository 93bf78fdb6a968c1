#include "serve/frame.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/crc32.h"

namespace cned {
namespace {

constexpr std::size_t kHeaderBytes = 20;

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`, rounded *up* (sub-millisecond
/// remainders poll for 1ms instead of truncating to a premature 0);
/// clamped at 0 once the deadline passed; -1 for "no deadline".
int RemainingMs(bool bounded, Clock::time_point deadline) {
  if (!bounded) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 0;
  return static_cast<int>((left + 999) / 1000);
}

/// Reads exactly `n` bytes, polling against the deadline between chunks.
RecvStatus RecvExact(int fd, char* out, std::size_t n, bool bounded,
                     Clock::time_point deadline) {
  std::size_t got = 0;
  bool polled = false;
  while (got < n) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int wait = RemainingMs(bounded, deadline);
    // Even with the deadline already passed, poll once non-blockingly: a
    // frame that is fully buffered in the socket must still be drained
    // (timeout_ms == 0 means "take what's there", not "fail").
    if (bounded && wait == 0 && polled) return RecvStatus::kTimeout;
    const int pr = ::poll(&pfd, 1, wait);
    polled = true;
    if (pr == 0) {
      if (RemainingMs(bounded, deadline) > 0) continue;  // woke early
      return RecvStatus::kTimeout;
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      return RecvStatus::kClosed;
    }
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r == 0) return RecvStatus::kClosed;
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return RecvStatus::kClosed;
    }
    got += static_cast<std::size_t>(r);
  }
  return RecvStatus::kOk;
}

bool SendExact(int fd, const char* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that died between frames must surface as an
    // error return, not a SIGPIPE that kills the router.
    const ssize_t r = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

void EncodeHeader(char* header, std::uint32_t len, std::uint32_t type,
                  std::uint32_t seq, std::uint32_t qid, std::uint32_t crc) {
  std::memcpy(header + 0, &len, 4);
  std::memcpy(header + 4, &type, 4);
  std::memcpy(header + 8, &seq, 4);
  std::memcpy(header + 12, &qid, 4);
  std::memcpy(header + 16, &crc, 4);
}

}  // namespace

bool EncodeFrame(std::vector<char>* out, FrameType type, std::uint32_t seq,
                 std::uint32_t qid, const void* payload,
                 std::size_t payload_bytes, bool corrupt_crc) {
  if (payload_bytes > kMaxFramePayload) return false;
  std::uint32_t crc = Crc32(payload, payload_bytes);
  if (corrupt_crc) crc ^= 0xDEADBEEFu;
  char header[kHeaderBytes];
  EncodeHeader(header, static_cast<std::uint32_t>(payload_bytes),
               static_cast<std::uint32_t>(type), seq, qid, crc);
  out->insert(out->end(), header, header + sizeof(header));
  const char* p = static_cast<const char*>(payload);
  out->insert(out->end(), p, p + payload_bytes);
  return true;
}

bool SendFrame(int fd, FrameType type, std::uint32_t seq, std::uint32_t qid,
               const void* payload, std::size_t payload_bytes,
               bool corrupt_crc) {
  if (payload_bytes > kMaxFramePayload) return false;
  std::uint32_t crc = Crc32(payload, payload_bytes);
  if (corrupt_crc) crc ^= 0xDEADBEEFu;
  char header[kHeaderBytes];
  EncodeHeader(header, static_cast<std::uint32_t>(payload_bytes),
               static_cast<std::uint32_t>(type), seq, qid, crc);
  if (!SendExact(fd, header, sizeof(header))) return false;
  return payload_bytes == 0 ||
         SendExact(fd, static_cast<const char*>(payload), payload_bytes);
}

bool SendBytes(int fd, const void* data, std::size_t n) {
  return SendExact(fd, static_cast<const char*>(data), n);
}

RecvStatus RecvFrame(int fd, Frame* out, int timeout_ms) {
  const bool bounded = timeout_ms >= 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(bounded ? timeout_ms : 0);

  char header[kHeaderBytes];
  RecvStatus st = RecvExact(fd, header, sizeof(header), bounded, deadline);
  if (st != RecvStatus::kOk) return st;
  std::uint32_t len = 0, type = 0, seq = 0, qid = 0, crc = 0;
  std::memcpy(&len, header + 0, 4);
  std::memcpy(&type, header + 4, 4);
  std::memcpy(&seq, header + 8, 4);
  std::memcpy(&qid, header + 12, 4);
  std::memcpy(&crc, header + 16, 4);
  if (len > kMaxFramePayload || !KnownFrameType(type)) {
    return RecvStatus::kMalformed;
  }
  out->type = type;
  out->seq = seq;
  out->qid = qid;
  out->payload.resize(len);
  if (len > 0) {
    st = RecvExact(fd, out->payload.data(), len, bounded, deadline);
    if (st != RecvStatus::kOk) return st;
  }
  if (Crc32(out->payload.data(), out->payload.size()) != crc) {
    return RecvStatus::kMalformed;
  }
  return RecvStatus::kOk;
}

void FrameBuffer::Append(const void* data, std::size_t n) {
  // Compact the consumed prefix before growing; keeps the buffer bounded
  // by the in-flight frames, not by connection lifetime.
  if (off_ > 0 && (off_ >= buf_.size() || off_ > (buf_.size() >> 1))) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  const char* p = static_cast<const char*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

FrameBuffer::Next FrameBuffer::Pop(Frame* out) {
  if (poisoned_) return Next::kMalformed;
  const std::size_t avail = buf_.size() - off_;
  if (avail < kHeaderBytes) return Next::kNeedMore;
  const char* header = buf_.data() + off_;
  std::uint32_t len = 0, type = 0, seq = 0, qid = 0, crc = 0;
  std::memcpy(&len, header + 0, 4);
  std::memcpy(&type, header + 4, 4);
  std::memcpy(&seq, header + 8, 4);
  std::memcpy(&qid, header + 12, 4);
  std::memcpy(&crc, header + 16, 4);
  if (len > kMaxFramePayload || !KnownFrameType(type)) {
    poisoned_ = true;
    return Next::kMalformed;
  }
  if (avail < kHeaderBytes + len) return Next::kNeedMore;
  const char* payload = header + kHeaderBytes;
  if (Crc32(payload, len) != crc) {
    poisoned_ = true;
    return Next::kMalformed;
  }
  out->type = type;
  out->seq = seq;
  out->qid = qid;
  out->payload.assign(payload, payload + len);
  off_ += kHeaderBytes + len;
  return Next::kFrame;
}

void PayloadWriter::Raw(const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  buf.insert(buf.end(), p, p + n);
}

std::string PayloadReader::Str() {
  const std::uint32_t n = U32();
  const char* p = Raw(n);
  return ok_ ? std::string(p, n) : std::string();
}

const char* PayloadReader::Raw(std::size_t n) {
  if (!ok_ || size_ - off_ < n) {
    ok_ = false;
    return nullptr;
  }
  const char* p = data_ + off_;
  off_ += n;
  return p;
}

}  // namespace cned
