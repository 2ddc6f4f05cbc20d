// Unix-domain socket primitives for the serve daemon and its clients.
//
// Thin RAII wrappers over the POSIX socket calls with the failure
// discipline the rest of the tree uses (pals::Error with errno text) and
// the robustness properties a long-lived daemon needs:
//
//  * every send uses MSG_NOSIGNAL (plus ignore_sigpipe() for belt and
//    braces), so a client that vanished mid-reply produces a structured
//    error instead of killing the process with SIGPIPE;
//  * reads are line-oriented and bounded: read_line() enforces a maximum
//    line length so a malicious or broken peer cannot grow a buffer
//    without limit, and takes a poll timeout so a drain can interrupt an
//    idle connection;
//  * UnixListener::bind_or_replace implements the crash-only restart
//    contract — a stale socket file left by a SIGKILLed daemon is
//    detected (connect() refused) and replaced, while a live daemon on
//    the same path is refused.
//
// Windows has no AF_UNIX in our toolchain baseline; the implementation
// throws on every entry point there (mirrors shard/supervisor.cpp).
#pragma once

#include <cstddef>
#include <string>

namespace pals {

/// Ignore SIGPIPE process-wide. Long-running tools call this first thing
/// so writing into a closed pipe (| head, a dead client socket) surfaces
/// as an EPIPE write error instead of killing the process. No-op on
/// platforms without SIGPIPE.
void ignore_sigpipe();

/// Outcome of a bounded line read.
enum class ReadLineStatus {
  kLine,      ///< a complete '\n'-terminated line was read (without the \n)
  kEof,       ///< orderly shutdown by the peer (partial data, if any, is
              ///< reported in `line` so callers can diagnose mid-line cuts)
  kTimeout,   ///< the poll deadline elapsed with no complete line
  kOversize,  ///< the line exceeded the configured bound; the connection
              ///< cannot be resynchronized and should be closed
};

/// A connected stream socket (one end of an accepted or dialed
/// connection). Move-only; the destructor closes.
class UnixStream {
 public:
  UnixStream() = default;
  /// Adopt an already-connected descriptor (UnixListener::accept).
  explicit UnixStream(int fd) : fd_(fd) {}
  /// Dial `path`; throws pals::Error (with errno text) when nothing
  /// listens there.
  static UnixStream connect(const std::string& path);

  UnixStream(UnixStream&& other) noexcept;
  UnixStream& operator=(UnixStream&& other) noexcept;
  UnixStream(const UnixStream&) = delete;
  UnixStream& operator=(const UnixStream&) = delete;
  ~UnixStream();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Write all of `data`, retrying short writes, with MSG_NOSIGNAL.
  /// Returns false (instead of throwing) when the peer is gone (EPIPE /
  /// ECONNRESET) — the daemon treats that as "client disconnected
  /// mid-reply", a survivable event, not an error. Throws on any other
  /// failure.
  bool write_all(const std::string& data);

  /// Read one '\n'-terminated line into `line` (the '\n' is stripped; a
  /// '\r' before it too). At most `max_bytes` are buffered; crossing the
  /// bound returns kOversize. `timeout_seconds` bounds the wait for
  /// *progress* (each poll slice); <= 0 waits indefinitely. Data read
  /// beyond the first newline is retained for the next call.
  ReadLineStatus read_line(std::string& line, std::size_t max_bytes,
                           double timeout_seconds);

  void close();

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes past the last returned line
};

/// A listening Unix-domain socket bound to a filesystem path. Move-only;
/// the destructor closes and unlinks the path.
class UnixListener {
 public:
  /// Bind and listen on `path`. When the path is occupied by a *stale*
  /// socket (a previous daemon died without unlinking — the crash-only
  /// signature), it is unlinked and rebound; when a live daemon answers
  /// on it, throws "already serving". A non-socket file at the path is
  /// never touched (throws).
  static UnixListener bind_or_replace(const std::string& path,
                                      int backlog = kDefaultBacklog);

  /// Pending connections the kernel queues before refusing more.
  static constexpr int kDefaultBacklog = 64;

  UnixListener(UnixListener&& other) noexcept;
  UnixListener& operator=(UnixListener&& other) noexcept;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;
  ~UnixListener();

  bool valid() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Wait up to `timeout_seconds` for a connection; returns an invalid
  /// stream on timeout (the accept loop's poll slice). Throws on
  /// listener failure.
  UnixStream accept(double timeout_seconds);

  /// Stop accepting: close the descriptor and unlink the path (new
  /// connects fail with ECONNREFUSED/ENOENT immediately, which is the
  /// drain contract). Idempotent.
  void close();

 private:
  UnixListener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

}  // namespace pals
