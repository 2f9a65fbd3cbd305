// Minimal AF_UNIX stream transport for pilot-traced and its tests.
//
// Everything here is blocking and local-host only: the service listens on
// a filesystem socket path, clients connect to it, and the wire protocol
// on top (src/traced/protocol.hpp) is newline-delimited JSON with optional
// length-prefixed binary payloads. No network byte order games — both ends
// are the same machine by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>

namespace util {

/// One connected AF_UNIX stream endpoint (RAII over the fd). Movable, not
/// copyable. All reads/writes retry on EINTR and throw IoError on hard
/// failure; reads return false/empty on orderly peer shutdown.
class UnixConn {
public:
  UnixConn() = default;
  explicit UnixConn(int fd) : fd_(fd) {}
  ~UnixConn();
  UnixConn(UnixConn&& o) noexcept;
  UnixConn& operator=(UnixConn&& o) noexcept;
  UnixConn(const UnixConn&) = delete;
  UnixConn& operator=(const UnixConn&) = delete;

  /// Connect to a listening socket at `path`. Throws IoError on failure.
  static UnixConn connect_to(const std::filesystem::path& path);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close();

  /// Read up to `n` bytes; returns the count read, 0 on EOF.
  std::size_t read_some(void* buf, std::size_t n);
  /// Read exactly `n` bytes; returns false if EOF hit before any byte,
  /// throws IoError if EOF hits mid-read (truncated frame).
  bool read_exact(void* buf, std::size_t n);
  /// Write all `n` bytes (SIGPIPE suppressed; a closed peer is IoError).
  void write_all(const void* buf, std::size_t n);

  /// Longest line read_line() accepts, newline excluded.
  static constexpr std::size_t kMaxLineBytes = 1024 * 1024;

  /// Read one '\n'-terminated line (newline stripped). Returns false on
  /// clean EOF before any byte of a line. Bytes past the newline stay
  /// buffered for the next call — callers interleaving read_line with
  /// read_exact must go through this object only. A line longer than
  /// kMaxLineBytes is an IoError once the cap is passed, so a peer that
  /// never sends '\n' cannot grow the buffer without bound.
  bool read_line(std::string* line);
  /// Bytes read from the socket but not yet returned.
  [[nodiscard]] std::size_t buffered_bytes() const { return rbuf_.size(); }
  /// Binary payload read that honours the read_line buffer.
  bool read_payload(void* buf, std::size_t n);
  void write_line(const std::string& line);

private:
  int fd_ = -1;
  std::string rbuf_;  // bytes read past the last returned line
};

/// Listening AF_UNIX socket bound to a filesystem path. Unlinks the path
/// on close. The path must fit sockaddr_un (~107 bytes) — short /tmp paths
/// only, which is why tests use TempDir.
class UnixListener {
public:
  UnixListener() = default;
  explicit UnixListener(const std::filesystem::path& path);
  ~UnixListener();
  UnixListener(UnixListener&& o) noexcept;
  UnixListener& operator=(UnixListener&& o) noexcept;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  /// Block until a client connects. Throws IoError on failure (including a
  /// concurrently closed listener — the shutdown path in pilot-traced).
  UnixConn accept_conn();
  /// Accept with a timeout; returns an invalid conn if none arrived.
  UnixConn accept_for(int timeout_ms);

  void close();

private:
  int fd_ = -1;
  std::filesystem::path path_;
};

}  // namespace util
