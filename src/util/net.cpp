#include "util/net.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/error.hpp"

namespace util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

sockaddr_un make_addr(const std::filesystem::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string s = path.string();
  if (s.size() >= sizeof(addr.sun_path))
    throw IoError("socket path too long for AF_UNIX (" + std::to_string(s.size()) +
                  " bytes): " + s);
  std::memcpy(addr.sun_path, s.c_str(), s.size() + 1);
  return addr;
}

}  // namespace

// --- UnixConn ---------------------------------------------------------------

UnixConn::~UnixConn() { close(); }

UnixConn::UnixConn(UnixConn&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)), rbuf_(std::move(o.rbuf_)) {}

UnixConn& UnixConn::operator=(UnixConn&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = std::exchange(o.fd_, -1);
    rbuf_ = std::move(o.rbuf_);
  }
  return *this;
}

void UnixConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rbuf_.clear();
}

UnixConn UnixConn::connect_to(const std::filesystem::path& path) {
  const sockaddr_un addr = make_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0)
      return UnixConn(fd);
    if (errno == EINTR) continue;
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect(" + path.string() + ")");
  }
}

std::size_t UnixConn::read_some(void* buf, std::size_t n) {
  if (fd_ < 0) throw IoError("read on closed connection");
  if (!rbuf_.empty()) {
    const std::size_t take = std::min(n, rbuf_.size());
    std::memcpy(buf, rbuf_.data(), take);
    rbuf_.erase(0, take);
    return take;
  }
  for (;;) {
    const ssize_t r = ::recv(fd_, buf, n, 0);
    if (r >= 0) return static_cast<std::size_t>(r);
    if (errno == EINTR) continue;
    throw_errno("recv");
  }
}

bool UnixConn::read_exact(void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const std::size_t r = read_some(p + got, n - got);
    if (r == 0) {
      if (got == 0) return false;
      throw IoError("connection closed mid-frame (" + std::to_string(got) + " of " +
                    std::to_string(n) + " bytes)");
    }
    got += r;
  }
  return true;
}

bool UnixConn::read_payload(void* buf, std::size_t n) { return read_exact(buf, n); }

void UnixConn::write_all(const void* buf, std::size_t n) {
  if (fd_ < 0) throw IoError("write on closed connection");
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (r >= 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    throw_errno("send");
  }
}

bool UnixConn::read_line(std::string* line) {
  line->clear();
  for (std::size_t scanned = 0;;) {
    const std::size_t nl = rbuf_.find('\n', scanned);
    if (nl != std::string::npos && nl <= kMaxLineBytes) {
      line->assign(rbuf_, 0, nl);
      rbuf_.erase(0, nl + 1);
      return true;
    }
    if (std::min(nl, rbuf_.size()) > kMaxLineBytes)
      throw IoError("request line exceeds " + std::to_string(kMaxLineBytes) +
                    " bytes without a newline");
    scanned = rbuf_.size();
    char tmp[4096];
    if (fd_ < 0) throw IoError("read on closed connection");
    ssize_t r;
    for (;;) {
      r = ::recv(fd_, tmp, sizeof(tmp), 0);
      if (r >= 0 || errno != EINTR) break;
    }
    if (r < 0) throw_errno("recv");
    if (r == 0) {
      if (rbuf_.empty()) return false;
      // Peer closed after a final unterminated line; hand it over.
      line->swap(rbuf_);
      return true;
    }
    rbuf_.append(tmp, static_cast<std::size_t>(r));
  }
}

void UnixConn::write_line(const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  write_all(out.data(), out.size());
}

// --- UnixListener -----------------------------------------------------------

UnixListener::UnixListener(const std::filesystem::path& path) : path_(path) {
  const sockaddr_un addr = make_addr(path);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket(AF_UNIX)");
  // A stale socket file from a dead daemon would make bind fail; remove it
  // (connect() to a dead path fails, so this cannot steal a live listener
  // in any single-daemon setup we support).
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind(" + path.string() + ")");
  }
  if (::listen(fd_, 64) != 0) {
    const int saved = errno;
    close();
    errno = saved;
    throw_errno("listen(" + path.string() + ")");
  }
}

UnixListener::~UnixListener() { close(); }

UnixListener::UnixListener(UnixListener&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)), path_(std::move(o.path_)) {
  o.path_.clear();
}

UnixListener& UnixListener::operator=(UnixListener&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = std::exchange(o.fd_, -1);
    path_ = std::move(o.path_);
    o.path_.clear();
  }
  return *this;
}

void UnixListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    path_.clear();
  }
}

UnixConn UnixListener::accept_conn() {
  if (fd_ < 0) throw IoError("accept on closed listener");
  for (;;) {
    const int c = ::accept(fd_, nullptr, nullptr);
    if (c >= 0) return UnixConn(c);
    if (errno == EINTR) continue;
    throw_errno("accept");
  }
}

UnixConn UnixListener::accept_for(int timeout_ms) {
  if (fd_ < 0) throw IoError("accept on closed listener");
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  for (;;) {
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (r == 0) return UnixConn();  // timeout
    return accept_conn();
  }
}

}  // namespace util
