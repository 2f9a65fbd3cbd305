// Request handling + the serve loop of pilot-traced.
//
// Service is transport-agnostic: handle() maps one request line (plus a
// callback for reading the feed op's binary payload) to one response line,
// so tests can drive the full protocol in-process with no socket at all.
// serve() adapts it to a UnixListener (one thread per connection) and an
// optional set of named FIFO ingest files (one reader thread each), which
// is how the daemon accepts `pilot-tracegen --stream > fifo` sources
// without the client speaking any protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "jumpshot/render.hpp"
#include "traced/session.hpp"
#include "util/net.hpp"

namespace traced {

/// Draw a live session's committed prefix with the jumpshot timeline core,
/// straight from the converter: sealed chunks that meet the window (through
/// the shared FrameCache) plus the in-memory tail, so a fixed window costs
/// the same early and late in a stream. Without t0/t1 the axis is the
/// committed span; a window over RenderOptions::lod_payload_budget is drawn
/// in outline form. The render op is this call under the session's lock.
std::string render_live(OnlineConverter& conv, const jumpshot::RenderOptions& opts);

struct ServiceOptions {
  OnlineOptions online;          ///< per-session converter defaults
  std::size_t workers = 4;       ///< ingest pool size
  std::size_t max_sessions = 64;
  double ttl = 300.0;            ///< idle-session eviction, seconds
};

class Service {
public:
  explicit Service(const ServiceOptions& opts);

  /// Handle one protocol line. `read_payload` must read exactly n bytes of
  /// the connection's binary payload (only invoked for the feed op); it
  /// returns false on EOF. Never throws: protocol and session errors come
  /// back as {"ok":false,...} responses.
  std::string handle(const std::string& line,
                     const std::function<bool(void*, std::size_t)>& read_payload);

  /// Ingest entry points used by the FIFO reader threads.
  std::shared_ptr<Session> open_session(const std::string& name);
  void ingest_bytes(const std::shared_ptr<Session>& s,
                    std::vector<std::uint8_t> bytes);
  void ingest_eof(const std::shared_ptr<Session>& s);

  /// Monotonic seconds for the idle clock (tests inject "now" via the
  /// sweep op instead).
  [[nodiscard]] double now() const;

  [[nodiscard]] bool shutdown_requested() const { return shutdown_.load(); }
  [[nodiscard]] SessionManager& sessions() { return sessions_; }
  [[nodiscard]] IngestPool& pool() { return pool_; }
  [[nodiscard]] const ServiceOptions& options() const { return opts_; }

  /// Receives one line per operational warning (currently: a finalize that
  /// sealed zero chunks). pilot-traced points this at its event log; tests
  /// capture it. Call before serving — not synchronized against handle().
  void set_logger(std::function<void(const std::string&)> logger) {
    logger_ = std::move(logger);
  }

private:
  std::string dispatch(const std::string& line,
                       const std::function<bool(void*, std::size_t)>& read_payload);
  void log(const std::string& msg) const {
    if (logger_) logger_(msg);
  }

  ServiceOptions opts_;
  SessionManager sessions_;
  IngestPool pool_;
  std::function<void(const std::string&)> logger_;
  std::atomic<bool> shutdown_{false};
};

/// One named FIFO (or regular file / pipe) to ingest as a session.
struct FifoIngest {
  std::string session;
  std::filesystem::path path;
};

/// Accept loop: connection threads for the socket, reader threads for the
/// FIFOs. Returns when a shutdown request arrives (and all connection
/// threads have been joined). `on_event` (optional) receives one line per
/// notable event for logging.
void serve(Service& service, util::UnixListener& listener,
           const std::vector<FifoIngest>& fifos,
           const std::function<void(const std::string&)>& on_event = {});

}  // namespace traced
