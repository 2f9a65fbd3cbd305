// Shared harness of the end-to-end benchmark: run context, metric sink,
// whole-round failure accounting, and the span recorder behind the traced
// run.
//
// Every call into a layer of the toolchain goes through a Span. A Span
// always measures its own wall time (the end-to-end figures are sums and
// medians of span durations), and when tracing is on it also records
// itself — layer, name, start, end, parent — in memory. At exit the
// recorded spans become a CLOG-2 file with one state category per layer, so
// pilot-jumpshot and pilot-tracedigest can open the benchmark's own
// timeline.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Nanoseconds on the system-wide monotonic clock. Set-up and timed runs are
/// separate processes; this clock gives their spans one time base.
std::int64_t now_ns();

struct SpanRec {
  std::string layer;
  std::string name;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  int parent = -1;  ///< index into the recorder's span list, -1 for a root
  int proc = 0;     ///< 0 = set-up process, 1 = timed process
  /// Order of the open and close calls within the process: the exact
  /// chronological interleaving of begins and ends, ties included.
  std::int64_t seq0 = 0;
  std::int64_t seq1 = 0;
};

/// In-memory span store of one process.
class Recorder {
 public:
  static Recorder& get();

  bool on = false;  ///< record spans (--trace 1)
  int proc = 0;

  int open(const char* layer, const std::string& name);
  void close(int idx);
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  void append(std::vector<SpanRec> more);

 private:
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
  std::int64_t seq_ = 0;
};

/// Times one call into a layer (RAII). stop() ends it early and returns the
/// duration; the destructor ends it otherwise.
class Span {
 public:
  Span(const char* layer, std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  double stop_ms();
  double stop_s() { return stop_ms() / 1e3; }

 private:
  std::int64_t t0_;
  int idx_ = -1;
  bool done_ = false;
  double ms_ = 0.0;
};

/// Spans as text lines (set-up → timed process hand-over).
void save_spans(const std::filesystem::path& path, const std::vector<SpanRec>& spans);
std::vector<SpanRec> load_spans(const std::filesystem::path& path);

/// Write spans as a CLOG-2 trace: rank = process (0 set-up, 1 timed run),
/// one state per layer, popup text = span name. Returns the instance
/// record count.
std::uint64_t write_span_trace(const std::filesystem::path& path,
                               const std::vector<SpanRec>& spans);

/// Per-layer self time (span minus its direct children), in ms, summed.
std::map<std::string, double> self_time_ms(const std::vector<SpanRec>& spans);

/// Median duration (ms) of every span with this layer and name; 0 if none.
double span_median_ms(const std::vector<SpanRec>& spans, const std::string& layer,
                      const std::string& name);

double median(std::vector<double> xs);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> xs, double p);

/// What one workload run reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure reasons (stderr)
  /// name -> (value, unit); every metric the run measured.
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Count one operation; `ok` false (or an exception inside `op`) counts
  /// it as failed with the reason kept for stderr.
  bool attempt(const std::string& what, const std::function<bool(std::string&)>& op);
};

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path dir;  ///< work directory inside the checkout
};

/// Set-up of one workload: writes its inputs under ctx.dir. Throws on
/// failure.
using SetupFn = std::function<void(const Context&)>;
/// Timed phase + output checks.
using RunFn = std::function<void(const Context&, Outcome&)>;

void setup_postmortem(const Context& ctx);
void run_postmortem(const Context& ctx, Outcome& out);
void setup_browse(const Context& ctx);
void run_browse(const Context& ctx, Outcome& out);
void setup_live(const Context& ctx);
void run_live(const Context& ctx, Outcome& out);

/// Host speed probe: a fixed piece of sorting and number formatting, timed.
/// Workloads run it before every round, outside the round's timer.
double calibrate_ms();

/// Host-speed normalization. The benchmark's hosts change speed by tens of
/// percent within seconds (shared cores), so each round is preceded by a
/// calibrate_ms() sample, and norm() turns a time measured in that round
/// into reference-host time: raw × kReferenceMs / sample.
class HostSpeed {
 public:
  /// calibrate_ms() on the reference host (README), quiet.
  static constexpr double kReferenceMs = 40.0;
  void sample() { ms_.push_back(calibrate_ms()); }
  [[nodiscard]] double norm(double raw) const {
    return ms_.empty() ? raw : raw * kReferenceMs / ms_.back();
  }
  [[nodiscard]] double median_ms() const { return median(ms_); }

 private:
  std::vector<double> ms_;
};

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

/// Every timed phase runs at least this many rounds and reads peak_rss_mb
/// right after this round, so the figure covers a fixed amount of work: a
/// build that fits more rounds into --seconds shows no more memory for it.
constexpr std::size_t kRssRounds = 4;

/// File size in bytes (0 if missing).
std::uint64_t file_bytes(const std::filesystem::path& p);

}  // namespace pb
