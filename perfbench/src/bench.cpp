#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <tuple>

#include "clog2/clog2.hpp"

namespace pb {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Recorder& Recorder::get() {
  static Recorder r;
  return r;
}

int Recorder::open(const char* layer, const std::string& name) {
  SpanRec s;
  s.layer = layer;
  s.name = name;
  s.t0 = now_ns();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.proc = proc;
  s.seq0 = seq_++;
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(idx);
  return idx;
}

void Recorder::close(int idx) {
  spans_[static_cast<std::size_t>(idx)].t1 = now_ns();
  spans_[static_cast<std::size_t>(idx)].seq1 = seq_++;
  // Spans close in LIFO order (they are scoped), so idx is the stack top.
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

void Recorder::append(std::vector<SpanRec> more) {
  const int base = static_cast<int>(spans_.size());
  for (auto& s : more) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

Span::Span(const char* layer, std::string name) : t0_(0) {
  Recorder& r = Recorder::get();
  if (r.on) idx_ = r.open(layer, name);
  t0_ = now_ns();
}

Span::~Span() { stop_ms(); }

double Span::stop_ms() {
  if (done_) return ms_;
  const std::int64_t t1 = now_ns();
  done_ = true;
  ms_ = static_cast<double>(t1 - t0_) / 1e6;
  if (idx_ >= 0) Recorder::get().close(idx_);
  return ms_;
}

void save_spans(const std::filesystem::path& path, const std::vector<SpanRec>& spans) {
  std::ofstream f(path);
  for (const auto& s : spans)
    f << s.layer << ' ' << s.name << ' ' << s.t0 << ' ' << s.t1 << ' ' << s.parent
      << ' ' << s.proc << ' ' << s.seq0 << ' ' << s.seq1 << '\n';
}

std::vector<SpanRec> load_spans(const std::filesystem::path& path) {
  std::vector<SpanRec> out;
  std::ifstream f(path);
  SpanRec s;
  while (f >> s.layer >> s.name >> s.t0 >> s.t1 >> s.parent >> s.proc >> s.seq0 >>
         s.seq1)
    out.push_back(s);
  return out;
}

namespace {

struct LayerStyle {
  const char* layer;
  const char* color;
};

// One state category per layer of the toolchain, plus "bench" for the
// benchmark's own per-operation parent spans.
constexpr LayerStyle kLayers[] = {
    {"bench", "gray"},      {"pilot", "forestgreen"}, {"mpe", "gold"},
    {"clog2", "khaki"},     {"slog2", "steelblue"},   {"query", "orchid"},
    {"analyze", "salmon"},  {"digest", "violet"},     {"jumpshot", "orange"},
    {"traced", "teal"},     {"tracegen", "skyblue"},
};

int layer_index(const std::string& layer) {
  for (std::size_t i = 0; i < std::size(kLayers); ++i)
    if (layer == kLayers[i].layer) return static_cast<int>(i);
  return 0;
}

}  // namespace

std::uint64_t write_span_trace(const std::filesystem::path& path,
                               const std::vector<SpanRec>& spans) {
  clog2::File f;
  f.nranks = 2;
  f.comment = "pilot perfbench spans";
  for (std::size_t i = 0; i < std::size(kLayers); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    clog2::StateDef def;
    def.state_id = id;
    def.start_event_id = 2 * id + 1;
    def.end_event_id = 2 * id + 2;
    def.name = kLayers[i].layer;
    def.color = kLayers[i].color;
    f.records.emplace_back(std::move(def));
  }
  std::int64_t base = 0;
  bool any = false;
  for (const auto& s : spans) {
    if (!any || s.t0 < base) base = s.t0;
    any = true;
  }
  // Begins and ends in the order they happened: processes run one after
  // the other (set-up, then the timed run), and within one process the
  // open/close sequence numbers are the exact interleaving, so the
  // converter's LIFO pairing sees proper nesting even at equal stamps.
  struct Ev {
    int proc;
    std::int64_t seq;
    clog2::EventRec rec;
  };
  std::vector<Ev> evs;
  evs.reserve(spans.size() * 2);
  for (const SpanRec& s : spans) {
    const std::int32_t id = layer_index(s.layer);
    evs.push_back({s.proc, s.seq0,
                   clog2::EventRec{static_cast<double>(s.t0 - base) / 1e9, s.proc,
                                   2 * id + 1, s.name.substr(0, 40)}});
    evs.push_back({s.proc, s.seq1,
                   clog2::EventRec{static_cast<double>(s.t1 - base) / 1e9, s.proc,
                                   2 * id + 2, ""}});
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    return std::tie(a.proc, a.seq) < std::tie(b.proc, b.seq);
  });
  for (auto& e : evs) f.records.push_back(std::move(e.rec));
  clog2::write_file(path, f);
  return evs.size();
}

std::map<std::string, double> self_time_ms(const std::vector<SpanRec>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& s : spans)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.t1 - s.t0) / 1e6;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].layer] +=
        static_cast<double>(spans[i].t1 - spans[i].t0) / 1e6 - child[i];
  return out;
}

double span_median_ms(const std::vector<SpanRec>& spans, const std::string& layer,
                      const std::string& name) {
  std::vector<double> xs;
  for (const auto& s : spans)
    if (s.layer == layer && s.name == name)
      xs.push_back(static_cast<double>(s.t1 - s.t0) / 1e6);
  return xs.empty() ? 0.0 : median(std::move(xs));
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

bool Outcome::attempt(const std::string& what,
                      const std::function<bool(std::string&)>& op) {
  ++attempted;
  std::string why;
  bool ok = false;
  try {
    ok = op(why);
  } catch (const std::exception& e) {
    why = std::string("exception: ") + e.what();
  }
  if (!ok) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what + ": " + why);
  }
  return ok;
}

double calibrate_ms() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::vector<std::uint64_t> keys(1u << 18);
  for (auto& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  std::sort(keys.begin(), keys.end());
  std::string text;
  char buf[32];
  for (std::size_t i = 0; i < (1u << 15); ++i) {
    const int n = std::snprintf(buf, sizeof buf, "%.6f ",
                                static_cast<double>(keys[i * 8] >> 40) / 3.0);
    text.append(buf, static_cast<std::size_t>(n));
  }
  volatile std::size_t sink = text.size() + keys[keys.size() / 2] % 7;
  (void)sink;
  return static_cast<double>(now_ns() - t0) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t file_bytes(const std::filesystem::path& p) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(p, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

}  // namespace pb
