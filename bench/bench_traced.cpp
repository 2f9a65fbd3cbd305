// Streaming-ingest bench for pilot-traced's online converter: the perf
// acceptance criteria for the live pipeline. Emits BENCH_traced.json with
// the headline numbers tools/ci_bench.sh gates on:
//   - single-session ingest throughput (records/s and MB/s) through
//     StreamReader + OnlineConverter in socket-sized chunks,
//   - 8-session aggregate throughput through the IngestPool (the
//     concurrency the daemon must sustain),
//   - live windowed-query latency on a mid-stream converter,
//   - peak live bytes for the single session (the bounded-memory claim —
//     the bench fails the run when it exceeds a quarter of the stream),
//   - a correctness canary: finalize() must match the offline converter
//     byte for byte, or the bench exits nonzero,
//   - a render-growth canary: a fixed 0.5 ms window at the live edge,
//     rendered at 25% and at 100% of the stream, must not cost more than 3x
//     as much late as early (render is O(window), not O(stream so far)).
//
// `--small=EVENTS` overrides the trace size; `--sessions=0` skips the
// multi-session leg (not used by CI, handy when profiling the converter).
#include <chrono>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "clog2/clog2.hpp"
#include "query/slog2_rollup.hpp"
#include "slog2/slog2.hpp"
#include "traced/online_convert.hpp"
#include "traced/service.hpp"
#include "traced/session.hpp"
#include "tracegen/tracegen.hpp"
#include "util/fs.hpp"

namespace {

double ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

traced::OnlineOptions online_options(const std::filesystem::path& spill) {
  traced::OnlineOptions oo;
  oo.max_disorder = 1e-6;  // tracegen streams are sorted by construction
  oo.spill_dir = spill;
  return oo;
}

struct IngestResult {
  double ms = 0.0;
  traced::OnlineUsage usage;
  std::vector<std::uint8_t> slog2_bytes;
};

/// Feed bytes [from, to) of a CLOG-2 stream through `reader` into `conv`
/// in socket-sized chunks, beginning the converter once the header is read.
void feed_range(clog2::StreamReader& reader, traced::OnlineConverter& conv,
                bool& begun, const std::vector<std::uint8_t>& bytes, std::size_t from,
                std::size_t to, std::size_t chunk) {
  clog2::Record rec;
  for (std::size_t off = from; off < to; off += chunk) {
    reader.feed(bytes.data() + off, std::min(chunk, to - off));
    for (;;) {
      const auto st = reader.next(&rec);
      if (reader.header_done() && !begun) {
        conv.begin(reader.nranks());
        begun = true;
      }
      if (st != clog2::StreamReader::Status::kRecord) break;
      conv.push(rec);
    }
  }
}

/// Median time to render the newest `window` seconds below the frontier.
double live_edge_render_ms(traced::OnlineConverter& conv, double window) {
  jumpshot::RenderOptions ro;
  ro.t1 = conv.admitted_frontier();
  ro.t0 = std::max(0.0, ro.t1 - window);
  std::vector<double> ms;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::string svg = traced::render_live(conv, ro);
    ms.push_back(ms_since(t0));
    if (svg.empty()) std::abort();
  }
  return util::median(ms);
}

/// One full session: chunked feed, finalize, serialize.
IngestResult ingest_once(const std::vector<std::uint8_t>& bytes,
                         const traced::OnlineOptions& oo, std::size_t chunk) {
  IngestResult out;
  const auto t0 = std::chrono::steady_clock::now();
  clog2::StreamReader reader;
  traced::OnlineConverter conv(oo);
  bool begun = false;
  feed_range(reader, conv, begun, bytes, 0, bytes.size(), chunk);
  out.usage = conv.usage();
  slog2::File f = conv.finalize();
  out.slog2_bytes = slog2::serialize(f);
  out.ms = ms_since(t0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto events =
      static_cast<std::uint64_t>(bench::arg_int(argc, argv, "small", 100000));
  const auto nsessions =
      static_cast<std::size_t>(bench::arg_int(argc, argv, "sessions", 8));
  constexpr std::size_t kChunk = 64 * 1024;  // socket read size

  bench::heading("pilot-traced streaming ingest",
                 "live pipeline perf acceptance (docs/TRACED.md)");
  bench::JsonReport report("traced");
  util::TempDir spill("bench_traced");

  tracegen::Options gopt;
  gopt.seed = 42;
  gopt.nranks = 8;
  gopt.events = events;
  const clog2::File ref = tracegen::generate(gopt);
  const std::vector<std::uint8_t> bytes = clog2::serialize(ref);
  const auto nrecords = ref.records.size();
  const double mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
  std::printf("trace: %zu records, %.1f MB\n", nrecords, mb);
  report.set("records", nrecords);
  report.set("stream_bytes", bytes.size());

  // --- Single-session ingest (best of 3) + byte-identity canary. --------
  const traced::OnlineOptions oo = online_options(spill.path());
  IngestResult best;
  for (int rep = 0; rep < 3; ++rep) {
    IngestResult r = ingest_once(bytes, oo, kChunk);
    if (rep == 0 || r.ms < best.ms) best = std::move(r);
  }
  const double rec_per_sec = static_cast<double>(nrecords) / (best.ms / 1000.0);
  const double mb_per_sec = mb / (best.ms / 1000.0);
  std::printf("single session : %8.0f records/s  %6.1f MB/s  (%.0f ms)\n",
              rec_per_sec, mb_per_sec, best.ms);
  std::printf("  live bytes   : peak %llu, sealed %llu in %llu chunks\n",
              static_cast<unsigned long long>(best.usage.peak_live_bytes),
              static_cast<unsigned long long>(best.usage.sealed_bytes),
              static_cast<unsigned long long>(best.usage.sealed_chunks));
  report.set("ingest_records_per_sec_single", rec_per_sec);
  report.set("ingest_mb_per_sec_single", mb_per_sec);
  report.set("peak_live_bytes_single", best.usage.peak_live_bytes);

  const std::vector<std::uint8_t> offline_bytes =
      slog2::serialize(slog2::convert(ref, oo.convert));
  const bool identical = best.slog2_bytes == offline_bytes;
  report.set("online_matches_offline", identical);
  if (!identical) {
    std::fprintf(stderr, "FAIL: online conversion diverged from offline\n");
    return 1;
  }
  const bool bounded = best.usage.peak_live_bytes < bytes.size() / 4;
  report.set("live_bytes_bounded", bounded);
  if (!bounded) {
    std::fprintf(stderr,
                 "FAIL: peak live bytes %llu not bounded (stream %zu bytes)\n",
                 static_cast<unsigned long long>(best.usage.peak_live_bytes),
                 bytes.size());
    return 1;
  }

  // --- N concurrent sessions through the IngestPool. --------------------
  if (nsessions > 0) {
    traced::SessionManager mgr(nsessions);
    traced::IngestPool pool(4);
    std::vector<std::shared_ptr<traced::Session>> sessions;
    sessions.reserve(nsessions);
    for (std::size_t i = 0; i < nsessions; ++i)
      sessions.push_back(mgr.open("s" + std::to_string(i), oo));
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t off = 0; off < bytes.size(); off += kChunk) {
      const std::size_t n = std::min(kChunk, bytes.size() - off);
      for (auto& s : sessions)
        pool.submit(s, {bytes.begin() + static_cast<std::ptrdiff_t>(off),
                        bytes.begin() + static_cast<std::ptrdiff_t>(off + n)});
    }
    pool.drain();
    const double pool_ms = ms_since(t0);
    const double agg_mb_per_sec =
        mb * static_cast<double>(nsessions) / (pool_ms / 1000.0);
    std::printf("%zu sessions     : %6.1f MB/s aggregate  (%.0f ms)\n",
                nsessions, agg_mb_per_sec, pool_ms);
    report.set("sessions", nsessions);
    report.set("ingest_mb_per_sec_aggregate", agg_mb_per_sec);
    std::uint64_t peak_live_total = 0;
    for (auto& s : sessions)
      peak_live_total += s->status().usage.peak_live_bytes;
    report.set("peak_live_bytes_all_sessions", peak_live_total);
  }

  // --- Live windowed-query latency on a mid-stream converter. -----------
  {
    clog2::StreamReader reader;
    traced::OnlineConverter conv(oo);
    bool begun = false;
    // Feed ~90% of the stream, leaving the session live.
    feed_range(reader, conv, begun, bytes, 0, bytes.size() * 9 / 10, kChunk);
    const double hi = conv.admitted_frontier();
    std::vector<double> query_ms;
    for (int i = 0; i < 32; ++i) {
      // Sliding tenth-of-the-trace windows, the interactive zoom pattern.
      const double a = hi * static_cast<double>(i) / 32.0;
      const double b = a + hi / 10.0;
      const auto q0 = std::chrono::steady_clock::now();
      query::LegendSweep sweep;
      conv.visit_window(
          a, b, [&](const slog2::StateDrawable& s) { sweep.add_state(s); },
          [&](const slog2::EventDrawable& e) { sweep.add_event(e); },
          [&](const slog2::ArrowDrawable& ar) { sweep.add_arrow(ar); });
      const auto totals = sweep.totals();
      (void)totals;
      query_ms.push_back(ms_since(q0));
    }
    const double med = util::median(query_ms);
    std::printf("live query     : %.2f ms median (window = trace/10)\n", med);
    report.set("query_ms_median", med);
  }

  // --- Render-growth canary: one 0.5 ms live-edge window, early and late. --
  {
    constexpr double kWindow = 0.0005;
    clog2::StreamReader reader;
    traced::OnlineConverter conv(oo);
    bool begun = false;
    const std::size_t quarter = bytes.size() / 4;
    feed_range(reader, conv, begun, bytes, 0, quarter, kChunk);
    const double first = live_edge_render_ms(conv, kWindow);
    feed_range(reader, conv, begun, bytes, quarter, bytes.size(), kChunk);
    const double last = live_edge_render_ms(conv, kWindow);
    std::printf("live render    : %.2f ms at 25%%, %.2f ms at 100%% (0.5 ms window)\n",
                first, last);
    report.set("render_ms_first", first);
    report.set("render_ms_last", last);
    const bool flat = last <= 3.0 * first;
    report.set("render_cost_flat", flat);
    if (!flat) {
      std::fprintf(stderr,
                   "FAIL: live render of a fixed window grew %.1fx with the stream "
                   "(%.2f -> %.2f ms)\n",
                   last / first, first, last);
      return 1;
    }
  }

  report.write();
  return 0;
}
