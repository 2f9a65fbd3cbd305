// browse: a seeded interactive viewing session over one large trace. Set-up
// converts a 10^6-event, 16-rank tracegen trace once; the timed phase opens
// it with a Navigator and, view after view, renders a window and computes
// the legend of the same window. Each round drills down from the whole span
// to 1/4096 of it around a seeded point, so first touches decode frames and
// revisits hit the shared FrameCache.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "clog2/clog2.hpp"
#include "jumpshot/render.hpp"
#include "query/parallel_sweep.hpp"
#include "slog2/frame_cache.hpp"
#include "slog2/slog2.hpp"
#include "tracegen/tracegen.hpp"
#include "util/prng.hpp"
#include "util/strings.hpp"

namespace pb {
namespace {

constexpr std::uint64_t kEvents = 1000000;
constexpr std::int32_t kRanks = 16;
constexpr double kMaxZoom = 12;      ///< narrowest window: span / 2^12
constexpr std::size_t kRoundViews = 16;  ///< views per round

struct View {
  double a;
  double b;
};

/// One round of the session: a drill-down of kRoundViews windows around
/// `point` (a fraction of the span), from the whole span to span / 4096.
/// Zoom exponents are stratified, one per 1/kRoundViews of the range shifted
/// by `phase`, so every round has the same mix of widths while the windows
/// themselves move with the seed.
std::vector<View> drill_down(double point, double phase, double t0, double t1) {
  const double span = t1 - t0;
  std::vector<View> out;
  for (std::size_t k = 0; k < kRoundViews; ++k) {
    const double zoom = kMaxZoom * (static_cast<double>(k) + phase) /
                        static_cast<double>(kRoundViews);
    const double width = span * std::exp2(-zoom);
    const double centre = std::clamp(t0 + point * span, t0 + width / 2, t1 - width / 2);
    out.push_back({centre - width / 2, centre + width / 2});
  }
  return out;
}

std::string legend_text(const std::map<std::int32_t, query::LegendTotals>& t) {
  std::string s;
  for (const auto& [cat, tot] : t)
    s += util::strprintf("%d:%llu;", cat, static_cast<unsigned long long>(tot.count));
  return s;
}

}  // namespace

void setup_browse(const Context& ctx) {
  tracegen::Options go;
  go.seed = ctx.seed;
  go.nranks = kRanks;
  go.events = kEvents;
  clog2::File trace;
  { Span s("tracegen", "generate"); trace = tracegen::generate(go); }
  { Span s("clog2", "write"); clog2::write_file(ctx.dir / "trace.clog2", trace); }
  slog2::File file;
  { Span s("slog2", "convert"); file = slog2::convert(trace); }
  { Span s("slog2", "write"); slog2::write_file(ctx.dir / "trace.slog2", file); }
}

void run_browse(const Context& ctx, Outcome& out) {
  const auto path = ctx.dir / "trace.slog2";
  slog2::FrameCache& cache = slog2::FrameCache::global();

  std::unique_ptr<slog2::Navigator> nav;
  double open_ms = 0;
  { Span s("slog2", "navigator_open"); nav = std::make_unique<slog2::Navigator>(path); open_ms = s.stop_ms(); }
  // Points of interest: a golden-ratio sequence from a seeded start, so
  // drill-downs spread evenly over the trace.
  util::SplitMix64 rng(ctx.seed * 0xD1B54A32D192ED03ULL + 7);
  double point = rng.uniform();

  struct Checked {
    View v;
    std::map<std::int32_t, query::LegendTotals> totals;
  };
  std::vector<Checked> checked;
  std::vector<double> view_ms, legend_ms, render_ms, warm_render_ms, round_s;
  std::vector<double> view_n, legend_n, round_n;  // reference-host time
  std::uint64_t svg_bytes = 0, lod_views = 0;
  const slog2::FrameCache::Stats c0 = cache.stats();
  HostSpeed host;
  const std::int64_t t_begin = now_ns();
  while (round_s.size() < kRssRounds ||
         static_cast<double>(now_ns() - t_begin) / 1e9 < ctx.seconds) {
    host.sample();
    Span round("bench", "round");
    double round_views_s = 0;  // the round's views, without their checks
    point += 0.6180339887498949;
    point -= std::floor(point);
    for (const View& v : drill_down(point, rng.uniform(), nav->t_min(), nav->t_max())) {
      out.attempt("view", [&](std::string& why) {
        std::string svg;
        std::map<std::int32_t, query::LegendTotals> totals;
        Span vs("bench", "view");
        const std::uint64_t misses = cache.stats().misses;
        {
          Span s("jumpshot", "render_view");
          jumpshot::RenderOptions ro;
          ro.t0 = v.a;
          ro.t1 = v.b;
          ro.threads = 0;
          ro.title = path.string();
          svg = jumpshot::render_svg(*nav, ro);
          const double ms = s.stop_ms();
          render_ms.push_back(ms);
          if (cache.stats().misses == misses) warm_render_ms.push_back(ms);
        }
        {
          Span s("query", "legend_window");
          totals = query::legend_window(*nav, v.a, v.b, 0).totals(0);
          legend_ms.push_back(s.stop_ms());
          legend_n.push_back(host.norm(legend_ms.back()));
        }
        view_ms.push_back(vs.stop_ms());
        view_n.push_back(host.norm(view_ms.back()));
        round_views_s += view_ms.back() / 1e3;
        svg_bytes += svg.size();
        if (svg.find("<!-- preview-lod -->") != std::string::npos) ++lod_views;
        checked.push_back({v, std::move(totals)});
        return svg_well_formed(svg, why);
      });
    }
    round.stop_ms();
    round_s.push_back(round_views_s);
    round_n.push_back(host.norm(round_s.back()));
    if (round_s.size() == kRssRounds) out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  }
  const double elapsed = static_cast<double>(now_ns() - t_begin) / 1e9;
  const slog2::FrameCache::Stats c1 = cache.stats();

  // Every view's legend counts against a recount from the CLOG-2 records
  // themselves.
  const clog2::File trace = clog2::read_file(ctx.dir / "trace.clog2");
  const Recount recount(trace);
  out.attempt("recount", [&](std::string& why) {
    if (recount.unmatched != 0) {
      why = "tracegen trace has unpaired records";
      return false;
    }
    for (const auto& c : checked) {
      std::map<std::int32_t, query::LegendTotals> mine;
      for (const auto& [cat, n] : recount.counts(c.v.a, c.v.b)) mine[cat].count = n;
      if (legend_text(mine) != legend_text(c.totals)) {
        why = util::strprintf("window [%.9f, %.9f]: legend %s, recount %s", c.v.a, c.v.b,
                              legend_text(c.totals).c_str(), legend_text(mine).c_str());
        return false;
      }
    }
    return true;
  });

  const double nviews = static_cast<double>(view_ms.size());
  out.set("round_s", median(round_n), "s");
  out.set("view_p50_ms", median(view_n), "ms");
  out.set("query_p50_ms", median(legend_n), "ms");
  out.set("host.calibrate_ms", host.median_ms(), "ms");
  out.set("raw.round_s", median(round_s), "s");
  out.set("raw.view_p50_ms", median(view_ms), "ms");
  out.set("raw.query_p50_ms", median(legend_ms), "ms");
  out.set("slog2_bytes_per_event",
          static_cast<double>(file_bytes(path)) / static_cast<double>(recount.records),
          "B/event");
  out.set("views_per_s", nviews / elapsed, "views/s");
  out.set("view_p99_ms", percentile(view_ms, 99), "ms");
  out.set("views", nviews, "count");

  if (!Recorder::get().on) return;
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double lookups = hits + static_cast<double>(c1.misses - c0.misses);
  out.set("slog2.navigator_open_ms", open_ms, "ms");
  out.set("slog2.frames", static_cast<double>(nav->total_frames()), "count");
  out.set("slog2.frames_decoded", static_cast<double>(nav->frames_decoded()), "count");
  out.set("slog2.cache_hits", hits, "count");
  out.set("slog2.cache_misses", lookups - hits, "count");
  out.set("slog2.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  out.set("slog2.cache_evictions", static_cast<double>(c1.evictions - c0.evictions),
          "count");
  out.set("slog2.cache_bytes", static_cast<double>(c1.bytes), "B");
  out.set("jumpshot.render_view_ms", median(warm_render_ms), "ms");
  out.set("jumpshot.svg_bytes_per_view", static_cast<double>(svg_bytes) / nviews, "B");
  out.set("jumpshot.lod_views", static_cast<double>(lod_views), "count");
  out.set("query.legend_window_ms", median(legend_ms), "ms");

  // Cold decode, probed after the timed phase: empty the cache, then fetch
  // every frame once.
  Span probes("bench", "probes");
  cache.clear();
  std::vector<double> decode;
  for (std::size_t i = 0; i < nav->total_frames(); ++i) {
    Span s("slog2", "decode");
    const auto f = nav->frame_ptr(i);
    decode.push_back(s.stop_ms());
  }
  out.set("slog2.decode_ms", median(decode), "ms");
}

}  // namespace pb
