// postmortem: the paper's workflow end to end. A message-heavy Pilot
// program (the halo exchange of examples/heat_ring, 8 workers) runs with
// MPE logging on the virtual-time task substrate; its CLOG-2 is converted
// and written as SLOG-2, read back, and drawn as the default full view plus
// legend (pilot-jumpshot without --windowed); the reference trace is then
// checked, diffed against a delay-injected twin made during set-up, and
// digested.
#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "analyze/tracecheck.hpp"
#include "analyze/tracediff.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "clog2/clog2.hpp"
#include "digest/digest.hpp"
#include "jumpshot/render.hpp"
#include "jumpshot/stats.hpp"
#include "mpe/mpe.hpp"
#include "pilot/pi.hpp"
#include "pilot/runtime.hpp"
#include "query/clocks.hpp"
#include "query/rollup.hpp"
#include "query/trace.hpp"
#include "slog2/frame_cache.hpp"
#include "slog2/slog2.hpp"
#include "util/fs.hpp"
#include "util/prng.hpp"
#include "util/strings.hpp"

namespace pb {
namespace {

constexpr int kWorkers = 8;
constexpr int kSteps = 2000;

// --- the program under test ---------------------------------------------------

struct Heat {
  int cells_per = 1000;
  int spike = 0;  ///< cell index of the initial hot spot
};
Heat g_heat;
int g_state_exchange = -1;
int g_state_compute = -1;
PI_CHANNEL* g_scatter_ch[kWorkers];
PI_CHANNEL* g_gather_ch[kWorkers];
PI_CHANNEL* g_right[kWorkers];
PI_CHANNEL* g_left[kWorkers];

int slab_worker(int index, void*) {
  const int n = g_heat.cells_per;
  const auto un = static_cast<std::size_t>(n);
  std::vector<double> u(un + 2, 0.0), next(un + 2, 0.0);
  PI_Read(g_scatter_ch[index], "%*lf", n, u.data() + 1);
  for (int step = 0; step < kSteps; ++step) {
    PI_StateBegin(g_state_exchange);
    if (index + 1 < kWorkers) PI_Write(g_right[index], "%lf", u[un]);
    if (index > 0) PI_Write(g_left[index - 1], "%lf", u[1]);
    if (index > 0) PI_Read(g_right[index - 1], "%lf", &u[0]);
    if (index + 1 < kWorkers) PI_Read(g_left[index], "%lf", &u[un + 1]);
    PI_StateEnd(g_state_exchange);

    PI_StateBegin(g_state_compute);
    for (std::size_t k = 1; k <= un; ++k)
      next[k] = u[k] + 0.25 * (u[k - 1] - 2 * u[k] + u[k + 1]);
    next[0] = u[0];
    next[un + 1] = u[un + 1];
    u.swap(next);
    PI_Compute(1e-7 * n);  // charged in virtual time
    PI_StateEnd(g_state_compute);
  }
  PI_Write(g_gather_ch[index], "%*lf", n, u.data() + 1);
  return 0;
}

int heat_main(int argc, char** argv) {
  PI_Configure(&argc, &argv);
  g_state_exchange = PI_DefineState("HaloExchange", "orange");
  g_state_compute = PI_DefineState("Sweep", "SteelBlue");
  std::vector<PI_PROCESS*> workers;
  for (int i = 0; i < kWorkers; ++i) {
    PI_PROCESS* w = PI_CreateProcess(slab_worker, i, nullptr);
    workers.push_back(w);
    g_scatter_ch[i] = PI_CreateChannel(PI_MAIN, w);
    g_gather_ch[i] = PI_CreateChannel(w, PI_MAIN);
  }
  for (int i = 0; i + 1 < kWorkers; ++i)
    g_right[i] = PI_CreateChannel(workers[static_cast<std::size_t>(i)],
                                  workers[static_cast<std::size_t>(i) + 1]);
  PI_CHANNEL** reversed = PI_CopyChannels(PI_REVERSE, g_right, kWorkers - 1);
  for (int i = 0; i + 1 < kWorkers; ++i) g_left[i] = reversed[i];
  std::free(reversed);
  PI_BUNDLE* scatter = PI_CreateBundle(PI_SCATTER, g_scatter_ch, kWorkers);
  PI_BUNDLE* gather = PI_CreateBundle(PI_GATHER, g_gather_ch, kWorkers);
  PI_StartAll();

  const int total = g_heat.cells_per * kWorkers;
  std::vector<double> rod(static_cast<std::size_t>(total), 0.0);
  rod[static_cast<std::size_t>(g_heat.spike)] = 1000.0;
  PI_Scatter(scatter, "%*lf", g_heat.cells_per, rod.data());
  PI_Gather(gather, "%*lf", g_heat.cells_per, rod.data());
  double heat = 0.0, peak = 0.0;
  for (double v : rod) {
    heat += v;
    peak = std::max(peak, v);
  }
  PI_StopMain(0);
  // Diffusion spreads the spike and loses heat only through the cold ends.
  return peak < 1000.0 && heat > 0.0 && heat <= 1000.0 + 1e-6 ? 0 : 1;
}

// --- inputs from the seed -----------------------------------------------------

struct Plan {
  Heat heat;
  std::uint64_t sim_seed = 1;
  int victim = 1;     ///< rank whose sends the twin run delays (1..kWorkers)
  std::string fault;  ///< -pifault= plan of the twin run
};

Plan plan_for(std::uint64_t seed) {
  util::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  Plan p;
  p.heat.cells_per = static_cast<int>(rng.range(800, 1200));
  p.heat.spike = static_cast<int>(rng.below(
      static_cast<std::uint64_t>(p.heat.cells_per * kWorkers)));
  p.sim_seed = 1 + rng.below(1u << 20);
  p.victim = 1 + static_cast<int>(rng.below(kWorkers));
  p.fault = util::strprintf("seed=%llu;delay=0.8:4@%d",
                            static_cast<unsigned long long>(1 + rng.below(1000)),
                            p.victim);
  return p;
}

pilot::RunResult run_heat(const Plan& p, const Context& ctx, const std::string& name,
                          bool logging, const std::string& fault = {}) {
  g_heat = p.heat;
  std::vector<std::string> args = {
      "heat",          "-piexec=tasks",
      "-pisim-scale=1", "-pisim-seed=" + std::to_string(p.sim_seed),
      "-piout=" + ctx.dir.string(), "-piname=" + name};
  if (logging) args.push_back("-pisvc=j");
  if (!fault.empty()) args.push_back("-pifault=" + fault);
  return pilot::run(args, heat_main);
}

std::uint64_t instance_records(const clog2::File& f) {
  std::uint64_t n = 0;
  for (const auto& r : f.records)
    if (std::holds_alternative<clog2::EventRec>(r) || std::holds_alternative<clog2::MsgRec>(r))
      ++n;
  return n;
}

}  // namespace

void setup_postmortem(const Context& ctx) {
  const Plan p = plan_for(ctx.seed);
  Span s("pilot", "twin_run");
  const pilot::RunResult r = run_heat(p, ctx, "twin", true, p.fault);
  if (r.status != 0 || r.aborted)
    throw std::runtime_error(util::strprintf("twin run failed: status %d", r.status));
}

void run_postmortem(const Context& ctx, Outcome& out) {
  const Plan p = plan_for(ctx.seed);
  const auto ref_clog2 = ctx.dir / "ref.clog2";
  const auto ref_slog2 = ctx.dir / "ref.slog2";
  const std::uint64_t want_arrows = 2ull * (kWorkers - 1) * kSteps + 2ull * kWorkers;
  const std::int32_t nranks = kWorkers + 1;

  std::vector<double> run_s, view_s, analysis_s;
  std::vector<double> cycle_n, view_n, analysis_n;  // reference-host time
  std::uint64_t records = 0, slog2_bytes = 0, frames = 0, svg_bytes = 0;
  std::uint64_t findings = 0, digest_bytes = 0;
  std::size_t cache_bytes = 0;  // FrameCache contents after kRssRounds rounds
  HostSpeed host;
  const std::int64_t t_begin = now_ns();
  while (run_s.size() < kRssRounds ||
         static_cast<double>(now_ns() - t_begin) / 1e9 < ctx.seconds) {
    host.sample();
    Span round("bench", "round");
    double run = 0, view = 0, analysis = 0;
    clog2::File ref;

    out.attempt("run", [&](std::string& why) {
      Span s("pilot", "run");
      const pilot::RunResult r = run_heat(p, ctx, "ref", true);
      run = s.stop_s();
      if (r.status != 0 || r.aborted) {
        why = util::strprintf("program exited with status %d", r.status);
        return false;
      }
      return file_bytes(ref_clog2) > 0;
    });

    std::string svg;
    out.attempt("view", [&](std::string& why) {
      Span vs("bench", "view_ready");
      { Span s("clog2", "read"); ref = clog2::read_file(ref_clog2); }
      slog2::ConvertStats stats;
      {
        slog2::File conv;
        std::vector<std::string> warnings;
        { Span s("slog2", "convert"); conv = slog2::convert(ref, {}, &warnings); }
        { Span s("slog2", "write"); slog2::write_file(ref_slog2, conv); }
        stats = conv.stats;
      }
      slog2::File file;
      { Span s("slog2", "read"); file = slog2::read_file(ref_slog2); }
      jumpshot::RenderOptions ro;
      ro.title = ref_slog2.string();
      ro.threads = 0;
      {
        Span s("jumpshot", "render_full");
        svg = jumpshot::render_svg(file, ro);
        util::write_file(ctx.dir / "view.svg", svg);
      }
      std::string legend;
      {
        Span s("jumpshot", "legend");
        legend = jumpshot::legend_to_text(
            jumpshot::legend(file, jumpshot::LegendSort::kByInclusive, 0));
      }
      view = vs.stop_s();

      records = instance_records(ref);
      slog2_bytes = file_bytes(ref_slog2);
      frames = stats.frames;
      svg_bytes = svg.size();
      if (stats.unmatched_sends || stats.unmatched_recvs || stats.unclosed_states ||
          stats.unmatched_state_ends) {
        why = "conversion left unmatched halves or unclosed states";
        return false;
      }
      if (stats.total_arrows != want_arrows) {
        why = util::strprintf("%llu arrows, program structure gives %llu",
                              static_cast<unsigned long long>(stats.total_arrows),
                              static_cast<unsigned long long>(want_arrows));
        return false;
      }
      if (!svg_well_formed(svg, why)) return false;
      if (svg_rank_rows(svg) != static_cast<std::size_t>(nranks)) {
        why = util::strprintf("%zu timeline rows for %d ranks", svg_rank_rows(svg), nranks);
        return false;
      }
      // One legend line per category plus the header.
      const auto lines = static_cast<std::size_t>(
          std::count(legend.begin(), legend.end(), '\n'));
      if (lines < file.categories.size()) {
        why = "legend lists fewer rows than categories";
        return false;
      }
      return true;
    });
    svg.clear();
    svg.shrink_to_fit();

    out.attempt("analysis", [&](std::string& why) {
      Span as("bench", "analysis");
      analyze::TraceCheckOptions co;
      co.threads = 0;
      analyze::Report rep;
      { Span s("analyze", "check"); rep = analyze::check_trace(ref, co); }
      clog2::File twin;
      { Span s("clog2", "read"); twin = clog2::read_file(ctx.dir / "twin.clog2"); }
      analyze::TraceDiffOptions dopt;
      dopt.threads = 0;
      analyze::TraceDiffResult diff;
      { Span s("analyze", "diff"); diff = analyze::diff_traces(ref, twin, dopt); }
      std::string dg;
      digest::Options gopt;
      gopt.threads = 0;
      {
        Span d("digest", "summarize");
        std::unique_ptr<slog2::Navigator> nav;
        { Span s("slog2", "navigator_open"); nav = std::make_unique<slog2::Navigator>(ref_slog2); }
        dg = digest::summarize(*nav, gopt);
      }
      analysis = as.stop_s();

      findings = rep.finding_count() + diff.report.finding_count();
      digest_bytes = dg.size();
      if (rep.count(analyze::Severity::kError) != 0) {
        why = "check_trace reports errors on the fault-free reference";
        return false;
      }
      if (diff.suspects.empty() || diff.suspects.front().rank != p.victim) {
        why = util::strprintf("diff blames rank %d, the delay was injected into rank %d",
                              diff.suspects.empty() ? -1 : diff.suspects.front().rank,
                              p.victim);
        return false;
      }
      if (dg.empty() || dg.size() > gopt.budget) {
        why = util::strprintf("digest of %zu bytes against a %zu-byte budget", dg.size(),
                              gopt.budget);
        return false;
      }
      return true;
    });
    round.stop_ms();
    run_s.push_back(run);
    view_s.push_back(view);
    analysis_s.push_back(analysis);
    cycle_n.push_back(host.norm(run + view + analysis));
    view_n.push_back(host.norm(view));
    analysis_n.push_back(host.norm(analysis));
    if (run_s.size() == kRssRounds) {
      out.set("peak_rss_mb", peak_rss_mb(), "MiB");
      cache_bytes = slog2::FrameCache::global().stats().bytes;
    }
  }

  std::vector<double> cycle;
  for (std::size_t i = 0; i < run_s.size(); ++i)
    cycle.push_back(run_s[i] + view_s[i] + analysis_s[i]);
  out.set("round_s", median(cycle_n), "s");
  out.set("view_p50_ms", median(view_n) * 1e3, "ms");
  out.set("query_p50_ms", median(analysis_n) * 1e3, "ms");
  out.set("host.calibrate_ms", host.median_ms(), "ms");
  out.set("raw.round_s", median(cycle), "s");
  out.set("raw.view_p50_ms", median(view_s) * 1e3, "ms");
  out.set("raw.query_p50_ms", median(analysis_s) * 1e3, "ms");
  out.set("slog2_bytes_per_event",
          records ? static_cast<double>(slog2_bytes) / static_cast<double>(records) : 0.0,
          "B/event");
  out.set("run_s", median(run_s), "s");
  out.set("view_ready_s", median(view_s), "s");
  out.set("analysis_s", median(analysis_s), "s");
  out.set("rounds", static_cast<double>(run_s.size()), "count");

  if (!Recorder::get().on) return;

  // Per-layer breakdown. Span medians come from the timed rounds above; the
  // probes below re-run single stages once, after the timed phase, so the
  // traced rounds carry nothing but span recording.
  const auto& sp = Recorder::get().spans();
  out.set("clog2.read_ms", span_median_ms(sp, "clog2", "read"), "ms");
  out.set("slog2.convert_ms", span_median_ms(sp, "slog2", "convert"), "ms");
  out.set("slog2.write_ms", span_median_ms(sp, "slog2", "write"), "ms");
  out.set("slog2.read_ms", span_median_ms(sp, "slog2", "read"), "ms");
  out.set("slog2.navigator_open_ms", span_median_ms(sp, "slog2", "navigator_open"), "ms");
  out.set("slog2.frames", static_cast<double>(frames), "count");
  out.set("jumpshot.render_full_ms", span_median_ms(sp, "jumpshot", "render_full"), "ms");
  out.set("jumpshot.legend_ms", span_median_ms(sp, "jumpshot", "legend"), "ms");
  out.set("jumpshot.svg_full_bytes", static_cast<double>(svg_bytes), "B");
  out.set("analyze.check_ms", span_median_ms(sp, "analyze", "check"), "ms");
  out.set("analyze.diff_ms", span_median_ms(sp, "analyze", "diff"), "ms");
  out.set("analyze.findings", static_cast<double>(findings), "count");
  out.set("digest.summarize_ms", span_median_ms(sp, "digest", "summarize"), "ms");
  out.set("digest.bytes", static_cast<double>(digest_bytes), "B");
  out.set("slog2.cache_bytes", static_cast<double>(cache_bytes), "B");

  Span probes("bench", "probes");
  std::vector<double> nolog;
  for (int i = 0; i < 3; ++i) {
    Span s("pilot", "run_nolog");
    const pilot::RunResult r = run_heat(p, ctx, "nolog", false);
    nolog.push_back(s.stop_s());
    if (r.status != 0) out.correct = false;
  }
  out.set("pilot.run_nolog_s", median(nolog), "s");

  const clog2::File ref = clog2::read_file(ref_clog2);
  out.set("mpe.records", static_cast<double>(instance_records(ref)), "count");
  {
    // The wrap-up merge of finish_log over the same records, split back
    // into per-rank streams.
    std::vector<std::vector<clog2::Record>> streams(static_cast<std::size_t>(ref.nranks));
    for (const auto& r : ref.records) {
      int rank = -1;
      if (const auto* e = std::get_if<clog2::EventRec>(&r)) rank = e->rank;
      if (const auto* m = std::get_if<clog2::MsgRec>(&r)) rank = m->rank;
      if (rank >= 0 && rank < ref.nranks) streams[static_cast<std::size_t>(rank)].push_back(r);
    }
    Span s("mpe", "merge_timed");
    const auto merged = mpe::merge_timed(std::move(streams));
    out.set("mpe.merge_timed_ms", s.stop_ms(), "ms");
  }
  {
    Span s("clog2", "write");
    clog2::write_file(ctx.dir / "probe.clog2", ref);
    out.set("clog2.write_ms", s.stop_ms(), "ms");
  }
  out.set("clog2.bytes", static_cast<double>(file_bytes(ctx.dir / "probe.clog2")), "B");
  {
    slog2::ConvertOptions serial;
    serial.threads = 1;
    Span s("slog2", "convert_serial");
    const slog2::File f = slog2::convert(ref, serial);
    out.set("slog2.convert_serial_ms", s.stop_ms(), "ms");
  }
  {
    std::unique_ptr<query::Trace> trace;
    {
      Span s("query", "trace_build");
      trace = std::make_unique<query::Trace>(ref, 0);
      out.set("query.trace_build_ms", s.stop_ms(), "ms");
    }
    query::MsgGraph graph;
    {
      Span s("query", "match_messages");
      graph = query::match_messages(ref, trace->nranks());
      out.set("query.match_messages_ms", s.stop_ms(), "ms");
    }
    {
      Span s("query", "stamp_clocks");
      query::stamp_clocks(graph, 0);
      out.set("query.stamp_clocks_ms", s.stop_ms(), "ms");
    }
    {
      Span s("query", "state_durations");
      const auto sd = query::state_durations(*trace, 0);
      out.set("query.state_durations_ms", s.stop_ms(), "ms");
    }
    {
      Span s("query", "message_edges");
      const auto me = query::message_edges(graph, 0);
      out.set("query.message_edges_ms", s.stop_ms(), "ms");
    }
  }
  {
    analyze::TraceCheckOptions co;
    co.threads = 1;
    Span s("analyze", "check_serial");
    const analyze::Report rep = analyze::check_trace(ref, co);
    out.set("analyze.check_serial_ms", s.stop_ms(), "ms");
  }
}

}  // namespace pb
