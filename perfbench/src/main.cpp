// pilot-perfbench: the end-to-end benchmark binary. perfbench/run.py
// builds it and calls it twice per run, so that set-up and the timed phase
// live in separate processes (peak RSS of the timed phase then excludes
// set-up):
//
//   pilot-perfbench setup --workload=W --seed=N --dir=D --reps=K [--trace=1]
//   pilot-perfbench run   --workload=W --seed=N --dir=D --seconds=S [--trace=1]
//                         [--spans=FILE]
//
// Each prints one JSON line last on stdout: set-up reports the median of K
// set-up repetitions; the timed run reports every metric it measured, the
// operation counts, and (traced) the per-layer self-time table.
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "bench.hpp"
#include "digest/digest.hpp"
#include "slog2/slog2.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    o.push_back(c);
  }
  return o + "\"";
}

std::string num(double v) { return util::strprintf("%.17g", v); }

struct Workload {
  pb::SetupFn setup;
  pb::RunFn run;
};

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> w = {
      {"postmortem", {pb::setup_postmortem, pb::run_postmortem}},
      {"browse", {pb::setup_browse, pb::run_browse}},
      {"live", {pb::setup_live, pb::run_live}},
  };
  return w;
}

int do_setup(const pb::Context& ctx, const Workload& w, int reps) {
  pb::Recorder::get().proc = 0;
  std::vector<double> times, norm;
  pb::HostSpeed host;
  for (int i = 0; i < reps; ++i) {
    host.sample();
    pb::Span s("bench", "setup");
    w.setup(ctx);
    times.push_back(s.stop_s());
    norm.push_back(host.norm(times.back()));
  }
  if (ctx.trace) pb::save_spans(ctx.dir / "setup.spans", pb::Recorder::get().spans());
  std::printf("{\"setup_s\": %s, \"raw_setup_s\": %s}\n",
              num(pb::median(norm)).c_str(), num(pb::median(times)).c_str());
  return 0;
}

/// The span trace must itself be a valid input of the toolchain: convert
/// it, then digest it, as pilot-clog2toslog2 and pilot-tracedigest would.
bool check_span_trace(const std::filesystem::path& clog2_path, std::string& why) {
  const slog2::File f = slog2::convert(clog2::read_file(clog2_path));
  if (f.stats.unmatched_state_ends || f.stats.unclosed_states) {
    why = "span trace has unpaired begin/end records";
    return false;
  }
  const auto slog2_path = clog2_path.parent_path() / (clog2_path.stem().string() + ".slog2");
  slog2::write_file(slog2_path, f);
  slog2::Navigator nav(slog2_path);
  if (digest::summarize(nav).empty()) {
    why = "span trace digests to nothing";
    return false;
  }
  return true;
}

int do_run(const pb::Context& ctx, const Workload& w, const std::string& spans_out) {
  pb::Recorder::get().proc = 1;
  pb::Outcome out;
  w.run(ctx, out);

  std::map<std::string, double> self;
  if (ctx.trace) {
    auto& rec = pb::Recorder::get();
    rec.append(pb::load_spans(ctx.dir / "setup.spans"));
    out.set("tracegen.generate_ms", pb::span_median_ms(rec.spans(), "tracegen", "generate"),
            "ms");
    self = pb::self_time_ms(rec.spans());
    if (!spans_out.empty()) {
      pb::write_span_trace(spans_out, rec.spans());
      out.attempt("span_trace", [&](std::string& why) {
        return check_span_trace(spans_out, why);
      });
    }
  }

  for (const auto& e : out.errors) std::fprintf(stderr, "failed: %s\n", e.c_str());
  std::string line = util::strprintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& [name, vu] : out.metrics) {
    line += (first ? "" : ", ") + json_str(name) + ": {\"value\": " + num(vu.first) +
            ", \"unit\": " + json_str(vu.second) + "}";
    first = false;
  }
  line += "}, \"self_ms\": {";
  first = true;
  for (const auto& [layer, ms] : self) {
    line += (first ? "" : ", ") + json_str(layer) + ": " + num(ms);
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  if (args.positional().size() != 1) {
    std::fprintf(stderr, "usage: %s setup|run --workload=W --seed=N --dir=D ...\n",
                 args.program().c_str());
    return 2;
  }
  const std::string mode = args.positional()[0];
  pb::Context ctx;
  ctx.workload = args.get_or("workload", "");
  ctx.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  ctx.seconds = args.get_double_or("seconds", 0.0);
  ctx.trace = args.get_int_or("trace", 0) != 0;
  ctx.dir = args.get_or("dir", "");
  const int reps = static_cast<int>(args.get_int_or("reps", 0));
  const std::string spans_out = args.get_or("spans", "");
  const auto it = workloads().find(ctx.workload);
  if (it == workloads().end() || ctx.dir.empty() || (mode == "setup" && reps < 1) ||
      (mode == "run" && !(ctx.seconds > 0)) ||
      (mode != "setup" && mode != "run") || !args.unused_keys().empty()) {
    std::fprintf(stderr, "error: bad arguments\n");
    return 2;
  }
  pb::Recorder::get().on = ctx.trace;
  return mode == "setup" ? do_setup(ctx, it->second, reps)
                         : do_run(ctx, it->second, spans_out);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
