// live: pilot-traced driven in-process through traced::Service::handle with
// the same NDJSON lines its socket carries. One round opens three sessions
// and feeds each a seeded tracegen stream in 64 KiB feed requests,
// round-robin; every few feeds one session gets a viewer triple — status
// with sync, a legend query over a window spanning several sealed chunks,
// and a render of the newest admitted window. Then every session gets end
// and finalize. Closed loop: each request is sent when the previous reply
// is back.
#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "clog2/clog2.hpp"
#include "query/slog2_rollup.hpp"
#include "slog2/frame_cache.hpp"
#include "slog2/slog2.hpp"
#include "traced/protocol.hpp"
#include "traced/service.hpp"
#include "tracegen/tracegen.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace pb {
namespace {

constexpr int kSessions = 3;
constexpr std::uint64_t kEventsPerSession = 300000;
constexpr std::int32_t kRanks = 8;
constexpr std::size_t kFeedBytes = 64 * 1024;
constexpr std::size_t kViewerEvery = 16;  ///< feeds between viewer triples
constexpr double kQueryWindow = 0.05;     ///< seconds of trace time
constexpr double kRenderWindow = 0.0005;

std::string stream_name(int i) { return util::strprintf("s%d.clog2", i); }

/// FNV-1a over a file: each round's finalized outputs must equal round 1's.
std::uint64_t file_hash(const std::filesystem::path& p) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint8_t b : util::read_file(p)) h = (h ^ b) * 1099511628211ULL;
  return h;
}

std::string legend_result(const std::map<std::int32_t, query::LegendTotals>& t) {
  std::string r;
  for (const auto& [cat, tot] : t) {
    if (!r.empty()) r.push_back(';');
    r += util::strprintf("%d:%llu:%.9f:%.9f", cat,
                         static_cast<unsigned long long>(tot.count), tot.inclusive,
                         tot.exclusive);
  }
  return r;
}

}  // namespace

void setup_live(const Context& ctx) {
  for (int i = 0; i < kSessions; ++i) {
    tracegen::Options go;
    go.seed = ctx.seed * 3 + static_cast<std::uint64_t>(i);
    go.nranks = kRanks;
    go.events = kEventsPerSession;
    clog2::File f;
    { Span s("tracegen", "generate"); f = tracegen::generate(go); }
    { Span s("clog2", "write"); clog2::write_file(ctx.dir / stream_name(i), f); }
  }
}

void run_live(const Context& ctx, Outcome& out) {
  std::vector<std::vector<std::uint8_t>> streams;
  for (int i = 0; i < kSessions; ++i) streams.push_back(util::read_file(ctx.dir / stream_name(i)));

  // The ingest pool plus this client thread stay within the core count.
  traced::ServiceOptions so;
  const unsigned hw = std::thread::hardware_concurrency();
  so.workers = hw > 1 ? hw - 1 : 1;
  traced::Service svc(so);

  const std::uint8_t* payload = nullptr;
  const auto read_payload = [&payload](void* dst, std::size_t n) {
    std::memcpy(dst, payload, n);
    return true;
  };
  // One request, timed; a reply without "ok":true is a failed operation.
  const auto request = [&](const char* layer, const std::string& what,
                           const std::string& line, traced::JsonObject* reply,
                           double* ms) {
    return out.attempt(what, [&](std::string& why) {
      Span s(layer, what);
      const std::string r = svc.handle(line, read_payload);
      if (ms) *ms = s.stop_ms();
      const traced::JsonObject obj = traced::JsonObject::parse(r);
      if (!obj.boolean("ok")) {
        why = obj.str_or("error", r.substr(0, 200));
        return false;
      }
      if (reply) *reply = obj;
      return true;
    });
  };

  struct Query {
    int session;
    double a, b, frontier;
    std::string result;
  };
  std::vector<Query> first_queries;
  std::vector<std::uint64_t> first_hashes;
  std::vector<double> round_n, render_n, query_n;  // reference-host time
  std::vector<double> round_s, ingest_rate, finalize_s, feed_ms, sync_ms, query_ms,
      render_ms, render_first, render_last, finalize_one;
  std::uint64_t records = 0, slog2_bytes = 0, sealed_chunks = 0, sealed_bytes = 0,
                peak_live = 0;
  bool consistent = true;
  slog2::FrameCache& cache = slog2::FrameCache::global();
  const slog2::FrameCache::Stats c0 = cache.stats();
  HostSpeed host;
  const std::int64_t t_begin = now_ns();
  while (round_s.size() < kRssRounds ||
         static_cast<double>(now_ns() - t_begin) / 1e9 < ctx.seconds) {
    host.sample();
    Span round("bench", "round");
    std::vector<Query> queries;
    std::vector<double> renders;
    for (int i = 0; i < kSessions; ++i)
      request("traced", "open",
              util::strprintf("{\"op\":\"open\",\"session\":\"run%d\"}", i), nullptr,
              nullptr);
    Span ingest("bench", "ingest");
    std::vector<std::size_t> off(kSessions, 0);
    std::size_t feeds = 0, viewer = 0;
    for (bool more = true; more;) {
      more = false;
      for (int i = 0; i < kSessions; ++i) {
        const auto& bytes = streams[static_cast<std::size_t>(i)];
        std::size_t& o = off[static_cast<std::size_t>(i)];
        if (o >= bytes.size()) continue;
        const std::size_t n = std::min(kFeedBytes, bytes.size() - o);
        payload = bytes.data() + o;
        double ms = 0;
        request("traced", "feed",
                util::strprintf("{\"op\":\"feed\",\"session\":\"run%d\",\"bytes\":%zu}", i, n),
                nullptr, &ms);
        feed_ms.push_back(ms);
        o += n;
        more = more || o < bytes.size();
        if (++feeds % kViewerEvery != 0) continue;

        const int j = static_cast<int>(viewer++ % kSessions);
        traced::JsonObject st;
        if (!request("traced", "status_sync",
                     util::strprintf("{\"op\":\"status\",\"session\":\"run%d\",\"sync\":true}", j),
                     &st, &ms))
          continue;
        sync_ms.push_back(ms);
        const double frontier = st.fnum("frontier");
        if (frontier <= 0) continue;  // nothing admitted yet on this session
        Query q{j, std::max(0.0, frontier - kQueryWindow), frontier, frontier, {}};
        traced::JsonObject lg;
        if (request("traced", "query",
                    util::strprintf("{\"op\":\"query\",\"session\":\"run%d\",\"kind\":\"legend\","
                                    "\"t0\":%.17g,\"t1\":%.17g}",
                                    j, q.a, q.b),
                    &lg, &ms)) {
          query_ms.push_back(ms);
          query_n.push_back(host.norm(ms));
          q.result = lg.str("result");
          queries.push_back(q);
        }
        if (request("traced", "render",
                    util::strprintf("{\"op\":\"render\",\"session\":\"run%d\",\"t0\":%.17g,"
                                    "\"t1\":%.17g}",
                                    j, std::max(0.0, frontier - kRenderWindow), frontier),
                    nullptr, &ms)) {
          render_ms.push_back(ms);
          render_n.push_back(host.norm(ms));
          renders.push_back(ms);
        }
      }
    }
    for (int i = 0; i < kSessions; ++i)
      request("traced", "end", util::strprintf("{\"op\":\"end\",\"session\":\"run%d\"}", i),
              nullptr, nullptr);
    std::uint64_t round_records = 0;
    sealed_chunks = sealed_bytes = peak_live = 0;
    for (int i = 0; i < kSessions; ++i) {
      traced::JsonObject st;
      double ms = 0;
      request("traced", "status_sync",
              util::strprintf("{\"op\":\"status\",\"session\":\"run%d\",\"sync\":true}", i), &st,
              &ms);
      sync_ms.push_back(ms);
      if (st.str_or("phase", "") != "complete") consistent = false;
      round_records += static_cast<std::uint64_t>(st.num_or("records", 0));
      sealed_chunks += static_cast<std::uint64_t>(st.num_or("sealed_chunks", 0));
      sealed_bytes += static_cast<std::uint64_t>(st.num_or("sealed_bytes", 0));
      peak_live += static_cast<std::uint64_t>(st.num_or("peak_live_bytes", 0));
    }
    ingest_rate.push_back(static_cast<double>(round_records) / ingest.stop_s());

    double fin = 0;
    std::uint64_t bytes_out = 0;
    for (int i = 0; i < kSessions; ++i) {
      traced::JsonObject r;
      double ms = 0;
      const auto path = ctx.dir / util::strprintf("live%d.slog2", i);
      request("traced", "finalize",
              util::strprintf("{\"op\":\"finalize\",\"session\":\"run%d\",\"out\":\"%s\"}", i,
                              path.string().c_str()),
              &r, &ms);
      fin += ms / 1e3;
      finalize_one.push_back(ms);
      bytes_out += static_cast<std::uint64_t>(r.num_or("slog2_bytes", 0));
    }
    for (int i = 0; i < kSessions; ++i)
      request("traced", "close", util::strprintf("{\"op\":\"close\",\"session\":\"run%d\"}", i),
              nullptr, nullptr);
    round_s.push_back(round.stop_s());
    round_n.push_back(host.norm(round_s.back()));
    if (round_s.size() == kRssRounds) out.set("peak_rss_mb", peak_rss_mb(), "MiB");
    finalize_s.push_back(fin);
    records = round_records;
    slog2_bytes = bytes_out;
    if (!renders.empty()) {
      render_first.push_back(renders.front());
      render_last.push_back(renders.back());
    }

    // Checks outside the timed round: this round's outputs equal round 1's.
    std::vector<std::uint64_t> hashes;
    for (int i = 0; i < kSessions; ++i)
      hashes.push_back(file_hash(ctx.dir / util::strprintf("live%d.slog2", i)));
    if (first_hashes.empty()) {
      first_hashes = hashes;
      first_queries = queries;
    } else if (hashes != first_hashes || queries.size() != first_queries.size()) {
      consistent = false;
    } else {
      for (std::size_t k = 0; k < queries.size(); ++k)
        if (queries[k].result != first_queries[k].result ||
            queries[k].frontier != first_queries[k].frontier)
          consistent = false;
    }
  }
  const slog2::FrameCache::Stats c1 = cache.stats();

  out.attempt("rounds_agree", [&](std::string& why) {
    why = "a round's finalized files or legend results differ from round 1's";
    return consistent;
  });
  // Round 1 against the offline pipeline: finalize == slog2::convert of the
  // same records with the same options, and each live legend == the offline
  // sweep of the finalized file restricted to drawables committed before
  // the frontier the status reply reported (docs/TRACED.md).
  for (int i = 0; i < kSessions; ++i) {
    const auto path = ctx.dir / util::strprintf("live%d.slog2", i);
    out.attempt("offline_identity", [&](std::string& why) {
      const slog2::File off = slog2::convert(clog2::parse(streams[static_cast<std::size_t>(i)]));
      if (slog2::serialize(off) != util::read_file(path)) {
        why = "finalized file differs from the offline conversion";
        return false;
      }
      return true;
    });
    out.attempt("live_legend", [&](std::string& why) {
      const slog2::File fin = slog2::read_file(path);
      for (const Query& q : first_queries) {
        if (q.session != i) continue;
        query::LegendSweep ref;
        fin.visit_window(
            q.a, q.b,
            [&](const slog2::StateDrawable& s) {
              if (s.end_time < q.frontier) ref.add_state(s);
            },
            [&](const slog2::EventDrawable& e) {
              if (e.time < q.frontier) ref.add_event(e);
            },
            [&](const slog2::ArrowDrawable& a) {
              if (std::max(a.start_time, a.end_time) < q.frontier) ref.add_arrow(a);
            });
        const std::string want = legend_result(ref.totals());
        if (want != q.result) {
          why = util::strprintf("run%d window [%.9f, %.9f]: live %s, offline %s", i, q.a,
                                q.b, q.result.substr(0, 120).c_str(),
                                want.substr(0, 120).c_str());
          return false;
        }
      }
      return true;
    });
  }

  out.set("round_s", median(round_n), "s");
  out.set("view_p50_ms", median(render_n), "ms");
  out.set("query_p50_ms", median(query_n), "ms");
  out.set("host.calibrate_ms", host.median_ms(), "ms");
  out.set("raw.round_s", median(round_s), "s");
  out.set("raw.view_p50_ms", median(render_ms), "ms");
  out.set("raw.query_p50_ms", median(query_ms), "ms");
  out.set("slog2_bytes_per_event",
          static_cast<double>(slog2_bytes) / static_cast<double>(std::max<std::uint64_t>(records, 1)),
          "B/event");
  out.set("ingest_events_per_s", median(ingest_rate), "events/s");
  out.set("live_query_p50_ms", median(query_ms), "ms");
  out.set("live_render_p50_ms", median(render_ms), "ms");
  out.set("finalize_s", median(finalize_s), "s");
  out.set("rounds", static_cast<double>(round_s.size()), "count");

  if (!Recorder::get().on) return;
  out.set("traced.feed_ms", median(feed_ms), "ms");
  out.set("traced.sync_wait_ms", median(sync_ms), "ms");
  out.set("traced.query_ms", median(query_ms), "ms");
  out.set("traced.render_first_ms", median(render_first), "ms");
  out.set("traced.render_last_ms", median(render_last), "ms");
  out.set("traced.finalize_ms", median(finalize_one), "ms");
  out.set("traced.sealed_chunks", static_cast<double>(sealed_chunks), "count");
  out.set("traced.sealed_bytes", static_cast<double>(sealed_bytes), "B");
  out.set("traced.peak_live_bytes", static_cast<double>(peak_live), "B");
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double lookups = hits + static_cast<double>(c1.misses - c0.misses);
  out.set("slog2.cache_hits", hits, "count");
  out.set("slog2.cache_misses", lookups - hits, "count");
  out.set("slog2.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  out.set("slog2.cache_evictions", static_cast<double>(c1.evictions - c0.evictions),
          "count");
  out.set("slog2.cache_bytes", static_cast<double>(c1.bytes), "B");
}

}  // namespace pb
