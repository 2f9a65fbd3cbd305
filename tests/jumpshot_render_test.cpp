#include "jumpshot/render.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "jumpshot/search.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/prng.hpp"

namespace {

clog2::File demo_trace() {
  clog2::File f;
  f.nranks = 3;
  f.records.emplace_back(clog2::StateDef{1, 10, 11, "PI_Read", "red", "Line: %d"});
  f.records.emplace_back(clog2::StateDef{2, 20, 21, "PI_Write", "green", ""});
  f.records.emplace_back(clog2::EventDef{30, "MsgArrive", "yellow", ""});
  f.records.emplace_back(clog2::EventRec{0.10, 1, 10, "Line: 12"});
  f.records.emplace_back(clog2::EventRec{0.15, 1, 30, "Channel: C1"});
  f.records.emplace_back(clog2::EventRec{0.20, 1, 11, ""});
  f.records.emplace_back(clog2::EventRec{0.05, 0, 20, ""});
  f.records.emplace_back(clog2::EventRec{0.12, 0, 21, ""});
  clog2::MsgRec send;
  send.timestamp = 0.06;
  send.rank = 0;
  send.kind = clog2::MsgRec::Kind::kSend;
  send.partner = 1;
  send.tag = 3;
  send.size = 40;
  f.records.emplace_back(send);
  clog2::MsgRec recv = send;
  recv.timestamp = 0.15;
  recv.rank = 1;
  recv.kind = clog2::MsgRec::Kind::kRecv;
  recv.partner = 0;
  f.records.emplace_back(recv);
  return f;
}

TEST(Render, ProducesWellFormedSvgWithAllObjectKinds) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::RenderOptions opts;
  opts.title = "demo";
  const std::string svg = jumpshot::render_svg(file, opts);

  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);    // state rectangles
  EXPECT_NE(svg.find("<circle"), std::string::npos);  // event bubbles
  EXPECT_NE(svg.find("marker-end"), std::string::npos);  // message arrow
  // Category colours appear (red and green themes).
  EXPECT_NE(svg.find("#ff0000"), std::string::npos);
  EXPECT_NE(svg.find("#00ff00"), std::string::npos);
  // Popup (tooltip) contents.
  EXPECT_NE(svg.find("Line: 12"), std::string::npos);
  EXPECT_NE(svg.find("PI_Read"), std::string::npos);
  // Legend present.
  EXPECT_NE(svg.find("legend:"), std::string::npos);
}

TEST(Render, RankNamesUsedWhenProvided) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::RenderOptions opts;
  opts.rank_names = {"PI_MAIN", "worker", "C"};
  const std::string svg = jumpshot::render_svg(file, opts);
  EXPECT_NE(svg.find("PI_MAIN"), std::string::npos);
  EXPECT_NE(svg.find("worker"), std::string::npos);
}

TEST(Render, ZoomWindowCullsOutside) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::RenderOptions opts;
  opts.t0 = 0.0;
  opts.t1 = 0.04;  // before everything
  opts.draw_legend = false;
  const std::string svg = jumpshot::render_svg(file, opts);
  EXPECT_EQ(svg.find("PI_Read  rank"), std::string::npos);
  EXPECT_EQ(svg.find("<circle"), std::string::npos);
}

TEST(Render, PreviewStripingKicksInForDenseRows) {
  // Build a dense single-rank trace exceeding the preview threshold.
  clog2::File f;
  f.nranks = 1;
  f.records.emplace_back(clog2::StateDef{1, 10, 11, "Busy", "gray", ""});
  for (int i = 0; i < 2000; ++i) {
    f.records.emplace_back(clog2::EventRec{i * 0.001, 0, 10, ""});
    f.records.emplace_back(clog2::EventRec{i * 0.001 + 0.0005, 0, 11, ""});
  }
  const auto file = slog2::convert(f);
  jumpshot::RenderOptions opts;
  opts.preview_threshold = 100;
  opts.draw_legend = false;
  const std::string striped = jumpshot::render_svg(file, opts);
  // Preview mode: no per-state tooltips, but an outline rect and stripes.
  EXPECT_EQ(striped.find("Busy  rank"), std::string::npos);
  EXPECT_NE(striped.find("fill='none'"), std::string::npos);

  opts.preview_threshold = 100000;
  const std::string full = jumpshot::render_svg(file, opts);
  EXPECT_NE(full.find("Busy  rank"), std::string::npos);
}

TEST(Render, EmptyFileStillRenders) {
  clog2::File f;
  f.nranks = 0;
  const auto file = slog2::convert(f);
  const std::string svg = jumpshot::render_svg(file);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Render, RejectsOutOfRangeWidth) {
  // The check runs before anything is sized by the width: a tiny trace has
  // no outline rows, so an unchecked width would only draw a huge canvas.
  util::TempDir dir;
  const auto file = slog2::convert(demo_trace());
  slog2::write_file(dir.file("t.slog2"), file);
  slog2::Navigator nav(dir.file("t.slog2"));
  for (const int width : {0, -5, jumpshot::kMaxRenderWidth + 1, 2000000000}) {
    jumpshot::RenderOptions opts;
    opts.width = width;
    EXPECT_THROW((void)jumpshot::render_svg(file, opts), util::UsageError) << width;
    EXPECT_THROW((void)jumpshot::render_svg(nav, opts), util::UsageError) << width;
  }
  jumpshot::RenderOptions widest;
  widest.width = jumpshot::kMaxRenderWidth;
  EXPECT_NE(jumpshot::render_svg(file, widest).find("<svg"), std::string::npos);
}

TEST(Render, WritesFile) {
  util::TempDir dir;
  const auto file = slog2::convert(demo_trace());
  jumpshot::render_to_file(dir.file("out.svg"), file);
  const auto text = util::read_text_file(dir.file("out.svg"));
  EXPECT_NE(text.find("<svg"), std::string::npos);
}

TEST(Render, XmlSpecialCharsEscapedInTooltips) {
  clog2::File f;
  f.nranks = 1;
  f.records.emplace_back(clog2::EventDef{30, "Odd<&>", "yellow", ""});
  f.records.emplace_back(clog2::EventRec{1.0, 0, 30, "a<b & c>\"d\""});
  const auto file = slog2::convert(f);
  const std::string svg = jumpshot::render_svg(file);
  EXPECT_EQ(svg.find("a<b"), std::string::npos);
  EXPECT_NE(svg.find("a&lt;b"), std::string::npos);
}

// --- windowed rendering through the Navigator --------------------------------

clog2::File dense_trace(int n) {
  util::SplitMix64 rng(17);
  clog2::File f;
  f.nranks = 4;
  f.records.emplace_back(clog2::StateDef{1, 10, 11, "Work", "gray", ""});
  struct Timed {
    double t;
    clog2::Record rec;
  };
  std::vector<Timed> timed;
  for (int i = 0; i < n; ++i) {
    const int rank = static_cast<int>(rng.below(4));
    const double s = rng.uniform(0, 10);
    const double e = s + rng.uniform(1e-4, 1e-2);
    timed.push_back({s, clog2::EventRec{s, rank, 10, ""}});
    timed.push_back({e, clog2::EventRec{e, rank, 11, ""}});
  }
  std::sort(timed.begin(), timed.end(),
            [](const Timed& a, const Timed& b) { return a.t < b.t; });
  for (auto& t : timed) f.records.emplace_back(std::move(t.rec));
  return f;
}

TEST(RenderWindowed, NavigatorDecodesOnlyWindowFrames) {
  util::TempDir dir;
  slog2::ConvertOptions copts;
  copts.frame_size = 2048;  // many frames, so a window is a strict subset
  slog2::write_file(dir.file("t.slog2"), slog2::convert(dense_trace(4000), copts));

  slog2::Navigator nav(dir.file("t.slog2"));
  jumpshot::RenderOptions opts;
  opts.t0 = 4.9;
  opts.t1 = 5.1;
  const std::string svg = jumpshot::render_svg(nav, opts);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_EQ(svg.find("preview-lod"), std::string::npos);
  EXPECT_GT(nav.frames_decoded(), 0u);
  EXPECT_LT(nav.frames_decoded(), nav.total_frames());
}

TEST(RenderWindowed, PreviewLodUnderBudgetDecodesNothing) {
  util::TempDir dir;
  slog2::ConvertOptions copts;
  copts.frame_size = 2048;
  slog2::write_file(dir.file("t.slog2"), slog2::convert(dense_trace(4000), copts));

  slog2::Navigator nav(dir.file("t.slog2"));
  jumpshot::RenderOptions opts;
  opts.lod_payload_budget = 1;  // every window exceeds this
  const std::string svg = jumpshot::render_svg(nav, opts);
  EXPECT_NE(svg.find("preview-lod"), std::string::npos);
  EXPECT_NE(svg.find("outline form"), std::string::npos);
  EXPECT_EQ(nav.frames_decoded(), 0u);
}

TEST(RenderWindowed, MatchesWholeFileDrawing) {
  // The Navigator path must draw the same states the whole-file renderer
  // draws for the same window (legend style differs, rectangles must not).
  util::TempDir dir;
  const auto file = slog2::convert(demo_trace());
  slog2::write_file(dir.file("t.slog2"), file);
  slog2::Navigator nav(dir.file("t.slog2"));

  jumpshot::RenderOptions opts;
  opts.draw_legend = false;
  const std::string whole = jumpshot::render_svg(file, opts);
  const std::string windowed = jumpshot::render_svg(nav, opts);
  const auto count = [](const std::string& svg, const char* needle) {
    std::size_t n = 0;
    for (auto p = svg.find(needle); p != std::string::npos;
         p = svg.find(needle, p + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(count(whole, "<rect"), count(windowed, "<rect"));
  EXPECT_EQ(count(whole, "<circle"), count(windowed, "<circle"));
  EXPECT_EQ(count(whole, "marker-end"), count(windowed, "marker-end"));
}

// --- search ------------------------------------------------------------------

TEST(Search, FindsByCategoryName) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::SearchQuery q;
  q.needle = "pi_read";
  const auto hits = jumpshot::search(file, q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].kind, jumpshot::SearchHit::Kind::kState);
  EXPECT_EQ(hits[0].rank, 1);
}

TEST(Search, FindsByPopupText) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::SearchQuery q;
  q.needle = "channel: c1";
  const auto hits = jumpshot::search(file, q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].kind, jumpshot::SearchHit::Kind::kEvent);
}

TEST(Search, RankAndWindowFilters) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::SearchQuery q;
  q.rank = 0;
  auto hits = jumpshot::search(file, q);
  for (const auto& h : hits) EXPECT_EQ(h.rank, 0);

  jumpshot::SearchQuery win;
  win.t0 = 0.0;
  win.t1 = 0.04;
  EXPECT_TRUE(jumpshot::search(file, win).empty());
}

TEST(Search, ResultsSortedByTimeAndCapped) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::SearchQuery q;  // empty needle: everything
  q.max_results = 2;
  const auto hits = jumpshot::search(file, q);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_LE(hits[0].start_time, hits[1].start_time);
}

TEST(Search, ArrowsSearchable) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::SearchQuery q;
  q.needle = "message";
  const auto hits = jumpshot::search(file, q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].kind, jumpshot::SearchHit::Kind::kArrow);
  EXPECT_NE(hits[0].text.find("tag=3"), std::string::npos);
}

}  // namespace
