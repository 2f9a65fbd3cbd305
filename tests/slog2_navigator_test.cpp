// Navigator: partial (lazy) loading from the frame directory — the real
// SLOG-2's defining capability.
#include <gtest/gtest.h>

#include "slog2/frame_cache.hpp"
#include "slog2/slog2.hpp"
#include "util/fs.hpp"
#include "util/prng.hpp"

namespace {

clog2::File random_trace(std::uint64_t seed, int n) {
  util::SplitMix64 rng(seed);
  clog2::File f;
  f.nranks = 4;
  f.records.emplace_back(clog2::StateDef{1, 10, 11, "S", "red", ""});
  struct Timed {
    double t;
    clog2::Record rec;
  };
  std::vector<Timed> timed;
  for (int i = 0; i < n; ++i) {
    const int rank = static_cast<int>(rng.below(4));
    const double s = rng.uniform(0, 9);
    const double e = s + rng.uniform(1e-5, 0.5);
    timed.push_back({s, clog2::EventRec{s, rank, 10, "some popup text"}});
    timed.push_back({e, clog2::EventRec{e, rank, 11, ""}});
  }
  std::sort(timed.begin(), timed.end(),
            [](const Timed& a, const Timed& b) { return a.t < b.t; });
  for (auto& t : timed) f.records.emplace_back(std::move(t.rec));
  return f;
}

slog2::File small_frames(int n_states, std::uint64_t seed = 3) {
  slog2::ConvertOptions opts;
  opts.frame_size = 1024;  // many small frames
  return slog2::convert(random_trace(seed, n_states), opts);
}

TEST(Navigator, HeaderMatchesFile) {
  const auto file = small_frames(2000);
  slog2::Navigator nav(slog2::serialize(file));
  EXPECT_EQ(nav.nranks(), file.nranks);
  EXPECT_DOUBLE_EQ(nav.t_min(), file.t_min);
  EXPECT_DOUBLE_EQ(nav.t_max(), file.t_max);
  EXPECT_EQ(nav.categories().size(), file.categories.size());
  EXPECT_EQ(nav.stats().total_states, file.stats.total_states);
  EXPECT_EQ(nav.total_frames(), file.stats.frames);
  ASSERT_NE(nav.category(1), nullptr);
  EXPECT_EQ(nav.category(1)->name, "S");
}

TEST(Navigator, FullWindowMatchesEagerParse) {
  const auto file = small_frames(1500);
  slog2::Navigator nav(slog2::serialize(file));

  auto collect = [](auto&& visit) {
    std::vector<std::tuple<int, double, double>> sig;
    visit([&](const slog2::StateDrawable& s) {
      sig.emplace_back(s.rank, s.start_time, s.end_time);
    });
    std::sort(sig.begin(), sig.end());
    return sig;
  };
  const auto eager = collect([&](auto cb) {
    file.visit_window(file.t_min, file.t_max, cb, nullptr, nullptr);
  });
  const auto lazy = collect([&](auto cb) {
    nav.visit_window(nav.t_min(), nav.t_max(), cb, nullptr, nullptr);
  });
  EXPECT_EQ(eager, lazy);
  EXPECT_EQ(nav.frames_decoded(), nav.total_frames());
}

TEST(Navigator, ZoomedWindowDecodesOnlyAFewFrames) {
  const auto file = small_frames(4000);
  slog2::Navigator nav(slog2::serialize(file));
  ASSERT_GT(nav.total_frames(), 20u);

  const double span = nav.t_max() - nav.t_min();
  const double a = nav.t_min() + span * 0.50;
  const double b = a + span * 0.01;
  std::size_t hits = 0;
  nav.visit_window(a, b, [&](const slog2::StateDrawable&) { ++hits; }, nullptr,
                   nullptr);
  EXPECT_GT(hits, 0u);
  // The whole point: a narrow window touches a small fraction of frames.
  EXPECT_LT(nav.frames_decoded(), nav.total_frames() / 2);
}

TEST(Navigator, DecodedFramesAreCached) {
  const auto file = small_frames(1000);
  slog2::Navigator nav(slog2::serialize(file));
  const double span = nav.t_max() - nav.t_min();
  const double a = nav.t_min() + span * 0.3;
  const double b = a + span * 0.05;

  nav.visit_window(a, b, [](const slog2::StateDrawable&) {}, nullptr, nullptr);
  const std::size_t first = nav.frames_decoded();
  nav.visit_window(a, b, [](const slog2::StateDrawable&) {}, nullptr, nullptr);
  EXPECT_EQ(nav.frames_decoded(), first);  // repeat query decodes nothing new
}

TEST(Navigator, PreviewCoveringNeedsNoLeafDecoding) {
  const auto file = small_frames(4000);
  slog2::Navigator nav(slog2::serialize(file));

  const auto view = nav.preview_covering(nav.t_min(), nav.t_max());
  ASSERT_NE(view.preview, nullptr);
  EXPECT_EQ(view.preview->arrow_count, nav.stats().total_arrows);
  EXPECT_EQ(nav.frames_decoded(), 0u);  // previews come from the directory

  // A narrow window resolves to a deeper (smaller) covering frame.
  const double span = nav.t_max() - nav.t_min();
  const auto deep =
      nav.preview_covering(nav.t_min() + span * 0.2, nav.t_min() + span * 0.21);
  ASSERT_NE(deep.preview, nullptr);
  EXPECT_LT(deep.t1 - deep.t0, span * 0.9);
  EXPECT_EQ(nav.frames_decoded(), 0u);
}

TEST(Navigator, FileConstructor) {
  util::TempDir dir;
  const auto file = small_frames(500);
  slog2::write_file(dir.file("t.slog2"), file);
  slog2::Navigator nav(dir.file("t.slog2"));
  EXPECT_EQ(nav.stats().total_states, file.stats.total_states);
}

TEST(Navigator, RejectsCorruptDirectory) {
  auto bytes = slog2::serialize(small_frames(200));
  // Corrupt somewhere in the middle of the directory region.
  bytes[bytes.size() / 3] ^= 0xFF;
  bool threw = false;
  try {
    slog2::Navigator nav(std::move(bytes));
    // May also surface only when a frame is decoded:
    nav.visit_window(nav.t_min(), nav.t_max(), [](const slog2::StateDrawable&) {},
                     nullptr, nullptr);
  } catch (const util::IoError&) {
    threw = true;
  }
  // Either the load or the decode must notice, or — rarely — the flipped
  // byte only garbles popup text, which round-trips as data. Accept both,
  // but never crash.
  SUCCEED() << (threw ? "rejected" : "tolerated as data");
}

/// Decode every frame of `path` through a fresh Navigator; returns what one
/// generation of the file weighs in the FrameCache (payload bytes plus one
/// Frame per entry, the weight frame_ptr charges).
std::size_t decode_all(const std::filesystem::path& path) {
  slog2::Navigator nav(path);
  for (std::size_t i = 0; i < nav.total_frames(); ++i) (void)nav.frame_ptr(i);
  return static_cast<std::size_t>(nav.window_payload_bytes(nav.t_min(), nav.t_max())) +
         nav.total_frames() * sizeof(slog2::Frame);
}

TEST(FrameCache, RewriteRetiresPreviousGeneration) {
  auto& cache = slog2::FrameCache::global();
  cache.clear();
  util::TempDir dir;
  const auto path = dir.file("t.slog2");
  slog2::write_file(path, small_frames(300, 1));
  const std::size_t first = decode_all(path);
  EXPECT_EQ(cache.stats().bytes, first);
  // Rewrite the same path with a different trace (a new size, so a new
  // identity whatever the mtime resolution): only the new generation's
  // frames may stay resident.
  slog2::write_file(path, small_frames(400, 2));
  const std::size_t second = decode_all(path);
  EXPECT_NE(first, second);
  EXPECT_EQ(cache.stats().bytes, second);
  // Reopening the unchanged file shares the resident generation.
  EXPECT_EQ(decode_all(path), second);
  EXPECT_EQ(cache.stats().bytes, second);
  cache.clear();
}

TEST(FrameCache, RetiredGenerationErasedWhenLastNavigatorCloses) {
  auto& cache = slog2::FrameCache::global();
  cache.clear();
  util::TempDir dir;
  const auto path = dir.file("t.slog2");
  slog2::write_file(path, small_frames(300, 1));
  std::size_t second = 0;
  {
    // A navigator on the first generation outlives the rewrite and keeps
    // decoding under the retired owner (write_file renames a new inode
    // over the path, so its mapping still holds the old bytes).
    slog2::Navigator old_nav(path);
    slog2::write_file(path, small_frames(400, 2));
    second = decode_all(path);
    EXPECT_EQ(cache.stats().bytes, second);
    for (std::size_t i = 0; i < old_nav.total_frames(); ++i) (void)old_nav.frame_ptr(i);
    EXPECT_GT(cache.stats().bytes, second);
  }
  // Its last navigator closed: only the live generation stays resident.
  EXPECT_EQ(cache.stats().bytes, second);
  EXPECT_EQ(decode_all(path), second);
  EXPECT_EQ(cache.stats().bytes, second);
  cache.clear();
}

TEST(Navigator, EmptyTrace) {
  clog2::File empty;
  empty.nranks = 0;
  const auto file = slog2::convert(empty);
  slog2::Navigator nav(slog2::serialize(file));
  std::size_t hits = 0;
  nav.visit_window(0, 1, [&](const slog2::StateDrawable&) { ++hits; }, nullptr,
                   nullptr);
  EXPECT_EQ(hits, 0u);
}

}  // namespace
