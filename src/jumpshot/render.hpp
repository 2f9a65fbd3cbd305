// Headless timeline renderer: draws an SLOG-2 window as SVG with Jumpshot's
// visual vocabulary — timelines per rank on a dark canvas, state rectangles
// (nested states inset), solo-event bubbles, white message arrows, a time
// axis in seconds, and the legend table. Popup contents become SVG <title>
// tooltips, so every figure in the paper can be regenerated and inspected.
//
// When a rank has more states in the window than `preview_threshold`, its
// row is drawn in Jumpshot's zoomed-out "outline form": per time bucket,
// stripes whose sizes give the relative proportion of each colour (how
// Fig. 1 renders the full thumbnail run).
//
// One timeline core draws every SVG. Its input is a RenderSource; the
// in-memory slog2::File, the lazily-decoding slog2::Navigator and
// pilot-traced's live sessions each build one, so a window costs what its
// source's visit of that window costs.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "jumpshot/stats.hpp"
#include "slog2/slog2.hpp"

namespace jumpshot {

/// Widest image the renderer draws. The outline form keeps one bucket per
/// 4 px, so an unchecked width from a request line would size that
/// allocation; anything outside [1, kMaxRenderWidth] is a util::UsageError.
inline constexpr int kMaxRenderWidth = 1 << 16;

struct RenderOptions {
  /// Window; NaN means "whole file".
  double t0 = std::numeric_limits<double>::quiet_NaN();
  double t1 = std::numeric_limits<double>::quiet_NaN();
  int width = 1200;        ///< total image width in px
  int row_height = 26;     ///< timeline row height
  int row_gap = 8;
  bool draw_arrows = true;
  bool draw_events = true;
  bool draw_legend = true;
  /// States per rank in the window beyond which the row switches to
  /// zoomed-out preview striping.
  std::size_t preview_threshold = 400;
  /// Sources that report payload_bytes (Navigator, live sessions): payload
  /// bytes the window may decode before the render switches to the outline
  /// form of the whole window instead of drawing every drawable.
  std::uint64_t lod_payload_budget = 4 * 1024 * 1024;
  /// Navigator renders only: worker threads for the window's frame decode
  /// (0 = one per hardware thread). The SVG is byte-identical at any value.
  int threads = 1;
  std::string title;
  /// Y-axis labels; defaults to "0".."N-1" (PI_SetName feeds real names).
  std::vector<std::string> rank_names;
};

using StateFn = std::function<void(const slog2::StateDrawable&)>;
using EventFn = std::function<void(const slog2::EventDrawable&)>;
using ArrowFn = std::function<void(const slog2::ArrowDrawable&)>;

/// What the timeline core draws from.
struct RenderSource {
  std::int32_t nranks = 0;
  /// The span drawn when RenderOptions leaves t0/t1 NaN.
  double t_min = 0.0;
  double t_max = 0.0;
  const std::vector<slog2::Category>* categories = nullptr;
  /// Call back every drawable that meets [a, b] (slog2::File::visit_window
  /// rules). Draw order follows visit order.
  std::function<void(double a, double b, const StateFn&, const EventFn&,
                     const ArrowFn&)>
      visit;
  /// Optional: payload bytes a visit of [a, b] would decode. When set and
  /// above RenderOptions::lod_payload_budget, the window is drawn in outline
  /// form and the SVG carries a "preview-lod" marker.
  std::function<std::uint64_t(double a, double b)> payload_bytes;
  /// Optional: a stored preview covering [a, b] for the outline form. Without
  /// one, the core fills a preview over the window in a single visit.
  std::function<slog2::Navigator::PreviewView(double a, double b)> preview;
  /// Optional legend table (count, inclusive, exclusive per category); null
  /// draws a swatch-only legend.
  const std::vector<LegendEntry>* legend = nullptr;
};

/// The timeline core: render `src` to an SVG document string. Throws
/// util::UsageError when opts.width is outside [1, kMaxRenderWidth].
std::string render_svg(const RenderSource& src, const RenderOptions& opts = {});

/// Render to an SVG document string, with the full legend table.
std::string render_svg(const slog2::File& file, const RenderOptions& opts = {});

/// Render and write to `path`.
void render_to_file(const std::filesystem::path& path, const slog2::File& file,
                    const RenderOptions& opts = {});

/// Render a window straight from the on-disk frame directory: only frames
/// intersecting [t0, t1] are decoded, so a zoomed-in render of a huge trace
/// costs O(window + log frames), not O(trace). When the window's payload
/// exceeds `lod_payload_budget`, no payload is decoded at all — the stored
/// preview histogram of the covering frame is striped instead (the SVG then
/// carries a "preview-lod" marker comment).
std::string render_svg(slog2::Navigator& nav, const RenderOptions& opts = {});

void render_to_file(const std::filesystem::path& path, slog2::Navigator& nav,
                    const RenderOptions& opts = {});

/// Jumpshot's "statistics picture" for a user-selected duration (the paper
/// highlights it for spotting load imbalance): one horizontal bar per rank,
/// stacked by state category and scaled by busy time within [t0, t1], with
/// the imbalance factor in the header. NaN bounds mean the whole file.
struct StatsRenderOptions {
  double t0 = std::numeric_limits<double>::quiet_NaN();
  double t1 = std::numeric_limits<double>::quiet_NaN();
  int width = 900;
  std::string title;
  std::vector<std::string> rank_names;
};

std::string render_stats_svg(const slog2::File& file,
                             const StatsRenderOptions& opts = {});
void render_stats_to_file(const std::filesystem::path& path, const slog2::File& file,
                          const StatsRenderOptions& opts = {});

}  // namespace jumpshot
