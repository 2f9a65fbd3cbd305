#include "jumpshot/render.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "slog2/convert_internal.hpp"
#include "util/color.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace jumpshot {

namespace {

// Jumpshot-like dark canvas.
constexpr const char* kCanvasColor = "#101014";
constexpr const char* kAxisColor = "#c8c8c8";
constexpr const char* kGridColor = "#2e2e36";
constexpr int kMarginLeft = 96;
constexpr int kMarginRight = 16;
constexpr int kMarginTop = 52;
constexpr int kMarginBottom = 16;
constexpr int kLegendRow = 18;

struct Layout {
  double a = 0.0;
  double b = 1.0;
  int plot_width = 0;
  int nranks = 0;
  int row_height = 0;
  int row_gap = 0;

  [[nodiscard]] double x(double t) const {
    return kMarginLeft + (t - a) / (b - a) * plot_width;
  }
  [[nodiscard]] double row_top(int rank) const {
    return kMarginTop + static_cast<double>(rank) * (row_height + row_gap);
  }
  [[nodiscard]] double row_center(int rank) const {
    return row_top(rank) + row_height / 2.0;
  }
};

const slog2::Category* find_category(const std::vector<slog2::Category>& cats,
                                     std::int32_t id) {
  for (const auto& c : cats)
    if (c.id == id) return &c;
  return nullptr;
}

std::string hex_color(const slog2::Category& c) {
  return util::is_known_color(c.color) ? util::color_by_name(c.color).to_hex()
                                       : "#888888";
}

std::string color_of(const std::vector<slog2::Category>& cats, std::int32_t cat) {
  const auto* c = find_category(cats, cat);
  return c ? hex_color(*c) : "#888888";
}

std::string name_of(const std::vector<slog2::Category>& cats, std::int32_t cat) {
  const auto* c = find_category(cats, cat);
  return c ? c->name : "?";
}

void tooltip(std::string& svg, const std::string& text) {
  svg += "<title>" + util::xml_escape(text) + "</title>";
}

// Choose ~`target` round tick spacing covering [a, b].
double tick_step(double a, double b, int target) {
  const double raw = (b - a) / std::max(target, 1);
  if (raw <= 0) return 1.0;
  const double mag = std::pow(10.0, std::floor(std::log10(raw)));
  for (double m : {1.0, 2.0, 5.0, 10.0}) {
    if (raw <= m * mag) return m * mag;
  }
  return 10.0 * mag;
}

void draw_axis(std::string& svg, const Layout& lay) {
  const double bottom =
      lay.row_top(lay.nranks) - lay.row_gap + 4.0;
  const double step = tick_step(lay.a, lay.b, 8);
  const double first = std::ceil(lay.a / step) * step;
  for (double t = first; t <= lay.b + step * 1e-9; t += step) {
    const double px = lay.x(t);
    svg += util::strprintf(
        "<line x1='%.1f' y1='%d' x2='%.1f' y2='%.1f' stroke='%s' "
        "stroke-width='1'/>\n",
        px, kMarginTop - 6, px, bottom, kGridColor);
    svg += util::strprintf(
        "<text x='%.1f' y='%d' fill='%s' font-size='11' text-anchor='middle' "
        "font-family='monospace'>%s</text>\n",
        px, kMarginTop - 10, kAxisColor, util::human_seconds(t).c_str());
  }
}

struct RankItems {
  std::vector<const slog2::StateDrawable*> states;
  std::vector<const slog2::EventDrawable*> events;
};

void draw_state_rects(std::string& svg, const std::vector<slog2::Category>& cats,
                      const Layout& lay, int rank,
                      const std::vector<const slog2::StateDrawable*>& states) {
  for (const auto* s : states) {
    const double x0 = std::max(lay.x(s->start_time), static_cast<double>(kMarginLeft));
    const double x1 =
        std::min(lay.x(s->end_time), static_cast<double>(kMarginLeft + lay.plot_width));
    const double w = std::max(x1 - x0, 0.75);
    const int inset = std::min(s->depth * 3, lay.row_height / 2 - 2);
    const double y = lay.row_top(rank) + inset;
    const double h = std::max(lay.row_height - 2.0 * inset, 3.0);
    svg += util::strprintf(
        "<rect x='%.2f' y='%.2f' width='%.2f' height='%.2f' fill='%s' "
        "stroke='black' stroke-width='0.4'>",
        x0, y, w, h, color_of(cats, s->category_id).c_str());
    tooltip(svg, util::strprintf(
                     "%s  rank %d  [%s .. %s]  dur %s%s%s",
                     name_of(cats, s->category_id).c_str(), rank,
                     util::human_seconds(s->start_time).c_str(),
                     util::human_seconds(s->end_time).c_str(),
                     util::human_seconds(s->end_time - s->start_time).c_str(),
                     s->start_text.empty() ? "" : ("  " + s->start_text).c_str(),
                     s->end_text.empty() ? "" : ("  " + s->end_text).c_str()));
    svg += "</rect>\n";
  }
}

// Zoomed-out "outline form": an outlined row subdivided into time buckets;
// within each bucket, stacked stripes sized by each colour's share of busy
// time (how Jumpshot summarizes intervals with too many state changes).
void draw_state_preview(std::string& svg, const std::vector<slog2::Category>& cats,
                        const Layout& lay, int rank,
                        const std::vector<const slog2::StateDrawable*>& states) {
  const int bucket_px = 4;
  const int nbuckets = std::max(lay.plot_width / bucket_px, 1);
  const double bucket_dt = (lay.b - lay.a) / nbuckets;
  // occupancy[bucket][category] = seconds
  std::vector<std::map<std::int32_t, double>> occupancy(
      static_cast<std::size_t>(nbuckets));
  for (const auto* s : states) {
    const double lo = std::max(s->start_time, lay.a);
    const double hi = std::min(s->end_time, lay.b);
    if (hi <= lo) continue;
    int first = std::clamp(static_cast<int>((lo - lay.a) / bucket_dt), 0, nbuckets - 1);
    int last = std::clamp(static_cast<int>((hi - lay.a) / bucket_dt), 0, nbuckets - 1);
    for (int i = first; i <= last; ++i) {
      const double b0 = lay.a + i * bucket_dt;
      const double b1 = b0 + bucket_dt;
      const double overlap = std::min(hi, b1) - std::max(lo, b0);
      if (overlap > 0) occupancy[static_cast<std::size_t>(i)][s->category_id] += overlap;
    }
  }

  const double y = lay.row_top(rank);
  for (int i = 0; i < nbuckets; ++i) {
    const auto& bucket_cats = occupancy[static_cast<std::size_t>(i)];
    if (bucket_cats.empty()) continue;
    double total = 0.0;
    for (const auto& [cat, secs] : bucket_cats) total += secs;
    if (total <= 0.0) continue;
    const double px0 = kMarginLeft + static_cast<double>(i) * bucket_px;
    double yoff = 0.0;
    for (const auto& [cat, secs] : bucket_cats) {
      const double h = secs / total * lay.row_height;
      svg += util::strprintf(
          "<rect x='%.1f' y='%.2f' width='%d' height='%.2f' fill='%s'/>\n", px0,
          y + yoff, bucket_px, std::max(h, 0.5), color_of(cats, cat).c_str());
      yoff += h;
    }
  }
  // Outline marking the summarized interval.
  svg += util::strprintf(
      "<rect x='%d' y='%.2f' width='%d' height='%d' fill='none' stroke='%s' "
      "stroke-width='0.8'/>\n",
      kMarginLeft, y, lay.plot_width, lay.row_height, kAxisColor);
}

Layout make_layout(const RenderSource& src, const RenderOptions& opts, double a,
                   double b) {
  Layout lay;
  lay.a = a;
  lay.b = b;
  if (lay.b <= lay.a) lay.b = lay.a + 1e-9;
  lay.plot_width = std::max(opts.width - kMarginLeft - kMarginRight, 100);
  lay.nranks = std::max(src.nranks, 1);
  lay.row_height = opts.row_height;
  lay.row_gap = opts.row_gap;
  return lay;
}

int plot_bottom_of(const Layout& lay) {
  return kMarginTop + lay.nranks * (lay.row_height + lay.row_gap);
}

// Opens the document: svg element, canvas, arrowhead marker (timeline only;
// the outline form has no arrows and carries the "preview-lod" marker
// instead), title and time axis.
std::string open_svg(const RenderSource& src, const RenderOptions& opts,
                     const Layout& lay, bool outline) {
  const int legend_lines =
      opts.draw_legend ? static_cast<int>(src.categories->size()) + 1 : 0;
  const int height = plot_bottom_of(lay) + legend_lines * kLegendRow + kMarginBottom;
  std::string svg;
  svg += util::strprintf(
      "<svg xmlns='http://www.w3.org/2000/svg' width='%d' height='%d' "
      "viewBox='0 0 %d %d'>\n",
      opts.width, height, opts.width, height);
  if (outline) svg += "<!-- preview-lod -->\n";
  svg += util::strprintf("<rect width='%d' height='%d' fill='%s'/>\n", opts.width,
                         height, kCanvasColor);
  if (!outline)
    svg +=
        "<defs><marker id='arrowhead' markerWidth='7' markerHeight='6' refX='6' "
        "refY='3' orient='auto'><polygon points='0 0, 7 3, 0 6' fill='white'/>"
        "</marker></defs>\n";
  if (!opts.title.empty()) {
    svg += util::strprintf(
        "<text x='%d' y='18' fill='%s' font-size='14' font-family='sans-serif'>"
        "%s</text>\n",
        kMarginLeft, kAxisColor, util::xml_escape(opts.title).c_str());
  }
  draw_axis(svg, lay);
  return svg;
}

// The legend block below the plot: the source's table (count, inclusive,
// exclusive) when it has one, otherwise a swatch per category (a Navigator
// or live window cannot total the whole trace without decoding it).
void draw_legend(std::string& svg, const RenderSource& src, int plot_bottom) {
  int y = plot_bottom + kLegendRow;
  svg += util::strprintf(
      "<text x='%d' y='%d' fill='%s' font-size='12' font-family='monospace'>"
      "%s</text>\n",
      kMarginLeft, y, kAxisColor,
      src.legend ? "legend: name  count  incl  excl" : "legend: name");
  auto swatch = [&](const slog2::Category& c) {
    y += kLegendRow;
    svg += util::strprintf(
        "<rect x='%d' y='%d' width='12' height='12' fill='%s' stroke='%s' "
        "stroke-width='0.5'/>\n",
        kMarginLeft, y - 10, hex_color(c).c_str(), kAxisColor);
  };
  if (src.legend == nullptr) {
    for (const auto& c : *src.categories) {
      swatch(c);
      svg += util::strprintf(
          "<text x='%d' y='%d' fill='%s' font-size='12' font-family='monospace'>"
          "%s</text>\n",
          kMarginLeft + 18, y, kAxisColor, util::xml_escape(c.name).c_str());
    }
    return;
  }
  for (const auto& e : *src.legend) {
    swatch(e.category);
    svg += util::strprintf(
        "<text x='%d' y='%d' fill='%s' font-size='12' font-family='monospace'>"
        "%-24s %8llu  %s  %s</text>\n",
        kMarginLeft + 18, y, kAxisColor, util::xml_escape(e.category.name).c_str(),
        static_cast<unsigned long long>(e.count),
        util::human_seconds(e.inclusive).c_str(),
        util::human_seconds(e.exclusive).c_str());
  }
}

std::string render_timeline(const RenderSource& src, const RenderOptions& opts,
                            const Layout& lay) {
  const auto& cats = *src.categories;
  std::string svg = open_svg(src, opts, lay, /*outline=*/false);

  // Rank labels and row baselines.
  for (int r = 0; r < lay.nranks; ++r) {
    std::string label = r < static_cast<int>(opts.rank_names.size())
                            ? opts.rank_names[static_cast<std::size_t>(r)]
                            : std::to_string(r);
    svg += util::strprintf(
        "<text x='%d' y='%.1f' fill='%s' font-size='12' text-anchor='end' "
        "font-family='monospace'>%s</text>\n",
        kMarginLeft - 8, lay.row_center(r) + 4, kAxisColor,
        util::xml_escape(label).c_str());
    svg += util::strprintf(
        "<line x1='%d' y1='%.1f' x2='%d' y2='%.1f' stroke='%s' "
        "stroke-width='0.5'/>\n",
        kMarginLeft, lay.row_center(r), kMarginLeft + lay.plot_width,
        lay.row_center(r), kGridColor);
  }

  // Gather the window's drawables grouped per rank.
  std::map<int, RankItems> per_rank;
  std::vector<const slog2::ArrowDrawable*> arrows;
  std::vector<slog2::StateDrawable> state_storage;
  std::vector<slog2::EventDrawable> event_storage;
  std::vector<slog2::ArrowDrawable> arrow_storage;
  src.visit(
      lay.a, lay.b,
      [&](const slog2::StateDrawable& s) { state_storage.push_back(s); },
      [&](const slog2::EventDrawable& e) { event_storage.push_back(e); },
      [&](const slog2::ArrowDrawable& ar) { arrow_storage.push_back(ar); });
  for (const auto& s : state_storage) per_rank[s.rank].states.push_back(&s);
  for (const auto& e : event_storage) per_rank[e.rank].events.push_back(&e);
  for (const auto& ar : arrow_storage) arrows.push_back(&ar);

  // States: full rectangles or preview striping per row.
  for (auto& [rank, items] : per_rank) {
    if (rank < 0 || rank >= lay.nranks) continue;
    // Draw outer states first so nested ones paint on top.
    std::sort(items.states.begin(), items.states.end(),
              [](const slog2::StateDrawable* x, const slog2::StateDrawable* y) {
                return x->depth < y->depth;
              });
    if (items.states.size() > opts.preview_threshold) {
      draw_state_preview(svg, cats, lay, rank, items.states);
    } else {
      draw_state_rects(svg, cats, lay, rank, items.states);
    }
  }

  // Arrows between rank timelines.
  if (opts.draw_arrows) {
    for (const auto* ar : arrows) {
      if (ar->src_rank < 0 || ar->src_rank >= lay.nranks || ar->dst_rank < 0 ||
          ar->dst_rank >= lay.nranks)
        continue;
      svg += util::strprintf(
          "<line x1='%.2f' y1='%.2f' x2='%.2f' y2='%.2f' stroke='white' "
          "stroke-width='0.9' marker-end='url(#arrowhead)'>",
          lay.x(ar->start_time), lay.row_center(ar->src_rank), lay.x(ar->end_time),
          lay.row_center(ar->dst_rank));
      tooltip(svg, util::strprintf(
                       "message %d -> %d  tag %d  %u bytes  [%s .. %s]  dur %s",
                       ar->src_rank, ar->dst_rank, ar->tag, ar->size,
                       util::human_seconds(ar->start_time).c_str(),
                       util::human_seconds(ar->end_time).c_str(),
                       util::human_seconds(ar->end_time - ar->start_time).c_str()));
      svg += "</line>\n";
    }
  }

  // Event bubbles on top.
  if (opts.draw_events) {
    for (auto& [rank, items] : per_rank) {
      if (rank < 0 || rank >= lay.nranks) continue;
      for (const auto* e : items.events) {
        svg += util::strprintf(
            "<circle cx='%.2f' cy='%.2f' r='3' fill='%s' stroke='black' "
            "stroke-width='0.4'>",
            lay.x(e->time), lay.row_center(rank), color_of(cats, e->category_id).c_str());
        tooltip(svg,
                util::strprintf("%s  rank %d  t=%s%s",
                                name_of(cats, e->category_id).c_str(), rank,
                                util::human_seconds(e->time).c_str(),
                                e->text.empty() ? "" : ("  " + e->text).c_str()));
        svg += "</circle>\n";
      }
    }
  }

  if (opts.draw_legend) draw_legend(svg, src, plot_bottom_of(lay));
  svg += "</svg>\n";
  return svg;
}

// Zoomed-out outline form of the whole window: no drawable is drawn, only
// category stripes from a preview histogram — the source's stored covering
// preview (a Navigator decodes no payload at all), or one filled over the
// window in a single visit. Previews carry no rank axis, so the band spans
// every timeline row.
std::string render_outline(const RenderSource& src, const RenderOptions& opts,
                           const Layout& lay) {
  const auto& cats = *src.categories;
  std::string svg = open_svg(src, opts, lay, /*outline=*/true);

  slog2::Preview filled;
  slog2::Navigator::PreviewView pv;
  if (src.preview) {
    pv = src.preview(lay.a, lay.b);
  } else {
    filled.nbuckets = slog2::ConvertOptions{}.preview_buckets;
    src.visit(
        lay.a, lay.b,
        [&](const slog2::StateDrawable& s) {
          slog2::detail::add_occupancy(filled, lay.a, lay.b, s.category_id,
                                       s.start_time, s.end_time);
        },
        nullptr, [&](const slog2::ArrowDrawable&) { ++filled.arrow_count; });
    pv = slog2::Navigator::PreviewView{lay.a, lay.b, &filled};
  }
  const double band_top = lay.row_top(0);
  const double band_h =
      lay.row_top(lay.nranks) - lay.row_gap - band_top;
  if (pv.preview != nullptr && pv.preview->nbuckets > 0 && pv.t1 > pv.t0) {
    const int nb = pv.preview->nbuckets;
    const double bucket_dt = (pv.t1 - pv.t0) / nb;
    for (int i = 0; i < nb; ++i) {
      const double b0 = pv.t0 + i * bucket_dt;
      const double b1 = b0 + bucket_dt;
      if (b1 < lay.a || b0 > lay.b) continue;
      double total = 0.0;
      for (const auto& [cat, buckets] : pv.preview->state_occupancy)
        if (static_cast<std::size_t>(i) < buckets.size())
          total += buckets[static_cast<std::size_t>(i)];
      if (total <= 0.0) continue;
      const double x0 = std::max(lay.x(b0), static_cast<double>(kMarginLeft));
      const double x1 = std::min(lay.x(b1),
                                 static_cast<double>(kMarginLeft + lay.plot_width));
      if (x1 <= x0) continue;
      double yoff = 0.0;
      for (const auto& [cat, buckets] : pv.preview->state_occupancy) {
        if (static_cast<std::size_t>(i) >= buckets.size()) continue;
        const double share = buckets[static_cast<std::size_t>(i)] / total;
        if (share <= 0.0) continue;
        const double h = share * band_h;
        svg += util::strprintf(
            "<rect x='%.2f' y='%.2f' width='%.2f' height='%.2f' fill='%s'/>\n",
            x0, band_top + yoff, x1 - x0, std::max(h, 0.5),
            color_of(cats, cat).c_str());
        yoff += h;
      }
    }
    svg += util::strprintf(
        "<text x='%d' y='%.1f' fill='%s' font-size='11' font-family='monospace'>"
        "outline form: %u arrows in %s</text>\n",
        kMarginLeft, band_top - 4, kAxisColor, pv.preview->arrow_count,
        src.preview ? "covering frame" : "window");
  }
  // Outline marking the summarized interval.
  svg += util::strprintf(
      "<rect x='%d' y='%.2f' width='%d' height='%.2f' fill='none' stroke='%s' "
      "stroke-width='0.8'/>\n",
      kMarginLeft, band_top, lay.plot_width, band_h, kAxisColor);

  if (opts.draw_legend) draw_legend(svg, src, plot_bottom_of(lay));
  svg += "</svg>\n";
  return svg;
}

}  // namespace

std::string render_svg(const RenderSource& src, const RenderOptions& opts) {
  if (opts.width < 1 || opts.width > kMaxRenderWidth)
    throw util::UsageError(util::strprintf(
        "render width %d px is outside [1, %d]", opts.width, kMaxRenderWidth));
  const double a = std::isnan(opts.t0) ? src.t_min : opts.t0;
  const double b = std::isnan(opts.t1) ? src.t_max : opts.t1;
  const Layout lay = make_layout(src, opts, a, b);
  if (src.payload_bytes && src.payload_bytes(a, b) > opts.lod_payload_budget)
    return render_outline(src, opts, lay);
  return render_timeline(src, opts, lay);
}

std::string render_svg(const slog2::File& file, const RenderOptions& opts) {
  std::vector<LegendEntry> table;
  if (opts.draw_legend) table = legend(file, LegendSort::kByInclusive);
  RenderSource src;
  src.nranks = file.nranks;
  src.t_min = file.t_min;
  src.t_max = file.t_max;
  src.categories = &file.categories;
  src.visit = [&file](double a, double b, const StateFn& on_state,
                      const EventFn& on_event, const ArrowFn& on_arrow) {
    file.visit_window(a, b, on_state, on_event, on_arrow);
  };
  src.legend = &table;
  return render_svg(src, opts);
}

void render_to_file(const std::filesystem::path& path, const slog2::File& file,
                    const RenderOptions& opts) {
  util::write_file(path, render_svg(file, opts));
}

std::string render_svg(slog2::Navigator& nav, const RenderOptions& opts) {
  RenderSource src;
  src.nranks = nav.nranks();
  src.t_min = nav.t_min();
  src.t_max = nav.t_max();
  src.categories = &nav.categories();
  src.visit = [&nav, &opts](double a, double b, const StateFn& on_state,
                            const EventFn& on_event, const ArrowFn& on_arrow) {
    nav.visit_window(a, b, on_state, on_event, on_arrow, opts.threads);
  };
  src.payload_bytes = [&nav](double a, double b) {
    return nav.window_payload_bytes(a, b);
  };
  src.preview = [&nav](double a, double b) { return nav.preview_covering(a, b); };
  return render_svg(src, opts);
}

void render_to_file(const std::filesystem::path& path, slog2::Navigator& nav,
                    const RenderOptions& opts) {
  util::write_file(path, render_svg(nav, opts));
}

}  // namespace jumpshot
