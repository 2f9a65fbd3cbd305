#include "slog2/frame_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

#include "util/error.hpp"
#include "util/varint.hpp"

namespace slog2::detail {

namespace {

// Cheapest possible per-element sizes, used to bound the untrusted counts
// before reserving: every column contributes at least one byte per element.
constexpr std::size_t kMinStateBytes = 7;  // cat rank depth start end slen elen
constexpr std::size_t kMinEventBytes = 4;  // cat rank time tlen
constexpr std::size_t kMinArrowBytes = 6;  // src dst tag size start end

// --- time columns -----------------------------------------------------------
// Trace timestamps overwhelmingly sit on a clock grid: every finite value in
// a column is k * 2^e for one column-wide tick exponent e and a per-value
// integer k, because timers tick at a fixed resolution. The column codec
// sniffs that grid and stores integer tick deltas (kTimeGrid) — one or two
// bytes per timestamp on dense traces instead of the ~six a raw mantissa
// delta costs. Columns that are not grid-exact (NaN, infinities, negative
// zero, or full-entropy mantissas whose tick integers would overflow int64)
// fall back to the lossless bit-pattern delta chain (kTimeRaw). The mode and
// the exponent are pure functions of the column values — e is the smallest
// set-bit exponent across the column — so decode followed by re-encode is
// byte-identical.
constexpr std::uint8_t kTimeRaw = 0;
constexpr std::uint8_t kTimeGrid = 1;

constexpr std::uint64_t kFracMask = (std::uint64_t{1} << 52) - 1;

/// Exponent of the lowest set bit of `t` (i.e. the largest e with t an odd
/// multiple of 2^e), or no value when `t` cannot live on any binary grid
/// (non-finite, or -0.0 which would decode as +0.0). Exact zero reports no
/// constraint: it sits on every grid.
std::optional<int> grid_exponent(double t) {
  const auto bits = std::bit_cast<std::uint64_t>(t);
  const auto raw_exp = static_cast<int>((bits >> 52) & 0x7FF);
  const std::uint64_t frac = bits & kFracMask;
  if (raw_exp == 0x7FF) return std::nullopt;  // inf / NaN
  if ((bits << 1) == 0) {
    if (bits != 0) return std::nullopt;  // -0.0 is not k * 2^e for integer k
    return std::numeric_limits<int>::max();
  }
  const std::uint64_t mant = raw_exp == 0 ? frac : frac | (std::uint64_t{1} << 52);
  const int base = (raw_exp == 0 ? 1 : raw_exp) - 1075;
  return base + std::countr_zero(mant);
}

template <typename GetTime>
void encode_time_column(util::ByteWriter& w, std::size_t n, GetTime get) {
  if (n == 0) return;
  bool grid = true;
  int e = std::numeric_limits<int>::max();
  for (std::size_t i = 0; i < n && grid; ++i) {
    const std::optional<int> ge = grid_exponent(get(i));
    if (!ge) grid = false;
    else if (*ge < e) e = *ge;
  }
  if (e == std::numeric_limits<int>::max()) e = 0;  // all-zero column
  // Every tick integer must fit int64 exactly; a column mixing tiny ticks
  // with large magnitudes cannot, and takes the raw chain instead.
  for (std::size_t i = 0; i < n && grid; ++i) {
    if (!(std::abs(std::ldexp(get(i), -e)) < 9223372036854775808.0))
      grid = false;
  }
  if (grid) {
    w.u8(kTimeGrid);
    util::put_svarint(w, e);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto k = static_cast<std::uint64_t>(
          std::llrint(std::ldexp(get(i), -e)));
      util::put_svarint(w, static_cast<std::int64_t>(k - prev));
      prev = k;
    }
  } else {
    w.u8(kTimeRaw);
    util::F64DeltaEncoder enc;
    for (std::size_t i = 0; i < n; ++i) enc.put(w, get(i));
  }
}

template <typename SetTime>
void decode_time_column(util::ByteReader& r, std::size_t n, SetTime set) {
  if (n == 0) return;
  const std::uint8_t mode = r.u8();
  if (mode == kTimeGrid) {
    const int e = util::get_svarint32(r);
    std::uint64_t k = 0;
    util::get_svarint_batch(r, n, [&](std::size_t i, std::int64_t d) {
      k += static_cast<std::uint64_t>(d);
      set(i, std::ldexp(static_cast<double>(static_cast<std::int64_t>(k)), e));
    });
  } else if (mode == kTimeRaw) {
    std::uint64_t prev = 0;
    util::get_varint_batch(r, n, [&](std::size_t i, std::uint64_t raw) {
      prev += util::unzigzag(raw);
      double v;
      std::memcpy(&v, &prev, sizeof v);
      set(i, v);
    });
  } else {
    throw util::IoError(
        "slog2: v2 frame time column carries unknown mode byte");
  }
}

/// Read a column of `n` text lengths, then hand out the concatenated bytes
/// one string at a time. Lengths are validated against the remaining input
/// as they are consumed (take() throws on overrun), so a hostile length
/// column cannot force a giant allocation.
std::vector<std::uint32_t> read_lengths(util::ByteReader& r, std::size_t n) {
  std::vector<std::uint32_t> lens(n);
  util::get_varint32_batch(
      r, n, [&](std::size_t i, std::uint32_t v) { lens[i] = v; });
  return lens;
}

std::string read_text(util::ByteReader& r, std::uint32_t len) {
  const std::uint8_t* p = r.take(len);
  return std::string(reinterpret_cast<const char*>(p), len);
}

}  // namespace

void encode_drawables_v2(util::ByteWriter& w,
                         const std::vector<StateDrawable>& states,
                         const std::vector<EventDrawable>& events,
                         const std::vector<ArrowDrawable>& arrows) {
  util::put_varint(w, states.size());
  util::put_varint(w, events.size());
  util::put_varint(w, arrows.size());

  // States: one column per field. The delta chains restart per column (and
  // per payload), so every payload decodes independently.
  for (const auto& s : states) util::put_svarint(w, s.category_id);
  for (const auto& s : states) util::put_svarint(w, s.rank);
  for (const auto& s : states) util::put_svarint(w, s.depth);
  encode_time_column(w, states.size(),
                     [&](std::size_t i) { return states[i].start_time; });
  encode_time_column(w, states.size(),
                     [&](std::size_t i) { return states[i].end_time; });
  for (const auto& s : states) util::put_varint(w, s.start_text.size());
  for (const auto& s : states) util::put_varint(w, s.end_text.size());
  for (const auto& s : states) w.raw(s.start_text.data(), s.start_text.size());
  for (const auto& s : states) w.raw(s.end_text.data(), s.end_text.size());

  // Events.
  for (const auto& e : events) util::put_svarint(w, e.category_id);
  for (const auto& e : events) util::put_svarint(w, e.rank);
  encode_time_column(w, events.size(),
                     [&](std::size_t i) { return events[i].time; });
  for (const auto& e : events) util::put_varint(w, e.text.size());
  for (const auto& e : events) w.raw(e.text.data(), e.text.size());

  // Arrows.
  for (const auto& a : arrows) util::put_svarint(w, a.src_rank);
  for (const auto& a : arrows) util::put_svarint(w, a.dst_rank);
  for (const auto& a : arrows) util::put_svarint(w, a.tag);
  for (const auto& a : arrows) util::put_varint(w, a.size);
  encode_time_column(w, arrows.size(),
                     [&](std::size_t i) { return arrows[i].start_time; });
  encode_time_column(w, arrows.size(),
                     [&](std::size_t i) { return arrows[i].end_time; });
}

void decode_drawables_v2(util::ByteReader& r,
                         std::vector<StateDrawable>* states,
                         std::vector<EventDrawable>* events,
                         std::vector<ArrowDrawable>* arrows) {
  const std::size_t ns = r.checked_count(util::get_varint(r), kMinStateBytes);
  const std::size_t ne = r.checked_count(util::get_varint(r), kMinEventBytes);
  const std::size_t na = r.checked_count(util::get_varint(r), kMinArrowBytes);

  // Each column decodes in one tight batched loop over the raw cursor
  // (bounds-checked per column, not per value) straight into the rows.
  const std::size_t s0 = states->size();
  states->resize(s0 + ns);
  StateDrawable* const sp = states->data() + s0;
  util::get_svarint32_batch(
      r, ns, [sp](std::size_t i, std::int32_t v) { sp[i].category_id = v; });
  util::get_svarint32_batch(
      r, ns, [sp](std::size_t i, std::int32_t v) { sp[i].rank = v; });
  util::get_svarint32_batch(
      r, ns, [sp](std::size_t i, std::int32_t v) { sp[i].depth = v; });
  decode_time_column(r, ns,
                     [sp](std::size_t i, double t) { sp[i].start_time = t; });
  decode_time_column(r, ns,
                     [sp](std::size_t i, double t) { sp[i].end_time = t; });
  const std::vector<std::uint32_t> slens = read_lengths(r, ns);
  const std::vector<std::uint32_t> elens = read_lengths(r, ns);
  for (std::size_t i = 0; i < ns; ++i) sp[i].start_text = read_text(r, slens[i]);
  for (std::size_t i = 0; i < ns; ++i) sp[i].end_text = read_text(r, elens[i]);

  const std::size_t e0 = events->size();
  events->resize(e0 + ne);
  EventDrawable* const ep = events->data() + e0;
  util::get_svarint32_batch(
      r, ne, [ep](std::size_t i, std::int32_t v) { ep[i].category_id = v; });
  util::get_svarint32_batch(
      r, ne, [ep](std::size_t i, std::int32_t v) { ep[i].rank = v; });
  decode_time_column(r, ne, [ep](std::size_t i, double t) { ep[i].time = t; });
  const std::vector<std::uint32_t> tlens = read_lengths(r, ne);
  for (std::size_t i = 0; i < ne; ++i) ep[i].text = read_text(r, tlens[i]);

  const std::size_t a0 = arrows->size();
  arrows->resize(a0 + na);
  ArrowDrawable* const ap = arrows->data() + a0;
  util::get_svarint32_batch(
      r, na, [ap](std::size_t i, std::int32_t v) { ap[i].src_rank = v; });
  util::get_svarint32_batch(
      r, na, [ap](std::size_t i, std::int32_t v) { ap[i].dst_rank = v; });
  util::get_svarint32_batch(
      r, na, [ap](std::size_t i, std::int32_t v) { ap[i].tag = v; });
  util::get_varint32_batch(
      r, na, [ap](std::size_t i, std::uint32_t v) { ap[i].size = v; });
  decode_time_column(r, na,
                     [ap](std::size_t i, double t) { ap[i].start_time = t; });
  decode_time_column(r, na,
                     [ap](std::size_t i, double t) { ap[i].end_time = t; });
}

namespace {

void write_payload_v1(util::ByteWriter& w, const std::vector<StateDrawable>& states,
                      const std::vector<EventDrawable>& events,
                      const std::vector<ArrowDrawable>& arrows) {
  w.u32(static_cast<std::uint32_t>(states.size()));
  for (const auto& s : states) {
    w.i32(s.category_id);
    w.i32(s.rank);
    w.f64(s.start_time);
    w.f64(s.end_time);
    w.i32(s.depth);
    w.str(s.start_text);
    w.str(s.end_text);
  }
  w.u32(static_cast<std::uint32_t>(events.size()));
  for (const auto& e : events) {
    w.i32(e.category_id);
    w.i32(e.rank);
    w.f64(e.time);
    w.str(e.text);
  }
  w.u32(static_cast<std::uint32_t>(arrows.size()));
  for (const auto& a : arrows) {
    w.i32(a.src_rank);
    w.i32(a.dst_rank);
    w.f64(a.start_time);
    w.f64(a.end_time);
    w.i32(a.tag);
    w.u32(a.size);
  }
}

void read_payload_v1(util::ByteReader& r, std::vector<StateDrawable>* states,
                     std::vector<EventDrawable>* events,
                     std::vector<ArrowDrawable>* arrows) {
  // Drawable counts are untrusted; bound each by the remaining bytes at the
  // smallest conceivable per-entry size before reserving.
  const std::size_t nstates = r.checked_count(r.u32(), 4);
  states->reserve(states->size() + nstates);
  for (std::size_t i = 0; i < nstates; ++i) {
    StateDrawable s;
    s.category_id = r.i32();
    s.rank = r.i32();
    s.start_time = r.f64();
    s.end_time = r.f64();
    s.depth = r.i32();
    s.start_text = r.str();
    s.end_text = r.str();
    states->push_back(std::move(s));
  }
  const std::size_t nevents = r.checked_count(r.u32(), 4);
  events->reserve(events->size() + nevents);
  for (std::size_t i = 0; i < nevents; ++i) {
    EventDrawable e;
    e.category_id = r.i32();
    e.rank = r.i32();
    e.time = r.f64();
    e.text = r.str();
    events->push_back(std::move(e));
  }
  const std::size_t narrows = r.checked_count(r.u32(), 4);
  arrows->reserve(arrows->size() + narrows);
  for (std::size_t i = 0; i < narrows; ++i) {
    ArrowDrawable a;
    a.src_rank = r.i32();
    a.dst_rank = r.i32();
    a.start_time = r.f64();
    a.end_time = r.f64();
    a.tag = r.i32();
    a.size = r.u32();
    arrows->push_back(a);
  }
}

}  // namespace

void write_payload(util::ByteWriter& w, const std::vector<StateDrawable>& states,
                   const std::vector<EventDrawable>& events,
                   const std::vector<ArrowDrawable>& arrows, FrameEncoding enc) {
  if (enc == FrameEncoding::kV2)
    encode_drawables_v2(w, states, events, arrows);
  else
    write_payload_v1(w, states, events, arrows);
}

void read_payload(const std::uint8_t* data, std::size_t n, FrameEncoding enc,
                  std::vector<StateDrawable>* states,
                  std::vector<EventDrawable>* events,
                  std::vector<ArrowDrawable>* arrows) {
  util::ByteReader r(data, n);
  if (enc == FrameEncoding::kV2)
    decode_drawables_v2(r, states, events, arrows);
  else
    read_payload_v1(r, states, events, arrows);
  if (!r.at_end()) throw util::IoError("slog2: frame payload has trailing bytes");
}

void visit_drawables(const std::vector<StateDrawable>& states,
                     const std::vector<EventDrawable>& events,
                     const std::vector<ArrowDrawable>& arrows, double a, double b,
                     const std::function<void(const StateDrawable&)>& on_state,
                     const std::function<void(const EventDrawable&)>& on_event,
                     const std::function<void(const ArrowDrawable&)>& on_arrow) {
  if (on_state)
    for (const auto& s : states)
      if (s.end_time >= a && s.start_time <= b) on_state(s);
  if (on_event)
    for (const auto& e : events)
      if (e.time >= a && e.time <= b) on_event(e);
  if (on_arrow)
    for (const auto& ar : arrows) {
      const double lo = std::min(ar.start_time, ar.end_time);
      const double hi = std::max(ar.start_time, ar.end_time);
      if (hi >= a && lo <= b) on_arrow(ar);
    }
}

}  // namespace slog2::detail
