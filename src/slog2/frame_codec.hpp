// The drawable payload codec (v1 rows and v2 columns) shared by the SLOG-2
// serializer and readers (frame payloads) and the traced OnlineConverter
// (sealed chunks), plus the one drawable-in-window test every window visit
// applies. Layouts, varint rules, and the loud-failure contract are
// documented in docs/FORMATS.md ("v2 frame payloads").
//
// Internal like the rest of slog2::detail: the stable surface is slog2.hpp
// (ConvertOptions::encoding / ReadOptions). Do not include this header
// outside src/slog2 and src/traced.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "slog2/slog2.hpp"
#include "util/bytebuf.hpp"

namespace slog2::detail {

/// Append the v2 encoding of the three drawable lists to `w`:
/// varint counts, then per-kind columns (small ints as zigzag varints,
/// times as per-column f64 bit-deltas, texts as a length column plus the
/// concatenated bytes).
void encode_drawables_v2(util::ByteWriter& w,
                         const std::vector<StateDrawable>& states,
                         const std::vector<EventDrawable>& events,
                         const std::vector<ArrowDrawable>& arrows);

/// Decode one v2 payload, appending to the output vectors. Strict: hostile
/// counts, overlong or >64-bit varints, out-of-range 32-bit fields, and
/// truncation all throw util::IoError. Consumes exactly the payload (the
/// caller checks at_end() where trailing bytes are illegal).
void decode_drawables_v2(util::ByteReader& r,
                         std::vector<StateDrawable>* states,
                         std::vector<EventDrawable>* events,
                         std::vector<ArrowDrawable>* arrows);

/// Append one payload in `enc`: v1 writes a u32 count and fixed-width rows
/// per kind, v2 the columnar encoding above.
void write_payload(util::ByteWriter& w, const std::vector<StateDrawable>& states,
                   const std::vector<EventDrawable>& events,
                   const std::vector<ArrowDrawable>& arrows, FrameEncoding enc);

/// Decode exactly the `n` bytes at `data` as one payload in `enc`, appending
/// to the output vectors. Throws util::IoError on any defect, bytes left
/// over after the payload included.
void read_payload(const std::uint8_t* data, std::size_t n, FrameEncoding enc,
                  std::vector<StateDrawable>* states,
                  std::vector<EventDrawable>* events,
                  std::vector<ArrowDrawable>* arrows);

/// Call back every drawable that meets [a, b]: a state or arrow whose time
/// range intersects it, an event inside it. Lists are visited states,
/// events, arrows, each in order; empty callbacks are skipped.
void visit_drawables(const std::vector<StateDrawable>& states,
                     const std::vector<EventDrawable>& events,
                     const std::vector<ArrowDrawable>& arrows, double a, double b,
                     const std::function<void(const StateDrawable&)>& on_state,
                     const std::function<void(const EventDrawable&)>& on_event,
                     const std::function<void(const ArrowDrawable&)>& on_arrow);

}  // namespace slog2::detail
