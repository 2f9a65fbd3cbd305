// Internal pieces of the CLOG-2 → SLOG-2 conversion shared by the offline
// converter (convert.cpp) and the streaming OnlineConverter in src/traced/.
// Both producers feed the same commit-ordered drawable lists into the same
// assemble() tail, which is what makes the online finalize() output
// byte-identical to the offline converter on the same records.
//
// Everything here is an implementation detail: the stable surface is
// slog2.hpp. Do not include this header outside src/slog2, src/traced, and
// src/jumpshot (whose outline form fills window previews with the same
// bucket helpers).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "slog2/slog2.hpp"

namespace slog2::detail {

/// Warning cap shared by every conversion stage (pathological traces must
/// not flood the caller).
inline constexpr std::size_t kMaxWarningMessages = 50;

void warn(std::vector<std::string>* warnings, const std::string& msg);

/// The converter's working set: every drawable of one conversion, per kind,
/// in global commit order (the chronological order of each drawable's
/// closing instance, with never-closed states appended last).
struct Collected {
  std::vector<StateDrawable> states;
  std::vector<EventDrawable> events;
  std::vector<ArrowDrawable> arrows;
};

/// One entry of a rank's open-state stack during pairing.
struct OpenState {
  std::int32_t category_id = 0;
  double start_time = 0.0;
  std::string start_text;
  std::int32_t depth = 0;
};

/// Global chronological position of an instance record: primary key its
/// timestamp, tie-broken by its position in the file/stream. Processing
/// instances in InstKey order is exactly the stable-sort-by-time order the
/// original sequential converter used.
struct InstKey {
  double t = 0.0;
  std::uint64_t idx = 0;
  bool operator<(const InstKey& o) const {
    if (t != o.t) return t < o.t;
    return idx < o.idx;
  }
};

// Event-id → category lookup. Ids are allocated contiguously from 1 by the
// MPE layer, so the hot path is a dense vector indexed by id; files with
// absurd ids (hostile or handcrafted) overflow into a map instead of
// forcing a giant allocation. The streaming converter skips note_id()
// entirely (ids are not known up front), which routes everything through
// the overflow map — same mapping, different speed.
class EventIdIndex {
public:
  struct Entry {
    std::int32_t state_cat = -1;  // category id, -1 = not a state event
    bool is_start = false;
    std::int32_t solo_cat = -1;  // category id, -1 = not a solo event
    [[nodiscard]] bool used() const { return state_cat >= 0 || solo_cat >= 0; }
  };

  void note_id(std::int32_t id) {
    if (id >= 0 && id < kDenseLimit)
      max_dense_ = std::max(max_dense_, static_cast<std::size_t>(id) + 1);
  }
  void finalize() { dense_.resize(max_dense_); }

  Entry& at(std::int32_t id) {
    if (id >= 0 && static_cast<std::size_t>(id) < dense_.size())
      return dense_[static_cast<std::size_t>(id)];
    return overflow_[id];
  }
  [[nodiscard]] const Entry* find(std::int32_t id) const {
    if (id >= 0 && static_cast<std::size_t>(id) < dense_.size()) {
      const Entry& e = dense_[static_cast<std::size_t>(id)];
      return e.used() ? &e : nullptr;
    }
    const auto it = overflow_.find(id);
    return it == overflow_.end() ? nullptr : &it->second;
  }

private:
  static constexpr std::int32_t kDenseLimit = 1 << 20;
  std::size_t max_dense_ = 0;
  std::vector<Entry> dense_;
  std::map<std::int32_t, Entry> overflow_;
};

/// Payload accounting shared with Frame::payload_bytes().
std::size_t state_bytes(const StateDrawable& s);
std::size_t event_bytes(const EventDrawable& e);
inline constexpr std::size_t kArrowBytes =
    2 * sizeof(double) + 3 * sizeof(std::int32_t) + 4;

/// Preview bucket helpers: add a state's busy time over [s, e], or one
/// event instance at `t`, to `pv`'s buckets spanning [node_t0, node_t1].
/// Defined here so the per-drawable preview fill loops inline them.
inline void add_occupancy(Preview& pv, double node_t0, double node_t1,
                          std::int32_t cat, double s, double e) {
  if (pv.nbuckets <= 0 || node_t1 <= node_t0) return;
  auto& buckets = pv.state_occupancy[cat];
  if (buckets.empty()) buckets.assign(static_cast<std::size_t>(pv.nbuckets), 0.0F);
  const double width = (node_t1 - node_t0) / pv.nbuckets;
  const double lo = std::max(s, node_t0);
  const double hi = std::min(e, node_t1);
  if (hi <= lo) return;
  auto first = static_cast<int>((lo - node_t0) / width);
  auto last = static_cast<int>((hi - node_t0) / width);
  first = std::clamp(first, 0, pv.nbuckets - 1);
  last = std::clamp(last, 0, pv.nbuckets - 1);
  for (int i = first; i <= last; ++i) {
    const double b0 = node_t0 + i * width;
    const double b1 = b0 + width;
    const double overlap = std::min(hi, b1) - std::max(lo, b0);
    if (overlap > 0)
      buckets[static_cast<std::size_t>(i)] += static_cast<float>(overlap);
  }
}

inline void add_event_count(Preview& pv, double node_t0, double node_t1,
                            std::int32_t cat, double t) {
  if (pv.nbuckets <= 0) return;
  auto& buckets = pv.event_counts[cat];
  if (buckets.empty()) buckets.assign(static_cast<std::size_t>(pv.nbuckets), 0);
  int idx = 0;
  if (node_t1 > node_t0)
    idx = std::clamp(static_cast<int>((t - node_t0) / (node_t1 - node_t0) *
                                      pv.nbuckets),
                     0, pv.nbuckets - 1);
  buckets[static_cast<std::size_t>(idx)]++;
}

/// Recursive bounded-frame builder: drawables that fit entirely inside a
/// child half-interval sink down until the payload fits the frame-size
/// bound.
std::unique_ptr<Frame> build_frame(Collected items, double a, double b, int depth,
                                   const ConvertOptions& opts, ConvertStats& stats);

/// The conversion tail shared by convert() and OnlineConverter::finalize():
/// Equal-Drawables detection, drawable totals, the global time span, and
/// the frame tree with its previews. `items` must already be in global
/// commit order per kind (see Collected); `out` must already carry nranks,
/// frame_size, the category table, and the pairing-stage stats
/// (unmatched/unclosed/unknown counters).
void assemble(File& out, Collected items, bool any_instance,
              const ConvertOptions& opts, int nthreads,
              std::vector<std::string>* warnings);

}  // namespace slog2::detail
