// Output checks that do not trust the code under test: each verdict comes
// from an independent computation or a structural property, never from a
// second call of the function being checked.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "clog2/clog2.hpp"

namespace pb {

/// The SVG is well formed: tags balance, one <svg> root, comments closed.
bool svg_well_formed(const std::string& svg, std::string& why);

/// Timeline rows drawn: rank labels (right-anchored <text>) in the SVG.
std::size_t svg_rank_rows(const std::string& svg);

/// Drawable intervals recounted straight from CLOG-2 records, without the
/// converter: per-rank LIFO pairing of state start/end instances, FIFO
/// pairing of send/receive halves per (sender, receiver, tag), solo events
/// as points. Category ids follow the converter's numbering (arrows 0,
/// then each EventDef, then each StateDef, in definition order).
struct Recount {
  struct Item {
    double t0;
    double t1;
    std::int32_t category;
  };
  std::vector<Item> items;
  std::uint64_t unmatched = 0;  ///< halves or starts left without a partner
  std::uint64_t records = 0;    ///< instance records (events + message halves)

  explicit Recount(const clog2::File& f);
  /// Per category: drawables whose interval meets [a, b].
  [[nodiscard]] std::map<std::int32_t, std::uint64_t> counts(double a, double b) const;
};

}  // namespace pb
