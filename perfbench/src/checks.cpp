#include "checks.hpp"

#include <algorithm>
#include <deque>
#include <tuple>
#include <unordered_map>
#include <variant>

namespace pb {

bool svg_well_formed(const std::string& svg, std::string& why) {
  std::vector<std::string> open;
  int roots = 0;
  std::size_t i = 0;
  while ((i = svg.find('<', i)) != std::string::npos) {
    if (svg.compare(i, 4, "<!--") == 0) {
      const std::size_t end = svg.find("-->", i + 4);
      if (end == std::string::npos) {
        why = "unterminated comment";
        return false;
      }
      i = end + 3;
      continue;
    }
    const std::size_t close = svg.find('>', i);
    if (close == std::string::npos) {
      why = "unterminated tag";
      return false;
    }
    const bool end_tag = svg[i + 1] == '/';
    const std::size_t name_at = i + (end_tag ? 2 : 1);
    const std::size_t name_end = svg.find_first_of(" \t\n/>", name_at);
    const std::string name = svg.substr(name_at, name_end - name_at);
    if (end_tag) {
      if (open.empty() || open.back() != name) {
        why = "mismatched </" + name + ">";
        return false;
      }
      open.pop_back();
    } else if (svg[close - 1] != '/') {
      if (open.empty()) ++roots;
      open.push_back(name);
    } else if (open.empty()) {
      why = "element outside the root";
      return false;
    }
    i = close + 1;
  }
  if (!open.empty()) {
    why = "unclosed <" + open.back() + ">";
    return false;
  }
  if (roots != 1 || svg.compare(0, 4, "<svg") != 0) {
    why = "expected one <svg> root";
    return false;
  }
  return true;
}

std::size_t svg_rank_rows(const std::string& svg) {
  std::size_t n = 0;
  for (std::size_t i = 0; (i = svg.find("<text ", i)) != std::string::npos; ++i) {
    const std::size_t close = svg.find('>', i);
    if (svg.substr(i, close - i).find("text-anchor='end'") != std::string::npos) ++n;
  }
  return n;
}

Recount::Recount(const clog2::File& f) {
  // Category numbering of the converter: 0 = arrows, then definitions.
  struct Role {
    std::int32_t category;
    int kind;  // 0 solo event, 1 state start, 2 state end
  };
  std::unordered_map<std::int32_t, Role> role;
  std::int32_t next = 1;
  for (const auto& rec : f.records) {
    if (const auto* s = std::get_if<clog2::StateDef>(&rec)) {
      role[s->start_event_id] = {next, 1};
      role[s->end_event_id] = {next, 2};
      ++next;
    } else if (const auto* e = std::get_if<clog2::EventDef>(&rec)) {
      role[e->event_id] = {next++, 0};
    }
  }
  std::unordered_map<std::int32_t, std::vector<std::pair<std::int32_t, double>>> open;
  std::map<std::tuple<int, int, int>, std::deque<double>> sends, recvs;
  for (const auto& rec : f.records) {
    if (const auto* e = std::get_if<clog2::EventRec>(&rec)) {
      ++records;
      const auto it = role.find(e->event_id);
      if (it == role.end()) continue;
      const Role r = it->second;
      if (r.kind == 0) {
        items.push_back({e->timestamp, e->timestamp, r.category});
      } else if (r.kind == 1) {
        open[e->rank].push_back({r.category, e->timestamp});
      } else {
        auto& stack = open[e->rank];
        auto hit = std::find_if(stack.rbegin(), stack.rend(),
                                [&](const auto& o) { return o.first == r.category; });
        if (hit == stack.rend()) {
          ++unmatched;
          continue;
        }
        items.push_back({hit->second, e->timestamp, r.category});
        stack.erase(std::next(hit).base());
      }
    } else if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) {
      ++records;
      const bool send = m->kind == clog2::MsgRec::Kind::kSend;
      const auto key = send ? std::make_tuple(m->rank, m->partner, m->tag)
                            : std::make_tuple(m->partner, m->rank, m->tag);
      auto& mine = send ? sends[key] : recvs[key];
      auto& other = send ? recvs[key] : sends[key];
      if (other.empty()) {
        mine.push_back(m->timestamp);
        continue;
      }
      const double t = other.front();
      other.pop_front();
      items.push_back({std::min(t, m->timestamp), std::max(t, m->timestamp), 0});
    }
  }
  for (const auto& [rank, stack] : open) unmatched += stack.size();
  for (const auto& [key, q] : sends) unmatched += q.size();
  for (const auto& [key, q] : recvs) unmatched += q.size();
}

std::map<std::int32_t, std::uint64_t> Recount::counts(double a, double b) const {
  std::map<std::int32_t, std::uint64_t> out;
  for (const auto& it : items)
    if (it.t1 >= a && it.t0 <= b) ++out[it.category];
  return out;
}

}  // namespace pb
