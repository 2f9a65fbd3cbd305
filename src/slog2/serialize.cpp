// SLOG-2 binary serialization: header, category table, stats, frame
// directory (intervals, tree links, payload extents, previews), then a blob
// of independently decodable frame payloads. The directory enables the
// Navigator's partial loading.
//
// Two file versions share that skeleton byte for byte; only the version
// field and the payload bytes differ:
//   version 3 — v1 payloads (fixed-width rows, the original format),
//   version 4 — one frame-encoding byte (must be 2) follows the version,
//               and payloads use the columnar delta-varint v2 codec
//               (frame_codec.hpp, documented in docs/FORMATS.md).
// A v1-only reader sees version 4 and fails loudly ("unsupported version");
// this reader accepts both unless ReadOptions::require_encoding pins one.
//
// The read side is one directory decoder (read_directory) and one frame
// decoder (read_frame); parse/read_file, the Navigator, validate_file and
// stream_text are thin callers, so they share every check and every
// message.
#include <array>

#include "slog2/frame_cache.hpp"
#include "slog2/frame_codec.hpp"
#include "slog2/slog2.hpp"
#include "util/fs.hpp"
#include "util/mmapio.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace slog2 {

namespace detail {

/// The header and frame directory of one SLOG-2 image, as the directory
/// decoder (read_directory below) hands them to every reader. The decoder has
/// checked that the links form a tree rooted at entry 0 (each link points
/// forward, each frame but the root has exactly one parent) and that every
/// extent lies inside the blob.
struct Directory {
  struct Entry {
    double t0 = 0.0;
    double t1 = 0.0;
    std::int32_t depth = 0;
    std::int32_t left = -1;  // directory index or -1
    std::int32_t right = -1;
    std::uint64_t offset = 0;  // into the payload blob
    std::uint64_t length = 0;
    Preview preview;
  };

  FrameEncoding encoding = FrameEncoding::kV1;
  std::int32_t nranks = 0;
  double t_min = 0.0;
  double t_max = 0.0;
  std::uint64_t frame_size = 0;
  std::vector<Category> categories;
  ConvertStats stats;
  std::vector<Entry> entries;  // preorder; [0] is the root (if any)
  const std::uint8_t* blob = nullptr;  // borrowed from the decoded image
  std::uint64_t blob_len = 0;
};

}  // namespace detail

namespace {

constexpr std::array<char, 8> kMagic = {'P', 'S', 'L', 'O', 'G', '2', '\0', '\0'};
constexpr std::uint32_t kVersionV1 = 3;
constexpr std::uint32_t kVersionV2 = 4;

void write_preview(util::ByteWriter& w, const Preview& pv) {
  w.i32(pv.nbuckets);
  w.u32(pv.arrow_count);
  w.u32(static_cast<std::uint32_t>(pv.state_occupancy.size()));
  for (const auto& [cat, buckets] : pv.state_occupancy) {
    w.i32(cat);
    w.u32(static_cast<std::uint32_t>(buckets.size()));
    for (float v : buckets) w.f64(static_cast<double>(v));
  }
  w.u32(static_cast<std::uint32_t>(pv.event_counts.size()));
  for (const auto& [cat, buckets] : pv.event_counts) {
    w.i32(cat);
    w.u32(static_cast<std::uint32_t>(buckets.size()));
    for (std::uint32_t v : buckets) w.u32(v);
  }
}

Preview read_preview(util::ByteReader& r) {
  Preview pv;
  pv.nbuckets = r.i32();
  pv.arrow_count = r.u32();
  // Bucket/entry counts are untrusted: bound them by the remaining bytes
  // (smallest per-entry encoding) so corruption is IoError, not bad_alloc.
  const std::uint32_t nstate =
      static_cast<std::uint32_t>(r.checked_count(r.u32(), 8));
  for (std::uint32_t i = 0; i < nstate; ++i) {
    const std::int32_t cat = r.i32();
    const std::size_t n = r.checked_count(r.u32(), 8);
    auto& buckets = pv.state_occupancy[cat];
    buckets.reserve(n);
    for (std::size_t j = 0; j < n; ++j)
      buckets.push_back(static_cast<float>(r.f64()));
  }
  const std::uint32_t nevent =
      static_cast<std::uint32_t>(r.checked_count(r.u32(), 8));
  for (std::uint32_t i = 0; i < nevent; ++i) {
    const std::int32_t cat = r.i32();
    const std::size_t n = r.checked_count(r.u32(), 4);
    auto& buckets = pv.event_counts[cat];
    buckets.reserve(n);
    for (std::size_t j = 0; j < n; ++j) buckets.push_back(r.u32());
  }
  return pv;
}

void write_stats(util::ByteWriter& w, const ConvertStats& st) {
  w.u64(st.total_states);
  w.u64(st.total_events);
  w.u64(st.total_arrows);
  w.u64(st.unmatched_sends);
  w.u64(st.unmatched_recvs);
  w.u64(st.unmatched_state_ends);
  w.u64(st.unclosed_states);
  w.u64(st.equal_drawables);
  w.u64(st.unknown_event_ids);
  w.u64(st.frames);
  w.u64(st.leaf_frames);
  w.i32(st.tree_depth);
}

ConvertStats read_stats(util::ByteReader& r) {
  ConvertStats st;
  st.total_states = r.u64();
  st.total_events = r.u64();
  st.total_arrows = r.u64();
  st.unmatched_sends = r.u64();
  st.unmatched_recvs = r.u64();
  st.unmatched_state_ends = r.u64();
  st.unclosed_states = r.u64();
  st.equal_drawables = r.u64();
  st.unknown_event_ids = r.u64();
  st.frames = r.u64();
  st.leaf_frames = r.u64();
  st.tree_depth = r.i32();
  return st;
}

struct FlatNode {
  const Frame* frame;
  std::int32_t left = -1;
  std::int32_t right = -1;
};

// Preorder flattening with child indices.
std::int32_t flatten(const Frame& f, std::vector<FlatNode>& out) {
  const auto index = static_cast<std::int32_t>(out.size());
  out.push_back(FlatNode{&f});
  if (f.left) out[static_cast<std::size_t>(index)].left = flatten(*f.left, out);
  if (f.right) out[static_cast<std::size_t>(index)].right = flatten(*f.right, out);
  return index;
}

void write_header(util::ByteWriter& w, const File& file) {
  w.raw(kMagic.data(), kMagic.size());
  if (file.encoding == FrameEncoding::kV2) {
    w.u32(kVersionV2);
    w.u8(static_cast<std::uint8_t>(FrameEncoding::kV2));
  } else {
    // v1 files stay byte-identical to what version 3 always wrote.
    w.u32(kVersionV1);
  }
  w.i32(file.nranks);
  w.f64(file.t_min);
  w.f64(file.t_max);
  w.u64(file.frame_size);
  w.u32(static_cast<std::uint32_t>(file.categories.size()));
  for (const auto& c : file.categories) {
    w.i32(c.id);
    w.u8(static_cast<std::uint8_t>(c.kind));
    w.str(c.name);
    w.str(c.color);
    w.str(c.format);
  }
  write_stats(w, file.stats);
}

// --- the one reader -----------------------------------------------------------

// Header fields into a fresh Directory; the entries follow in
// read_directory.
detail::Directory read_header(util::ByteReader& r, const ReadOptions& ro) {
  const std::uint8_t* magic = r.take(kMagic.size());
  for (std::size_t i = 0; i < kMagic.size(); ++i)
    if (magic[i] != static_cast<std::uint8_t>(kMagic[i]))
      throw util::IoError("slog2: bad magic (not an SLOG-2 file)");
  const std::uint32_t version = r.u32();
  detail::Directory d;
  if (version == kVersionV1) {
    d.encoding = FrameEncoding::kV1;
  } else if (version == kVersionV2) {
    const std::uint8_t enc = r.u8();
    if (enc != static_cast<std::uint8_t>(FrameEncoding::kV2))
      throw util::IoError(util::strprintf(
          "slog2: version 4 header carries unknown frame encoding %u", enc));
    d.encoding = FrameEncoding::kV2;
  } else {
    throw util::IoError(util::strprintf("slog2: unsupported version %u", version));
  }
  if (ro.require_encoding && *ro.require_encoding != d.encoding)
    throw util::IoError(util::strprintf(
        "slog2: frame-encoding mismatch: file uses %s frame payloads but the "
        "reader was forced to %s",
        to_string(d.encoding), to_string(*ro.require_encoding)));
  d.nranks = r.i32();
  d.t_min = r.f64();
  d.t_max = r.f64();
  d.frame_size = r.u64();
  // A category is at least id + kind + three length prefixes = 17 bytes, so
  // a hostile count fails as a parse error before the reserve below.
  const std::uint32_t ncats =
      static_cast<std::uint32_t>(r.checked_count(r.u32(), 17));
  d.categories.reserve(ncats);
  for (std::uint32_t i = 0; i < ncats; ++i) {
    Category c;
    c.id = r.i32();
    const std::uint8_t kind = r.u8();
    if (kind > 2) throw util::IoError("slog2: bad category kind");
    c.kind = static_cast<CategoryKind>(kind);
    c.name = r.str();
    c.color = r.str();
    c.format = r.str();
    d.categories.push_back(std::move(c));
  }
  d.stats = read_stats(r);
  return d;
}

// The directory decoder: header, entries, blob span. On return the links
// form a tree rooted at entry 0 and every extent lies inside the blob, so
// no caller can walk forever or read outside the image.
detail::Directory read_directory(const std::uint8_t* data, std::size_t n,
                                 const ReadOptions& ro) {
  util::ByteReader r(data, n);
  detail::Directory d = read_header(r, ro);
  // A directory entry is at least 44 bytes of fixed fields plus a minimal
  // preview; checking the count keeps the reserves below honest.
  const std::uint32_t count =
      static_cast<std::uint32_t>(r.checked_count(r.u32(), 44));
  d.entries.reserve(count);
  std::vector<bool> has_parent(count, false);
  const auto link = [&](std::int32_t child, std::uint32_t parent) {
    if (child == -1) return;
    if (child <= static_cast<std::int32_t>(parent) ||
        child >= static_cast<std::int32_t>(count) ||
        has_parent[static_cast<std::size_t>(child)])
      throw util::IoError("slog2: corrupt frame directory links");
    has_parent[static_cast<std::size_t>(child)] = true;
  };
  for (std::uint32_t i = 0; i < count; ++i) {
    detail::Directory::Entry e;
    e.t0 = r.f64();
    e.t1 = r.f64();
    e.depth = r.i32();
    e.left = r.i32();
    e.right = r.i32();
    link(e.left, i);
    link(e.right, i);
    e.offset = r.u64();
    e.length = r.u64();
    e.preview = read_preview(r);
    d.entries.push_back(std::move(e));
  }
  for (std::uint32_t i = 1; i < count; ++i)
    if (!has_parent[i]) throw util::IoError("slog2: corrupt frame directory links");
  d.blob_len = r.u64();
  d.blob = r.take(d.blob_len);
  if (!r.at_end()) throw util::IoError("slog2: trailing bytes after payload blob");
  // Two comparisons, not `offset + length > blob_len`: hostile u64s can
  // wrap the sum back under the limit.
  for (const auto& e : d.entries)
    if (e.length > d.blob_len || e.offset > d.blob_len - e.length)
      throw util::IoError("slog2: frame payload extent out of range");
  return d;
}

// The frame decoder: interval and depth from the directory, drawables from
// the entry's extent (checked by read_directory), no bytes left over.
void read_frame(const detail::Directory& d, std::size_t index, Frame* f) {
  const detail::Directory::Entry& e = d.entries[index];
  f->t0 = e.t0;
  f->t1 = e.t1;
  f->depth = e.depth;
  detail::read_payload(d.blob + e.offset, static_cast<std::size_t>(e.length),
                       d.encoding, &f->states, &f->events, &f->arrows);
}

// Decode every payload once, keeping none: what read_file() would reject
// throws here, frame for frame in the same order.
void check_frames(const detail::Directory& d) {
  for (std::size_t i = 0; i < d.entries.size(); ++i) {
    Frame f;
    read_frame(d, i, &f);
  }
}

// Preorder walk of the directory tree, pruning subtrees whose interval
// misses [a, b]. `left_first` is File::visit_window's order; the Navigator
// has always descended right subtrees first.
template <typename Fn>
void walk_window(const detail::Directory& d, double a, double b, bool left_first,
                 const Fn& fn) {
  if (d.entries.empty()) return;
  std::vector<std::int32_t> stack = {0};
  while (!stack.empty()) {
    const auto i = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    const detail::Directory::Entry& e = d.entries[i];
    if (e.t1 < a || e.t0 > b) continue;
    fn(i);
    const std::int32_t first = left_first ? e.right : e.left;
    const std::int32_t second = left_first ? e.left : e.right;
    if (first != -1) stack.push_back(first);
    if (second != -1) stack.push_back(second);
  }
}

// The slog2print text: summary lines from the header fields `h` (a File or
// a Directory), then, when dumping, every drawable of the full span that
// `visit(a, b, on_state, on_event, on_arrow)` delivers.
template <typename Head, typename Visit>
void print_text(const Head& h, bool dump_drawables,
                const std::function<void(const std::string&)>& sink,
                const Visit& visit) {
  sink(util::strprintf(
      "SLOG-2  ranks=%d  span=[%.9f, %.9f]  frame_size=%llu\n", h.nranks, h.t_min,
      h.t_max, static_cast<unsigned long long>(h.frame_size)));
  sink(util::strprintf(
      "  drawables: states=%llu events=%llu arrows=%llu\n",
      static_cast<unsigned long long>(h.stats.total_states),
      static_cast<unsigned long long>(h.stats.total_events),
      static_cast<unsigned long long>(h.stats.total_arrows)));
  sink(util::strprintf(
      "  frames=%llu leaves=%llu depth=%d\n",
      static_cast<unsigned long long>(h.stats.frames),
      static_cast<unsigned long long>(h.stats.leaf_frames), h.stats.tree_depth));
  sink(util::strprintf(
      "  warnings: unmatched_sends=%llu unmatched_recvs=%llu "
      "unmatched_state_ends=%llu unclosed_states=%llu equal_drawables=%llu "
      "unknown_event_ids=%llu\n",
      static_cast<unsigned long long>(h.stats.unmatched_sends),
      static_cast<unsigned long long>(h.stats.unmatched_recvs),
      static_cast<unsigned long long>(h.stats.unmatched_state_ends),
      static_cast<unsigned long long>(h.stats.unclosed_states),
      static_cast<unsigned long long>(h.stats.equal_drawables),
      static_cast<unsigned long long>(h.stats.unknown_event_ids)));
  sink("  categories:\n");
  for (const auto& c : h.categories) {
    const char* kind = c.kind == CategoryKind::kState   ? "state"
                       : c.kind == CategoryKind::kEvent ? "event"
                                                        : "arrow";
    sink(util::strprintf("    [%d] %-6s %-24s %s\n", c.id, kind, c.name.c_str(),
                         c.color.c_str()));
  }
  if (!dump_drawables) return;
  const std::function<void(const StateDrawable&)> on_state = [&](const StateDrawable& s) {
    sink(util::strprintf("  state cat=%d rank=%d [%.9f, %.9f] depth=%d \"%s\"\n",
                         s.category_id, s.rank, s.start_time, s.end_time, s.depth,
                         s.start_text.c_str()));
  };
  const std::function<void(const EventDrawable&)> on_event = [&](const EventDrawable& e) {
    sink(util::strprintf("  event cat=%d rank=%d t=%.9f \"%s\"\n", e.category_id,
                         e.rank, e.time, e.text.c_str()));
  };
  const std::function<void(const ArrowDrawable&)> on_arrow = [&](const ArrowDrawable& a) {
    sink(util::strprintf("  arrow %d->%d [%.9f, %.9f] tag=%d size=%u\n", a.src_rank,
                         a.dst_rank, a.start_time, a.end_time, a.tag, a.size));
  };
  visit(h.t_min, h.t_max, on_state, on_event, on_arrow);
}

}  // namespace

const char* to_string(FrameEncoding e) {
  return e == FrameEncoding::kV2 ? "v2" : "v1";
}

FrameEncoding parse_frame_encoding(std::string_view name) {
  if (name == "v1") return FrameEncoding::kV1;
  if (name == "v2") return FrameEncoding::kV2;
  throw util::UsageError("unknown frame encoding '" + std::string(name) +
                         "' (expected v1 or v2)");
}

std::vector<std::uint8_t> serialize(const File& file) {
  util::ByteWriter w;
  write_header(w, file);

  if (!file.root) {
    w.u32(0);  // empty directory
    w.u64(0);  // empty blob
    return w.take();
  }

  std::vector<FlatNode> nodes;
  flatten(*file.root, nodes);

  // Payload blob first (to know extents), directory second — but the
  // directory precedes the blob on disk, so build both, then emit.
  util::ByteWriter blob;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
  extents.reserve(nodes.size());
  for (const FlatNode& n : nodes) {
    const std::uint64_t begin = blob.size();
    detail::write_payload(blob, n.frame->states, n.frame->events, n.frame->arrows,
                          file.encoding);
    extents.emplace_back(begin, blob.size() - begin);
  }

  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Frame& f = *nodes[i].frame;
    w.f64(f.t0);
    w.f64(f.t1);
    w.i32(f.depth);
    w.i32(nodes[i].left);
    w.i32(nodes[i].right);
    w.u64(extents[i].first);
    w.u64(extents[i].second);
    write_preview(w, f.preview);
  }
  w.u64(blob.size());
  w.raw(blob.bytes().data(), blob.size());
  return w.take();
}

File parse(const std::vector<std::uint8_t>& bytes, const ReadOptions& ro) {
  return parse(bytes.data(), bytes.size(), ro);
}

File parse(const std::uint8_t* data, std::size_t n, const ReadOptions& ro) {
  detail::Directory d = read_directory(data, n, ro);
  File file;
  file.encoding = d.encoding;
  file.nranks = d.nranks;
  file.t_min = d.t_min;
  file.t_max = d.t_max;
  file.frame_size = d.frame_size;
  file.categories = std::move(d.categories);
  file.stats = d.stats;

  std::vector<std::unique_ptr<Frame>> frames(d.entries.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i] = std::make_unique<Frame>();
    read_frame(d, i, frames[i].get());
    frames[i]->preview = std::move(d.entries[i].preview);
  }
  // Link children bottom-up: links point forward and each child has one
  // parent, so every subtree is complete before it is moved.
  for (std::size_t i = frames.size(); i-- > 0;) {
    const detail::Directory::Entry& e = d.entries[i];
    if (e.left != -1)
      frames[i]->left = std::move(frames[static_cast<std::size_t>(e.left)]);
    if (e.right != -1)
      frames[i]->right = std::move(frames[static_cast<std::size_t>(e.right)]);
  }
  if (!frames.empty()) file.root = std::move(frames[0]);
  return file;
}

void write_file(const std::filesystem::path& path, const File& file) {
  util::write_file(path, serialize(file));
}

File read_file(const std::filesystem::path& path, const ReadOptions& ro) {
  // mmap: the header/directory/payload slices below read straight from the
  // page cache; only the decoded drawables are materialized.
  const util::MappedFile map(path);
  return parse(map.data(), map.size(), ro);
}

void validate_file(const std::filesystem::path& path, const ReadOptions& ro) {
  const util::MappedFile map(path);
  check_frames(read_directory(map.data(), map.size(), ro));
}

void stream_text(const std::filesystem::path& path, bool dump_drawables,
                 const std::function<void(const std::string&)>& sink,
                 const ReadOptions& ro) {
  const util::MappedFile map(path);
  const detail::Directory d = read_directory(map.data(), map.size(), ro);
  check_frames(d);
  // Print pass: one frame decoded at a time, in File::visit_window order.
  print_text(d, dump_drawables, sink, [&](double a, double b, const auto& on_state,
                                          const auto& on_event, const auto& on_arrow) {
    walk_window(d, a, b, /*left_first=*/true, [&](std::size_t i) {
      Frame f;
      read_frame(d, i, &f);
      detail::visit_drawables(f.states, f.events, f.arrows, a, b, on_state, on_event,
                              on_arrow);
    });
  });
}

std::string to_text(const File& file, bool dump_drawables) {
  std::string out;
  print_text(file, dump_drawables, [&](const std::string& s) { out += s; },
             [&](double a, double b, const auto& on_state, const auto& on_event,
                 const auto& on_arrow) {
               file.visit_window(a, b, on_state, on_event, on_arrow);
             });
  return out;
}

// --- Navigator ---------------------------------------------------------------

Navigator::Navigator(const std::filesystem::path& path, const ReadOptions& ro)
    : map_(path),
      dir_(std::make_unique<const detail::Directory>(
          read_directory(map_.data(), map_.size(), ro))),
      // File-identity owner: every navigator (and pilot-traced session) over
      // the same on-disk bytes shares one decode of each frame.
      owner_(FrameCache::owner_for_path(path)),
      touched_(std::make_unique<std::atomic<char>[]>(dir_->entries.size())) {}

Navigator::Navigator(std::vector<std::uint8_t> bytes, const ReadOptions& ro)
    : bytes_(std::move(bytes)),
      dir_(std::make_unique<const detail::Directory>(
          read_directory(bytes_.data(), bytes_.size(), ro))),
      owner_(FrameCache::fresh_owner()),
      private_owner_(true),
      touched_(std::make_unique<std::atomic<char>[]>(dir_->entries.size())) {}

Navigator::~Navigator() {
  // A private (in-memory) owner's frames can never be requested again;
  // file-keyed frames stay for the next session over the same file, unless
  // the file has been rewritten since and this was its last navigator.
  if (private_owner_)
    FrameCache::global().erase_owner(owner_);
  else
    FrameCache::release_path_owner(owner_);
}

FrameEncoding Navigator::encoding() const { return dir_->encoding; }
std::int32_t Navigator::nranks() const { return dir_->nranks; }
double Navigator::t_min() const { return dir_->t_min; }
double Navigator::t_max() const { return dir_->t_max; }
const std::vector<Category>& Navigator::categories() const { return dir_->categories; }
const ConvertStats& Navigator::stats() const { return dir_->stats; }
std::size_t Navigator::total_frames() const { return dir_->entries.size(); }

const Category* Navigator::category(std::int32_t id) const {
  for (const auto& c : dir_->categories)
    if (c.id == id) return &c;
  return nullptr;
}

std::size_t Navigator::frames_decoded() const {
  return touched_count_.load(std::memory_order_relaxed);
}

std::shared_ptr<const Frame> Navigator::frame_ptr(std::size_t index) {
  const detail::Directory::Entry& e = dir_->entries.at(index);
  auto frame = FrameCache::global().get(
      owner_, index, static_cast<std::size_t>(e.length) + sizeof(Frame),
      [&]() -> std::shared_ptr<const Frame> {
        auto f = std::make_shared<Frame>();
        read_frame(*dir_, index, f.get());
        return f;
      });
  if (touched_[index].exchange(1, std::memory_order_relaxed) == 0)
    touched_count_.fetch_add(1, std::memory_order_relaxed);
  return frame;
}

std::vector<std::uint32_t> Navigator::window_frames(double a, double b) const {
  std::vector<std::uint32_t> out;
  walk_window(*dir_, a, b, /*left_first=*/false,
              [&](std::size_t i) { out.push_back(static_cast<std::uint32_t>(i)); });
  return out;
}

void Navigator::visit_window(
    double a, double b, const std::function<void(const StateDrawable&)>& on_state,
    const std::function<void(const EventDrawable&)>& on_event,
    const std::function<void(const ArrowDrawable&)>& on_arrow) {
  visit_window(a, b, on_state, on_event, on_arrow, 1);
}

void Navigator::visit_window(
    double a, double b, const std::function<void(const StateDrawable&)>& on_state,
    const std::function<void(const EventDrawable&)>& on_event,
    const std::function<void(const ArrowDrawable&)>& on_arrow, int threads) {
  const std::vector<std::uint32_t> frames = window_frames(a, b);
  // Decode (or fetch from the shared cache) every touched frame up front —
  // in parallel when asked — then run the callbacks serially in traversal
  // order. Pinning the shared_ptrs here means eviction under memory
  // pressure cannot invalidate a frame mid-visit.
  std::vector<std::shared_ptr<const Frame>> pinned(frames.size());
  util::parallel_for(frames.size(), util::resolve_threads(threads),
                     [&](std::size_t k) { pinned[k] = frame_ptr(frames[k]); });
  for (const auto& f : pinned)
    detail::visit_drawables(f->states, f->events, f->arrows, a, b, on_state,
                            on_event, on_arrow);
}

std::uint64_t Navigator::window_payload_bytes(double a, double b) const {
  std::uint64_t total = 0;
  walk_window(*dir_, a, b, /*left_first=*/false,
              [&](std::size_t i) { total += dir_->entries[i].length; });
  return total;
}

Navigator::PreviewView Navigator::preview_covering(double a, double b) {
  PreviewView out;
  if (dir_->entries.empty()) return out;
  const auto covers = [&](std::int32_t i) {
    if (i == -1) return false;
    const detail::Directory::Entry& c = dir_->entries[static_cast<std::size_t>(i)];
    return c.t0 <= a && b <= c.t1;
  };
  // Descend while a single child still covers the window.
  std::size_t i = 0;
  for (;;) {
    const detail::Directory::Entry& e = dir_->entries[i];
    if (covers(e.left))
      i = static_cast<std::size_t>(e.left);
    else if (covers(e.right))
      i = static_cast<std::size_t>(e.right);
    else
      break;
  }
  const detail::Directory::Entry& e = dir_->entries[i];
  out.t0 = e.t0;
  out.t1 = e.t1;
  out.preview = &e.preview;
  return out;
}

}  // namespace slog2
