// Adversarial-input tests for the three on-disk formats (CLOG-2, SLOG-2,
// .prl) and the spill salvager, driven from the checked-in golden corpus in
// tests/fixtures (regenerate with the `fixtures` target):
//
//   * library level: parse() of every truncation length and of single-bit
//     flips at every byte either succeeds or throws util::Error — never a
//     crash, never UB (the sanitize presets run this suite too);
//   * SLOG-2 entry points: parse, read_file, validate_file, the Navigator
//     and stream_text reach one verdict on every corrupted file;
//   * tool level: pilot-clog2print / pilot-slog2print / pilot-replayprint /
//     pilot-jumpshot --windowed / pilot-tracedigest exit nonzero with a
//     diagnostic exactly when the library rejects the bytes, and never die
//     on a signal;
//   * mpe::salvage tolerates torn and corrupted spill streams (that is its
//     job), and pilot-logsalvage refuses an empty spill set loudly instead
//     of writing a hollow trace.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "clog2/clog2.hpp"
#include "mpe/mpe.hpp"
#include "replay/prl.hpp"
#include "slog2/frame_codec.hpp"
#include "slog2/slog2.hpp"
#include "util/bytebuf.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/varint.hpp"

#ifndef PILOT_TOOL_DIR
#error "PILOT_TOOL_DIR must be defined by the build"
#endif
#ifndef PILOT_FIXTURE_DIR
#error "PILOT_FIXTURE_DIR must be defined by the build"
#endif

namespace {

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path(PILOT_FIXTURE_DIR) / name;
}

std::string tool(const std::string& name) {
  return std::string(PILOT_TOOL_DIR) + "/" + name;
}

std::vector<std::uint8_t> load(const std::string& name) {
  const auto bytes = util::read_file(fixture(name));
  EXPECT_FALSE(bytes.empty()) << "missing fixture " << name
                              << " (run the `fixtures` target)";
  return bytes;
}

/// Exit status of `cmd` with output captured (-1 if killed by a signal —
/// always a test failure here).
int run_status(const std::string& cmd, std::string* out = nullptr) {
  static const std::string capture =
      "/tmp/pilot_fuzz_test." + std::to_string(::getpid()) + ".out";
  const int rc = std::system((cmd + " > " + capture + " 2>&1").c_str());
  if (out) *out = util::read_text_file(capture);
  std::filesystem::remove(capture);
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// parse() under corruption must either succeed or throw util::Error.
/// Returns true when the bytes parsed cleanly.
template <typename ParseFn>
bool parses(const ParseFn& parse, const std::vector<std::uint8_t>& bytes) {
  try {
    parse(bytes);
    return true;
  } catch (const util::Error&) {
    return false;
  }
  // Anything else (std::bad_alloc from a hostile length field, a raw
  // std::exception, a sanitizer report) escapes and fails the test.
}

template <typename ParseFn>
void fuzz_format(const std::string& name, const ParseFn& parse) {
  const auto bytes = load(name);
  ASSERT_FALSE(bytes.empty());
  EXPECT_TRUE(parses(parse, bytes)) << name << " fixture does not parse";

  // Every truncation length, including the empty file.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    SCOPED_TRACE(name + " truncated to " + std::to_string(n));
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(n));
    parses(parse, cut);
  }
  // Single-bit and whole-byte flips at every position.
  for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80},
                                  std::uint8_t{0xff}}) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      SCOPED_TRACE(name + ": flip 0x" + std::to_string(mask) + " at byte " +
                   std::to_string(i));
      auto mutated = bytes;
      mutated[i] ^= mask;
      parses(parse, mutated);
    }
  }
  // Trailing garbage.
  auto padded = bytes;
  padded.insert(padded.end(), {0xde, 0xad, 0xbe, 0xef});
  parses(parse, padded);
}

TEST(FuzzParsers, Clog2SurvivesTruncationAndBitFlips) {
  fuzz_format("tiny.clog2",
              [](const std::vector<std::uint8_t>& b) { clog2::parse(b); });
  // The fixture must reject every strict prefix: the format carries an
  // explicit record count and end marker.
  const auto bytes = load("tiny.clog2");
  for (std::size_t n = 0; n < bytes.size(); ++n)
    EXPECT_FALSE(parses(
        [](const std::vector<std::uint8_t>& b) { clog2::parse(b); },
        {bytes.begin(), bytes.begin() + static_cast<long>(n)}))
        << "prefix length " << n << " accepted";
}

TEST(FuzzParsers, Slog2SurvivesTruncationAndBitFlips) {
  fuzz_format("tiny.slog2",
              [](const std::vector<std::uint8_t>& b) { slog2::parse(b); });
}

TEST(FuzzParsers, Slog2V2SurvivesTruncationAndBitFlips) {
  fuzz_format("tiny.v2.slog2",
              [](const std::vector<std::uint8_t>& b) { slog2::parse(b); });
}

// --- one reader, one verdict ------------------------------------------------

/// What one SLOG-2 entry point says about a file: "" when it accepts,
/// otherwise its util::IoError message. Any other exception escapes and
/// fails the test.
template <typename ReadFn>
std::string verdict(const ReadFn& read) {
  try {
    read();
    return "";
  } catch (const util::IoError& e) {
    return e.what();
  }
}

/// Every SLOG-2 entry point must agree on `bytes`: all accept, or all throw
/// util::IoError with the same message. The Navigator is driven through
/// every frame, a visit of the whole span and a preview lookup, so a defect
/// it would only meet lazily still counts.
void expect_one_verdict(const std::vector<std::uint8_t>& bytes,
                        const std::filesystem::path& path) {
  util::write_file(path, bytes);
  const std::string parsed = verdict([&] { slog2::parse(bytes); });
  EXPECT_EQ(verdict([&] { slog2::read_file(path); }), parsed) << "read_file";
  EXPECT_EQ(verdict([&] { slog2::validate_file(path); }), parsed)
      << "validate_file";
  EXPECT_EQ(verdict([&] {
              slog2::Navigator nav(path);
              for (std::size_t i = 0; i < nav.total_frames(); ++i)
                (void)nav.frame_ptr(i);
              std::size_t seen = 0;
              nav.visit_window(
                  nav.t_min(), nav.t_max(),
                  [&](const slog2::StateDrawable&) { ++seen; },
                  [&](const slog2::EventDrawable&) { ++seen; },
                  [&](const slog2::ArrowDrawable&) { ++seen; });
              (void)nav.preview_covering(nav.t_min(), nav.t_max());
            }),
            parsed)
      << "Navigator";
  EXPECT_EQ(verdict([&] {
              slog2::stream_text(path, true, [](const std::string&) {});
            }),
            parsed)
      << "stream_text";
  std::filesystem::remove(path);
}

std::uint64_t peek(const std::vector<std::uint8_t>& bytes, std::size_t at,
                   std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i)
    v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
  return v;
}

/// Hand-made directory defects on a three-frame image (the golden SLOG-2
/// fixtures hold a single frame): root links that point at the root itself,
/// below zero, past the directory, or at the left child a second time, and
/// a root extent that runs one byte into the next payload.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> directory_defects(
    slog2::FrameEncoding encoding) {
  const auto frame = [](double t0, double t1, int depth) {
    auto f = std::make_unique<slog2::Frame>();
    f->t0 = t0;
    f->t1 = t1;
    f->depth = depth;
    f->states.push_back({1, 0, t0, t1, 0, "start", "end"});
    return f;
  };
  slog2::File file;
  file.nranks = 1;
  file.t_max = 4.0;
  file.encoding = encoding;
  file.categories = {{1, slog2::CategoryKind::kState, "work", "red", ""}};
  file.root = frame(0.0, 4.0, 0);
  file.root->left = frame(0.0, 2.0, 1);
  file.root->right = frame(2.0, 4.0, 1);
  const auto bytes = slog2::serialize(file);
  // The root entry follows the header — what serialize() writes for the
  // same file without frames, less the empty directory's u32 count and u64
  // blob length — and the u32 entry count. Its fields t0 t1 depth left
  // right offset length sit at offsets 0 8 16 20 24 28 36.
  file.root.reset();
  const std::size_t root = slog2::serialize(file).size() - 12 + 4;

  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> out;
  out.emplace_back("intact multi-frame image", bytes);
  const auto add = [&](const std::string& label, std::size_t field,
                       std::uint64_t v, std::size_t width) {
    auto b = bytes;
    for (std::size_t i = 0; i < width; ++i)
      b[root + field + i] = static_cast<std::uint8_t>(v >> (8 * i));
    out.emplace_back(label, std::move(b));
  };
  add("self link", 20, 0, 4);
  add("negative link", 24, static_cast<std::uint32_t>(-2), 4);
  add("link past the directory", 20, 1000000, 4);
  add("one child linked twice", 24, peek(bytes, root + 20, 4), 4);
  add("payload with a trailing byte", 36, peek(bytes, root + 36, 8) + 1, 8);
  return out;
}

void fuzz_one_verdict(const std::string& name) {
  const auto bytes = load(name);
  ASSERT_FALSE(bytes.empty());
  // A fresh path per variant: the shared FrameCache keys decoded frames by
  // path, size and mtime, so reusing one path would leave the Navigator's
  // verdict to the filesystem's mtime resolution.
  util::TempDir dir;
  std::size_t serial = 0;
  const auto check = [&](const std::vector<std::uint8_t>& variant) {
    expect_one_verdict(variant, dir.file(std::to_string(serial++) + ".slog2"));
  };

  check(bytes);
  EXPECT_EQ(verdict([&] { slog2::parse(bytes); }), "") << name;
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    SCOPED_TRACE(name + " truncated to " + std::to_string(n));
    check({bytes.begin(), bytes.begin() + static_cast<long>(n)});
  }
  for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80},
                                  std::uint8_t{0xff}}) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      SCOPED_TRACE(name + ": flip 0x" + std::to_string(mask) + " at byte " +
                   std::to_string(i));
      auto mutated = bytes;
      mutated[i] ^= mask;
      check(mutated);
    }
  }
  {
    SCOPED_TRACE(name + ": trailing garbage");
    auto padded = bytes;
    padded.insert(padded.end(), {0xde, 0xad, 0xbe, 0xef});
    check(padded);
  }
}

void fuzz_directory_defects(slog2::FrameEncoding encoding) {
  util::TempDir dir;
  std::size_t serial = 0;
  for (const auto& [label, variant] : directory_defects(encoding)) {
    SCOPED_TRACE(std::string(slog2::to_string(encoding)) + ": " + label);
    const bool intact = label == "intact multi-frame image";
    EXPECT_EQ(verdict([&] { slog2::parse(variant); }).empty(), intact);
    expect_one_verdict(variant, dir.file(std::to_string(serial++) + ".slog2"));
  }
}

// The golden fixtures, corrupted every way fuzz_one_verdict knows: the
// mmap-backed readers (read_file, validate_file, the Navigator) and the
// streaming text dump must each reach the in-memory parse's verdict.
TEST(FuzzParsers, Slog2MmapAndStreamBackendsAgree) {
  fuzz_one_verdict("tiny.slog2");
}

TEST(FuzzParsers, Slog2V2MmapAndStreamBackendsAgree) {
  fuzz_one_verdict("tiny.v2.slog2");
}

TEST(FuzzParsers, Slog2EntryPointsShareOneVerdict) {
  fuzz_directory_defects(slog2::FrameEncoding::kV1);
  fuzz_directory_defects(slog2::FrameEncoding::kV2);
}

// The v2 payload codec's varint layer, fed hostile encodings directly.
// Every rejection must be a util::Error with the overrun caught before any
// allocation or write — the sanitizer presets run this suite too.
TEST(FuzzParsers, HostileVarintsRejected) {
  const auto decode = [](const std::vector<std::uint8_t>& b) {
    util::ByteReader r(b);
    return util::get_varint(r);
  };
  // Canonical encodings round-trip.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
    util::ByteWriter w;
    util::put_varint(w, v);
    EXPECT_EQ(decode(w.bytes()), v);
  }
  // Overlong (non-canonical) encoding of 0 and of 1.
  EXPECT_THROW(decode({0x80, 0x00}), util::Error);
  EXPECT_THROW(decode({0x81, 0x80, 0x00}), util::Error);
  // 10-byte encoding whose final byte pushes past 64 bits.
  EXPECT_THROW(decode({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                       0x02}),
               util::Error);
  // Continuation bit never drops: reader runs past 10 bytes.
  EXPECT_THROW(decode({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                       0xff, 0xff, 0x01}),
               util::Error);
  // Truncated mid-varint.
  EXPECT_THROW(decode({0xff}), util::Error);
  EXPECT_THROW(decode({}), util::Error);
  // 32-bit field decoders refuse silent truncation.
  {
    util::ByteWriter w;
    util::put_varint(w, std::uint64_t{1} << 40);
    util::ByteReader r(w.bytes());
    EXPECT_THROW(util::get_varint32(r), util::Error);
  }
  {
    util::ByteWriter w;
    util::put_svarint(w, std::int64_t{1} << 40);
    util::ByteReader r(w.bytes());
    EXPECT_THROW(util::get_svarint32(r), util::Error);
  }
}

// Hostile drawable counts in a v2 payload: a count claiming more elements
// than the remaining bytes could hold must be rejected up front (no giant
// resize), and text lengths past the payload end must throw, not read OOB.
TEST(FuzzParsers, HostileV2CountsRejected) {
  const auto decode = [](const std::vector<std::uint8_t>& payload) {
    util::ByteReader r(payload);
    std::vector<slog2::StateDrawable> s;
    std::vector<slog2::EventDrawable> e;
    std::vector<slog2::ArrowDrawable> a;
    slog2::detail::decode_drawables_v2(r, &s, &e, &a);
  };
  {
    util::ByteWriter w;  // claims 2^40 states in a payload of a few bytes
    util::put_varint(w, std::uint64_t{1} << 40);
    util::put_varint(w, 0);
    util::put_varint(w, 0);
    EXPECT_THROW(decode(w.bytes()), util::Error);
  }
  {
    util::ByteWriter w;  // one event whose text length runs past the end
    util::put_varint(w, 0);
    util::put_varint(w, 1);
    util::put_varint(w, 0);
    util::put_svarint(w, 1);                    // cat
    util::put_svarint(w, 0);                    // rank
    util::put_varint(w, 0);                     // time delta
    util::put_varint(w, std::uint64_t{1} << 20);  // text length: hostile
    EXPECT_THROW(decode(w.bytes()), util::Error);
  }
}

TEST(FuzzParsers, PrlSurvivesTruncationAndBitFlips) {
  fuzz_format("tiny.prl",
              [](const std::vector<std::uint8_t>& b) { replay::parse(b); });
  const auto bytes = load("tiny.prl");
  for (std::size_t n = 0; n < bytes.size(); ++n)
    EXPECT_FALSE(parses(
        [](const std::vector<std::uint8_t>& b) { replay::parse(b); },
        {bytes.begin(), bytes.begin() + static_cast<long>(n)}))
        << "prefix length " << n << " accepted";
}

// --- the print tools must track the library's verdict ------------------------

struct ToolCase {
  const char* fixture_name;
  const char* tool_name;
  const char* args;  // before the input path; the tool runs in a temp dir
  bool (*lib_ok)(const std::vector<std::uint8_t>&);
};

void fuzz_tool(const ToolCase& tc) {
  const auto bytes = load(tc.fixture_name);
  ASSERT_FALSE(bytes.empty());
  util::TempDir dir;
  const auto probe = [&](const std::vector<std::uint8_t>& mutated,
                         const std::string& label) {
    const auto path = dir.file("corrupt.bin");
    util::write_file(path, mutated);
    std::string out;
    const int status = run_status("cd " + dir.path().string() + " && " +
                                      tool(tc.tool_name) + " " + tc.args + " " +
                                      path.string(),
                                  &out);
    ASSERT_GE(status, 0) << tc.tool_name << " died on a signal (" << label
                         << ")";
    if (tc.lib_ok(mutated)) {
      EXPECT_EQ(status, 0) << label << "\n" << out;
    } else {
      EXPECT_NE(status, 0) << label << " accepted\n" << out;
      EXPECT_NE(out.find("error"), std::string::npos)
          << label << ": no diagnostic printed:\n"
          << out;
    }
  };

  // A spread of truncation lengths (every 7th byte plus the edges) and a
  // few corrupting flips; the exhaustive sweep is library-level above.
  std::vector<std::size_t> cuts = {0, 1, bytes.size() / 2, bytes.size() - 1};
  for (std::size_t n = 0; n < bytes.size(); n += 7) cuts.push_back(n);
  for (const std::size_t n : cuts)
    probe({bytes.begin(), bytes.begin() + static_cast<long>(n)},
          "truncated to " + std::to_string(n));
  for (const std::size_t i :
       {std::size_t{0}, bytes.size() / 3, (2 * bytes.size()) / 3,
        bytes.size() - 1}) {
    auto mutated = bytes;
    mutated[i] ^= 0x80;
    probe(mutated, "bit flip at byte " + std::to_string(i));
  }
  probe(bytes, "pristine fixture");
}

TEST(FuzzTools, Clog2PrintNeverCrashes) {
  fuzz_tool({"tiny.clog2", "pilot-clog2print", "",
             [](const std::vector<std::uint8_t>& b) {
               return parses(
                   [](const std::vector<std::uint8_t>& x) { clog2::parse(x); },
                   b);
             }});
}

bool slog2_ok(const std::vector<std::uint8_t>& b) {
  return parses([](const std::vector<std::uint8_t>& x) { slog2::parse(x); }, b);
}

TEST(FuzzTools, Slog2PrintNeverCrashes) {
  fuzz_tool({"tiny.slog2", "pilot-slog2print", "", slog2_ok});
}

TEST(FuzzTools, Slog2PrintV2NeverCrashes) {
  fuzz_tool({"tiny.v2.slog2", "pilot-slog2print", "", slog2_ok});
}

// The Navigator-backed tools: a windowed render and a digest of the whole
// span decode every frame of the tiny fixtures, so they too must track the
// library's verdict and never die on a signal.
TEST(FuzzTools, JumpshotWindowedNeverCrashes) {
  fuzz_tool({"tiny.slog2", "pilot-jumpshot", "--windowed", slog2_ok});
  fuzz_tool({"tiny.v2.slog2", "pilot-jumpshot", "--windowed", slog2_ok});
}

TEST(FuzzTools, TracedigestNeverCrashes) {
  fuzz_tool({"tiny.slog2", "pilot-tracedigest", "", slog2_ok});
  fuzz_tool({"tiny.v2.slog2", "pilot-tracedigest", "", slog2_ok});
}

// Version-mismatch contract: a v1-only reader (modeled by forcing
// --frame-encoding=v1) must refuse a v2 file with a named diagnostic and a
// nonzero exit — never decode garbage. And symmetrically for forced v2.
TEST(FuzzTools, Slog2PrintForcedEncodingMismatchFailsLoudly) {
  std::string out;
  int status = run_status(tool("pilot-slog2print") + " --frame-encoding=v1 " +
                              fixture("tiny.v2.slog2").string(),
                          &out);
  EXPECT_NE(status, 0) << out;
  EXPECT_NE(out.find("frame-encoding mismatch"), std::string::npos) << out;

  status = run_status(tool("pilot-slog2print") + " --frame-encoding=v2 " +
                          fixture("tiny.slog2").string(),
                      &out);
  EXPECT_NE(status, 0) << out;
  EXPECT_NE(out.find("frame-encoding mismatch"), std::string::npos) << out;

  // Matching forces succeed.
  EXPECT_EQ(run_status(tool("pilot-slog2print") + " --frame-encoding=v2 " +
                           fixture("tiny.v2.slog2").string(),
                       &out),
            0)
      << out;
  EXPECT_EQ(run_status(tool("pilot-slog2print") + " --frame-encoding=v1 " +
                           fixture("tiny.slog2").string(),
                       &out),
            0)
      << out;
}

TEST(FuzzTools, ReplayPrintNeverCrashes) {
  fuzz_tool({"tiny.prl", "pilot-replayprint", "",
             [](const std::vector<std::uint8_t>& b) {
               return parses(
                   [](const std::vector<std::uint8_t>& x) { replay::parse(x); },
                   b);
             }});
}

// --- salvage under corruption ------------------------------------------------

void copy_salvage_fixtures(const util::TempDir& dir, const std::string& base) {
  for (const char* suffix : {".defs.spill", ".rank0.spill", ".rank1.spill"})
    std::filesystem::copy_file(
        fixture("salvage" + std::string(suffix)), dir.file(base + suffix),
        std::filesystem::copy_options::overwrite_existing);
}

TEST(FuzzSalvage, ToleratesTornAndCorruptedSpills) {
  const auto rank0 = load("salvage.rank0.spill");
  util::TempDir dir;
  copy_salvage_fixtures(dir, "s");
  const clog2::File whole = mpe::salvage(dir.file("s").string());
  const std::size_t whole_count =
      whole.count<clog2::EventRec>() + whole.count<clog2::MsgRec>();
  ASSERT_GT(whole_count, 0u);

  // Any torn tail on one rank's stream: salvage keeps the prefix, drops the
  // tail, and never reports more than the intact stream held.
  for (std::size_t n = 0; n < rank0.size(); ++n) {
    SCOPED_TRACE("rank0 spill truncated to " + std::to_string(n));
    util::write_file(dir.file("s.rank0.spill"),
                     std::vector<std::uint8_t>(
                         rank0.begin(), rank0.begin() + static_cast<long>(n)));
    clog2::File got;
    ASSERT_NO_THROW(got = mpe::salvage(dir.file("s").string()));
    EXPECT_LE(got.count<clog2::EventRec>() + got.count<clog2::MsgRec>(),
              whole_count);
  }
  // Bit flips may corrupt a record mid-stream; salvage must still come back
  // with a File (possibly shorter), never crash.
  for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80},
                                  std::uint8_t{0xff}}) {
    for (std::size_t i = 0; i < rank0.size(); ++i) {
      SCOPED_TRACE("rank0 spill flip 0x" + std::to_string(mask) + " at " +
                   std::to_string(i));
      auto mutated = rank0;
      mutated[i] ^= mask;
      util::write_file(dir.file("s.rank0.spill"), mutated);
      try {
        mpe::salvage(dir.file("s").string());
      } catch (const util::Error&) {
        // A corrupted definition/record the salvager cannot skip is allowed
        // to fail loudly — just never crash or hang.
      }
    }
  }
}

TEST(FuzzSalvage, LogsalvageToolRefusesEmptyAndAcceptsFixture) {
  util::TempDir dir;
  // Genuinely empty spill set: defs present, zero-byte rank streams.
  copy_salvage_fixtures(dir, "e");
  util::write_file(dir.file("e.rank0.spill"), std::vector<std::uint8_t>{});
  util::write_file(dir.file("e.rank1.spill"), std::vector<std::uint8_t>{});
  std::string out;
  int status = run_status(
      tool("pilot-logsalvage") + " " + dir.file("e").string(), &out);
  EXPECT_EQ(status, 1) << out;
  EXPECT_NE(out.find("no salvageable records"), std::string::npos) << out;
  EXPECT_FALSE(std::filesystem::exists(dir.file("e.salvaged.clog2")))
      << "a hollow trace was written anyway";

  // No spill files at all is an error too (not a success with 0 records).
  status = run_status(
      tool("pilot-logsalvage") + " " + dir.file("missing").string(), &out);
  EXPECT_NE(status, 0) << out;

  // The pristine fixture set salvages fine and round-trips through the
  // regular reader.
  copy_salvage_fixtures(dir, "s");
  status = run_status(tool("pilot-logsalvage") + " " + dir.file("s").string(),
                      &out);
  EXPECT_EQ(status, 0) << out;
  const clog2::File f = clog2::read_file(dir.file("s.salvaged.clog2"));
  EXPECT_EQ(f.nranks, 2);
  EXPECT_GT(f.count<clog2::EventRec>() + f.count<clog2::MsgRec>(), 0u);
}

}  // namespace
