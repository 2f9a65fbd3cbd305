// Chunked binary file reading for the print tools: the same decoding API as
// util::ByteReader, but backed by a fixed-size read window over an open
// file instead of a whole-file byte vector. Printing a 10^7-event trace
// peaks at the window size (plus one record), not at full-trace RSS.
//
// Error behaviour matches ByteReader exactly: any read past the end of the
// *file* throws IoError, so a truncated trace is rejected at the same point
// a whole-file parse would reject it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace util {

class FileByteReader {
public:
  /// Default read window; a window refill reads up to this many bytes.
  static constexpr std::size_t kDefaultWindow = 256 * 1024;

  explicit FileByteReader(const std::filesystem::path& path,
                          std::size_t window_bytes = kDefaultWindow);

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int8_t i8() { return static_cast<std::int8_t>(u8()); }
  std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();

  /// Borrow `n` contiguous bytes, advancing the cursor. The pointer is valid
  /// until the next read call. Throws IoError when fewer than `n` bytes
  /// remain in the file — the same verdict ByteReader gives on a truncated
  /// in-memory buffer. A single item larger than the window grows the
  /// buffer for that item only (bounded by the file size).
  const std::uint8_t* take(std::size_t n);

  void skip(std::size_t n);

  /// Validate an untrusted element count against the bytes left in the
  /// file, mirroring ByteReader::checked_count.
  [[nodiscard]] std::size_t checked_count(std::uint64_t n,
                                          std::size_t min_bytes = 1) const {
    const std::size_t floor = min_bytes == 0 ? 1 : min_bytes;
    if (n > remaining() / floor)
      throw IoError("FileByteReader: element count " + std::to_string(n) +
                    " exceeds the " + std::to_string(remaining()) +
                    " bytes of remaining input");
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t file_size() const { return file_size_; }
  [[nodiscard]] std::size_t remaining() const { return file_size_ - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == file_size_; }

private:
  template <typename T>
  T get_le() {
    const std::uint8_t* p = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    return v;
  }

  [[nodiscard]] std::size_t buffered() const { return end_ - start_; }
  void refill(std::size_t need);

  std::ifstream in_;
  std::size_t file_size_ = 0;
  std::size_t pos_ = 0;        // logical cursor in the file
  std::vector<std::uint8_t> buf_;
  std::size_t start_ = 0;      // window of unconsumed bytes in buf_
  std::size_t end_ = 0;
  std::size_t window_ = kDefaultWindow;
};

}  // namespace util
