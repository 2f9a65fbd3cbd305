#include "util/streamio.hpp"

#include <cstring>
#include <filesystem>

namespace util {

FileByteReader::FileByteReader(const std::filesystem::path& path,
                               std::size_t window_bytes)
    : in_(path, std::ios::binary), window_(window_bytes == 0 ? 1 : window_bytes) {
  if (!in_) throw IoError("cannot open " + path.string());
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) throw IoError("cannot stat " + path.string() + ": " + ec.message());
  file_size_ = static_cast<std::size_t>(size);
  buf_.reserve(window_);
}

double FileByteReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string FileByteReader::str() {
  const std::uint32_t len = u32();
  const std::uint8_t* p = take(len);
  return std::string(reinterpret_cast<const char*>(p), len);
}

void FileByteReader::refill(std::size_t need) {
  // Compact the unconsumed tail to the front, then read enough to satisfy
  // `need` bytes (or at least one full window) — never past end of file.
  if (start_ > 0) {
    std::memmove(buf_.data(), buf_.data() + start_, buffered());
    end_ -= start_;
    start_ = 0;
  }
  const std::size_t file_left = file_size_ - (pos_ + buffered());
  std::size_t want = window_ > need ? window_ : need;
  if (want > buffered() + file_left) want = buffered() + file_left;
  if (buf_.size() < want) buf_.resize(want);
  while (buffered() < want) {
    in_.read(reinterpret_cast<char*>(buf_.data() + end_),
             static_cast<std::streamsize>(want - buffered()));
    const auto got = static_cast<std::size_t>(in_.gcount());
    if (got == 0)
      throw IoError("FileByteReader: short read (file changed underneath?)");
    end_ += got;
  }
}

const std::uint8_t* FileByteReader::take(std::size_t n) {
  if (n > file_size_ - pos_)
    throw IoError("FileByteReader: truncated input (want " + std::to_string(n) +
                  " bytes at offset " + std::to_string(pos_) + ", have " +
                  std::to_string(file_size_ - pos_) + ")");
  if (buffered() < n) refill(n);
  const std::uint8_t* p = buf_.data() + start_;
  start_ += n;
  pos_ += n;
  return p;
}

void FileByteReader::skip(std::size_t n) {
  if (n > file_size_ - pos_)
    throw IoError("FileByteReader: truncated input (want " + std::to_string(n) +
                  " bytes at offset " + std::to_string(pos_) + ", have " +
                  std::to_string(file_size_ - pos_) + ")");
  const std::size_t from_buffer = n < buffered() ? n : buffered();
  start_ += from_buffer;
  if (n > from_buffer)
    in_.seekg(static_cast<std::streamoff>(n - from_buffer), std::ios::cur);
  pos_ += n;
}

}  // namespace util
