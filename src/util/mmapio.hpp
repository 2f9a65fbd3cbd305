// Memory-mapped whole-file reading: the SLOG-2 readers decode header,
// directory and frame payloads with util::ByteReader straight out of the
// page cache instead of copying the file. Where mmap is unavailable, or the
// input is not a mappable regular file (a FIFO, a device, an empty file),
// the bytes are read once into an owned buffer from the same open
// descriptor; data()/size() behave identically either way.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

namespace util {

/// RAII whole-file mapping (read-only) with a read-into-buffer fallback.
/// Throws IoError when the file cannot be opened or read.
class MappedFile {
public:
  MappedFile() = default;
  explicit MappedFile(const std::filesystem::path& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

private:
  void reset() noexcept;

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_ = nullptr;  // munmap() target when mapped
  std::size_t map_len_ = 0;
  std::vector<std::uint8_t> fallback_;
};

}  // namespace util
