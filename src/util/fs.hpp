// Filesystem helpers: whole-file IO for traces and an RAII temporary
// directory for tests/benches.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace util {

/// Read a whole file as bytes; a non-seekable input (a FIFO) is read to
/// EOF. Throws IoError on failure.
std::vector<std::uint8_t> read_file(const std::filesystem::path& path);

/// Write bytes to a file atomically-ish (write then rename within the same
/// directory). Throws IoError on failure.
void write_file(const std::filesystem::path& path, const void* data, std::size_t n);
void write_file(const std::filesystem::path& path, const std::vector<std::uint8_t>& bytes);
void write_file(const std::filesystem::path& path, const std::string& text);

std::string read_text_file(const std::filesystem::path& path);

/// RAII temporary directory; removed recursively on destruction.
class TempDir {
public:
  explicit TempDir(const std::string& prefix = "pilot");
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  [[nodiscard]] std::filesystem::path file(const std::string& name) const {
    return path_ / name;
  }

private:
  std::filesystem::path path_;
};

}  // namespace util
