#include "util/mmapio.hpp"

#include <cerrno>
#include <utility>

#include "util/error.hpp"
#include "util/fs.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PILOT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define PILOT_HAVE_MMAP 0
#endif

namespace util {

MappedFile::MappedFile(const std::filesystem::path& path) {
#if PILOT_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw IoError("cannot open for read: " + path.string());
  struct stat st{};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    const auto len = static_cast<std::size_t>(st.st_size);
    void* p = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p != MAP_FAILED) {
      ::close(fd);
#if defined(MADV_WILLNEED)
      ::madvise(p, len, MADV_WILLNEED);
#endif
      map_ = p;
      map_len_ = len;
      data_ = static_cast<const std::uint8_t*>(p);
      size_ = len;
      return;
    }
  }
  // Read the descriptor already open to EOF: reopening the path would block
  // on a FIFO whose writer has finished and closed.
  constexpr std::size_t kChunk = 64 * 1024;
  ssize_t got = 0;
  do {
    const std::size_t have = fallback_.size();
    fallback_.resize(have + kChunk);
    got = ::read(fd, fallback_.data() + have, kChunk);
    fallback_.resize(have + (got > 0 ? static_cast<std::size_t>(got) : 0));
  } while (got > 0 || (got < 0 && errno == EINTR));
  ::close(fd);
  if (got < 0) throw IoError("read error: " + path.string());
#else
  fallback_ = util::read_file(path);
#endif
  data_ = fallback_.data();
  size_ = fallback_.size();
}

MappedFile::~MappedFile() { reset(); }

void MappedFile::reset() noexcept {
#if PILOT_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
  map_ = nullptr;
  map_len_ = 0;
  data_ = nullptr;
  size_ = 0;
  fallback_.clear();
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      map_(other.map_),
      map_len_(other.map_len_),
      fallback_(std::move(other.fallback_)) {
  if (map_ == nullptr && size_ != 0) data_ = fallback_.data();
  other.map_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
  other.map_len_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this == &other) return *this;
  reset();
  data_ = other.data_;
  size_ = other.size_;
  map_ = other.map_;
  map_len_ = other.map_len_;
  fallback_ = std::move(other.fallback_);
  if (map_ == nullptr && size_ != 0) data_ = fallback_.data();
  other.map_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
  other.map_len_ = 0;
  return *this;
}

}  // namespace util
