#include "util/atomic_file.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include <unistd.h>

namespace caem::util {

namespace fs = std::filesystem;

void atomic_write_file(const std::string& path, std::string_view bytes,
                       const std::string& what) {
  const fs::path target(path);
  std::error_code error;
  // A bare file name has no parent to create (and create_directories
  // rejects the empty path).
  if (target.has_parent_path()) fs::create_directories(target.parent_path(), error);
  if (error) {
    throw std::runtime_error(what + ": cannot create '" + target.parent_path().string() +
                             "': " + error.message());
  }
  // A temp name unique per process and call, so concurrent writers never
  // interleave into one temp file.
  static std::atomic<unsigned long> write_counter{0};
  const fs::path temp = target.string() + ".tmp." + std::to_string(::getpid()) + "." +
                        std::to_string(write_counter.fetch_add(1));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error(what + ": cannot write '" + temp.string() + "'");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      out.close();
      fs::remove(temp, error);
      throw std::runtime_error(what + ": short write to '" + temp.string() + "'");
    }
  }
  // Whoever renames last wins; readers racing the rename see either the
  // old complete file or the new complete file, never a torn one.
  fs::rename(temp, target, error);
  if (error) {
    std::error_code ignored;
    fs::remove(temp, ignored);
    throw std::runtime_error(what + ": cannot finalise '" + target.string() +
                             "': " + error.message());
  }
}

}  // namespace caem::util
