// atomic_file.hpp — crash-safe publish-by-rename file writes.
//
// Writes go to a temp name unique per (process, call) next to the
// target, are flushed and checked, then renamed over the target.  On
// POSIX the rename is atomic, so readers racing the write see either
// the old complete file or the new complete file, never a torn one,
// and a crash mid-write leaves at worst a stray .tmp — never a
// half-written file under the final name.  This is the discipline the
// result cache, its touch sidecars and the sweep artifacts all rely on;
// keeping it in one place keeps their crash-safety stories identical.
#pragma once

#include <string>
#include <string_view>

namespace caem::util {

/// Atomically publish `bytes` at `path`, creating parent directories.
/// `what` names the caller in error messages ("result cache", ...).
/// Throws std::runtime_error on any failure (temp file cleaned up).
void atomic_write_file(const std::string& path, std::string_view bytes,
                       const std::string& what);

}  // namespace caem::util
