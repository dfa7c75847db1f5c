// atomic_file.hpp — crash-safe publish-by-rename file writes.
//
// Writes go to a temp name unique per (process, call) next to the
// target, are flushed and checked, then renamed over the target.  On
// POSIX the rename is atomic, so readers racing the write see either
// the old complete file or the new complete file, never a torn one,
// and a crash mid-write leaves at worst a stray .tmp — never a
// half-written file under the final name.  This is the discipline the
// result cache, the claim files and the sweep artifacts all rely on;
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

/// Atomically create `path` with `bytes` IFF no file exists there yet:
/// the content is fully written to a temp name first, then hard-linked
/// into place, so a successful create publishes complete content and
/// two racing creators can never both succeed — the mutual-exclusion
/// primitive the dynamic work-claim protocol is built on (rename, by
/// contrast, silently replaces and would let the last racer "win" while
/// both believe they hold the claim).  Returns false when `path`
/// already exists; throws std::runtime_error on any other failure.
bool atomic_create_file(const std::string& path, std::string_view bytes,
                        const std::string& what);

}  // namespace caem::util
