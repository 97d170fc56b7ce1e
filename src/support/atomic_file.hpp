#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace kcoup::support {

/// Write `content` to `path` via temp-file + atomic rename (the same
/// pattern CouplingDatabase::save_csv_file uses): readers — and crash
/// recovery — see either the previous complete file or the new complete
/// file, never a truncated one.  Throws std::runtime_error naming the path.
/// Writers that may race on one path each pass their own `tmp_suffix`.
inline void write_file_atomic(const std::string& path,
                              std::string_view content,
                              const char* tmp_suffix = ".tmp") {
  const std::string tmp = path + tmp_suffix;
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      throw std::runtime_error("write_file_atomic: cannot open " + tmp);
    }
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("write_file_atomic: write to " + tmp +
                               " failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_file_atomic: rename to " + path +
                             " failed");
  }
}

/// Append `content` to `path` with the same all-or-nothing guarantee:
/// the existing file (if any) is read, the new content concatenated, and
/// the result written atomically.  Costs a full rewrite — appropriate for
/// metrics records, not high-volume logs.
inline void append_file_atomic(const std::string& path,
                               std::string_view content) {
  std::string combined;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream existing;
      existing << in.rdbuf();
      combined = std::move(existing).str();
    }
  }
  combined += content;
  write_file_atomic(path, combined);
}

}  // namespace kcoup::support
