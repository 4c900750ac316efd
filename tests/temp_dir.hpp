#pragma once

/// \file temp_dir.hpp
/// RAII scratch directory for tests: a fresh mkdtemp directory under the
/// system temp dir, removed with everything in it on destruction. ctest
/// runs every test as its own process, often in parallel, so fixed file
/// names directly under temp_directory_path() collide between tests;
/// inside a TempDir they cannot.

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

namespace dqndock::testutil {

class TempDir {
 public:
  TempDir() {
    std::string templ = (std::filesystem::temp_directory_path() / "dqndock-test-XXXXXX").string();
    if (::mkdtemp(templ.data()) == nullptr) {
      throw std::runtime_error("TempDir: mkdtemp failed: " + std::string(std::strerror(errno)));
    }
    path_ = templ;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  /// Path of `name` inside the directory, as the string file APIs take.
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace dqndock::testutil
