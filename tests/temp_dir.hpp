// Per-test scratch directory for the suites that touch the filesystem
// (artifact store, compile service, explorer cache).
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace cgra {

/// Fresh directory named after the running test suite and `tag`, removed
/// on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag) {
    const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
    path = std::filesystem::temp_directory_path() /
           ("cgra_test_" +
            std::string(unit.current_test_info()->test_suite_name()) + "_" +
            tag + "_" + std::to_string(unit.random_seed()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

}  // namespace cgra
