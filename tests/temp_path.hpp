// Scratch file names for tests that write files.
//
// ctest runs every test case as its own process, several at once under
// `ctest -j`, and all of them share testing::TempDir(). A fixed file name
// there lets concurrent cases truncate, replace or unmap each other's
// files. unique_temp_path names carry the pid and the running test's
// suite and name, so no two live cases ever share one.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace dsketch {

/// TempDir()/dsketch_<pid>_<suite>.<test>_<tag>, with every character
/// outside [A-Za-z0-9._-] (the '/' of parameterized names) mapped to '_'.
inline std::string unique_temp_path(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::to_string(::getpid()) + "_";
  if (info != nullptr) {
    name += std::string(info->test_suite_name()) + "." + info->name() + "_";
  }
  name += tag;
  for (char& c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    if (!keep) c = '_';
  }
  return ::testing::TempDir() + "/dsketch_" + name;
}

}  // namespace dsketch
