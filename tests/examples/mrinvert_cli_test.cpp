// mrinvert_cli ends every failure with its documented exit code and an
// "error:" line instead of aborting through an uncaught exception.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

int run_cli(const std::string& args) {
  const std::string command =
      std::string(MRI_CLI_PATH) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(MrinvertCli, ConflictingFlagsExitTwo) {
  EXPECT_EQ(run_cli("--serve requests.trace --solve b.txt"), 2);
}

TEST(MrinvertCli, SingularInputExitsThree) {
  const std::filesystem::path input =
      std::filesystem::path(testing::TempDir()) / "mrinvert_singular.txt";
  std::ofstream(input) << "1 2 3\n2 4 6\n1 1 1\n";
  EXPECT_EQ(run_cli("--input " + input.string()), 3);
  EXPECT_EQ(run_cli("--input " + input.string() + " --engine mapreduce"), 3);
  std::filesystem::remove(input);
}

TEST(MrinvertCli, MissingInputExitsTwo) {
  EXPECT_EQ(run_cli("--input /nonexistent/mrinvert_input.txt"), 2);
}

}  // namespace
