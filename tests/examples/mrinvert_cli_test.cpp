// mrinvert_cli ends every failure with its documented exit code and an
// "error:" line instead of aborting through an uncaught exception.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
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

// With verification off, bit-rot serves control file A.3's "3" as ";". Its
// mapper fails the LU job with a DfsError naming the file, and the CLI
// exits 1 with an "error:" line instead of aborting on std::invalid_argument.
TEST(MrinvertCli, RottedControlFileExitsOneWithAnErrorLine) {
  const std::filesystem::path log =
      std::filesystem::path(testing::TempDir()) / "mrinvert_rotted_control.log";
  const std::string command =
      std::string(MRI_CLI_PATH) +
      " --generate 384 --nodes 12 --nb 48 --storage-policy ec --ec 6,3"
      " --verify-checksums off --chaos-seed 7 --bitrot-rate 0.02"
      " --kill-node 5@40 --topology racked --racks 3 --oversub 4 > " +
      log.string() + " 2>&1";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << "the CLI died by a signal";
  EXPECT_EQ(WEXITSTATUS(status), 1);
  std::ifstream in(log);
  const std::string output((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_NE(output.find("error: map phase of job 'lu:/Root' failed: control "
                        "file /Root/MapInput/A.3 holds \";\""),
            std::string::npos)
      << output;
  std::filesystem::remove(log);
}

}  // namespace
