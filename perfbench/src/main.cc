// Entry point of the repository benchmark binary. perfbench/run.py builds
// it and calls it; it can also be run by hand:
//
//   perfbench --workload serve-207 --seed 3 --seconds 12 --trace 0
//             --work-dir <dir> --digest-file <file> [--source-id <id>]
//
// stream-100k needs `--prepare 1` first (same flags) to write its model
// snapshots and frames. The report goes to stdout; its last line is the
// JSON result.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace sagdfn::perfbench {
namespace {

const char* kUsage =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> "
    "--trace <0|1> --work-dir <dir> --digest-file <path> "
    "[--source-id <id>] [--prepare 1]\n";

bool ParseArgs(int argc, char** argv, RunOptions* options, bool* prepare,
               std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else if (flag == "--digest-file") {
      options->digest_file = value;
    } else if (flag == "--source-id") {
      options->source_id = value;
    } else if (flag == "--prepare") {
      *prepare = value == "1";
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (options->workload.empty() || options->work_dir.empty() ||
      options->digest_file.empty() || !(options->seconds > 0.0)) {
    *error = "--workload, --work-dir, --digest-file and --seconds > 0 are "
             "required";
    return false;
  }
  return true;
}

}  // namespace
}  // namespace sagdfn::perfbench

int main(int argc, char** argv) {
  using namespace sagdfn::perfbench;
  RunOptions options;
  bool prepare = false;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &prepare, &error)) {
    std::cerr << "perfbench: " << error << "\n" << kUsage;
    return 2;
  }

  RunResult result;
  bool known = false;
  if (options.workload == "stream-100k") {
    known = true;
    if (prepare) return PrepareStream(options);
    result = RunStream(options);
  } else if (prepare) {
    return 0;  // only the stream has inputs made in a separate process
  } else if (options.workload == "train-2000") {
    known = true;
    result = RunTrain(options);
  } else if (options.workload == "serve-207") {
    known = true;
    result = RunServe(options);
  }
  if (!known) {
    std::cerr << "perfbench: unknown workload " << options.workload << "\n";
    return 2;
  }
  Canonicalize(&result);
  for (const std::string& line : result.report) std::cout << line << "\n";
  std::cout << options.workload << ": attempted " << result.attempted
            << ", succeeded " << result.attempted - result.failed
            << ", failed " << result.failed << "; output checks "
            << (result.correct ? "passed" : "FAILED") << "\n";
  std::cout << ResultJson(result, options.trace) << std::endl;
  return result.correct ? 0 : 1;
}
