// perfbench: the repository benchmark. Runs one workload and prints
// its metrics, ending with one JSON result line.
//
//   perfbench --workload <oneshot_aminer|serve_warm|serve_churn>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Scratch files live under .bench_tmp/ in the working directory and are
// removed on exit. freehgc_server is expected next to this binary.
// `perfbench --probe <container> --seed <n>` is the fresh-process
// first-condense probe that oneshot_aminer spawns.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

using namespace freehgc::perfbench;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<oneshot_aminer|serve_warm|serve_churn> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string probe;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--probe") {
      probe = value;
    } else {
      Usage("unknown flag " + arg);
    }
  }
  if (!probe.empty()) return ProbeFirstCondense(probe, opts.seed);
  if (opts.seconds <= 0.0) Usage("--seconds must be positive");

  Report (*run)(const Options&) = nullptr;
  if (opts.workload == "oneshot_aminer") run = RunOneshotAminer;
  if (opts.workload == "serve_warm") run = RunServeWarm;
  if (opts.workload == "serve_churn") run = RunServeChurn;
  if (run == nullptr) Usage("unknown workload '" + opts.workload + "'");

  namespace fs = std::filesystem;
  opts.bin_dir = fs::canonical("/proc/self/exe").parent_path().string();
  const fs::path tmp =
      fs::current_path() / ".bench_tmp" / ("run-" + std::to_string(::getpid()));
  fs::create_directories(tmp);
  opts.tmp_dir = tmp.string();

  const Report report = run(opts);
  std::error_code ec;
  fs::remove_all(tmp, ec);
  report.Print(opts.workload, opts.trace);
  return 0;
}
