// caembench — one workload of the caem benchmark per process.
//
//   caembench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --fingerprints <file> [--spans <file>]
//             [--record-fingerprints]
//
// Prints one raw JSON report line on stdout (see bench.hpp); run.py
// folds it into BENCHMARK.json's metrics.  Exit code 0 means the
// workload ran to the end, whatever its output checks found; anything
// else means no result.
#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "util/numeric.hpp"

namespace {

template <typename T>
T require(std::optional<T> value, const std::string& flag) {
  if (!value) throw std::invalid_argument("bad value for " + flag);
  return *value;
}

caembench::Args parse_args(int argc, char** argv) {
  caembench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-fingerprints") {
      args.record_fingerprints = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = require(caem::util::parse_uint(value), flag);
    } else if (flag == "--seconds") {
      args.seconds = require(caem::util::parse_double(value), flag);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--fingerprints") {
      args.fingerprints_path = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.work_dir.empty()) {
    throw std::invalid_argument("--workload and --work-dir are required");
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const caembench::Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.work_dir);
    caembench::Report report;
    if (args.workload == "serve_sweeps") {
      caembench::run_serve_workload(args, report);
    } else {
      caembench::run_simulation_workload(args, report);
    }
    if (args.trace && !args.spans_path.empty() &&
        !caembench::Tracer::instance().write(args.spans_path)) {
      throw std::runtime_error("cannot write spans to " + args.spans_path);
    }
    std::cout << report.to_json() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "caembench: " << error.what() << '\n';
    return 2;
  }
}
