// The repository benchmark's workload driver: runs one workload, checks
// its outputs, and prints the metrics as one JSON line (see README.md).
//
//   perfbench --workload=build|lookup|congestion|churn [--seed=N]
//             [--seconds=S] [--trace=0|1] [--threads=N] [--spans=PATH]
//
// Flags are strict: an unknown flag, a missing value or a number that does
// not parse in full exits 2 and lists the valid flags.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "bench.h"
#include "common/parallel.h"
#include "telemetry/mem_stats.h"

namespace {

using perfbench::Options;

constexpr const char* kUsage =
    "valid flags: --workload=build|lookup|congestion|churn --seed=<uint> "
    "--seconds=<0..3600> --trace=0|1 --threads=<1..nproc> "
    "--spans=<path>";

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n" << kUsage << "\n";
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    usage_error("--" + std::string(flag) + ": cannot parse '" +
                std::string(text) + "' as a number");
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      usage_error("expected --flag=value, got '" + std::string(arg) + "'");
    }
    const std::string_view flag = arg.substr(2, eq - 2);
    const std::string_view value = arg.substr(eq + 1);
    if (flag == "workload") {
      opt.workload = value;
    } else if (flag == "seed") {
      opt.seed = parse_number<std::uint64_t>(flag, value);
    } else if (flag == "seconds") {
      opt.seconds = parse_number<double>(flag, value);
      if (!(opt.seconds > 0 && opt.seconds <= 3600)) {
        usage_error("--seconds must be in (0, 3600]");
      }
    } else if (flag == "trace") {
      const int t = parse_number<int>(flag, value);
      if (t != 0 && t != 1) usage_error("--trace must be 0 or 1");
      opt.trace = t == 1;
    } else if (flag == "threads") {
      opt.threads = parse_number<int>(flag, value);
      const int nproc =
          static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
      if (opt.threads < 1 || opt.threads > nproc) {
        usage_error("--threads must be in 1.." + std::to_string(nproc));
      }
    } else if (flag == "spans") {
      opt.spans_path = value;
    } else {
      usage_error("unknown flag --" + std::string(flag));
    }
  }
  if (opt.workload.empty()) usage_error("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  void (*workload)(perfbench::Run&) = nullptr;
  if (opt.workload == "build") workload = perfbench::run_build;
  if (opt.workload == "lookup") workload = perfbench::run_lookup;
  if (opt.workload == "congestion") workload = perfbench::run_congestion;
  if (opt.workload == "churn") workload = perfbench::run_churn;
  if (!workload) usage_error("unknown workload '" + opt.workload + "'");

  // Keep freed memory in the heap instead of handing it back to the
  // kernel: rounds rebuild tables of the same sizes, and re-faulting their
  // pages on every round made round times swing with the host's load.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 256 << 20);

  canon::set_parallel_threads(opt.threads);
  // The ledger charges only at build and teardown points, so it stays on
  // in every run; its peaks are the mem.* metrics.
  canon::telemetry::MemoryAccountant ledger;
  canon::telemetry::install_mem_accountant(&ledger);

  perfbench::Run run(opt);
  int rc = 0;
  try {
    workload(run);
    rc = run.finish();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    rc = 1;
  }
  canon::telemetry::install_mem_accountant(nullptr);
  return rc;
}
