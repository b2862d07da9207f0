// perfbench: end-to-end benchmark of the MayBMS engine through its
// AF_UNIX server.
//
//   perfbench --workload <whatif|dashboard|ingest> --seed <n> --seconds <s>
//             --trace <0|1> --workdir <dir>
//   perfbench --selftest --workdir <dir>
//
// --trace 0 runs the workload's fixed request list through the server and
// prints every end-to-end metric; --trace 1 additionally replays the list
// in-process with spans around each module's entry point and prints the
// layer split instead. Either way the answers are checked against a solo
// replay, and the last stdout line is the JSON result. The exit code is
// non-zero when a check fails or the run cannot complete.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/report.h"
#include "perfbench/trace.h"
#include "perfbench/workload.h"
#include "src/common/str_util.h"

namespace perfbench {
namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n"
               "       perfbench --selftest --workdir <dir>\n",
               msg);
  return 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Runs one workload; returns the process exit code.
int RunWorkload(const RunOptions& opt, bool trace) {
  Workload w;
  std::string error;
  if (!MakeWorkload(opt.workload, opt.seed, opt.seconds, opt.nproc, &w, &error)) {
    return Usage(error.c_str());
  }
  std::printf("workload %s seed %llu seconds %d nproc %u clients %zu\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.nproc, w.clients.size());
  for (size_t c = 0; c < kNumClasses; ++c) {
    std::printf("requests %-6s %zu\n", ClassName(static_cast<Cls>(c)),
                w.ClassCount(static_cast<Cls>(c)));
  }
  const std::string file = DatabaseFile(opt, w);
  if (w.loads_file) {
    maybms::Status st = WriteDatabaseFile(w, file);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: cannot write %s: %s\n", file.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }
  Report report;
  E2eResult e2e;
  maybms::Status st = RunE2e(opt, w, file, &e2e);
  ReleaseFreedMemory();
  Replay solo;
  std::vector<std::string> problems;
  TraceResult traced;
  if (st.ok()) {
    st = trace ? RunTraced(opt, w, file, e2e, &solo, &traced, &problems)
               : RunReplay(w, file, &solo, &problems);
  }
  if (w.loads_file) std::filesystem::remove(file);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", st.ToString().c_str());
    return 1;
  }

  CompareAnswers(w, e2e.sessions, solo.sessions, &problems);
  const int64_t expected_rows =
      static_cast<int64_t>(w.insert_base_rows + e2e.acked_insert_rows);
  if (e2e.final_rows != expected_rows) {
    problems.push_back(maybms::StringFormat(
        "%s holds %lld rows after the run; setup plus acknowledged inserts "
        "is %lld",
        w.insert_table, static_cast<long long>(e2e.final_rows),
        static_cast<long long>(expected_rows)));
  }
  const size_t attempted = w.NumRequests();
  const size_t failed = CountFailed(e2e.sessions);
  if (failed > 0) {
    problems.push_back(maybms::StringFormat("%zu of %zu requests failed", failed,
                                            attempted));
    for (size_t k = 0; k < e2e.sessions.size(); ++k) {
      for (size_t i = 0; i < e2e.sessions[k].size(); ++i) {
        if (e2e.sessions[k][i].ok) continue;
        problems.push_back(maybms::StringFormat(
            "first failure: session %zu request %zu: %s", k, i,
            e2e.sessions[k][i].error.c_str()));
        k = e2e.sessions.size() - 1;
        break;
      }
    }
  }

  if (trace) {
    std::fputs(traced.layer_split.c_str(), stdout);
    report = std::move(traced.layers);
  } else {
    const auto ns = ClassLatencies(w, e2e.sessions);
    report.Add("setup_s", Median(e2e.setup_s), "s");
    report.Add("throughput_rps",
               static_cast<double>(attempted - failed) / e2e.wall_s, "1/s");
    for (size_t c = 0; c < kNumClasses; ++c) {
      const std::string name = ClassName(static_cast<Cls>(c));
      report.Add(name + "_p50_ms", PercentileMs(ns[c], 0.50), "ms");
      report.Add(name + "_p95_ms", PercentileMs(ns[c], 0.95), "ms");
    }
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("success_rate",
               1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
               "fraction");
  }
  for (const std::string& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  const bool correct = problems.empty();
  report.Print(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  bool selftest = false;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        Usage((std::string(name) + " needs a value").c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value("--workload");
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value("--seed"), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atoi(value("--seconds"));
    } else if (arg == "--trace") {
      trace = std::atoi(value("--trace"));
    } else if (arg == "--workdir") {
      opt.workdir = value("--workdir");
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workdir.empty()) return Usage("--workdir is required");
  std::error_code ec;
  std::filesystem::create_directories(opt.workdir, ec);
  if (ec) return Usage(("cannot create --workdir: " + ec.message()).c_str());
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  if (selftest) return SelfTest(opt);
  if (opt.workload.empty() || trace < 0 || trace > 1 || opt.seconds < 1) {
    return Usage("--workload, --trace 0|1 and --seconds >= 1 are required");
  }
  return RunWorkload(opt, trace == 1);
}
