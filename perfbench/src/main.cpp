// perfbench — one seeded workload against a real `skc_cli serve` child.
//
//   perfbench --workload <ingest|query_under_ingest|tenant_churn>
//             --seed <n> --seconds <s> --trace <0|1>
//             --cli <path to skc_cli> --out <scratch dir>
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
// against a --trace server (and prints its span totals), then the in-process
// layer run, and prints the per-layer metrics.  The last stdout line is the
// result JSON; the exit code is 0 only when every correctness gate held.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "bench.h"

namespace {

// Set-up is repeated and reported as a median, so a one-off stall does not
// move setup_s.
constexpr int kSetups = 5;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ingest|query_under_ingest|"
               "tenant_churn> --seed <n> --seconds <s> --trace <0|1> "
               "--cli <skc_cli> --out <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::atof(value);
    } else if (key == "--trace") {
      o.trace = std::atoi(value) != 0;
    } else if (key == "--cli") {
      o.cli = value;
    } else if (key == "--out") {
      o.out_dir = value;
    } else {
      return usage();
    }
  }
  const std::set<std::string> workloads = {"ingest", "query_under_ingest",
                                           "tenant_churn"};
  if (!workloads.count(o.workload) || o.seconds <= 0 || o.cli.empty() ||
      o.out_dir.empty()) {
    return usage();
  }
  std::filesystem::create_directories(o.out_dir);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d nproc=%u\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, std::thread::hardware_concurrency());

  WireRun run = run_wire(o, o.trace ? 1 : kSetups);
  const auto batch_iqm = interquartile_mean(run.batch_ms);
  const auto query_iqm = interquartile_mean(run.query_ms);
  std::printf("batch round trip: iqm %.3f ms, p50 %.3f ms, p99 %.3f ms, mean %.3f ms; "
              "query round trip: iqm %.3f ms, p50 %.3f ms, mean %.3f ms "
              "(-1 = too few samples)\n",
              batch_iqm.value_or(-1.0), percentile(run.batch_ms, 0.50).value_or(-1.0),
              percentile(run.batch_ms, 0.99).value_or(-1.0), mean(run.batch_ms),
              query_iqm.value_or(-1.0), percentile(run.query_ms, 0.50).value_or(-1.0),
              mean(run.query_ms));
  std::printf("samples: %zu batch frames, %zu timed queries; ops attempted %lld, "
              "failed %lld (busy %lld, quota %lld, error %lld, wrong %lld)\n",
              run.batch_ms.size(), run.query_ms.size(),
              static_cast<long long>(run.tally.attempted),
              static_cast<long long>(run.tally.failed),
              static_cast<long long>(run.tally.busy),
              static_cast<long long>(run.tally.quota),
              static_cast<long long>(run.tally.errors),
              static_cast<long long>(run.tally.wrong));
  {
    // Raw samples, for a closer look at a distribution than percentiles give.
    std::ofstream raw(o.out_dir + "/samples.txt");
    for (double ms : run.batch_ms) raw << "batch_ms " << ms << "\n";
    for (double ms : run.query_ms) raw << "query_ms " << ms << "\n";
  }
  bool correct = run.valid && run.tally.failed == 0;
  if (!o.trace && !query_iqm) {
    std::printf("too few queries for an interquartile mean\n");
    correct = false;
  }

  std::vector<Metric> metrics;
  if (!o.trace) {
    // -1 marks a figure a failed run never measured.
    auto med = [](const std::vector<double>& v) { return v.empty() ? -1.0 : median(v); };
    metrics = {
        {"setup_s", med(run.setup_s), "s"},
        {"ingest_eps",
         run.window_seconds > 0 ? static_cast<double>(run.window_events) / run.window_seconds
                                : -1.0,
         "events/s"},
        {"query_iqm_ms", query_iqm.value_or(-1.0), "ms"},
        {"peak_rss_mb", med(run.peak_rss_mb), "MB"},
        {"coreset_cost_error", run.coreset_cost_error, "ratio"},
        {"solution_cost_ratio", run.solution_cost_ratio, "ratio"},
    };
  } else {
    // Server-span cross-check: totals of the spans the server already emits.
    {
      std::ofstream(o.out_dir + "/server-trace-" + o.workload + ".json")
          << run.server_trace;
    }
    std::printf("server spans (TRACE_DUMP; rings keep the newest 8192 per thread):\n");
    for (const auto& [name, t] : span_totals(run.server_trace)) {
      if (name == "drain" || name == "snapshot" || name == "merge" ||
          name == "solve" || name == "query") {
        std::printf("  %-9s count %7lld  total %10.1f ms  mean %8.3f ms\n",
                    name.c_str(), static_cast<long long>(t.first),
                    static_cast<double>(t.second) / 1e3,
                    static_cast<double>(t.second) / 1e3 / static_cast<double>(t.first));
      }
    }
    correct = run_layers(o, metrics) && correct;
    std::printf("layer run (bench-side spans):\n");
    // The blocking steps of a 2-shard query: save, load, merge_from and
    // finalize, plus the solve where the workload's queries solve.
    // tenant_churn queries small per-tenant engines the layer run does not
    // model, so it gets no comparison.
    const bool solves = o.workload == "query_under_ingest";
    double blocking = 0.0;
    for (const Metric& m : metrics) {
      std::printf("  %-28s %12.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
      if (m.name == "coreset.save_ms" || m.name == "coreset.load_ms" ||
          m.name == "coreset.merge_from_ms" || m.name == "coreset.finalize_ms" ||
          (solves && m.name == "solve.kmeans_ms")) {
        blocking += m.value;
      }
    }
    if (o.workload != "tenant_churn" && !run.query_ms.empty()) {
      // The traced window is short, so this is a plain median of its queries.
      const double wire = median(run.query_ms);
      std::printf("query explained: save+load+merge_from+finalize%s = %.1f ms vs "
                  "traced wire query median %.1f ms over %zu queries (%.0f%%)\n",
                  solves ? "+kmeans" : "", blocking, wire, run.query_ms.size(),
                  100.0 * blocking / wire);
    }
  }
  std::printf("%s\n", result_json(correct, run.tally.attempted, run.tally.failed,
                                  metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
