// E4 + E5 — One-pass dynamic streams (Theorem 4.5).
//
// E4: the streamed coreset must deliver offline-grade quality on
//     insertion-only, churn (30% deletions), and adversarial delete-heavy
//     streams — the regimes where the only prior algorithm ([BBLM14], three
//     passes, insertion-only) cannot run at all.
// E5: the sketch state must stay (near-)flat as n grows, while the raw
//     surviving data grows linearly.
#include "bench_util.h"

using namespace skc;
using namespace skc::bench;

namespace {

struct StreamCase {
  const char* name;
  double extra_fraction;  // transient points relative to survivors
  bool adversarial;
};

}  // namespace

int main() {
  const int k = 4;
  const int dim = 2;
  const int log_delta = 12;

  header("E4: stream regimes (insert-only / churn / adversarial deletes)",
         "one pass, insertions AND deletions, offline-grade quality");

  const PointIndex n = 2000;  // survivors (small enough for exact evaluation)
  const CoresetParams params = CoresetParams::practical(k, LrOrder{2.0}, 0.2, 0.2);

  // Offline reference on the survivors.
  const PointSet survivors = standard_workload(n, k, dim, log_delta, 1.3, 7);
  const OfflineBuildResult offline = build_offline_coreset(survivors, params, log_delta);
  if (offline.ok) {
    const QualityEnvelope env = measure_quality(survivors, offline.coreset.points, k,
                                                LrOrder{2.0}, params.eta, log_delta);
    row("%-22s %9s %8lld %12.3f %12.3f", "offline (reference)", "-",
        static_cast<long long>(offline.coreset.points.size()), env.upper, env.lower);
  }

  const StreamCase cases[] = {
      {"insertion-only", 0.0, false},
      {"30% deletion churn", 0.75, false},
      {"adversarial deletes", 1.0, true},
  };
  row("%-22s %9s %8s %12s %12s", "stream", "events", "coreset", "upper", "lower");
  for (const StreamCase& c : cases) {
    Rng srng(11);
    const PointSet extra = standard_workload(
        static_cast<PointIndex>(c.extra_fraction * static_cast<double>(n)), k, dim,
        log_delta, 1.3, 8);
    ChurnConfig churn;
    churn.adversarial = c.adversarial;
    const Stream stream = churn_stream(survivors, extra, churn, srng);

    StreamingOptions opt;
    opt.log_delta = log_delta;
    opt.max_points = survivors.size() + extra.size();
    const StreamingResult streamed = build_streaming_coreset(stream, dim, params, opt);
    if (!streamed.ok) {
      row("%-22s %9zu  BUILD FAILED", c.name, stream.size());
      continue;
    }
    const QualityEnvelope env = measure_quality(survivors, streamed.coreset.points, k,
                                                LrOrder{2.0}, params.eta, log_delta);
    row("%-22s %9zu %8lld %12.3f %12.3f", c.name, stream.size(),
        static_cast<long long>(streamed.coreset.points.size()), env.upper, env.lower);
  }
  row("\nexpected shape: every stream regime lands in the same quality");
  row("envelope as the offline reference (deletions cost nothing).");

  header("E5: space vs n", "sketch state ~flat in n; raw stream grows linearly");
  row("%10s %12s %14s %14s %12s %10s", "n", "events/s", "sketch total",
      "per o-guess", "raw data", "coreset");
  for (PointIndex sweep_n :
       {PointIndex{4096}, PointIndex{16384}, PointIndex{65536}, PointIndex{262144}}) {
    const PointSet pts = standard_workload(sweep_n, k, dim, log_delta, 1.3, 21);
    StreamingOptions opt;
    opt.log_delta = log_delta;
    opt.max_points = sweep_n;
    StreamingCoresetBuilder builder(dim, params, opt);
    Timer timer;
    builder.consume(EventBatch(insertion_stream(pts), dim));
    const double secs = timer.seconds();
    const StreamingResult streamed = builder.finalize();
    const std::size_t raw = static_cast<std::size_t>(sweep_n) * dim * sizeof(Coord);
    row("%10lld %12.0f %14s %14s %12s %10lld", static_cast<long long>(sweep_n),
        static_cast<double>(sweep_n) / secs,
        format_bytes(builder.memory_bytes()).c_str(),
        format_bytes(builder.memory_bytes_per_guess()).c_str(),
        format_bytes(raw).c_str(),
        streamed.ok ? static_cast<long long>(streamed.coreset.points.size()) : -1);
  }
  row("\nexpected shape: `sketch total` and `per o-guess` stay near-flat while");
  row("`raw data` grows 64x across the sweep; the crossover where the sketch");
  row("wins moves within reach as n grows.");
  return 0;
}
