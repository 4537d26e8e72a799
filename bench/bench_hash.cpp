// E17a — Hash kernel microbenchmark: ns per hash for the scalar path vs the
// batched SoA path on the lane kernel the process picked (f61::
// default_kernel(): the AVX2 lanes on a CPU with AVX2, the portable lanes
// elsewhere).  The report's `simd` key says which one ran.
//
// The measured quantity is the full point hash (VectorFold + degree-7 Horner)
// the streaming builder evaluates 2(L+1) times per event, plus the raw
// eval-only cost the CountMin row hashes pay.  The portable lanes must win on
// ILP alone; the AVX2 lanes stack 4-lane vectors on top with bit-identical
// outputs (pinned on both kernels by the BatchHash.* tests).
#include <numeric>

#include "bench_util.h"

using namespace skc;
using namespace skc::bench;

namespace {

/// Keeps the optimizer honest without a data dependency between iterations.
std::uint64_t g_sink = 0;

double ns_per_op(double millis, std::size_t ops) {
  return 1e6 * millis / static_cast<double>(ops);
}

}  // namespace

int main() {
  const std::size_t kKeys = 1 << 14;
  const std::size_t kDim = 4;
  const int kRounds = 200;
  const int kLambda = 8;  // the builder's substream hash independence

  Rng rng(99);
  KWiseHash hash(kLambda, rng);
  std::vector<Coord> keys(kKeys * kDim);
  for (auto& c : keys) c = static_cast<Coord>(rng.uniform_int(1, 1 << 14));
  std::vector<std::uint64_t> out(kKeys);

  header("E17a: hash kernel ns/op — scalar vs batch (SoA) vs SIMD",
         "the batched Horner sweep amortizes the per-event field ops of the "
         "ingest hot path; AVX2 lanes are bit-identical where the CPU has them");
  const bool simd = f61::default_kernel() == f61::Kernel::kAvx2;
  row("keys=%zu dim=%zu lambda=%d rounds=%d kernel=%s", kKeys, kDim, kLambda,
      kRounds, simd ? "avx2" : "portable");

  // Scalar: one fold + Horner per key, the cost shape of hashing one event
  // at a time.
  Timer scalar_timer;
  for (int r = 0; r < kRounds; ++r) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kKeys; ++i) {
      acc ^= hash(std::span<const Coord>(keys.data() + i * kDim, kDim));
    }
    g_sink ^= acc;
  }
  const double scalar_ms = scalar_timer.millis();

  // Batched: one hash_batch sweep over the same keys.
  Timer batch_timer;
  for (int r = 0; r < kRounds; ++r) {
    hash.hash_batch(keys.data(), kDim, kKeys, out.data());
    g_sink ^= out[static_cast<std::size_t>(r) % kKeys];
  }
  const double batch_ms = batch_timer.millis();

  // Eval-only (field element in, Horner out): the CountMin row-hash cost.
  std::vector<std::uint64_t> folded(kKeys);
  hash.fold().fold_batch(keys.data(), kDim, kKeys, folded.data());
  Timer eval_scalar_timer;
  for (int r = 0; r < kRounds; ++r) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kKeys; ++i) acc ^= hash.eval(folded[i]);
    g_sink ^= acc;
  }
  const double eval_scalar_ms = eval_scalar_timer.millis();
  Timer eval_batch_timer;
  for (int r = 0; r < kRounds; ++r) {
    std::copy(folded.begin(), folded.end(), out.begin());
    hash.eval_batch(out.data(), kKeys);
    g_sink ^= out[static_cast<std::size_t>(r) % kKeys];
  }
  const double eval_batch_ms = eval_batch_timer.millis();

  const std::size_t ops = kKeys * static_cast<std::size_t>(kRounds);
  row("%-22s %12s %12s %10s", "kernel", "ns/hash", "total_ms", "speedup");
  row("%-22s %12.2f %12.0f %10s", "point_hash scalar", ns_per_op(scalar_ms, ops),
      scalar_ms, "1.00x");
  row("%-22s %12.2f %12.0f %9.2fx", "point_hash batch",
      ns_per_op(batch_ms, ops), batch_ms, scalar_ms / batch_ms);
  row("%-22s %12.2f %12.0f %10s", "eval scalar",
      ns_per_op(eval_scalar_ms, ops), eval_scalar_ms, "1.00x");
  row("%-22s %12.2f %12.0f %9.2fx", "eval batch",
      ns_per_op(eval_batch_ms, ops), eval_batch_ms,
      eval_scalar_ms / eval_batch_ms);
  row("(sink %llu)", static_cast<unsigned long long>(g_sink & 1));

  JsonReport report("hash");
  report.record()
      .kv("series", "point_hash")
      .kv("simd", simd)
      .kv("keys", static_cast<std::int64_t>(kKeys))
      .kv("dim", static_cast<std::int64_t>(kDim))
      .kv("lambda", kLambda)
      .kv("scalar_ns_per_hash", ns_per_op(scalar_ms, ops))
      .kv("batch_ns_per_hash", ns_per_op(batch_ms, ops))
      .kv("batch_speedup", scalar_ms / batch_ms);
  report.record()
      .kv("series", "eval_only")
      .kv("simd", simd)
      .kv("lambda", kLambda)
      .kv("scalar_ns_per_hash", ns_per_op(eval_scalar_ms, ops))
      .kv("batch_ns_per_hash", ns_per_op(eval_batch_ms, ops))
      .kv("batch_speedup", eval_scalar_ms / eval_batch_ms);
  report.write();
  return 0;
}
