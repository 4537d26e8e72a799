// E17a — Hash and checksum kernel microbenchmark.
//
// Hashes: ns per hash for the scalar path vs the batched SoA path on every
// lane kernel this CPU has (the portable lanes always, the AVX2 lanes where
// the CPU has AVX2).  Each kernel gets its own records; the `simd` key says
// which ran.  The measured quantity is the full point hash (VectorFold +
// degree-7 Horner) the streaming builder evaluates 2(L+1) times per event,
// plus the raw eval-only cost the CountMin row hashes pay.  The portable
// lanes must win on ILP alone; the AVX2 lanes stack 4-lane vectors on top
// with bit-identical outputs (pinned on both kernels by the BatchHash.*
// tests).
//
// Checksums: GB/s of the CRC-64 that frames every checkpoint and tenant
// spill, on every kernel this CPU has (slicing-by-8 always, the carry-less
// fold where the CPU has PCLMULQDQ; pinned by the Crc64.* tests), and the
// carry-less kernel's speed-up over slicing-by-8 as its `batch_speedup`.
#include <numeric>

#include "bench_util.h"
#include "skc/common/crc64.h"

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

  header("E17a: hash kernel ns/op — scalar vs batch (SoA) per lane kernel; CRC-64 GB/s",
         "the batched Horner sweep amortizes the per-event field ops of the "
         "ingest hot path; AVX2 lanes are bit-identical where the CPU has them; "
         "the carry-less CRC-64 gives slicing-by-8's values");
  row("keys=%zu dim=%zu lambda=%d rounds=%d", kKeys, kDim, kLambda, kRounds);

  // Scalar: one fold + Horner per key, the cost shape of hashing one event
  // at a time.  No lane kernel involved, so it is timed once.
  Timer scalar_timer;
  for (int r = 0; r < kRounds; ++r) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kKeys; ++i) {
      acc ^= hash(std::span<const Coord>(keys.data() + i * kDim, kDim));
    }
    g_sink ^= acc;
  }
  const double scalar_ms = scalar_timer.millis();

  // Eval-only (field element in, Horner out): the CountMin row-hash cost.
  std::vector<std::uint64_t> folded(kKeys);
  hash.fold().fold_batch(keys.data(), kDim, kKeys, folded.data(), f61::Kernel::kPortable);
  Timer eval_scalar_timer;
  for (int r = 0; r < kRounds; ++r) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kKeys; ++i) acc ^= hash.eval(folded[i]);
    g_sink ^= acc;
  }
  const double eval_scalar_ms = eval_scalar_timer.millis();

  const std::size_t ops = kKeys * static_cast<std::size_t>(kRounds);
  row("%-28s %12s %12s %10s", "kernel", "ns/hash", "total_ms", "speedup");
  row("%-28s %12.2f %12.0f %10s", "point_hash scalar", ns_per_op(scalar_ms, ops),
      scalar_ms, "1.00x");
  row("%-28s %12.2f %12.0f %10s", "eval scalar", ns_per_op(eval_scalar_ms, ops),
      eval_scalar_ms, "1.00x");

  JsonReport report("hash");
  std::vector<f61::Kernel> lane_kernels{f61::Kernel::kPortable};
  if (f61::kernel_supported(f61::Kernel::kAvx2)) lane_kernels.push_back(f61::Kernel::kAvx2);
  for (const f61::Kernel kernel : lane_kernels) {
    const bool simd = kernel == f61::Kernel::kAvx2;
    const char* name = simd ? "avx2" : "portable";
    // Batched: one hash_batch sweep over the same keys.
    Timer batch_timer;
    for (int r = 0; r < kRounds; ++r) {
      hash.hash_batch(keys.data(), kDim, kKeys, out.data(), kernel);
      g_sink ^= out[static_cast<std::size_t>(r) % kKeys];
    }
    const double batch_ms = batch_timer.millis();
    Timer eval_batch_timer;
    for (int r = 0; r < kRounds; ++r) {
      std::copy(folded.begin(), folded.end(), out.begin());
      hash.eval_batch(out.data(), kKeys, kernel);
      g_sink ^= out[static_cast<std::size_t>(r) % kKeys];
    }
    const double eval_batch_ms = eval_batch_timer.millis();
    row("%-20s %-7s %12.2f %12.0f %9.2fx", "point_hash batch", name,
        ns_per_op(batch_ms, ops), batch_ms, scalar_ms / batch_ms);
    row("%-20s %-7s %12.2f %12.0f %9.2fx", "eval batch", name,
        ns_per_op(eval_batch_ms, ops), eval_batch_ms, eval_scalar_ms / eval_batch_ms);
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
  }

  // CRC-64 over a 4 MiB buffer, about one tenant spill's size.
  const std::size_t kCrcBytes = std::size_t{4} << 20;
  const int kCrcRounds = 40;
  std::string buffer(kCrcBytes, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.uniform_int(0, 255));
  std::vector<Crc64Kernel> crc_kernels{Crc64Kernel::kSlicing8};
  if (crc64_kernel_supported(Crc64Kernel::kClmul)) crc_kernels.push_back(Crc64Kernel::kClmul);
  row("%-28s %12s %12s %10s", "crc64 kernel", "GB/s", "total_ms", "speedup");
  double slicing_ms = 0.0;
  for (const Crc64Kernel kernel : crc_kernels) {
    const bool simd = kernel == Crc64Kernel::kClmul;
    Timer crc_timer;
    for (int r = 0; r < kCrcRounds; ++r) {
      g_sink ^= crc64_update(crc64_init(), buffer.data(), buffer.size(), kernel);
    }
    const double crc_ms = crc_timer.millis();
    if (!simd) slicing_ms = crc_ms;
    const double gb_per_s =
        static_cast<double>(kCrcBytes) * kCrcRounds / (crc_ms * 1e-3) / 1e9;
    row("%-28s %12.2f %12.0f %9.2fx", simd ? "crc64 carry-less" : "crc64 slicing-by-8",
        gb_per_s, crc_ms, slicing_ms / crc_ms);
    auto& rec = report.record()
                    .kv("series", "crc64")
                    .kv("simd", simd)
                    .kv("bytes", static_cast<std::int64_t>(kCrcBytes))
                    .kv("gb_per_s", gb_per_s);
    if (simd) rec.kv("batch_speedup", slicing_ms / crc_ms);
  }
  row("(sink %llu)", static_cast<unsigned long long>(g_sink & 1));
  report.write();
  return 0;
}
