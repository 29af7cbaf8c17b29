// Google-benchmark microbenchmarks of the measured CPU substrate: layout
// conversion, lane-block kernels by variant, whole-matrix registerized
// execution, the canonical per-matrix baseline, the interpreter vs
// specialized-executor head-to-head, and the batched solve.
//
// These are the real-hardware counterpart of the SIMT model benches: the
// interleave dimension maps to SIMD lanes, so the interleaved-vs-canonical
// gap measured here is the CPU analog of the paper's coalescing gap, and
// the interpreter-vs-specialized gap is the analog of interpreted tile
// loops vs the paper's generated fully unrolled kernels.
//
// Run with --json=<path> to skip the google-benchmark suite and instead
// write a machine-readable summary (interpreter vs specialized vs
// vectorized, canonical vs interleaved, per N) for cross-PR perf tracking
// (BENCH_*.json). --layout=chunked|interleaved selects the interleaved
// layout the summary measures (default chunked); --chunk=N sets its chunk
// size (for --layout=interleaved it sizes the pipeline's pack scratch;
// 0 = the automatic sizing rule). --prec=fp32|bf16|fp16 selects the
// reduced-precision storage lane the summary measures alongside the fp32
// columns (default bf16; fp32 disables the mixed lane) — each row then
// carries "storage_prec" and "<prec>_gflops" fields.
//
// --trace=<path> records a pipeline trace instead: the packed chunk
// pipeline (pack / factor / write-back spans per chunk) and the chunked
// in-place traversal, exported as Chrome trace_event JSON (open in
// about://tracing or https://ui.perfetto.dev) or JSONL when the path ends
// in ".jsonl". Requires a build with IBCHOL_OBS=ON (the default); see
// docs/OBSERVABILITY.md.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_cholesky.hpp"
#include "cpu/batch_factor.hpp"
#include "cpu/batch_blas.hpp"
#include "cpu/batch_solve.hpp"
#include "cpu/chunk_pipeline.hpp"
#include "cpu/refine.hpp"
#include "cpu/simd/convert.hpp"
#include "cpu/simd/isa.hpp"
#include "cpu/simd/vec_exec.hpp"
#include "cpu/tile_exec.hpp"
#include "kernels/counts.hpp"
#include "layout/convert.hpp"
#include "layout/generate.hpp"
#include "obs/counters.hpp"
#include "obs/perf_counters.hpp"
#include "obs/trace.hpp"
#include "util/aligned_buffer.hpp"
#include "util/timer.hpp"

namespace {

using namespace ibchol;

constexpr std::int64_t kBatch = 4096;

void set_flops(benchmark::State& state, int n, std::int64_t batch) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * batch *
          nominal_flops_per_matrix(n),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

// ------------------------------------------------------------ factor -----

void BM_FactorInterleaved(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int nb = static_cast<int>(state.range(1));
  const auto looking = static_cast<Looking>(state.range(2));
  TuningParams p;
  p.nb = nb;
  p.looking = looking;
  p.chunked = true;
  p.chunk_size = 64;
  const BatchLayout layout = BatchCholesky::make_layout(n, kBatch, p);
  const BatchCholesky chol(layout, p);
  AlignedBuffer<float> pristine(layout.size_elems());
  generate_spd_batch<float>(layout, pristine.span());
  AlignedBuffer<float> work(layout.size_elems());
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(pristine.begin(), pristine.end(), work.begin());
    state.ResumeTiming();
    benchmark::DoNotOptimize(chol.factorize<float>(work.span()));
  }
  set_flops(state, n, kBatch);
}
BENCHMARK(BM_FactorInterleaved)
    ->ArgsProduct({{8, 16, 32, 48}, {1, 4, 8},
                   {static_cast<long>(Looking::kTop),
                    static_cast<long>(Looking::kRight)}})
    ->ArgNames({"n", "nb", "looking"});

void BM_FactorWholeMatrix(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TuningParams p;
  p.unroll = Unroll::kFull;
  p.chunked = true;
  p.chunk_size = 64;
  const BatchLayout layout = BatchCholesky::make_layout(n, kBatch, p);
  const BatchCholesky chol(layout, p);
  AlignedBuffer<float> pristine(layout.size_elems());
  generate_spd_batch<float>(layout, pristine.span());
  AlignedBuffer<float> work(layout.size_elems());
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(pristine.begin(), pristine.end(), work.begin());
    state.ResumeTiming();
    benchmark::DoNotOptimize(chol.factorize<float>(work.span()));
  }
  set_flops(state, n, kBatch);
}
BENCHMARK(BM_FactorWholeMatrix)->Arg(8)->Arg(16)->Arg(24)->Arg(32)
    ->ArgName("n");

void BM_FactorCanonical(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const BatchLayout layout = BatchLayout::canonical(n, kBatch);
  AlignedBuffer<float> pristine(layout.size_elems());
  generate_spd_batch<float>(layout, pristine.span());
  AlignedBuffer<float> work(layout.size_elems());
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(pristine.begin(), pristine.end(), work.begin());
    state.ResumeTiming();
    benchmark::DoNotOptimize(factor_batch_cpu<float>(layout, work.span(), {}));
  }
  set_flops(state, n, kBatch);
}
BENCHMARK(BM_FactorCanonical)->Arg(8)->Arg(16)->Arg(32)->Arg(48)
    ->ArgName("n");

void BM_FactorFastMath(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TuningParams p = recommended_params(n);
  p.math = MathMode::kFastMath;
  const BatchLayout layout = BatchCholesky::make_layout(n, kBatch, p);
  const BatchCholesky chol(layout, p);
  AlignedBuffer<float> pristine(layout.size_elems());
  generate_spd_batch<float>(layout, pristine.span());
  AlignedBuffer<float> work(layout.size_elems());
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(pristine.begin(), pristine.end(), work.begin());
    state.ResumeTiming();
    benchmark::DoNotOptimize(chol.factorize<float>(work.span()));
  }
  set_flops(state, n, kBatch);
}
BENCHMARK(BM_FactorFastMath)->Arg(16)->Arg(32)->ArgName("n");

// Interpreter vs specialized vs vectorized executor, same variant: the
// dispatch-overhead head-to-head. For small n (full unrolling) this
// compares the scratch whole-matrix loop, the fused compile-time kernel,
// and the explicit-SIMD in-place kernel; for larger n it compares per-op
// switch dispatch, the bound specialized table, and the intrinsic op
// bodies.
void BM_FactorExec(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TuningParams p = recommended_params(n);
  p.exec = state.range(1) == 2   ? CpuExec::kVectorized
           : state.range(1) == 1 ? CpuExec::kSpecialized
                                 : CpuExec::kInterpreter;
  const BatchLayout layout = BatchCholesky::make_layout(n, kBatch, p);
  const BatchCholesky chol(layout, p);
  AlignedBuffer<float> pristine(layout.size_elems());
  generate_spd_batch<float>(layout, pristine.span());
  AlignedBuffer<float> work(layout.size_elems());
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(pristine.begin(), pristine.end(), work.begin());
    state.ResumeTiming();
    benchmark::DoNotOptimize(chol.factorize<float>(work.span()));
  }
  set_flops(state, n, kBatch);
}
BENCHMARK(BM_FactorExec)
    ->ArgsProduct({{4, 8, 16, 24, 32, 48, 64}, {0, 1, 2}})
    ->ArgNames({"n", "exec"});

// Mixed-precision storage lane: matrices held as bf16/fp16 16-bit words,
// widened into the fp32 pack scratch, factored by the same fp32 bodies,
// narrowed on write-back. Compare against BM_FactorExec's vectorized rows
// to see the half-traffic effect. Narrowing the pristine batch is input
// preparation and stays outside the timed region.
void BM_FactorMixed(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto prec = static_cast<StoragePrec>(state.range(1));
  TuningParams p = recommended_params(n);
  p.storage = prec;
  const BatchLayout layout = BatchCholesky::make_layout(n, kBatch, p);
  const BatchCholesky chol(layout, p);
  AlignedBuffer<float> fpristine(layout.size_elems());
  generate_spd_batch<float>(layout, fpristine.span());
  AlignedBuffer<std::uint16_t> pristine(layout.size_elems());
  narrow_row(resolve_convert_isa(), prec, fpristine.data(), pristine.data(),
             static_cast<std::int64_t>(layout.size_elems()),
             /*nt_stores=*/false);
  AlignedBuffer<std::uint16_t> work(layout.size_elems());
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(pristine.begin(), pristine.end(), work.begin());
    state.ResumeTiming();
    benchmark::DoNotOptimize(chol.factorize_mixed(work.span()));
  }
  set_flops(state, n, kBatch);
}
BENCHMARK(BM_FactorMixed)
    ->ArgsProduct({{8, 16, 32, 64},
                   {static_cast<long>(StoragePrec::kBf16),
                    static_cast<long>(StoragePrec::kFp16)}})
    ->ArgNames({"n", "prec"});

// ------------------------------------------------------------ layout -----

/// Converts a kBatch batch from `from` to `to`; bytes processed count the
/// read and the written matrices, as perfbench's layout.convert_gbps does.
void run_convert(benchmark::State& state, const BatchLayout& from,
                 const BatchLayout& to) {
  AlignedBuffer<float> src(from.size_elems());
  generate_spd_batch<float>(from, src.span());
  AlignedBuffer<float> dst(to.size_elems());
  for (auto _ : state) {
    convert_layout<float>(from, std::span<const float>(src.span()), to,
                          dst.span());
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  const int n = from.n();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n * n * kBatch * sizeof(float));
}

void BM_ConvertCanonicalToChunked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  run_convert(state, BatchLayout::canonical(n, kBatch),
              BatchLayout::interleaved_chunked(n, kBatch, 64));
}
BENCHMARK(BM_ConvertCanonicalToChunked)->Arg(8)->Arg(24)->Arg(64)->ArgName("n");

void BM_ConvertChunkedToCanonical(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  run_convert(state, BatchLayout::interleaved_chunked(n, kBatch, 64),
              BatchLayout::canonical(n, kBatch));
}
BENCHMARK(BM_ConvertChunkedToCanonical)->Arg(8)->Arg(24)->Arg(64)->ArgName("n");

// ------------------------------------------------------------- solve -----

void BM_SolveInterleaved(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const TuningParams p = recommended_params(n);
  const BatchLayout layout = BatchCholesky::make_layout(n, kBatch, p);
  const BatchCholesky chol(layout, p);
  AlignedBuffer<float> mats(layout.size_elems());
  generate_spd_batch<float>(layout, mats.span());
  chol.factorize<float>(mats.span());
  const auto vlayout = BatchVectorLayout::matching(layout);
  AlignedBuffer<float> rhs(vlayout.size_elems());
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = 1.0f;
  for (auto _ : state) {
    chol.solve<float>(std::span<const float>(mats.span()), vlayout,
                      rhs.span());
    benchmark::DoNotOptimize(rhs.data());
  }
  // 2n^2 flops per solve.
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBatch * 2.0 * n * n,
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_SolveInterleaved)->Arg(8)->Arg(16)->Arg(32)->ArgName("n");

// --------------------------------------------------------- lane block ----

void BM_LaneBlockKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int nb = static_cast<int>(state.range(1));
  const auto layout = BatchLayout::interleaved(n, kLaneBlock);
  AlignedBuffer<float> pristine(layout.size_elems());
  generate_spd_batch<float>(layout, pristine.span());
  AlignedBuffer<float> work(layout.size_elems());
  const TileProgram program = build_tile_program(n, nb, Looking::kTop);
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(pristine.begin(), pristine.end(), work.begin());
    state.ResumeTiming();
    execute_program_lane_block<float>(program, MathMode::kIeee, work.data(),
                                      layout.chunk(), nullptr);
    benchmark::DoNotOptimize(work.data());
  }
  set_flops(state, n, kLaneBlock);
}
BENCHMARK(BM_LaneBlockKernel)
    ->ArgsProduct({{16, 32, 48}, {2, 8}})
    ->ArgNames({"n", "nb"});

// -------------------------------------------------------- batched BLAS ---

void BM_BatchPotrsMultiRhs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int nrhs = static_cast<int>(state.range(1));
  const TuningParams p = recommended_params(n);
  const BatchLayout layout = BatchCholesky::make_layout(n, kBatch, p);
  const BatchCholesky chol(layout, p);
  AlignedBuffer<float> mats(layout.size_elems());
  generate_spd_batch<float>(layout, mats.span());
  chol.factorize<float>(mats.span());
  const BatchRectLayout rlayout = BatchRectLayout::matching(layout, n, nrhs);
  AlignedBuffer<float> rhs(rlayout.size_elems());
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = 1.0f;
  for (auto _ : state) {
    batch_potrs<float>(layout, std::span<const float>(mats.span()), rlayout,
                       rhs.span());
    benchmark::DoNotOptimize(rhs.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBatch * 2.0 * n * n * nrhs,
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_BatchPotrsMultiRhs)
    ->ArgsProduct({{8, 16, 32}, {1, 4}})
    ->ArgNames({"n", "nrhs"});

void BM_BatchGemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const BatchRectLayout cl = BatchRectLayout::interleaved_chunked(
      n, n, kBatch, 64);
  AlignedBuffer<float> cs(cl.size_elems()), as(cl.size_elems()),
      bs(cl.size_elems());
  for (std::size_t i = 0; i < as.size(); ++i) {
    as[i] = 0.5f;
    bs[i] = 0.25f;
  }
  for (auto _ : state) {
    batch_gemm_nt<float>(cl, cs.span(), cl, std::span<const float>(as.span()),
                         cl, std::span<const float>(bs.span()));
    benchmark::DoNotOptimize(cs.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBatch * 2.0 * n * n * n,
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_BatchGemm)->Arg(8)->Arg(16)->ArgName("n");

void BM_RefinedSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const TuningParams p = recommended_params(n);
  const BatchLayout layout = BatchCholesky::make_layout(n, kBatch, p);
  AlignedBuffer<float> originals(layout.size_elems());
  SpdOptions gen;
  gen.kind = SpdKind::kControlledCondition;
  gen.condition = 1e3;
  generate_spd_batch<float>(layout, originals.span(), gen);
  AlignedBuffer<float> factors(layout.size_elems());
  std::copy(originals.begin(), originals.end(), factors.begin());
  factor_batch_cpu<float>(layout, factors.span(), {});
  const auto vlayout = BatchVectorLayout::matching(layout);
  AlignedBuffer<float> b(vlayout.size_elems()), x(vlayout.size_elems());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0f;
  for (auto _ : state) {
    RefineResult res = refine_batch_solve(
        layout, std::span<const float>(originals.span()),
        std::span<const float>(factors.span()), vlayout,
        std::span<const float>(b.span()), x.span());
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_RefinedSolve)->Arg(16)->ArgName("n");

// ------------------------------------------------------- JSON summary ----

// Best-of-5 factorization time for one (layout, options) configuration
// (one warmup rep; best-of keeps the summary robust against the scheduling
// noise of shared hosts).
double time_factor(const BatchLayout& layout,
                   const AlignedBuffer<float>& pristine,
                   AlignedBuffer<float>& work, const CpuFactorOptions& opt) {
  const std::size_t bytes = layout.size_elems() * sizeof(float);
  double best = 1e300;
  for (int rep = 0; rep < 6; ++rep) {  // one warmup + five timed
    std::memcpy(work.data(), pristine.data(), bytes);
    Timer t;
    (void)factor_batch_cpu<float>(layout, work.span(), opt);
    const double s = t.seconds();
    if (rep > 0 && s < best) best = s;
  }
  return best;
}

// Mixed-lane counterpart: same best-of-5 protocol over a 16-bit batch.
double time_factor_mixed(const BatchLayout& layout,
                         const AlignedBuffer<std::uint16_t>& pristine,
                         AlignedBuffer<std::uint16_t>& work, StoragePrec prec,
                         const CpuFactorOptions& opt) {
  const std::size_t bytes = layout.size_elems() * sizeof(std::uint16_t);
  double best = 1e300;
  for (int rep = 0; rep < 6; ++rep) {  // one warmup + five timed
    std::memcpy(work.data(), pristine.data(), bytes);
    Timer t;
    (void)factor_batch_cpu_mixed(layout, work.span(), prec, opt);
    const double s = t.seconds();
    if (rep > 0 && s < best) best = s;
  }
  return best;
}

double to_gflops(int n, std::int64_t batch, double seconds) {
  return seconds <= 0.0 ? 0.0
                        : static_cast<double>(batch) *
                              nominal_flops_per_matrix(n) / seconds / 1e9;
}

// ------------------------------------------------------ observability ----

// Per-iteration cost a span site adds when no trace session is active,
// against an identical control loop with no span. Best-of-5 minima so
// scheduler noise cannot fake an overhead. This is the bench assertion
// behind the IBCHOL_OBS=OFF zero-overhead guarantee: with the layer
// compiled out both loops are instruction-identical (the macro expands to
// nothing), so the delta must round to zero.
template <typename F>
double best_seconds_of5(F&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 6; ++rep) {  // one warmup + five timed
    Timer t;
    fn();
    const double s = t.seconds();
    if (rep > 0 && s < best) best = s;
  }
  return best;
}

double inactive_span_overhead_ns() {
  constexpr int kIters = 1 << 22;
  const double empty = best_seconds_of5([] {
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(i);
    }
  });
  const double traced = best_seconds_of5([] {
    for (int i = 0; i < kIters; ++i) {
      IBCHOL_TRACE_SPAN("probe", "obs", i);
      benchmark::DoNotOptimize(i);
    }
  });
  return (traced - empty) * 1e9 / kIters;
}

// Aggregates one traced factorization into per-stage CPU seconds (sum of
// span durations by name over the "pipeline" category; sums exceed wall
// time when threads overlap — this is attribution, not elapsed time).
std::map<std::string, double> trace_stages(const BatchLayout& layout,
                                           const AlignedBuffer<float>& pristine,
                                           AlignedBuffer<float>& work,
                                           const CpuFactorOptions& opt) {
  std::map<std::string, double> stages;
  if constexpr (!obs::kEnabled) return stages;
  std::memcpy(work.data(), pristine.data(),
              layout.size_elems() * sizeof(float));
  obs::start_tracing();
  (void)factor_batch_cpu<float>(layout, work.span(), opt);
  obs::stop_tracing();
  for (const obs::TraceSpan& s : obs::collect_spans()) {
    if (std::strcmp(s.cat, "pipeline") == 0) {
      stages[s.name] += static_cast<double>(s.dur_ns) / 1e9;
    }
  }
  return stages;
}

// The --trace mode: one traced run of the packed chunk pipeline (simple
// interleaved layout with an explicit chunk, so pack / factor / write-back
// spans appear per chunk) and of the chunked in-place traversal, exported
// to `path`. Hardware counters ride along when the kernel permits them.
int run_trace_scenario(const std::string& path) {
  if constexpr (!obs::kEnabled) {
    std::fprintf(stderr,
                 "--trace requires a build with IBCHOL_OBS=ON (this binary "
                 "was compiled with the observability layer off)\n");
    return 1;
  }
  obs::HwCounters hw;
  hw.start();
  obs::start_tracing();
  for (const int n : {16, 32}) {
    CpuFactorOptions opt;
    opt.unroll = Unroll::kFull;
    opt.exec = CpuExec::kAuto;
    opt.chunk_size = 128;  // explicit chunk: the packed pipeline always packs

    const BatchLayout il = BatchLayout::interleaved(n, kBatch);
    AlignedBuffer<float> idata(il.size_elems());
    generate_spd_batch<float>(il, idata.span());
    (void)factor_batch_cpu<float>(il, idata.span(), opt);

    const BatchLayout cl = BatchLayout::interleaved_chunked(n, kBatch, 128);
    AlignedBuffer<float> cdata(cl.size_elems());
    generate_spd_batch<float>(cl, cdata.span());
    (void)factor_batch_cpu<float>(cl, cdata.span(), opt);
  }
  obs::stop_tracing();
  const obs::HwSample sample = hw.stop();
  const std::size_t spans = obs::collect_spans().size();
  if (!obs::export_trace(path)) {
    std::fprintf(stderr, "failed to write trace to %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu spans, %llu dropped)\n", path.c_str(), spans,
              static_cast<unsigned long long>(obs::dropped_spans()));
  if (sample.valid) {
    std::printf("hw counters: %llu cycles, %llu instructions (IPC %.2f), "
                "%llu LLC misses\n",
                static_cast<unsigned long long>(sample.cycles),
                static_cast<unsigned long long>(sample.instructions),
                sample.ipc(),
                static_cast<unsigned long long>(sample.llc_misses));
  } else {
    std::printf("hw counters: unavailable (perf_event denied or "
                "unsupported) — trace carries spans only\n");
  }
  return 0;
}

// Interpreter-vs-specialized-vs-vectorized and canonical-vs-interleaved
// summary across the head-to-head sizes, written as one JSON document.
// `chunked` selects the summary's interleaved layout; `chunk` its chunk
// size (for the simple interleaved layout it sizes the pipeline's pack
// scratch, 0 = automatic). `prec` adds a reduced-precision storage lane
// measured with the vec column's exact compute configuration (kFp32
// disables it).
void write_exec_summary(const std::string& path, bool chunked, int chunk,
                        StoragePrec prec) {
  // Per-site cost of an inactive span. With the layer compiled out this is
  // the zero-overhead assertion of the OFF configuration; compiled in it
  // documents the one-relaxed-load price of a quiet site.
  const double span_ns = inactive_span_overhead_ns();
  if (!obs::kEnabled && span_ns > 0.5) {
    std::fprintf(stderr,
                 "obs overhead assertion failed: IBCHOL_OBS=OFF but an "
                 "inactive span site costs %.3f ns/iter (expected ~0)\n",
                 span_ns);
    std::exit(1);
  }
  std::ostringstream os;
  os << "{\n  \"bench\": \"micro_cpu\",\n  \"batch\": " << kBatch
     << ",\n  \"simd_isa\": \""
     << to_string(resolve_simd_isa(SimdIsa::kAuto))
     << "\",\n  \"hardware_concurrency\": "
     << std::thread::hardware_concurrency()
     << ",\n  \"layout\": \"" << (chunked ? "chunked" : "interleaved")
     << "\",\n  \"storage_prec\": \"" << to_string(prec)
     << "\",\n  \"obs_enabled\": " << (obs::kEnabled ? "true" : "false")
     << ",\n  \"obs_inactive_span_ns\": " << span_ns
     << ",\n  \"summary\": [";
  bool first = true;
  for (const int n : {4, 8, 16, 24, 32, 48, 64}) {
    const TuningParams p = recommended_params(n);
    const BatchLayout il = chunked
                               ? BatchLayout::interleaved_chunked(
                                     n, kBatch, chunk > 0 ? chunk : 64)
                               : BatchLayout::interleaved(n, kBatch);
    AlignedBuffer<float> ipristine(il.size_elems());
    generate_spd_batch<float>(il, ipristine.span());
    AlignedBuffer<float> iwork(il.size_elems());

    CpuFactorOptions opt;
    opt.nb = p.effective_nb(n);
    opt.looking = p.looking;
    opt.unroll = p.unroll;
    opt.math = p.math;
    opt.chunk_size = chunked ? 0 : chunk;
    // Effective chunk residency of the run: the layout's own chunk, the
    // pack scratch the pipeline sizes for the simple interleaved layout, or
    // the whole padded batch when the footprint rule keeps it in place.
    const std::size_t il_bytes = il.size_elems() * sizeof(float);
    const int eff_chunk =
        chunked ? static_cast<int>(il.chunk())
                : (chunk > 0 ? chunk
                   : il_bytes >= pack_threshold_bytes()
                       ? chunk_scratch_lanes(n, sizeof(float))
                       : static_cast<int>(il.padded_batch()));
    opt.exec = CpuExec::kInterpreter;
    const double interp = time_factor(il, ipristine, iwork, opt);
    opt.exec = CpuExec::kSpecialized;
    const double spec = time_factor(il, ipristine, iwork, opt);
    // The vectorized column reports the executor's production strategy:
    // the in-place fused/blocked whole-matrix pipeline wherever the
    // runtime-n body reaches (exactly what CpuExec::kAuto dispatches to),
    // the tile program past that.
    opt.exec = CpuExec::kVectorized;
    const Unroll saved_unroll = opt.unroll;
    if (n <= kMaxVecWholeDim) opt.unroll = Unroll::kFull;
    const double vec = time_factor(il, ipristine, iwork, opt);
    // Per-stage attribution of one traced run of the exact vec config
    // (empty map when the obs layer is compiled out). bench_gate.py prints
    // this breakdown when a size regresses.
    const std::map<std::string, double> stages =
        trace_stages(il, ipristine, iwork, opt);
    // Mixed-precision storage lane: the vec column's exact compute
    // configuration, matrices held as 16-bit words. Narrowing the pristine
    // batch is input preparation, not measured time (padding identities
    // narrow exactly, preserving the pipeline's invariant).
    double mixed = 0.0;
    if (prec != StoragePrec::kFp32) {
      AlignedBuffer<std::uint16_t> hpristine(il.size_elems());
      narrow_row(resolve_convert_isa(), prec, ipristine.data(),
                 hpristine.data(),
                 static_cast<std::int64_t>(il.size_elems()),
                 /*nt_stores=*/false);
      AlignedBuffer<std::uint16_t> hwork(il.size_elems());
      mixed = time_factor_mixed(il, hpristine, hwork, prec, opt);
    }
    opt.unroll = saved_unroll;
    opt.exec = CpuExec::kAuto;
    const double autoex = time_factor(il, ipristine, iwork, opt);

    const BatchLayout cl = BatchLayout::canonical(n, kBatch);
    AlignedBuffer<float> cpristine(cl.size_elems());
    generate_spd_batch<float>(cl, cpristine.span());
    AlignedBuffer<float> cwork(cl.size_elems());
    opt.exec = CpuExec::kSpecialized;
    const double canonical = time_factor(cl, cpristine, cwork, opt);

    os << (first ? "\n" : ",\n") << "    {\"n\": " << n
       << ", \"chunk_size\": " << eff_chunk
       << ", \"interp_gflops\": " << to_gflops(n, kBatch, interp)
       << ", \"spec_gflops\": " << to_gflops(n, kBatch, spec)
       << ", \"vec_gflops\": " << to_gflops(n, kBatch, vec)
       << ", \"auto_gflops\": " << to_gflops(n, kBatch, autoex)
       << ", \"exec_speedup\": " << (spec > 0.0 ? interp / spec : 0.0)
       << ", \"vec_speedup\": " << (vec > 0.0 ? spec / vec : 0.0)
       << ", \"canonical_gflops\": " << to_gflops(n, kBatch, canonical)
       << ", \"interleaved_gflops\": " << to_gflops(n, kBatch, vec)
       << ", \"layout_speedup\": " << (vec > 0.0 ? canonical / vec : 0.0);
    if (prec != StoragePrec::kFp32) {
      // Field name carries the precision ("bf16_gflops"/"fp16_gflops") so
      // gate baselines from different lanes never compare against each
      // other; prec_speedup is mixed-over-vec throughput.
      os << ", \"storage_prec\": \"" << to_string(prec) << "\", \""
         << to_string(prec)
         << "_gflops\": " << to_gflops(n, kBatch, mixed)
         << ", \"prec_speedup\": " << (mixed > 0.0 ? vec / mixed : 0.0);
    }
    os << ", \"stages\": {";
    bool sfirst = true;
    for (const auto& [stage, secs] : stages) {
      os << (sfirst ? "" : ", ") << '"' << stage << "\": " << secs;
      sfirst = false;
    }
    os << "}}";
    first = false;
  }
  os << "\n  ]\n}\n";
  std::ofstream f(path);
  f << os.str();
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string trace_path;
  bool chunked = true;
  int chunk = 64;
  StoragePrec prec = StoragePrec::kBf16;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a.rfind("--trace=", 0) == 0) {
      trace_path = a.substr(8);
    } else if (a.rfind("--layout=", 0) == 0) {
      const std::string l = a.substr(9);
      if (l == "chunked") {
        chunked = true;
      } else if (l == "interleaved" || l == "simple") {
        chunked = false;
        chunk = 0;  // pack-scratch sizing rule unless --chunk overrides
      } else {
        std::fprintf(stderr, "unknown --layout=%s\n", l.c_str());
        return 1;
      }
    } else if (a.rfind("--chunk=", 0) == 0) {
      chunk = std::atoi(a.c_str() + 8);
    } else if (a.rfind("--prec=", 0) == 0) {
      const std::string s = a.substr(7);
      if (s == "fp32") {
        prec = StoragePrec::kFp32;
      } else if (s == "bf16") {
        prec = StoragePrec::kBf16;
      } else if (s == "fp16") {
        prec = StoragePrec::kFp16;
      } else {
        std::fprintf(stderr, "unknown --prec=%s\n", s.c_str());
        return 1;
      }
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!trace_path.empty()) {
    return run_trace_scenario(trace_path);
  }
  if (!json_path.empty()) {
    write_exec_summary(json_path, chunked, chunk, prec);
    return 0;
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
