// Chunk-resident execution pipeline for interleaved layouts.
//
// The paper's chunked interleaved layout exists to keep one chunk of C
// matrices resident in fast memory while a thread block works on it. The
// CPU substrate gets the same effect here at *execution* time, for both
// executors and for both interleaved layouts:
//
//  * kInterleavedChunked — the address map is already chunk-local; the
//    pipeline walks lane blocks chunk by chunk (static schedule keeps a
//    chunk on one worker) and software-prefetches the next lane block.
//  * kInterleaved — the element stride equals the padded batch, so at
//    large batches every column sweep strides megabytes of memory and the
//    TLB/caches thrash. The pipeline packs one chunk of C lanes at a time
//    into a 64-byte-aligned, L2-sized scratch buffer (the rows of C
//    elements are contiguous in the source, so packing is n² memcpys),
//    runs the whole factorization over the chunk while it is hot, then
//    writes the factor back — with non-temporal streaming stores when the
//    batch is far larger than the cache hierarchy, so the write-back does
//    not evict the next chunk.
//
// Chunk size is thereby a live CPU tuning knob (CpuFactorOptions::
// chunk_size / TuningParams::chunk_size) even for the non-chunked layout,
// where it selects the pack-scratch size; 0 picks the sizing rule of
// chunk_scratch_lanes(). The pipeline also owns the per-(n, isa) executor
// dispatch table behind CpuExec::kAuto.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

#include "cpu/batch_factor.hpp"
#include "kernels/options.hpp"
#include "kernels/tile_program.hpp"
#include "layout/layout.hpp"

namespace ibchol {

/// Scratch budget for one packed chunk: half a 2 MiB L2 slice, leaving the
/// other half for the lane-block column sweeps and the next chunk's
/// prefetched lines.
inline constexpr std::size_t kChunkScratchBudget = 1u << 20;

/// Batch footprint beyond which the write-back of a packed chunk uses
/// non-temporal streaming stores (the factor will not be re-read before
/// the caches have turned over anyway). IBCHOL_CHUNK_NT=0/1 overrides.
inline constexpr std::size_t kNtStoreMinBytes = 32u << 20;

/// Floor of the automatic packing threshold (see pack_threshold_bytes):
/// used verbatim when the host's last-level cache size cannot be detected.
inline constexpr std::size_t kPackMinBytes = 32u << 20;

/// Batch footprint beyond which automatic chunk sizing (chunk_size == 0)
/// stages the simple interleaved layout through pack scratch: the
/// pack/unpack round trip moves the whole batch through memory twice, which
/// only pays once the batch has clearly outgrown the last-level cache and
/// the wide-stride column sweeps actually miss. The threshold is four times
/// the detected LLC size (sysfs), with kPackMinBytes as the floor when
/// detection fails. An explicit chunk_size is a tuning knob and always
/// packs, so sweeps can measure both regimes at any batch size.
[[nodiscard]] std::size_t pack_threshold_bytes();

/// Columns of the *next* lane block prefetched while the current one is
/// being factored (each column is n element-rows of kLaneBlock elements).
inline constexpr int kPrefetchCols = 2;

/// Smallest dimension at which the cache-blocked vectorized whole-matrix
/// body (VecKernels::blocked) beats the unblocked one: below this the lane
/// block fits L1 and the panel bookkeeping only costs; measured crossover
/// on AVX-512 (n = 24 still favors the unblocked body, n = 32 and up the
/// blocked one; see DESIGN §8).
inline constexpr int kVecBlockedMinDim = 28;

/// Scratch chunk size (in matrices) for dimension n: the largest multiple
/// of kLaneBlock in [kLaneBlock, 512] whose chunk (n²·C elements) fits
/// kChunkScratchBudget. 512 matches the top of the paper's chunk-size
/// sweep (Fig 18).
[[nodiscard]] int chunk_scratch_lanes(int n, std::size_t elem_size);

/// The executor CpuExec::kAuto resolves to for dimension n on SIMD tier
/// `isa` (kAuto = the host's detected tier). Seeded from measured
/// crossovers on the CPU substrate: the vectorized fused/blocked in-place
/// pipeline wins at every n ≤ kMaxVecWholeDim on the AVX tiers; the scalar
/// tier and larger n belong to the specialized executor (whose tile
/// kernels the compiler autovectorizes). An installed instant-tuning
/// override (set_cpu_exec_overrides) wins over the static table for its
/// (n, resolved tier) entries. Never returns kAuto.
[[nodiscard]] CpuExec resolve_cpu_exec(int n, SimdIsa isa);

/// Hot-swappable overrides for the kAuto dispatch table above, keyed on
/// (n, resolved SIMD tier). Installed by the instant-tuning subsystem
/// (src/tune/instant.hpp) from measured winners; nullptr restores the
/// static table. The table is an immutable snapshot behind shared_ptr, so
/// concurrent resolve_cpu_exec calls never observe a half-applied swap.
void set_cpu_exec_overrides(
    std::shared_ptr<const std::map<std::pair<int, SimdIsa>, CpuExec>> table);

/// Packs `lanes` lanes of a simple-interleaved region into chunk scratch:
/// element-row e (of `elems` = n² rows) moves from src[e*src_stride .. +
/// lanes) to dst[e*lanes .. + lanes). dst must hold elems*lanes elements.
template <typename T>
void pack_chunk(const T* src, std::int64_t src_stride, T* dst,
                std::int64_t lanes, std::int64_t elems);

/// Inverse of pack_chunk. `nt_stores` streams the rows past the cache with
/// non-temporal stores (falls back to plain copies when the destination is
/// not 16-byte aligned or on non-x86 hosts); the store fence is issued
/// before returning.
template <typename T>
void unpack_chunk(const T* src, std::int64_t lanes, T* dst,
                  std::int64_t dst_stride, std::int64_t elems,
                  bool nt_stores);

template <typename T>
class SpecializedProgram;
template <typename T>
struct VecKernels;

/// Per-worker pipeline event tallies, accumulated in plain integers on the
/// hot path and folded into the obs counter registry once per worker (see
/// fold_unit_counters). Both the OpenMP driver and the persistent service
/// workers (src/svc/) use this so a counter never costs per-lane-block
/// atomics.
struct ChunkUnitCounters {
  std::int64_t packed_units = 0;
  std::int64_t inplace_lane_blocks = 0;
  std::int64_t prefetched_lane_blocks = 0;
  std::int64_t nt_store_bytes = 0;
};

/// Folds nonzero tallies into the "pipeline.*" obs counters.
void fold_unit_counters(const ChunkUnitCounters& counters);

/// Tallies one executor dispatch in the "cpu.exec.*" obs counters. `exec`
/// must be a resolved executor (never kAuto).
void note_exec_dispatch(CpuExec exec);

/// Everything one interleaved-layout factorization resolves before its hot
/// loop, plus the unit geometry that loop iterates over. A *unit* is the
/// pipeline's scheduling granule: one packed chunk of pack_lanes lanes when
/// the batch is staged through scratch, otherwise unit_lanes consecutive
/// lanes of the in-place traversal (one layout chunk for the chunked
/// layout). Units are independent — any thread may run any unit in any
/// order and the factor bits are identical — which is what lets the
/// persistent work-stealing service (src/svc/) drive the same stage
/// functions as the OpenMP driver below.
///
/// The struct holds non-owning pointers only (program/spec/vk outlive the
/// run; spec is set by the caller when needs_spec_program()), so a plan is
/// trivially copyable and can live in a pooled request slot without heap
/// traffic.
template <typename T>
struct ChunkExecPlan {
  BatchLayout layout = BatchLayout::interleaved(1, 1);
  int n = 0;
  CpuExec exec = CpuExec::kSpecialized;
  bool whole_matrix = false;  ///< full unrolling
  bool fused_spec = false;    ///< specialized fused whole-program kernel
  MathMode math = MathMode::kIeee;
  Triangle triangle = Triangle::kLower;
  const TileProgram* program = nullptr;
  const SpecializedProgram<T>* spec = nullptr;
  const VecKernels<T>* vk = nullptr;
  bool need_wm_scratch = false;  ///< interpreter scratch-triangle fallback

  /// Element width of the *caller's* batch. kFp32 is the classic path
  /// (storage == compute == T, stage storage type S = T). Reduced-precision
  /// plans (built by plan_chunk_exec_mixed, T = float only) hold the batch
  /// as 16-bit words (S = std::uint16_t) and always stage units through
  /// fp32 pack scratch: pack_unit widens rows on the way into L2, the
  /// unchanged factor_unit runs the fp32 compute body over scratch,
  /// writeback_unit narrows on the way out. convert_isa is the conversion
  /// tier resolved once at plan time (IBCHOL_CONVERT_ISA hook), never
  /// kAuto.
  StoragePrec storage = StoragePrec::kFp32;
  SimdIsa convert_isa = SimdIsa::kScalar;

  std::int64_t unit_lanes = 0;  ///< lanes per unit (multiple of kLaneBlock)
  std::int64_t num_units = 0;
  int pack_lanes = 0;    ///< >0: units stage through pack scratch
  bool nt_stores = false;  ///< packed write-back streams past the caches
  std::size_t pack_scratch_elems = 0;  ///< n²·pack_lanes, 0 when in-place
  std::size_t wm_scratch_elems = 0;    ///< per-worker whole-matrix scratch

  /// True when the caller must bind a SpecializedProgram (specialized
  /// executor, partial unrolling) into `spec` before running units.
  [[nodiscard]] bool needs_spec_program() const noexcept {
    return exec == CpuExec::kSpecialized && !whole_matrix && !fused_spec;
  }

  [[nodiscard]] std::int64_t first_lane(std::int64_t unit) const noexcept {
    return unit * unit_lanes;
  }
  [[nodiscard]] std::int64_t lanes_of(std::int64_t unit) const noexcept {
    const std::int64_t rest = layout.padded_batch() - first_lane(unit);
    return rest < unit_lanes ? rest : unit_lanes;
  }
};

/// Resolves the execution plan for one batch: kAuto dispatch, the packing
/// decision (pack_threshold_bytes / explicit chunk_size), the write-back
/// policy, alignment checks for the in-place vectorized path, and the unit
/// geometry. `data` is only inspected for alignment, never dereferenced.
/// Throws on the same precondition violations run_chunk_pipeline always
/// rejected.
template <typename T>
[[nodiscard]] ChunkExecPlan<T> plan_chunk_exec(const BatchLayout& layout,
                                               const T* data,
                                               const TileProgram* program,
                                               const CpuFactorOptions& options);

/// Plans a reduced-precision factorization (storage must not be kFp32):
/// the executor is resolved exactly as plan_chunk_exec does, but every
/// plan packs (every executor including the interpreter oracle, and the
/// chunked layout too — the u16 batch cannot be factored in place,
/// widening IS the pack). One unit is one layout chunk for
/// kInterleavedChunked, else chunk_size lanes (0 = the fp32 scratch sizing
/// rule). Alignment of the caller's u16 batch is never constrained
/// (conversions load/store unaligned).
[[nodiscard]] ChunkExecPlan<float> plan_chunk_exec_mixed(
    const BatchLayout& layout, const TileProgram* program,
    const CpuFactorOptions& options, StoragePrec storage);

// The stage functions below are templated on the compute type T and the
// storage type S of the caller's batch. S = T is the fp32/fp64 path; S =
// std::uint16_t (T = float, a plan from plan_chunk_exec_mixed) is the
// bf16/fp16 path, where pack widens and write-back narrows per
// plan.storage, converting only the stored triangle. The compute stage
// (factor_unit) is the same fp32 body either way, so the mixed lane is
// bit-identical to the fp32 path over the widened scratch.

/// The batch pointer factor_unit's in-place branch works on: the batch
/// itself when it is stored as T, null for a 16-bit batch (whose plans
/// always pack, so factor_unit never dereferences it).
template <typename T, typename S>
[[nodiscard]] T* inplace_batch(S* data) noexcept {
  if constexpr (std::is_same_v<S, T>) {
    return data;
  } else {
    return nullptr;
  }
}

/// Stage 1 of a packed unit: copies (S = T) or widens (16-bit S) the
/// unit's lanes from the interleaved batch into chunk scratch
/// (pack_scratch_elems elements of T). Packed plans only.
template <typename T, typename S>
void pack_unit(const ChunkExecPlan<T>& plan, const S* data, std::int64_t unit,
               T* scratch);

/// Stage 2: factors every lane block of the unit — over `pack_scratch` for
/// packed plans (after pack_unit), in place otherwise (`pack_scratch` may
/// be null). `wm_scratch` must hold wm_scratch_elems elements when
/// need_wm_scratch. Per-matrix statuses for the unit's non-padding lanes
/// land in `info` (when non-empty) and the reduction-local counters.
template <typename T>
void factor_unit(const ChunkExecPlan<T>& plan, T* data, std::int64_t unit,
                 T* pack_scratch, T* wm_scratch, std::span<std::int32_t> info,
                 std::int64_t& failed, std::int64_t& first_failed,
                 ChunkUnitCounters& counters);

/// Stage 3 of a packed unit: writes (S = T) or narrows RN-even (16-bit S)
/// the factored scratch back into the batch, with non-temporal streaming
/// stores when the plan calls for them (the store fence is issued before
/// returning).
template <typename T, typename S>
void writeback_unit(const ChunkExecPlan<T>& plan, const T* scratch, S* data,
                    std::int64_t unit, ChunkUnitCounters& counters);

/// All stages of one unit back to back — the synchronous (non-overlapped)
/// schedule the OpenMP driver and the service's quarantine path use. The
/// service's workers otherwise call the stages directly so the pack of
/// unit k+1 can overlap the write-back of unit k (double buffering).
template <typename T, typename S>
void run_unit(const ChunkExecPlan<T>& plan, S* data, std::int64_t unit,
              T* pack_scratch, T* wm_scratch, std::span<std::int32_t> info,
              std::int64_t& failed, std::int64_t& first_failed,
              ChunkUnitCounters& counters);

/// Factors an interleaved-layout batch through the chunk-resident
/// pipeline. `program` may be null when no tile program is needed (full
/// unrolling, or kAuto resolving to a programless path). This is the
/// execution engine behind factor_batch_cpu for non-canonical layouts
/// (S = T) and behind factor_batch_cpu_mixed (S = std::uint16_t, T = float,
/// `storage` naming the 16-bit format; ignored when S = T).
template <typename T, typename S>
FactorResult run_chunk_pipeline(const BatchLayout& layout, std::span<S> data,
                                const TileProgram* program,
                                const CpuFactorOptions& options,
                                std::span<std::int32_t> info,
                                StoragePrec storage = StoragePrec::kFp32);

}  // namespace ibchol
