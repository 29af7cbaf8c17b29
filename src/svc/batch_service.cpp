#include "svc/batch_service.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <new>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "cpu/chunk_pipeline.hpp"
#include "cpu/reference.hpp"
#include "cpu/thread_util.hpp"
#include "cpu/tile_exec_spec.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "svc/mpmc_queue.hpp"
#include "svc/work_deque.hpp"
#include "tiled/dag.hpp"
#include "tiled/tile_kernels.hpp"
#include "tiled/tile_layout.hpp"
#include "util/error.hpp"
#include "util/fault_inject.hpp"

namespace ibchol::svc {

namespace detail {

namespace {

constexpr std::int64_t kNotSeen = std::numeric_limits<std::int64_t>::max();

/// Matrices per canonical-layout unit: small enough that a handful of big
/// matrices still spreads across workers, large enough that tiny ones are
/// not all scheduling overhead (the interleaved lane block, by analogy).
constexpr std::int64_t kCanonicalUnit = 32;

/// Watchdog view of one worker slot.
enum WorkerPhase : int {
  kUnborn = 0,   ///< slot reserved for a future respawn
  kActive = 1,   ///< running worker_loop
  kSuspect = 2,  ///< declared stalled; a replacement is already running
  kRetired = 3,  ///< exited (suspect that came back, or joined at teardown)
};

}  // namespace

/// Per-worker liveness state, sampled by the watchdog. The atomics are the
/// worker-to-watchdog channel (relaxed: the watchdog is a heuristic
/// sampler, phase transitions carry the only ordering); the plain fields
/// are the watchdog's private sampling memory.
struct alignas(64) WorkerState {
  std::atomic<std::uint64_t> heartbeat{0};  ///< bumped per loop + per unit
  std::atomic<bool> busy{false};            ///< inside find_and_run
  std::atomic<int> phase{kUnborn};

  // Watchdog-private (single-threaded: only the monitor touches them).
  std::uint64_t last_beat = 0;
  std::uint64_t last_change_ns = 0;
};

/// One pooled request. Everything before the atomics is written by
/// submit() and published to workers through the submission queue's
/// release/acquire edge (and onward to thieves through the deque's).
struct alignas(64) Slot {
  /// How the request's units execute.
  enum class Lane : std::uint8_t {
    /// Chunk-pipeline units (interleaved layouts) under the plan in
    /// `plans` for the element type.
    kChunk,
    /// kCanonicalUnit column-major matrices per unit.
    kCanonical,
    /// Large-N tiled task DAG (see tiled/dag.hpp): units are individual
    /// tile tasks gated by per-tile in-degree counters in tiled_state,
    /// operating on tile-major scratch in tiled_tiles. `dag` points at the
    /// shared immutable spec cached in ServiceShared.
    kTiled,
  };
  /// Element format of the caller's batch. kBf16/kFp16 are 16-bit words
  /// with fp32 accumulate (chunk lane only): the fp32 plan is a mixed plan
  /// (plan_chunk_exec_mixed) and data points at std::uint16_t.
  enum class Elem : std::uint8_t { kFp32, kFp64, kBf16, kFp16 };

  // Immutable while in flight.
  Lane lane = Lane::kChunk;
  Elem elem = Elem::kFp32;
  std::tuple<ChunkExecPlan<float>, ChunkExecPlan<double>> plans;
  BatchLayout layout = BatchLayout::interleaved(1, 1);
  int nb = 8;
  Triangle triangle = Triangle::kLower;
  void* data = nullptr;
  std::int32_t* info = nullptr;
  std::size_t info_size = 0;
  std::int64_t num_units = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t deadline_ns = 0;  ///< absolute now_ns() expiry; 0 = none
  bool screen = false;
  std::int64_t seq = 0;  ///< submission sequence (span payload)

  // Tiled-mode request state, acquired at claim time and returned by
  // complete_request. tiled_tiles holds batch × TileLayout::size_elems()
  // tile-major elements; tiled_state holds, as int32 words accessed
  // through std::atomic_ref: [batch × rest_per_matrix in-degrees]
  // [batch fail-min columns][batch per-matrix task countdowns].
  const tiled::DagSpec* dag = nullptr;
  ArenaLease tiled_tiles;
  ArenaLease tiled_state;

  // Progress.
  std::atomic<int> status{static_cast<int>(RequestStatus::kQueued)};
  std::atomic<std::int64_t> remaining{0};
  std::atomic<std::int64_t> failed{0};
  std::atomic<std::int64_t> first_failed{kNotSeen};
  std::atomic<int> refs{0};  ///< execution side + future side
  std::atomic<bool> aborted{false};     ///< scratch allocation failed
  std::atomic<bool> quarantined{false}; ///< poison slow path ran

  // Completion (mu guards result/recovery/completed; cv wakes waiters).
  std::mutex mu;
  std::condition_variable cv;
  bool completed = false;
  FactorResult result;
  RecoveryReport recovery;
};

struct ServiceShared {
  ServiceOptions opts;
  int threads = 1;      ///< initial worker count
  int max_workers = 1;  ///< threads + watchdog respawn budget
  int grain = 1;

  std::vector<std::unique_ptr<Slot>> slots;
  std::unique_ptr<MpmcQueue<std::uint32_t>> free_slots;
  std::unique_ptr<MpmcQueue<std::uint32_t>> submissions;
  std::unique_ptr<MpmcQueue<std::uint32_t>> submissions_hi;
  std::vector<std::unique_ptr<WorkDeque>> deques;     ///< max_workers
  std::vector<std::unique_ptr<WorkerState>> wstates;  ///< max_workers
  /// Mutated by the constructor and then only by the watchdog thread; the
  /// destructor reads it after joining the watchdog.
  std::vector<std::thread> workers;
  std::thread watchdog;
  ScratchArena arena;

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> inflight{0};
  std::atomic<std::int64_t> seq{0};
  std::atomic<int> num_workers{0};  ///< worker slots in use (grows only)

  // Idle protocol: workers spin briefly, then sleep on the cv; the epoch
  // closes the check-then-sleep race (a publisher bumping it between a
  // sleeper's last look and its wait makes the wait a no-op), and the
  // bounded wait_for bounds the cost of a lost wakeup anyway.
  std::mutex idle_mu;
  std::condition_variable idle_cv;
  std::atomic<std::uint64_t> work_epoch{0};
  std::atomic<int> sleepers{0};

  // Watchdog sleep/shutdown channel.
  std::mutex wd_mu;
  std::condition_variable wd_cv;

  // Program/specialization caches: built once per configuration, reused
  // by every later request (the steady-state zero-allocation path).
  std::mutex cache_mu;
  std::map<std::tuple<int, int, int>, std::unique_ptr<TileProgram>> programs;
  template <typename T>
  using SpecCache = std::map<std::tuple<const TileProgram*, int>,
                             std::unique_ptr<SpecializedProgram<T>>>;
  std::tuple<SpecCache<float>, SpecCache<double>> specs;
  /// Tiled DAG specs keyed (n, nb, clamped lookahead); immutable once
  /// built, so slots can hold bare pointers across requests.
  std::map<std::tuple<int, int, int>, std::unique_ptr<tiled::DagSpec>> dags;
};

namespace {

void notify_work(ServiceShared& s) {
  s.work_epoch.fetch_add(1, std::memory_order_release);
  if (s.sleepers.load(std::memory_order_acquire) > 0) {
    // The lock pairs with the sleeper's epoch check; notify outside it.
    { std::lock_guard<std::mutex> lock(s.idle_mu); }
    s.idle_cv.notify_all();
  }
}

void release_slot(ServiceShared& s, std::uint32_t idx) {
  Slot& slot = *s.slots[idx];
  if (slot.refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    while (!s.free_slots->try_push(idx)) {
    }  // capacity == slot count: succeeds immediately
  }
}

void complete_request(ServiceShared& s, std::uint32_t idx) {
  Slot& slot = *s.slots[idx];
  // Tiled scratch goes back to the arena before the future wakes: by the
  // time remaining hit zero every task body had finished (each body
  // precedes its own finish_units), so nothing touches the leases now.
  slot.tiled_tiles.reset();
  slot.tiled_state.reset();
  const FactorResult result = finalize_factor_result(
      slot.failed.load(std::memory_order_relaxed),
      slot.first_failed.load(std::memory_order_relaxed));
  RequestStatus final_status = RequestStatus::kDone;
  if (slot.aborted.load(std::memory_order_relaxed)) {
    final_status = RequestStatus::kResourceExhausted;
    IBCHOL_COUNT("svc.aborted", 1);
  } else if (slot.quarantined.load(std::memory_order_relaxed)) {
    final_status = RequestStatus::kPoisoned;
  }
  slot.status.store(static_cast<int>(final_status),
                    std::memory_order_release);
  const std::uint64_t now = obs::now_ns();
  IBCHOL_HIST("svc.request_ns", now - slot.submit_ns);
  if constexpr (obs::kEnabled) {
    // Per-precision latency lane: load_service reports p50/p95/p99 per
    // storage format from these. Runtime-named, so no macro cache — one
    // registry lookup per completed request, noise next to a factorization.
    const char* lane = "svc.request_ns.fp32";
    switch (slot.elem) {
      case Slot::Elem::kFp32: break;
      case Slot::Elem::kFp64: lane = "svc.request_ns.fp64"; break;
      case Slot::Elem::kBf16: lane = "svc.request_ns.bf16"; break;
      case Slot::Elem::kFp16: lane = "svc.request_ns.fp16"; break;
    }
    obs::histogram(lane).record(now - slot.submit_ns);
    if (obs::tracing_active()) {
      obs::record_span("request", "svc", slot.seq, slot.submit_ns,
                       now - slot.submit_ns);
    }
  }
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.result = result;
    slot.completed = true;
  }
  slot.cv.notify_all();
  s.inflight.fetch_sub(1, std::memory_order_acq_rel);
  release_slot(s, idx);
  // A drain-waiting destructor (or an exit-checking worker) may be
  // sleeping on the idle cv.
  notify_work(s);
}

/// Completes a request that never executed (expired or shed while
/// queued). The caller already moved `status` to the terminal state via
/// its CAS; the batch data is untouched, and the info span records that
/// with kInfoNotExecuted.
void complete_unrun(ServiceShared& s, std::uint32_t idx,
                    const char* span_name) {
  Slot& slot = *s.slots[idx];
  if (slot.info != nullptr) {
    const std::int64_t count = std::min<std::int64_t>(
        slot.layout.batch(), static_cast<std::int64_t>(slot.info_size));
    std::fill_n(slot.info, count, kInfoNotExecuted);
  }
  if constexpr (obs::kEnabled) {
    if (obs::tracing_active()) {
      const std::uint64_t now = obs::now_ns();
      obs::record_span(span_name, "svc", slot.seq, slot.submit_ns,
                       now - slot.submit_ns);
    }
  }
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.result = FactorResult{};
    slot.completed = true;
  }
  slot.cv.notify_all();
  s.inflight.fetch_sub(1, std::memory_order_acq_rel);
  release_slot(s, idx);
  notify_work(s);
}

void finish_units(ServiceShared& s, std::uint32_t idx, std::int64_t units,
                  std::int64_t failed, std::int64_t first_failed) {
  Slot& slot = *s.slots[idx];
  if (failed > 0) {
    slot.failed.fetch_add(failed, std::memory_order_relaxed);
    std::int64_t cur = slot.first_failed.load(std::memory_order_relaxed);
    while (first_failed < cur &&
           !slot.first_failed.compare_exchange_weak(
               cur, first_failed, std::memory_order_relaxed)) {
    }
  }
  // acq_rel: releases this worker's info[] writes to whoever completes,
  // and the completer acquires every other worker's.
  if (slot.remaining.fetch_sub(units, std::memory_order_acq_rel) == units) {
    complete_request(s, idx);
  }
}

/// Marks one unit range as not executed after a scratch allocation
/// failure: the matrices keep their input contents, their info entries
/// say so, and the request will complete kResourceExhausted. Routing the
/// abort through finish_units keeps the `remaining` accounting identical
/// to a successful range, so concurrent ranges of the same request are
/// unaffected.
template <typename T>
void abort_units(ServiceShared& s, std::uint32_t idx,
                 const ChunkExecPlan<T>& plan, UnitTask t) {
  Slot& slot = *s.slots[idx];
  slot.aborted.store(true, std::memory_order_relaxed);
  IBCHOL_COUNT("svc.aborted_units", t.size());
  const std::int64_t batch = plan.layout.batch();
  const std::int64_t b0 = std::min(batch, plan.first_lane(t.begin));
  const std::int64_t b1 = std::min(batch, plan.first_lane(t.end));
  if (slot.info != nullptr && b1 > b0) {
    std::fill(slot.info + b0, slot.info + b1, kInfoNotExecuted);
  }
  const std::int64_t failed = b1 - b0;
  finish_units(s, idx, t.size(), failed, failed > 0 ? b0 : kNotSeen);
}

/// abort_units for a whole request whose screening/quarantine path lost
/// its scratch before any unit ran.
void abort_whole(ServiceShared& s, std::uint32_t idx) {
  Slot& slot = *s.slots[idx];
  slot.aborted.store(true, std::memory_order_relaxed);
  IBCHOL_COUNT("svc.aborted_units", slot.num_units);
  const std::int64_t batch = slot.layout.batch();
  if (slot.info != nullptr) {
    const std::int64_t count = std::min<std::int64_t>(
        batch, static_cast<std::int64_t>(slot.info_size));
    std::fill_n(slot.info, count, kInfoNotExecuted);
  }
  finish_units(s, idx, slot.num_units, batch, batch > 0 ? 0 : kNotSeen);
}

// Offers the tail of the running range to thieves when the worker's deque
// has run dry. `floor_` is the first unit the worker may still give away.
// Returns the new (possibly shrunk) end.
std::int64_t maybe_split(ServiceShared& s, WorkDeque& deque,
                         std::uint32_t idx, std::int64_t floor_,
                         std::int64_t end) {
  if (end - floor_ > s.grain && deque.empty_approx()) {
    const std::int64_t mid = floor_ + (end - floor_) / 2;
    if (deque.push({idx, mid, end})) {
      notify_work(s);
      return mid;
    }
  }
  return end;
}

/// Runs a chunk-lane unit range over a batch stored as S (S = T, or 16-bit
/// words widened into fp32 scratch by pack_unit and narrowed back by
/// writeback_unit). Packed plans use the double-buffered schedule; a
/// 16-bit batch always packs, so only S = T ever takes the in-place loop.
template <typename T, typename S>
void run_chunk_range(ServiceShared& s, int wid, std::uint32_t idx,
                     const ChunkExecPlan<T>& plan, UnitTask t) {
  WorkDeque& deque = *s.deques[wid];
  WorkerState& me = *s.wstates[wid];
  Slot& slot = *s.slots[idx];
  auto* data = static_cast<S*>(slot.data);
  T* const inplace = inplace_batch<T>(data);
  const std::span<std::int32_t> info(slot.info, slot.info_size);
  std::int64_t failed = 0;
  std::int64_t first = kNotSeen;
  ChunkUnitCounters counters;

  // All scratch is leased up front; the unit loops below never allocate.
  // A failed lease (real OOM or chaos) aborts just this range.
  ArenaLease wm_lease;
  ArenaLease lease_a;
  ArenaLease lease_b;
  T* wm = nullptr;
  T* cur = nullptr;
  T* nxt = nullptr;
  try {
    if (plan.wm_scratch_elems > 0) {
      wm_lease = s.arena.acquire(plan.wm_scratch_elems * sizeof(T));
      wm = wm_lease.as<T>();
    }
    if (plan.pack_lanes > 0) {
      lease_a = s.arena.acquire(plan.pack_scratch_elems * sizeof(T));
      cur = lease_a.as<T>();
      t.end = maybe_split(s, deque, idx, t.begin + 1, t.end);
      if (t.size() > 1) {
        lease_b = s.arena.acquire(plan.pack_scratch_elems * sizeof(T));
        nxt = lease_b.as<T>();
      }
    }
  } catch (const std::bad_alloc&) {
    lease_b.reset();
    lease_a.reset();
    wm_lease.reset();
    abort_units(s, idx, plan, t);
    return;
  }

  if (plan.pack_lanes > 0) {
    // Double-buffered schedule: pack(k+1) runs between factor(k) and
    // writeback(k), so the next chunk's loads are in flight while the
    // previous chunk's streaming stores drain — the write-back never
    // serializes the pipeline. Two scratch buffers swap roles per unit.
    pack_unit(plan, data, t.begin, cur);
    for (std::int64_t u = t.begin; u < t.end; ++u) {
      chaos::chaos_stall_unit();
      factor_unit(plan, inplace, u, cur, wm, info, failed, first, counters);
      if (u + 1 < t.end) pack_unit(plan, data, u + 1, nxt);
      chaos::chaos_delay_writeback();
      writeback_unit(plan, cur, data, u, counters);
      std::swap(cur, nxt);
      me.heartbeat.fetch_add(1, std::memory_order_relaxed);
      // Unit u+1 is already packed into `cur`; only [u+2, end) may move.
      t.end = maybe_split(s, deque, idx, u + 2, t.end);
    }
  } else {
    for (std::int64_t u = t.begin; u < t.end; ++u) {
      chaos::chaos_stall_unit();
      factor_unit(plan, inplace, u, static_cast<T*>(nullptr), wm, info,
                  failed, first, counters);
      me.heartbeat.fetch_add(1, std::memory_order_relaxed);
      t.end = maybe_split(s, deque, idx, u + 1, t.end);
    }
  }
  fold_unit_counters(counters);
  // Return scratch before completing: a waiter that observes the done
  // request must also observe live_leases back at its resting level.
  lease_b.reset();
  lease_a.reset();
  wm_lease.reset();
  finish_units(s, idx, t.size(), failed, first);
}

template <typename T>
void run_canonical_range(ServiceShared& s, int wid, std::uint32_t idx,
                         UnitTask t) {
  WorkDeque& deque = *s.deques[wid];
  WorkerState& me = *s.wstates[wid];
  Slot& slot = *s.slots[idx];
  auto* data = static_cast<T*>(slot.data);
  const BatchLayout& layout = slot.layout;
  const int n = layout.n();
  const int nb = std::min(slot.nb, n);
  const std::int64_t batch = layout.batch();
  std::int64_t failed = 0;
  std::int64_t first = kNotSeen;
  for (std::int64_t u = t.begin; u < t.end; ++u) {
    chaos::chaos_stall_unit();
    const std::int64_t b0 = u * kCanonicalUnit;
    const std::int64_t b1 = std::min(batch, b0 + kCanonicalUnit);
    for (std::int64_t b = b0; b < b1; ++b) {
      T* a = data + layout.index(b, 0, 0);
      const int st = slot.triangle == Triangle::kUpper
                         ? potrf_unblocked_upper(n, a, n)
                         : potrf_blocked(n, nb, a, n);
      if (slot.info != nullptr) slot.info[b] = st;
      if (st != 0) {
        ++failed;
        first = std::min(first, b);
      }
    }
    me.heartbeat.fetch_add(1, std::memory_order_relaxed);
    t.end = maybe_split(s, deque, idx, u + 1, t.end);
  }
  finish_units(s, idx, t.size(), failed, first);
}

// ------------------------------------------------ tiled large-N path ----

/// Acquires and initializes the per-request tiled state at claim time:
/// tile-major scratch for every matrix plus the in-degree / fail-min /
/// countdown words. Throws std::bad_alloc on arena exhaustion (the caller
/// aborts the whole request). The plain-store initialization here is
/// published to other workers by the seq_cst deque pushes that seed the
/// PACK range afterwards.
void setup_tiled_request(ServiceShared& s, std::uint32_t idx) {
  Slot& slot = *s.slots[idx];
  const tiled::DagSpec& spec = *slot.dag;
  const tiled::TileLayout tl(spec.n, spec.nb);
  const std::int64_t batch = slot.layout.batch();
  const std::size_t elem =
      slot.elem == Slot::Elem::kFp64 ? sizeof(double) : sizeof(float);
  ArenaLease tiles;
  ArenaLease state;
  try {
    tiles = s.arena.acquire(static_cast<std::size_t>(batch) *
                            static_cast<std::size_t>(tl.size_elems()) * elem);
    state = s.arena.acquire(
        static_cast<std::size_t>(batch) *
        static_cast<std::size_t>(spec.rest_per_matrix + 2) *
        sizeof(std::int32_t));
  } catch (...) {
    state.reset();
    tiles.reset();
    throw;
  }
  std::int32_t* words = state.as<std::int32_t>();
  for (std::int64_t b = 0; b < batch; ++b) {
    std::memcpy(words + b * spec.rest_per_matrix, spec.init_indegree.data(),
                static_cast<std::size_t>(spec.rest_per_matrix) *
                    sizeof(std::int32_t));
  }
  std::int32_t* fail_min = words + batch * spec.rest_per_matrix;
  std::int32_t* mat_remaining = fail_min + batch;
  for (std::int64_t b = 0; b < batch; ++b) {
    fail_min[b] = std::numeric_limits<std::int32_t>::max();
    mat_remaining[b] = static_cast<std::int32_t>(spec.tasks_per_matrix);
  }
  slot.tiled_tiles = std::move(tiles);
  slot.tiled_state = std::move(state);
}

/// Executes one tile task: decode, run the body, record the failing
/// column on a non-positive pivot, decrement successors' in-degrees, and
/// push newly ready tasks (ascending ALAP priority so the owner's LIFO
/// pop takes the most critical first). When the deque rejects a push the
/// task id goes to `overflow` and the caller runs it inline — forward
/// progress never depends on deque capacity. Each task finishes exactly
/// one unit; the matrix's last task writes info[b], and the globally last
/// completes the request (inside finish_units).
template <typename T>
void execute_tiled_task(ServiceShared& s, int wid, std::uint32_t idx,
                        std::int64_t unit,
                        std::vector<std::int64_t>& overflow) {
  Slot& slot = *s.slots[idx];
  const tiled::DagSpec& spec = *slot.dag;
  const BatchLayout& layout = slot.layout;
  const tiled::TileLayout tl(spec.n, spec.nb);
  const std::int64_t batch = layout.batch();
  const std::int64_t nt = spec.nt;
  // Global unit id → (matrix, local task id): the PACK tasks of every
  // matrix occupy [0, batch·nt) so the root range seeds all DAGs at once;
  // the gated remainder lives per matrix above that.
  const std::int64_t pack_units = batch * nt;
  std::int64_t b;
  std::int64_t local;
  if (unit < pack_units) {
    b = unit / nt;
    local = unit % nt;
  } else {
    const std::int64_t r = unit - pack_units;
    b = r / spec.rest_per_matrix;
    local = nt + r % spec.rest_per_matrix;
  }
  auto* data = static_cast<T*>(slot.data);
  T* tiles = slot.tiled_tiles.as<T>() + b * tl.size_elems();
  std::int32_t* words = slot.tiled_state.as<std::int32_t>();
  std::int32_t* indegree = words + b * spec.rest_per_matrix;
  std::int32_t* fail_min = words + batch * spec.rest_per_matrix;
  std::int32_t* mat_remaining = fail_min + batch;

  const tiled::TileTask task = spec.decode(local);
  const int nb = tl.nb();
  std::uint64_t t0 = 0;
  if constexpr (obs::kEnabled) t0 = obs::now_ns();
  switch (task.kind) {
    case tiled::TaskKind::kPack:
      tiled::pack_tile_column(tl, task.k, tiles, [&](int gi, int gj) {
        return data[layout.index(b, gi, gj)];
      });
      break;
    case tiled::TaskKind::kPotrf: {
      const int r = tiled::tile_potrf(
          tl.dim(task.k), tiles + tl.tile_offset(task.k, task.k), nb);
      if (r != 0) {
        // First failing global column per matrix, 1-based: the CAS-min
        // makes the report schedule-independent (matches the sequential
        // reference, which sees the smallest k first).
        const std::int32_t col = task.k * nb + r;
        std::atomic_ref<std::int32_t> fm(fail_min[b]);
        std::int32_t cur = fm.load(std::memory_order_relaxed);
        while (col < cur && !fm.compare_exchange_weak(
                                cur, col, std::memory_order_relaxed)) {
        }
      }
      break;
    }
    case tiled::TaskKind::kTrsm:
      tiled::tile_trsm(tl.dim(task.i), tl.dim(task.k),
                       tiles + tl.tile_offset(task.k, task.k), nb,
                       tiles + tl.tile_offset(task.i, task.k), nb);
      break;
    case tiled::TaskKind::kSyrk:
      tiled::tile_syrk_ln(tl.dim(task.i), tl.dim(task.k),
                          tiles + tl.tile_offset(task.i, task.k), nb,
                          tiles + tl.tile_offset(task.i, task.i), nb);
      break;
    case tiled::TaskKind::kGemm:
      tiled::tile_gemm_nt(tl.dim(task.i), tl.dim(task.j), tl.dim(task.k),
                          tiles + tl.tile_offset(task.i, task.k), nb,
                          tiles + tl.tile_offset(task.j, task.k), nb,
                          tiles + tl.tile_offset(task.i, task.j), nb);
      break;
    case tiled::TaskKind::kUnpack:
      tiled::unpack_tile_column(tl, task.k, tiles,
                                [&](int gi, int gj, T v) {
                                  data[layout.index(b, gi, gj)] = v;
                                });
      break;
  }
  if constexpr (obs::kEnabled) {
    const std::uint64_t dur = obs::now_ns() - t0;
    IBCHOL_HIST("tiled.task_ns", dur);
    switch (task.kind) {
      case tiled::TaskKind::kPack: IBCHOL_HIST("tiled.pack_ns", dur); break;
      case tiled::TaskKind::kPotrf: IBCHOL_HIST("tiled.potrf_ns", dur); break;
      case tiled::TaskKind::kTrsm: IBCHOL_HIST("tiled.trsm_ns", dur); break;
      case tiled::TaskKind::kSyrk: IBCHOL_HIST("tiled.syrk_ns", dur); break;
      case tiled::TaskKind::kGemm: IBCHOL_HIST("tiled.gemm_ns", dur); break;
      case tiled::TaskKind::kUnpack:
        IBCHOL_HIST("tiled.unpack_ns", dur);
        break;
    }
  }
  IBCHOL_COUNT("tiled.tasks", 1);

  // Release successors. The acq_rel decrement forms a release sequence on
  // each counter: the worker that takes it to zero has acquired every
  // predecessor's tile writes, and the seq_cst deque push/steal carries
  // them onward to whoever executes the task. At most one task per target
  // tile can become ready here (chains serialize per-tile updates), so
  // the burst is bounded by ~2·nt regardless of throttle fan-out.
  std::array<std::int64_t, 2 * tiled::kMaxNt + 8> ready;
  int nready = 0;
  spec.for_each_successor(local, /*include_throttle=*/true,
                          [&](std::int64_t succ) {
    std::atomic_ref<std::int32_t> deg(
        indegree[succ - nt]);
    if (deg.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ready[static_cast<std::size_t>(nready++)] = succ;
    }
  });
  if (nready > 0) {
    std::sort(ready.begin(), ready.begin() + nready,
              [&](std::int64_t x, std::int64_t y) {
                return spec.priority[static_cast<std::size_t>(x)] <
                       spec.priority[static_cast<std::size_t>(y)];
              });
    WorkDeque& deque = *s.deques[wid];
    const std::int64_t rest_base = pack_units + b * spec.rest_per_matrix - nt;
    bool pushed = false;
    for (int r = 0; r < nready; ++r) {
      const std::int64_t g = rest_base + ready[static_cast<std::size_t>(r)];
      if (deque.push({idx, g, g + 1})) {
        pushed = true;
      } else {
        overflow.push_back(g);
      }
    }
    if (pushed) notify_work(s);
  }

  // Per-matrix completion: the last task of matrix b publishes its info
  // entry (0 or the recorded failing column) and charges the failure to
  // the request-level counters through finish_units.
  std::int64_t failed = 0;
  std::int64_t first = kNotSeen;
  std::atomic_ref<std::int32_t> rem(mat_remaining[b]);
  if (rem.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::atomic_ref<std::int32_t> fm(fail_min[b]);
    const std::int32_t raw = fm.load(std::memory_order_acquire);
    const std::int32_t st =
        raw == std::numeric_limits<std::int32_t>::max() ? 0 : raw;
    if (slot.info != nullptr) slot.info[b] = st;
    if (st != 0) {
      failed = 1;
      first = b;
    }
  }
  finish_units(s, idx, 1, failed, first);
}

/// Executes a range of tiled units, draining any deque-overflow tasks
/// inline (LIFO, so the drain follows the same critical-first order the
/// deque would have). The overflow vector allocates only on the overflow
/// path — the steady state is allocation-free.
template <typename T>
void run_tiled_range(ServiceShared& s, int wid, std::uint32_t idx,
                     UnitTask t) {
  WorkDeque& deque = *s.deques[wid];
  WorkerState& me = *s.wstates[wid];
  std::vector<std::int64_t> overflow;
  for (std::int64_t u = t.begin; u < t.end; ++u) {
    chaos::chaos_stall_unit();
    execute_tiled_task<T>(s, wid, idx, u, overflow);
    while (!overflow.empty()) {
      const std::int64_t g = overflow.back();
      overflow.pop_back();
      execute_tiled_task<T>(s, wid, idx, g, overflow);
    }
    me.heartbeat.fetch_add(1, std::memory_order_relaxed);
    t.end = maybe_split(s, deque, idx, u + 1, t.end);
  }
}

/// Calls fn.template operator()<T, S>() with the compute element T and the
/// storage element S of a slot's element format — the one place a
/// request's runtime element type becomes template arguments.
template <typename Fn>
decltype(auto) with_elem_types(Slot::Elem elem, Fn&& fn) {
  switch (elem) {
    case Slot::Elem::kFp32:
      break;
    case Slot::Elem::kFp64:
      return fn.template operator()<double, double>();
    case Slot::Elem::kBf16:
    case Slot::Elem::kFp16:
      return fn.template operator()<float, std::uint16_t>();
  }
  return fn.template operator()<float, float>();
}

void run_range(ServiceShared& s, int wid, UnitTask t) {
  Slot& slot = *s.slots[t.slot];
  with_elem_types(slot.elem, [&]<typename T, typename S>() {
    switch (slot.lane) {
      case Slot::Lane::kChunk:
        run_chunk_range<T, S>(s, wid, t.slot,
                              std::get<ChunkExecPlan<T>>(slot.plans), t);
        break;
      case Slot::Lane::kCanonical:
        run_canonical_range<T>(s, wid, t.slot, t);
        break;
      case Slot::Lane::kTiled:
        run_tiled_range<T>(s, wid, t.slot, t);
        break;
    }
  });
}

// ------------------------------------------------ poison quarantine ----

/// Sequential single-buffer execution of a whole quarantined chunk-lane
/// request: no double buffering (one pack buffer, not two) and no splits
/// (the range is never offered to thieves), so a poisoned batch occupies
/// one worker and one scratch buffer, nothing more. Failure counts are
/// recomputed from the info array afterwards, so the locals here are
/// scratch.
template <typename T, typename S>
void quarantine_chunk(ServiceShared& s, int wid, Slot& slot,
                      const ChunkExecPlan<T>& plan,
                      std::span<std::int32_t> eff_info) {
  WorkerState& me = *s.wstates[wid];
  auto* data = static_cast<S*>(slot.data);
  std::int64_t failed = 0;
  std::int64_t first = kNotSeen;
  ChunkUnitCounters counters;
  ArenaLease wm_lease;
  T* wm = nullptr;
  if (plan.wm_scratch_elems > 0) {
    wm_lease = s.arena.acquire(plan.wm_scratch_elems * sizeof(T));
    wm = wm_lease.as<T>();
  }
  ArenaLease pack_lease;
  T* buf = nullptr;
  if (plan.pack_lanes > 0) {
    pack_lease = s.arena.acquire(plan.pack_scratch_elems * sizeof(T));
    buf = pack_lease.as<T>();
  }
  for (std::int64_t u = 0; u < plan.num_units; ++u) {
    chaos::chaos_stall_unit();
    run_unit(plan, data, u, buf, wm, eff_info, failed, first, counters);
    me.heartbeat.fetch_add(1, std::memory_order_relaxed);
  }
  fold_unit_counters(counters);
}

/// Canonical-mode counterpart of quarantine_chunk.
template <typename T>
void quarantine_canonical(ServiceShared& s, int wid, Slot& slot,
                          std::span<std::int32_t> eff_info) {
  WorkerState& me = *s.wstates[wid];
  auto* data = static_cast<T*>(slot.data);
  const BatchLayout& layout = slot.layout;
  const int n = layout.n();
  const int nb = std::min(slot.nb, n);
  for (std::int64_t b = 0; b < layout.batch(); ++b) {
    if (b % kCanonicalUnit == 0) {
      chaos::chaos_stall_unit();
      me.heartbeat.fetch_add(1, std::memory_order_relaxed);
    }
    T* a = data + layout.index(b, 0, 0);
    eff_info[static_cast<std::size_t>(b)] =
        slot.triangle == Triangle::kUpper ? potrf_unblocked_upper(n, a, n)
                                          : potrf_blocked(n, nb, a, n);
  }
}

/// Runs the NaN/Inf screen on a claimed request. Clean batch: returns
/// false and the caller proceeds on the normal parallel path (results
/// stay bit-identical to an unscreened submit). Poisoned batch: runs the
/// whole request on this worker's quarantine path, completes it
/// (kPoisoned) with a RecoveryReport, and returns true. May throw
/// std::bad_alloc (scratch for the screen); the caller aborts the request.
template <typename T, typename S>
bool screen_quarantine(ServiceShared& s, int wid, std::uint32_t idx) {
  Slot& slot = *s.slots[idx];
  const BatchLayout& layout = slot.layout;
  const std::int64_t batch = layout.batch();
  const ChunkExecPlan<T>& plan = std::get<ChunkExecPlan<T>>(slot.plans);
  const std::span<const S> data(static_cast<const S*>(slot.data),
                                layout.size_elems());

  // The screen writes into scratch, never the caller's info: screened
  // indices must be recoverable without trusting whatever the caller's
  // (possibly uninitialized) span held.
  ArenaLease sinfo_lease =
      s.arena.acquire(static_cast<std::size_t>(batch) * sizeof(std::int32_t));
  const std::span<std::int32_t> sinfo(sinfo_lease.as<std::int32_t>(),
                                      static_cast<std::size_t>(batch));
  std::memset(sinfo.data(), 0, sinfo.size_bytes());
  std::int64_t nonfinite = 0;
  if constexpr (std::is_same_v<S, T>) {
    nonfinite = screen_nonfinite<T>(layout, data, slot.triangle, sinfo);
  } else {
    // A bit-level test on the 16-bit words: no widening pass.
    nonfinite = screen_nonfinite_mixed(layout, data, plan.storage,
                                       slot.triangle, sinfo);
  }
  if (nonfinite == 0) return false;

  const std::uint64_t q_start = obs::now_ns();
  slot.quarantined.store(true, std::memory_order_relaxed);
  IBCHOL_COUNT("svc.quarantined", 1);

  std::vector<std::int64_t> screened;  // off the steady-state path
  screened.reserve(static_cast<std::size_t>(nonfinite));
  for (std::int64_t b = 0; b < batch; ++b) {
    if (sinfo[static_cast<std::size_t>(b)] == kInfoNonFinite) {
      screened.push_back(b);
    }
  }

  // The factorization writes every non-padding matrix's status, so the
  // screen scratch can double as the kernel target when the caller gave
  // no info span.
  std::span<std::int32_t> eff_info =
      slot.info != nullptr ? std::span<std::int32_t>(slot.info, slot.info_size)
                           : sinfo;
  if (slot.info == nullptr) {
    std::memset(sinfo.data(), 0, sinfo.size_bytes());
  }
  if (slot.lane == Slot::Lane::kChunk) {
    quarantine_chunk<T, S>(s, wid, slot, plan, eff_info);
  } else {
    quarantine_canonical<T>(s, wid, slot, eff_info);
  }

  // Poisoned matrices report kInfoNonFinite regardless of what the
  // factorization made of their garbage (recover.cpp's convention), and
  // the failure counts come from the final info state — deterministic
  // under any kernel behavior on NaN/Inf inputs.
  for (const std::int64_t b : screened) {
    eff_info[static_cast<std::size_t>(b)] = kInfoNonFinite;
  }
  std::int64_t failed = 0;
  std::int64_t first = kNotSeen;
  for (std::int64_t b = 0; b < batch; ++b) {
    if (eff_info[static_cast<std::size_t>(b)] != 0) {
      ++failed;
      first = std::min(first, b);
    }
  }

  RecoveryReport report;
  report.nonfinite = nonfinite;
  report.unrecoverable = nonfinite;
  report.failed = failed - nonfinite;
  report.matrices.reserve(screened.size());
  for (const std::int64_t b : screened) {
    MatrixRecovery m;
    m.index = b;
    m.first_info = kInfoNonFinite;
    report.matrices.push_back(m);
  }
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.recovery = std::move(report);
  }
  if constexpr (obs::kEnabled) {
    if (obs::tracing_active()) {
      obs::record_span("quarantine", "svc", slot.seq, q_start,
                       obs::now_ns() - q_start);
    }
  }
  sinfo_lease.reset();  // before completion, as in run_chunk_range
  finish_units(s, idx, slot.num_units, failed, first);
  return true;
}

bool screen_and_quarantine(ServiceShared& s, int wid, std::uint32_t idx) {
  Slot& slot = *s.slots[idx];
  if (slot.lane == Slot::Lane::kTiled) {
    return false;  // submit_tiled rejects screen; unreachable
  }
  return with_elem_types(slot.elem, [&]<typename T, typename S>() {
    return screen_quarantine<T, S>(s, wid, idx);
  });
}

// ------------------------------------------------------ claim & loop ----

void claim_request(ServiceShared& s, int wid, std::uint32_t idx) {
  Slot& slot = *s.slots[idx];
  if (slot.deadline_ns != 0 && obs::now_ns() >= slot.deadline_ns) {
    // Expired while queued: complete without touching the batch. The CAS
    // races cancellation; whoever wins completes the future.
    int expected = static_cast<int>(RequestStatus::kQueued);
    if (slot.status.compare_exchange_strong(
            expected, static_cast<int>(RequestStatus::kDeadlineExceeded),
            std::memory_order_acq_rel)) {
      IBCHOL_COUNT("svc.deadline_miss", 1);
      complete_unrun(s, idx, "expired");
    } else {
      release_slot(s, idx);
    }
    return;
  }
  int expected = static_cast<int>(RequestStatus::kQueued);
  if (!slot.status.compare_exchange_strong(
          expected, static_cast<int>(RequestStatus::kRunning),
          std::memory_order_acq_rel)) {
    // Cancelled while queued; the canceller already completed the future
    // and dropped it from the inflight count — just drop the exec ref.
    release_slot(s, idx);
    return;
  }
  const std::uint64_t now = obs::now_ns();
  IBCHOL_HIST("svc.queue_ns", now - slot.submit_ns);
  if (slot.deadline_ns != 0) {
    IBCHOL_HIST("svc.slack_ns", slot.deadline_ns - now);
  }
  if constexpr (obs::kEnabled) {
    if (obs::tracing_active()) {
      obs::record_span("queue_wait", "svc", slot.seq, slot.submit_ns,
                       now - slot.submit_ns);
    }
  }
  if (slot.screen) {
    bool handled = false;
    try {
      handled = screen_and_quarantine(s, wid, idx);
    } catch (const std::bad_alloc&) {
      abort_whole(s, idx);
      return;
    }
    if (handled) return;
  }
  if (slot.lane == Slot::Lane::kTiled) {
    // Acquire the request's tile scratch and DAG counters, then seed only
    // the PACK region — everything else is gated by in-degrees and enters
    // the deques as tasks become ready.
    try {
      setup_tiled_request(s, idx);
    } catch (const std::bad_alloc&) {
      abort_whole(s, idx);
      return;
    }
    run_range(s, wid, {idx, 0, slot.layout.batch() * slot.dag->nt});
    return;
  }
  run_range(s, wid, {idx, 0, slot.num_units});
}

bool find_and_run(ServiceShared& s, int wid) {
  UnitTask t;
  if (s.deques[wid]->pop(t)) {
    run_range(s, wid, t);
    return true;
  }
  std::uint32_t idx;
  if (s.submissions_hi->try_pop(idx)) {
    claim_request(s, wid, idx);
    return true;
  }
  if (s.submissions->try_pop(idx)) {
    claim_request(s, wid, idx);
    return true;
  }
  // Steal from every worker slot ever started — including suspect and
  // retired workers, whose deques may still hold live ranges.
  const int nw = s.num_workers.load(std::memory_order_acquire);
  for (int i = 1; i < nw; ++i) {
    const int victim = (wid + i) % nw;
    if (s.deques[victim]->steal(t)) {
      IBCHOL_COUNT("svc.steals", 1);
      run_range(s, wid, t);
      return true;
    }
  }
  return false;
}

bool drained(ServiceShared& s) {
  return s.stop.load(std::memory_order_acquire) &&
         s.inflight.load(std::memory_order_acquire) == 0;
}

void worker_loop(ServiceShared& s, int wid) {
  WorkerState& me = *s.wstates[wid];
  int idle_spins = 0;
  for (;;) {
    me.heartbeat.fetch_add(1, std::memory_order_relaxed);
    if (me.phase.load(std::memory_order_acquire) == kSuspect) {
      // The watchdog already runs a replacement; retire so the pool's
      // worker count stays constant. Our deque drains via thieves.
      me.busy.store(false, std::memory_order_relaxed);
      me.phase.store(kRetired, std::memory_order_release);
      return;
    }
    me.busy.store(true, std::memory_order_relaxed);
    const bool ran = find_and_run(s, wid);
    me.busy.store(false, std::memory_order_relaxed);
    if (ran) {
      idle_spins = 0;
      continue;
    }
    if (drained(s)) return;
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t epoch =
        s.work_epoch.load(std::memory_order_acquire);
    // One more look after snapshotting the epoch, so work published just
    // before the snapshot cannot be slept through.
    me.busy.store(true, std::memory_order_relaxed);
    const bool ran2 = find_and_run(s, wid);
    me.busy.store(false, std::memory_order_relaxed);
    if (ran2) {
      idle_spins = 0;
      continue;
    }
    if (drained(s)) return;
    {
      std::unique_lock<std::mutex> lock(s.idle_mu);
      if (s.work_epoch.load(std::memory_order_relaxed) == epoch) {
        s.sleepers.fetch_add(1, std::memory_order_release);
        s.idle_cv.wait_for(lock, std::chrono::milliseconds(1));
        s.sleepers.fetch_sub(1, std::memory_order_release);
      }
    }
    idle_spins = 0;
  }
}

// ----------------------------------------------------------- watchdog ----

void watchdog_loop(const std::shared_ptr<ServiceShared>& sp) {
  ServiceShared& s = *sp;
  const WatchdogOptions& wd = s.opts.watchdog;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(s.wd_mu);
      s.wd_cv.wait_for(
          lock, std::chrono::nanoseconds(wd.check_interval_ns),
          [&] { return s.stop.load(std::memory_order_acquire); });
    }
    if (s.stop.load(std::memory_order_acquire)) return;
    IBCHOL_COUNT("svc.watchdog.checks", 1);
    const std::uint64_t now = obs::now_ns();
    const int nw = s.num_workers.load(std::memory_order_acquire);
    for (int wid = 0; wid < nw; ++wid) {
      WorkerState& w = *s.wstates[wid];
      if (w.phase.load(std::memory_order_acquire) != kActive) continue;
      const std::uint64_t hb = w.heartbeat.load(std::memory_order_relaxed);
      if (!w.busy.load(std::memory_order_relaxed) || hb != w.last_beat) {
        w.last_beat = hb;
        w.last_change_ns = now;
        continue;
      }
      if (now - w.last_change_ns <
          static_cast<std::uint64_t>(wd.stall_threshold_ns)) {
        continue;
      }
      // Stalled: busy, heartbeat flat past the threshold. Respawn only
      // while a preallocated worker slot remains — marking a worker
      // suspect retires it, and retiring without a replacement could
      // empty the pool.
      const int next = s.num_workers.load(std::memory_order_relaxed);
      if (next >= s.max_workers) continue;
      w.phase.store(kSuspect, std::memory_order_release);
      IBCHOL_COUNT("svc.watchdog.suspects", 1);
      WorkerState& fresh = *s.wstates[next];
      fresh.last_beat = 0;
      fresh.last_change_ns = now;
      fresh.phase.store(kActive, std::memory_order_release);
      // Publish the new worker count before its thread exists: thieves
      // iterate [0, num_workers) and must see the deque as scannable no
      // later than the worker that owns it.
      s.num_workers.store(next + 1, std::memory_order_release);
      s.workers.emplace_back([sp, next] { worker_loop(*sp, next); });
      IBCHOL_COUNT("svc.watchdog.respawns", 1);
      if constexpr (obs::kEnabled) {
        if (obs::tracing_active()) {
          obs::record_span("watchdog_respawn", "svc", wid, now,
                           obs::now_ns() - now);
        }
      }
      notify_work(s);
    }
  }
}

// ----------------------------------------------------------- admission ----

/// One shed-oldest pass: rotates through the currently-queued
/// normal-priority requests, completing those past their deadline with
/// kDeadlineExceeded. Returns how many were shed. Unexpired requests go
/// back to the tail (documented reordering); cancelled stragglers get
/// their exec ref dropped, exactly as a claiming worker would.
std::int64_t shed_expired_queued(ServiceShared& s) {
  std::int64_t sheds = 0;
  const std::size_t scan = s.submissions->size_approx();
  const std::uint64_t now = obs::now_ns();
  for (std::size_t i = 0; i < scan; ++i) {
    std::uint32_t idx;
    if (!s.submissions->try_pop(idx)) break;
    Slot& slot = *s.slots[idx];
    if (slot.deadline_ns != 0 && now >= slot.deadline_ns) {
      int expected = static_cast<int>(RequestStatus::kQueued);
      if (slot.status.compare_exchange_strong(
              expected, static_cast<int>(RequestStatus::kDeadlineExceeded),
              std::memory_order_acq_rel)) {
        IBCHOL_COUNT("svc.deadline_miss", 1);
        IBCHOL_COUNT("svc.shed", 1);
        complete_unrun(s, idx, "expired");
        ++sheds;
        continue;
      }
    }
    if (slot.status.load(std::memory_order_acquire) ==
        static_cast<int>(RequestStatus::kQueued)) {
      while (!s.submissions->try_push(idx)) {
        std::this_thread::yield();
      }
    } else {
      // Cancelled between pop and here: drop the exec ref.
      release_slot(s, idx);
    }
  }
  return sheds;
}

/// Pops a free request slot per the service's admission policy. Returns
/// false when the request should be shed (kOverloaded).
bool admit_slot(ServiceShared& s, std::uint32_t& idx) {
  if (s.free_slots->try_pop(idx)) return true;
  const AdmitPolicy policy = s.opts.policy.admit;
  const std::uint64_t start =
      policy == AdmitPolicy::kBoundedWait ? obs::now_ns() : 0;
  for (;;) {
    if (s.free_slots->try_pop(idx)) return true;
    switch (policy) {
      case AdmitPolicy::kBlock:
        std::this_thread::yield();
        break;
      case AdmitPolicy::kReject:
        return false;
      case AdmitPolicy::kShedOldest:
        // Shedding frees exec refs; a slot recycles only if its future
        // was also released, so retry the pop and reject when a pass
        // reclaims nothing.
        if (shed_expired_queued(s) == 0) return false;
        break;
      case AdmitPolicy::kBoundedWait:
        if (obs::now_ns() - start >=
            static_cast<std::uint64_t>(
                std::max<std::int64_t>(0, s.opts.policy.max_wait_ns))) {
          return false;
        }
        std::this_thread::yield();
        break;
    }
  }
}

}  // namespace

}  // namespace detail

using detail::ServiceShared;
using detail::Slot;

// ------------------------------------------------------- FactorFuture ----

FactorResult FactorFuture::wait() {
  IBCHOL_CHECK(valid(), "wait() on an empty future");
  if (overloaded_) return FactorResult{};
  Slot& slot = *shared_->slots[slot_];
  std::unique_lock<std::mutex> lock(slot.mu);
  slot.cv.wait(lock, [&] { return slot.completed; });
  return slot.result;
}

bool FactorFuture::try_cancel() {
  IBCHOL_CHECK(valid(), "try_cancel() on an empty future");
  if (overloaded_) return false;
  Slot& slot = *shared_->slots[slot_];
  int expected = static_cast<int>(RequestStatus::kQueued);
  if (!slot.status.compare_exchange_strong(
          expected, static_cast<int>(RequestStatus::kCancelled),
          std::memory_order_acq_rel)) {
    return false;
  }
  IBCHOL_COUNT("svc.cancelled", 1);
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.result = FactorResult{};
    slot.completed = true;
  }
  slot.cv.notify_all();
  shared_->inflight.fetch_sub(1, std::memory_order_acq_rel);
  detail::notify_work(*shared_);  // a drain-waiter may be parked
  return true;
}

RequestStatus FactorFuture::status() const {
  IBCHOL_CHECK(valid(), "status() on an empty future");
  if (overloaded_) return RequestStatus::kOverloaded;
  return static_cast<RequestStatus>(
      shared_->slots[slot_]->status.load(std::memory_order_acquire));
}

RecoveryReport FactorFuture::recovery_report() {
  IBCHOL_CHECK(valid(), "recovery_report() on an empty future");
  if (overloaded_) return RecoveryReport{};
  Slot& slot = *shared_->slots[slot_];
  std::unique_lock<std::mutex> lock(slot.mu);
  slot.cv.wait(lock, [&] { return slot.completed; });
  return slot.recovery;
}

void FactorFuture::release() noexcept {
  if (shared_ != nullptr) {
    detail::release_slot(*shared_, slot_);
    shared_.reset();
  }
  overloaded_ = false;
}

// -------------------------------------------------------- BatchService ----

BatchService::BatchService(const ServiceOptions& options)
    : shared_(std::make_shared<ServiceShared>()) {
  ServiceShared& s = *shared_;
  s.opts = options;
  // Thread count is resolved once here and frozen for the service
  // lifetime — no per-call libgomp queries, no per-call team spawn.
  s.threads = options.num_threads > 0 ? options.num_threads
                                      : cached_default_threads();
  IBCHOL_CHECK(s.threads >= 1, "service needs at least one worker");
  s.grain = std::max(1, options.steal_grain);
  const WatchdogOptions& wd = options.watchdog;
  if (wd.enabled) {
    IBCHOL_CHECK(wd.check_interval_ns > 0 && wd.stall_threshold_ns > 0,
                 "watchdog intervals must be positive");
  }
  s.max_workers =
      s.threads + (wd.enabled ? std::max(0, wd.max_respawns) : 0);
  const std::size_t nslots = std::min<std::size_t>(
      std::max<std::size_t>(1, options.max_inflight), kMaxSlots);
  s.slots.reserve(nslots);
  for (std::size_t i = 0; i < nslots; ++i) {
    s.slots.push_back(std::make_unique<Slot>());
  }
  s.free_slots = std::make_unique<MpmcQueue<std::uint32_t>>(nslots);
  s.submissions = std::make_unique<MpmcQueue<std::uint32_t>>(nslots);
  s.submissions_hi = std::make_unique<MpmcQueue<std::uint32_t>>(nslots);
  for (std::uint32_t i = 0; i < nslots; ++i) {
    (void)s.free_slots->try_push(i);
  }
  // Deques and worker states for every slot the watchdog may ever fill
  // are preallocated so respawns never resize a vector thieves iterate.
  const auto max_workers = static_cast<std::size_t>(s.max_workers);
  s.deques.reserve(max_workers);
  s.wstates.reserve(max_workers);
  for (std::size_t i = 0; i < max_workers; ++i) {
    // Sized for the tiled path's ready-task bursts (up to ~2·kMaxNt single
    // tasks per completed POTRF) on top of ordinary range splits; overflow
    // is still handled (inline execution), this just keeps it off the
    // steady-state path.
    s.deques.push_back(std::make_unique<WorkDeque>(4096));
    s.wstates.push_back(std::make_unique<detail::WorkerState>());
  }
  const std::uint64_t now = obs::now_ns();
  for (int i = 0; i < s.threads; ++i) {
    s.wstates[static_cast<std::size_t>(i)]->last_change_ns = now;
    s.wstates[static_cast<std::size_t>(i)]->phase.store(
        detail::kActive, std::memory_order_relaxed);
  }
  s.num_workers.store(s.threads, std::memory_order_release);
  s.workers.reserve(max_workers);
  for (int i = 0; i < s.threads; ++i) {
    s.workers.emplace_back([shared = shared_, i] {
      detail::worker_loop(*shared, i);
    });
  }
  if (wd.enabled) {
    s.watchdog = std::thread([shared = shared_] {
      detail::watchdog_loop(shared);
    });
  }
}

BatchService::~BatchService() {
  ServiceShared& s = *shared_;
  s.stop.store(true, std::memory_order_release);
  // Watchdog first: after it joins, the workers vector is frozen and no
  // new worker can appear mid-teardown.
  if (s.watchdog.joinable()) {
    { std::lock_guard<std::mutex> lock(s.wd_mu); }
    s.wd_cv.notify_all();
    s.watchdog.join();
  }
  detail::notify_work(s);
  for (std::thread& t : s.workers) t.join();
  // Slots of requests cancelled at the shutdown edge may still sit in the
  // submission queues holding their execution-side reference.
  std::uint32_t idx;
  while (s.submissions_hi->try_pop(idx)) detail::release_slot(s, idx);
  while (s.submissions->try_pop(idx)) detail::release_slot(s, idx);
}

int BatchService::threads() const noexcept { return shared_->threads; }

int BatchService::workers_started() const noexcept {
  return shared_->num_workers.load(std::memory_order_acquire);
}

ArenaStats BatchService::arena_stats() const {
  return shared_->arena.stats();
}

BatchService& BatchService::global() {
  // Leaked: the global service must outlive every static-destruction-time
  // caller, like the obs registries.
  static BatchService* service = new BatchService;
  return *service;
}

namespace {

const TileProgram* cached_program(ServiceShared& s, int n, int nb,
                                  Looking looking) {
  const std::tuple<int, int, int> key{n, nb, static_cast<int>(looking)};
  std::lock_guard<std::mutex> lock(s.cache_mu);
  auto it = s.programs.find(key);
  if (it == s.programs.end()) {
    it = s.programs
             .emplace(key, std::make_unique<TileProgram>(
                               build_tile_program(n, nb, looking)))
             .first;
  }
  return it->second.get();
}

template <typename T>
const SpecializedProgram<T>* cached_spec(ServiceShared& s,
                                         const TileProgram* program,
                                         MathMode math) {
  const std::tuple<const TileProgram*, int> key{program,
                                                static_cast<int>(math)};
  auto& specs = std::get<ServiceShared::SpecCache<T>>(s.specs);
  std::lock_guard<std::mutex> lock(s.cache_mu);
  auto it = specs.find(key);
  if (it == specs.end()) {
    it = specs
             .emplace(key,
                      std::make_unique<SpecializedProgram<T>>(*program, math))
             .first;
  }
  return it->second.get();
}

template <typename T>
constexpr Slot::Elem elem_of() {
  return std::is_same_v<T, double> ? Slot::Elem::kFp64 : Slot::Elem::kFp32;
}

/// Resolves a chunk-lane plan on the submitting thread, so every
/// precondition failure surfaces there: the cached tile program, the plan
/// (plan_chunk_exec for a batch stored as T, plan_chunk_exec_mixed for
/// 16-bit words in `storage` format), and the cached specialization.
template <typename T, typename S>
ChunkExecPlan<T> resolve_chunk_plan(ServiceShared& s,
                                    const BatchLayout& layout, const S* data,
                                    const CpuFactorOptions& options,
                                    const TileProgram* program,
                                    StoragePrec storage) {
  const TileProgram* prog = program;
  if (prog == nullptr && options.unroll == Unroll::kPartial) {
    prog = cached_program(s, layout.n(), std::min(options.nb, layout.n()),
                          options.looking);
  }
  ChunkExecPlan<T> plan;
  if constexpr (std::is_same_v<S, T>) {
    plan = plan_chunk_exec<T>(layout, data, prog, options);
  } else {
    plan = plan_chunk_exec_mixed(layout, prog, options, storage);
  }
  if (plan.needs_spec_program()) {
    plan.spec = cached_spec<T>(s, prog, options.math);
  }
  note_exec_dispatch(plan.exec);
  return plan;
}

}  // namespace

template <typename Bind>
FactorFuture BatchService::enqueue(const BatchLayout& layout, void* data,
                                   std::size_t data_elems,
                                   std::span<std::int32_t> info,
                                   const SubmitOptions& sopts,
                                   std::int64_t num_units, Bind&& bind) {
  ServiceShared& s = *shared_;
  IBCHOL_CHECK(!s.stop.load(std::memory_order_acquire),
               "submit on a service being destroyed");
  IBCHOL_CHECK(data_elems >= layout.size_elems(),
               "data span too small for layout " + layout.to_string());
  IBCHOL_CHECK(info.empty() ||
                   info.size() >= static_cast<std::size_t>(layout.batch()),
               "info span too small for batch");
  IBCHOL_CHECK(sopts.timeout_ns >= 0, "negative submit timeout");
  IBCHOL_CHECK(num_units < kMaxUnits,
               "batch too large for one request; split it");

  // Admission: a full pool means the caller is ahead of the pool, and
  // the policy decides between backpressure and load shedding.
  std::uint32_t idx;
  if (!detail::admit_slot(s, idx)) {
    IBCHOL_COUNT("svc.shed", 1);
    if (!info.empty()) {
      std::fill_n(info.data(),
                  std::min<std::size_t>(
                      info.size(),
                      static_cast<std::size_t>(layout.batch())),
                  kInfoNotExecuted);
    }
    return FactorFuture::overloaded();
  }
  Slot& slot = *s.slots[idx];
  bind(slot);
  slot.layout = layout;
  slot.data = data;
  slot.info = info.empty() ? nullptr : info.data();
  slot.info_size = info.empty() ? 0 : info.size();
  slot.num_units = num_units;
  slot.submit_ns = obs::now_ns();
  slot.deadline_ns =
      sopts.timeout_ns > 0
          ? slot.submit_ns + static_cast<std::uint64_t>(sopts.timeout_ns)
          : 0;
  slot.screen = sopts.screen;
  slot.seq = s.seq.fetch_add(1, std::memory_order_relaxed);
  slot.status.store(static_cast<int>(RequestStatus::kQueued),
                    std::memory_order_relaxed);
  slot.remaining.store(num_units, std::memory_order_relaxed);
  slot.failed.store(0, std::memory_order_relaxed);
  slot.first_failed.store(detail::kNotSeen, std::memory_order_relaxed);
  slot.aborted.store(false, std::memory_order_relaxed);
  slot.quarantined.store(false, std::memory_order_relaxed);
  slot.refs.store(2, std::memory_order_relaxed);  // exec side + future
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.completed = false;
    slot.recovery = RecoveryReport{};
  }

  s.inflight.fetch_add(1, std::memory_order_acq_rel);
  IBCHOL_COUNT("svc.submitted", 1);
  auto& queue = sopts.priority > 0 ? *s.submissions_hi : *s.submissions;
  while (!queue.try_push(idx)) {
    std::this_thread::yield();  // capacity == slots: effectively immediate
  }
  detail::notify_work(s);
  return FactorFuture(shared_, idx);
}

template <typename T>
FactorFuture BatchService::submit(const BatchLayout& layout,
                                  std::span<T> data,
                                  const CpuFactorOptions& options,
                                  std::span<std::int32_t> info,
                                  const TileProgram* program,
                                  const SubmitOptions& sopts) {
  IBCHOL_CHECK(sopts.storage == StoragePrec::kFp32,
               "reduced-precision batches go through submit_mixed");
  const bool canonical = layout.kind() == LayoutKind::kCanonical;
  ChunkExecPlan<T> plan;
  std::int64_t num_units;
  if (canonical) {
    num_units =
        (layout.batch() + detail::kCanonicalUnit - 1) / detail::kCanonicalUnit;
    IBCHOL_COUNT("cpu.exec.canonical", 1);
  } else {
    plan = resolve_chunk_plan<T>(*shared_, layout, data.data(), options,
                                 program, sopts.storage);
    num_units = plan.num_units;
  }
  return enqueue(layout, data.data(), data.size(), info, sopts, num_units,
                 [&](Slot& slot) {
                   slot.lane = canonical ? Slot::Lane::kCanonical
                                         : Slot::Lane::kChunk;
                   slot.elem = elem_of<T>();
                   std::get<ChunkExecPlan<T>>(slot.plans) = plan;
                   slot.nb = options.nb;
                   slot.triangle = options.triangle;
                 });
}

template <typename T>
FactorResult BatchService::factor(const BatchLayout& layout,
                                  std::span<T> data,
                                  const CpuFactorOptions& options,
                                  std::span<std::int32_t> info,
                                  const TileProgram* program) {
  return submit<T>(layout, data, options, info, program).wait();
}

namespace {

template <typename T>
FactorResult service_factor_thunk(void* ctx, const BatchLayout& layout,
                                  std::span<T> data,
                                  const CpuFactorOptions& options,
                                  const TileProgram* program,
                                  std::span<std::int32_t> info) {
  auto* service = static_cast<BatchService*>(ctx);
  const TileProgram* prog =
      (program != nullptr && layout.kind() != LayoutKind::kCanonical &&
       options.unroll == Unroll::kPartial)
          ? program
          : nullptr;
  return service->factor<T>(layout, data, options, info, prog);
}

}  // namespace

template <typename T>
RecoveryReport BatchService::recover(const BatchLayout& layout,
                                     std::span<T> data,
                                     const CpuFactorOptions& options,
                                     const RecoveryOptions& recovery,
                                     std::span<std::int32_t> info,
                                     const TileProgram* program) {
  return factor_batch_recover_via<T>(&service_factor_thunk<T>, this, layout,
                                     data, options, recovery, info, program);
}

namespace {

/// Looks up (building on miss) the shared DAG spec for (n, nb, lookahead).
/// The lookahead is clamped before keying so equivalent requests share one
/// spec. Throws ibchol::Error on nt > kMaxNt — on the submitting thread.
const tiled::DagSpec* cached_dag(ServiceShared& s, int n, int nb,
                                 int lookahead) {
  const int nt = (n + nb - 1) / nb;
  const int la = std::clamp(lookahead, 1, nt);
  const std::tuple<int, int, int> key{n, nb, la};
  std::lock_guard<std::mutex> lock(s.cache_mu);
  auto it = s.dags.find(key);
  if (it == s.dags.end()) {
    it = s.dags
             .emplace(key, std::make_unique<tiled::DagSpec>(
                               tiled::build_dag_spec(n, nb, la)))
             .first;
  }
  return it->second.get();
}

}  // namespace

template <typename T>
FactorFuture BatchService::submit_tiled(const BatchLayout& layout,
                                        std::span<T> data,
                                        const TiledOptions& topts,
                                        std::span<std::int32_t> info,
                                        const SubmitOptions& sopts) {
  IBCHOL_CHECK(!sopts.screen, "tiled requests do not support screening");
  IBCHOL_CHECK(sopts.storage == StoragePrec::kFp32,
               "tiled requests store full-precision elements");
  IBCHOL_CHECK(layout.batch() >= 1, "tiled batch must be non-empty");

  const int n = layout.n();
  const int nb = topts.nb > 0 ? topts.nb
                              : tiled::recommended_nb(n, sizeof(T));
  const tiled::DagSpec* spec = cached_dag(*shared_, n, nb, topts.lookahead);
  return enqueue(layout, data.data(), data.size(), info, sopts,
                 layout.batch() * spec->tasks_per_matrix, [&](Slot& slot) {
                   slot.lane = Slot::Lane::kTiled;
                   slot.elem = elem_of<T>();
                   slot.dag = spec;
                   slot.nb = spec->nb;
                   slot.triangle = Triangle::kLower;
                   IBCHOL_COUNT("tiled.submitted", 1);
                 });
}

template <typename T>
FactorResult BatchService::factor_tiled(const BatchLayout& layout,
                                        std::span<T> data,
                                        const TiledOptions& topts,
                                        std::span<std::int32_t> info) {
  return submit_tiled<T>(layout, data, topts, info).wait();
}

FactorFuture BatchService::submit_mixed(const BatchLayout& layout,
                                        std::span<std::uint16_t> data,
                                        const CpuFactorOptions& options,
                                        std::span<std::int32_t> info,
                                        const TileProgram* program,
                                        const SubmitOptions& sopts) {
  IBCHOL_CHECK(layout.kind() != LayoutKind::kCanonical,
               "reduced-precision storage runs interleaved layouts");
  IBCHOL_CHECK(sopts.storage != StoragePrec::kFp32,
               "submit_mixed needs SubmitOptions::storage = kBf16 or kFp16");
  // The plan is a mixed fp32 plan: conversion tier and storage format
  // travel in it.
  const ChunkExecPlan<float> plan = resolve_chunk_plan<float>(
      *shared_, layout, data.data(), options, program, sopts.storage);
  return enqueue(layout, data.data(), data.size(), info, sopts,
                 plan.num_units, [&](Slot& slot) {
                   slot.lane = Slot::Lane::kChunk;
                   slot.elem = sopts.storage == StoragePrec::kBf16
                                   ? Slot::Elem::kBf16
                                   : Slot::Elem::kFp16;
                   std::get<ChunkExecPlan<float>>(slot.plans) = plan;
                   slot.nb = options.nb;
                   slot.triangle = options.triangle;
                 });
}

FactorResult BatchService::factor_mixed(const BatchLayout& layout,
                                        std::span<std::uint16_t> data,
                                        const CpuFactorOptions& options,
                                        std::span<std::int32_t> info,
                                        const TileProgram* program,
                                        const SubmitOptions& sopts) {
  return submit_mixed(layout, data, options, info, program, sopts).wait();
}

RecoveryReport BatchService::recover_mixed(const BatchLayout& layout,
                                           std::span<std::uint16_t> data,
                                           StoragePrec storage,
                                           const CpuFactorOptions& options,
                                           const RecoveryOptions& recovery,
                                           std::span<std::int32_t> info,
                                           const TileProgram* program) {
  return factor_batch_recover_mixed_via(&service_factor_thunk<float>, this,
                                        layout, data, storage, options,
                                        recovery, info, program);
}

template FactorFuture BatchService::submit<float>(const BatchLayout&,
                                                  std::span<float>,
                                                  const CpuFactorOptions&,
                                                  std::span<std::int32_t>,
                                                  const TileProgram*,
                                                  const SubmitOptions&);
template FactorFuture BatchService::submit<double>(const BatchLayout&,
                                                   std::span<double>,
                                                   const CpuFactorOptions&,
                                                   std::span<std::int32_t>,
                                                   const TileProgram*,
                                                   const SubmitOptions&);
template FactorResult BatchService::factor<float>(const BatchLayout&,
                                                  std::span<float>,
                                                  const CpuFactorOptions&,
                                                  std::span<std::int32_t>,
                                                  const TileProgram*);
template FactorResult BatchService::factor<double>(const BatchLayout&,
                                                   std::span<double>,
                                                   const CpuFactorOptions&,
                                                   std::span<std::int32_t>,
                                                   const TileProgram*);
template RecoveryReport BatchService::recover<float>(
    const BatchLayout&, std::span<float>, const CpuFactorOptions&,
    const RecoveryOptions&, std::span<std::int32_t>, const TileProgram*);
template RecoveryReport BatchService::recover<double>(
    const BatchLayout&, std::span<double>, const CpuFactorOptions&,
    const RecoveryOptions&, std::span<std::int32_t>, const TileProgram*);
template FactorFuture BatchService::submit_tiled<float>(
    const BatchLayout&, std::span<float>, const TiledOptions&,
    std::span<std::int32_t>, const SubmitOptions&);
template FactorFuture BatchService::submit_tiled<double>(
    const BatchLayout&, std::span<double>, const TiledOptions&,
    std::span<std::int32_t>, const SubmitOptions&);
template FactorResult BatchService::factor_tiled<float>(
    const BatchLayout&, std::span<float>, const TiledOptions&,
    std::span<std::int32_t>);
template FactorResult BatchService::factor_tiled<double>(
    const BatchLayout&, std::span<double>, const TiledOptions&,
    std::span<std::int32_t>);

}  // namespace ibchol::svc
