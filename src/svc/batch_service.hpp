// Long-lived batch-factorization service: persistent work-stealing
// executor over the chunk pipeline's unit API.
//
// The synchronous drivers (factor_batch_cpu) spawn an OpenMP team, carve
// the batch into pipeline units, join, and tear everything down — per
// call. For the throughput regime the paper targets (millions of small
// factorizations per second arriving continuously) that per-call team
// spawn, scratch allocation, and join barrier dominate: no worker can
// start the next request's units while any worker still finishes the
// current one. BatchService keeps the execution machinery alive across
// requests:
//
//  * submission — a bounded lock-free MPMC queue (MpmcQueue) of pooled
//    request slots; submit() is wait-free apart from the slot pop and
//    returns a FactorFuture. What a full pool means is the admission
//    policy's call (ServicePolicy): backpressure (block), immediate load
//    shedding (kOverloaded), shedding of already-expired queued requests,
//    or a bounded wait. High-priority submissions (SubmitOptions::
//    priority) are claimed before normal ones.
//  * deadlines — SubmitOptions::timeout_ns stamps a request with an
//    absolute deadline; a worker that claims an expired request completes
//    its future with kDeadlineExceeded without touching the batch (the
//    info span is marked kInfoNotExecuted), so a backlogged service
//    spends its cycles only on work whose answer somebody still wants.
//  * execution — a persistent pool of workers, each owning a Chase-Lev
//    deque (WorkDeque) of unit-range tasks. A claimed request enters as
//    one root task; workers split ranges lazily (halving, down to
//    ServiceOptions::steal_grain units) so division only happens when a
//    thief is actually idle. Units are independent and schedule-agnostic
//    (see ChunkExecPlan), so service results are bit-identical to the
//    synchronous path — under IEEE math, to the last ulp.
//  * watchdog — an optional monitor thread (ServiceOptions::watchdog)
//    samples per-worker heartbeat counters; a worker that stays busy
//    without a heartbeat past the stall threshold is marked suspect and a
//    replacement worker is spawned from a preallocated worker slot, so
//    one stuck request cannot idle the whole pool. Thieves keep draining
//    a suspect's deque (its queued units are not lost); the suspect
//    retires once it comes back. Interventions are visible as
//    svc.watchdog.* counters and "watchdog_respawn" trace spans.
//  * poison isolation — SubmitOptions::screen runs the cpu/recover
//    NaN/Inf screen when a request is claimed; a batch carrying
//    non-finite matrices is quarantined to a single-worker, single-buffer
//    slow path (it cannot occupy the double-buffered scratch or fan out
//    across the pool), completes with kPoisoned, and surfaces a
//    per-request RecoveryReport through FactorFuture::recovery_report().
//  * memory — all scratch (pack, whole-matrix, double buffers) comes from
//    a size-classed ScratchArena; request slots, queue cells, and deque
//    cells are preallocated. After warm-up, steady-state operation
//    performs zero heap allocations (ScratchArena::stats().upstream_allocs
//    is the test hook for that claim). If an arena upstream allocation
//    fails mid-request (real OOM or the chaos harness), the affected unit
//    range is marked kInfoNotExecuted and the request completes with
//    kResourceExhausted instead of crashing a worker.
//  * observability — per-request "request"/"queue_wait" spans (category
//    "svc"), the "svc.request_ns"/"svc.queue_ns"/"svc.slack_ns" latency
//    histograms, and the svc.shed / svc.deadline_miss / svc.quarantined /
//    svc.watchdog.* overload counters (docs/OBSERVABILITY.md).
//
// Thread-count and steal-granularity are live tuning axes
// (ServiceOptions::num_threads / steal_grain); bench/load_service sweeps
// them and drives overload phases against the admission policies. DESIGN
// §10 documents the architecture, §11 the overload & fault semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "cpu/batch_factor.hpp"
#include "cpu/recover.hpp"
#include "kernels/tile_program.hpp"
#include "layout/layout.hpp"
#include "svc/arena.hpp"

namespace ibchol::svc {

namespace detail {
struct ServiceShared;
}

/// Per-matrix `info` code for matrices the service never executed: the
/// request was shed at admission, expired before a worker claimed it, or
/// lost its scratch to an allocation failure. Distinct from 0 (success),
/// positive failing-pivot columns, and kInfoNonFinite (-1).
inline constexpr std::int32_t kInfoNotExecuted = -2;

/// What submit() does when every request slot is in flight.
enum class AdmitPolicy : int {
  /// Wait (yielding) until a completion recycles a slot — backpressure,
  /// the pre-overload default. Latency is unbounded but nothing is lost.
  kBlock = 0,
  /// Complete the new request immediately with kOverloaded; the service
  /// never touches its data (info is marked kInfoNotExecuted). Bounds
  /// both queue occupancy and admitted-request latency.
  kReject = 1,
  /// Scan the normal-priority submission queue once, completing queued
  /// requests already past their deadline with kDeadlineExceeded (their
  /// answer is worthless anyway), then retry admission; reject with
  /// kOverloaded when nothing reclaimable remains. Unexpired requests
  /// are re-enqueued at the tail, so FIFO order within the normal class
  /// is traded for bounded occupancy. High-priority requests are never
  /// shed.
  kShedOldest = 2,
  /// kBlock for at most ServicePolicy::max_wait_ns, then kReject.
  kBoundedWait = 3,
};

/// Overload-response configuration (see AdmitPolicy).
struct ServicePolicy {
  AdmitPolicy admit = AdmitPolicy::kBlock;
  /// Admission-wait budget for AdmitPolicy::kBoundedWait.
  std::int64_t max_wait_ns = 1'000'000;
};

/// Worker-stall monitor configuration. Disabled by default: detection
/// keys off "busy but no heartbeat for stall_threshold_ns", and on an
/// oversubscribed host the OS can legitimately park a busy worker that
/// long — a false respawn would add threads exactly when the machine has
/// none to give. Enable it where stalls mean wedged code or injected
/// faults, not scheduler pressure, and size the threshold generously.
struct WatchdogOptions {
  bool enabled = false;
  /// Sampling period of the monitor thread.
  std::int64_t check_interval_ns = 10'000'000;
  /// A busy worker whose heartbeat is flat this long is declared stalled.
  std::int64_t stall_threshold_ns = 250'000'000;
  /// Replacement workers that may ever be spawned (preallocated worker
  /// slots). Once exhausted, stalled workers are left alone.
  int max_respawns = 4;
};

struct ServiceOptions {
  /// Worker threads; 0 = the cached process default
  /// (cached_default_threads()), resolved once for the service lifetime.
  int num_threads = 0;
  /// Smallest unit-range a task is split down to. 1 = maximal stealing
  /// parallelism; larger grains cut steal traffic for tiny units. A live
  /// tuning axis.
  int steal_grain = 1;
  /// Request slots preallocated for in-flight requests (also the
  /// submission-queue capacity). A slot stays busy until its request
  /// completed AND its FactorFuture was released (the future reads the
  /// result out of the slot), so this must cover futures the client
  /// holds, not just requests the pool is working on; a full pool is
  /// handled per `policy`. Clamped to the packed-task slot limit
  /// (kMaxSlots).
  std::size_t max_inflight = 256;
  /// Overload response at admission.
  ServicePolicy policy;
  /// Worker-stall monitoring (off by default; see WatchdogOptions).
  WatchdogOptions watchdog;
};

/// Knobs of the tiled large-N path (submit_tiled): one task DAG per
/// matrix over an nb×nb tile grid, executed on the same worker pool (see
/// src/tiled/dag.hpp and DESIGN §13).
struct TiledOptions {
  /// Tile size; 0 = tiled::recommended_nb for the element type (the
  /// I/O-lower-bound cache-fit rule).
  int nb = 0;
  /// Panel-lookahead throttle: how many steps ahead of the last factored
  /// panel the trailing updates may run. Clamped to [1, nt]; values >= nt
  /// disable the throttle. Order-preserving, so a perf-only axis.
  int lookahead = 2;
};

/// Per-request submission knobs (all optional; defaults reproduce the
/// plain submit semantics).
struct SubmitOptions {
  /// Relative deadline: the request expires timeout_ns after submission.
  /// 0 = never. An expired request still queued when a worker reaches it
  /// completes with kDeadlineExceeded and untouched data.
  std::int64_t timeout_ns = 0;
  /// > 0: high priority — claimed before every queued normal-priority
  /// request (two FIFO classes, not a full priority order).
  int priority = 0;
  /// Screen the batch for NaN/Inf on claim and quarantine poisoned
  /// requests to the single-worker slow path (status kPoisoned, report
  /// via FactorFuture::recovery_report()). Off by default: screening
  /// reads the whole batch once before factoring. For reduced-precision
  /// requests the screen is a bit-level test on the 16-bit words.
  bool screen = false;
  /// Storage precision of the request's batch data, so mixed fleets share
  /// one pool. kFp32 is the plain submit<T> path; the reduced precisions
  /// (kBf16/kFp16, 16-bit words + fp32 accumulate) go through
  /// submit_mixed, which requires a non-fp32 value here.
  StoragePrec storage = StoragePrec::kFp32;
};

/// Lifecycle of one submitted request. Terminal states are kDone,
/// kCancelled, kDeadlineExceeded, kOverloaded, kResourceExhausted, and
/// kPoisoned; DESIGN §11 tabulates what each means for the batch data.
enum class RequestStatus : int {
  kQueued = 0,    ///< accepted, no worker has claimed it yet
  kRunning = 1,   ///< workers are factoring units
  kDone = 2,      ///< complete; result valid, data/info fully written
  kCancelled = 3, ///< cancelled before any work started; data untouched
  kDeadlineExceeded = 4,  ///< expired before any work started; data
                          ///< untouched, info = kInfoNotExecuted
  kOverloaded = 5,        ///< shed at admission; data untouched, info =
                          ///< kInfoNotExecuted, no slot was consumed
  kResourceExhausted = 6, ///< scratch allocation failed mid-flight; the
                          ///< affected matrices carry kInfoNotExecuted
  kPoisoned = 7,          ///< completed via quarantine: the batch carried
                          ///< non-finite matrices (info kInfoNonFinite)
};

/// Completion handle for one submitted batch. Move-only; dropping it
/// without wait() is allowed (the service completes the request and
/// recycles the slot once both sides are done). Futures may outlive the
/// service — they share ownership of the slot pool.
class FactorFuture {
 public:
  FactorFuture() = default;
  FactorFuture(FactorFuture&& other) noexcept { swap(other); }
  FactorFuture& operator=(FactorFuture&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  FactorFuture(const FactorFuture&) = delete;
  FactorFuture& operator=(const FactorFuture&) = delete;
  ~FactorFuture() { release(); }

  [[nodiscard]] bool valid() const noexcept {
    return shared_ != nullptr || overloaded_;
  }

  /// Blocks until the request reaches a terminal state and returns the
  /// result. Requests that never executed (cancelled, expired, shed)
  /// report zero failures and untouched data — distinguish them via
  /// status(). Idempotent.
  FactorResult wait();

  /// Attempts to cancel: succeeds only while no worker has started the
  /// request (kQueued). On success the batch data is untouched and wait()
  /// returns immediately. A request already running cannot be cancelled —
  /// wait for it instead (partial factors are never exposed).
  bool try_cancel();

  [[nodiscard]] RequestStatus status() const;

  /// Blocks like wait() and returns the quarantine report: empty unless
  /// the request completed kPoisoned (screening found non-finite
  /// matrices; report.matrices lists them).
  RecoveryReport recovery_report();

 private:
  friend class BatchService;
  FactorFuture(std::shared_ptr<detail::ServiceShared> shared,
               std::uint32_t slot) noexcept
      : shared_(std::move(shared)), slot_(slot) {}

  /// An admission-shed future: already terminal (kOverloaded), owns no
  /// slot — rejection must not consume the resource being protected.
  static FactorFuture overloaded() noexcept {
    FactorFuture f;
    f.overloaded_ = true;
    return f;
  }

  void swap(FactorFuture& other) noexcept {
    std::swap(shared_, other.shared_);
    std::swap(slot_, other.slot_);
    std::swap(overloaded_, other.overloaded_);
  }
  void release() noexcept;

  std::shared_ptr<detail::ServiceShared> shared_;
  std::uint32_t slot_ = 0;
  bool overloaded_ = false;
};

/// The persistent batch-factorization service. Thread-safe: any thread may
/// submit concurrently. Destruction drains — every accepted request is
/// completed (or was cancelled) before the workers join, and outstanding
/// futures remain valid afterwards.
class BatchService {
 public:
  explicit BatchService(const ServiceOptions& options = {});
  ~BatchService();
  BatchService(const BatchService&) = delete;
  BatchService& operator=(const BatchService&) = delete;

  /// Submits a batch for asynchronous factorization. Identical semantics
  /// and (for IEEE math) bit-identical results to factor_batch_cpu with
  /// the same arguments; `options.num_threads` is ignored (the pool is
  /// fixed). `data`, `info`, and `*program` must stay alive and untouched
  /// by the caller until the returned future completes. A full slot pool
  /// is handled per ServicePolicy (block, reject, shed, bounded wait);
  /// `sopts` adds the per-request deadline/priority/screen knobs.
  template <typename T>
  [[nodiscard]] FactorFuture submit(const BatchLayout& layout,
                                    std::span<T> data,
                                    const CpuFactorOptions& options,
                                    std::span<std::int32_t> info = {},
                                    const TileProgram* program = nullptr,
                                    const SubmitOptions& sopts = {});

  /// The synchronous API on top of the service: submit + wait.
  template <typename T>
  FactorResult factor(const BatchLayout& layout, std::span<T> data,
                      const CpuFactorOptions& options,
                      std::span<std::int32_t> info = {},
                      const TileProgram* program = nullptr);

  /// Recovery-retry factorization whose factorization passes (first pass
  /// and every shifted retry sub-batch) run on the service instead of
  /// spawning OpenMP teams; semantics of factor_batch_recover.
  template <typename T>
  RecoveryReport recover(const BatchLayout& layout, std::span<T> data,
                         const CpuFactorOptions& options,
                         const RecoveryOptions& recovery,
                         std::span<std::int32_t> info = {},
                         const TileProgram* program = nullptr);

  /// submit for a reduced-precision batch: `data` holds 16-bit words in
  /// `sopts.storage` format (which must be kBf16 or kFp16), arithmetic
  /// accumulates in fp32 exactly as factor_batch_cpu_mixed, and results
  /// are bit-identical to that synchronous path. Interleaved layouts
  /// only. Mixed and fp32/fp64 requests share the same pool, slots, and
  /// admission policy; SubmitOptions::screen runs a bit-level NaN/Inf
  /// test on the 16-bit words.
  [[nodiscard]] FactorFuture submit_mixed(const BatchLayout& layout,
                                          std::span<std::uint16_t> data,
                                          const CpuFactorOptions& options,
                                          std::span<std::int32_t> info = {},
                                          const TileProgram* program = nullptr,
                                          const SubmitOptions& sopts = {});

  /// The synchronous reduced-precision API: submit_mixed + wait.
  FactorResult factor_mixed(const BatchLayout& layout,
                            std::span<std::uint16_t> data,
                            const CpuFactorOptions& options,
                            std::span<std::int32_t> info = {},
                            const TileProgram* program = nullptr,
                            const SubmitOptions& sopts = {});

  /// Submits a batch of *large* matrices (any layout, lower triangle)
  /// through the tiled task-parallel path: each matrix becomes one
  /// POTRF/TRSM/SYRK/GEMM task DAG over an nb×nb tile grid, all DAGs
  /// share the pool concurrently, and per-tile update chains make the
  /// result bit-identical to tiled::potrf_tiled_reference under any
  /// stealing schedule. info reports the 1-based global column of the
  /// first non-positive pivot per matrix. Deadlines, priorities, and
  /// admission policies apply as in submit; screening does not (the
  /// request is rejected if sopts.screen is set — large single matrices
  /// are not the poison-fleet regime).
  template <typename T>
  [[nodiscard]] FactorFuture submit_tiled(const BatchLayout& layout,
                                          std::span<T> data,
                                          const TiledOptions& topts = {},
                                          std::span<std::int32_t> info = {},
                                          const SubmitOptions& sopts = {});

  /// The synchronous tiled API: submit_tiled + wait.
  template <typename T>
  FactorResult factor_tiled(const BatchLayout& layout, std::span<T> data,
                            const TiledOptions& topts = {},
                            std::span<std::int32_t> info = {});

  /// factor_batch_recover_mixed with the fp32 passes pooled: the batch is
  /// widened once, screened/factored/shift-retried through the service,
  /// and narrowed back to `storage`.
  RecoveryReport recover_mixed(const BatchLayout& layout,
                               std::span<std::uint16_t> data,
                               StoragePrec storage,
                               const CpuFactorOptions& options,
                               const RecoveryOptions& recovery,
                               std::span<std::int32_t> info = {},
                               const TileProgram* program = nullptr);

  /// Resolved initial worker count (fixed for the service lifetime).
  [[nodiscard]] int threads() const noexcept;

  /// Worker threads ever started, including watchdog respawns — equals
  /// threads() until the watchdog intervenes (test/telemetry hook).
  [[nodiscard]] int workers_started() const noexcept;

  /// Scratch-pool counters — the zero-steady-state-allocation test hook.
  [[nodiscard]] ArenaStats arena_stats() const;

  /// Lazily started process-wide service with default options, shared by
  /// callers that opt in via IBCHOL_SERVICE=1 (see BatchCholesky) and by
  /// anything else content with one shared pool. Never torn down before
  /// process exit.
  static BatchService& global();

 private:
  /// The one request path behind every submit* front end: the shared
  /// argument checks, admission (shedding per ServicePolicy), slot reset,
  /// sequence number, queue push and wake-up. `bind` writes the
  /// lane-specific slot fields once a slot is admitted.
  template <typename Bind>
  FactorFuture enqueue(const BatchLayout& layout, void* data,
                       std::size_t data_elems, std::span<std::int32_t> info,
                       const SubmitOptions& sopts, std::int64_t num_units,
                       Bind&& bind);

  std::shared_ptr<detail::ServiceShared> shared_;
};

}  // namespace ibchol::svc
