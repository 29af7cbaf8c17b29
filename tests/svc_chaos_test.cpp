// Overload- and fault-semantics tests for BatchService: per-request
// deadlines, admission policies (reject / shed-oldest / bounded wait),
// priority classes, scratch-exhaustion aborts, poison quarantine, the
// worker watchdog, and the seeded chaos soak.
//
// The chaos-dependent tests skip themselves when the hooks are compiled
// out (-DIBCHOL_CHAOS=OFF). Everything here is also the check.sh --chaos
// workload, run under ASan+UBSan and TSAN with three fixed seeds; the
// soak honors IBCHOL_CHAOS_SEED to pin a single seed for reproduction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cpu/batch_factor.hpp"
#include "cpu/recover.hpp"
#include "layout/generate.hpp"
#include "layout/layout.hpp"
#include "svc/batch_service.hpp"
#include "util/aligned_buffer.hpp"
#include "util/fault_inject.hpp"

namespace ibchol::svc {
namespace {

template <typename T>
struct Workload {
  BatchLayout layout;
  AlignedBuffer<T> data;
  std::vector<std::int32_t> info;

  explicit Workload(const BatchLayout& l, std::uint64_t seed = 42)
      : layout(l),
        data(l.size_elems()),
        info(static_cast<std::size_t>(l.batch()), -7) {
    generate_spd_batch<T>(layout, data.span(),
                          {SpdKind::kGramPlusDiagonal, seed, 50.0});
  }

  Workload clone() const {
    Workload copy(layout, Uninit{});
    std::memcpy(copy.data.span().data(), data.span().data(),
                data.span().size() * sizeof(T));
    copy.info = info;
    return copy;
  }

 private:
  struct Uninit {};
  Workload(const BatchLayout& l, Uninit)
      : layout(l), data(l.size_elems()),
        info(static_cast<std::size_t>(l.batch()), -7) {}
};

/// RAII chaos (de)installation so a failing assertion cannot leak an
/// active plan into the next test case.
struct ScopedChaos {
  explicit ScopedChaos(const chaos::SvcChaosPlan& plan) {
    chaos::install_svc_chaos(plan);
  }
  ~ScopedChaos() { chaos::uninstall_svc_chaos(); }
};

/// A request big enough to keep one worker busy for a while, so requests
/// submitted behind it verifiably sit in the queue.
BatchLayout busy_layout() { return BatchLayout::interleaved(32, 64 * 200); }

// ------------------------------------------------------------ deadlines ----

TEST(ServiceDeadline, ExpiredWhileQueuedCompletesUntouched) {
  BatchService service({.num_threads = 1});
  Workload<float> big(busy_layout());
  const BatchLayout small = BatchLayout::interleaved(8, 64);
  Workload<float> w(small);
  std::vector<float> before(w.data.span().begin(), w.data.span().end());

  FactorFuture f_big = service.submit<float>(busy_layout(), big.data.span(),
                                             {}, big.info);
  // 1ns deadline: expired long before the single worker finishes the big
  // request and reaches this one.
  SubmitOptions sopts;
  sopts.timeout_ns = 1;
  FactorFuture f = service.submit<float>(small, w.data.span(), {}, w.info,
                                         nullptr, sopts);
  const FactorResult r = f.wait();
  EXPECT_EQ(f.status(), RequestStatus::kDeadlineExceeded);
  EXPECT_EQ(r.failed_count, 0);
  // Data untouched, info marked not-executed.
  EXPECT_EQ(std::memcmp(w.data.span().data(), before.data(),
                        before.size() * sizeof(float)),
            0);
  for (const std::int32_t v : w.info) EXPECT_EQ(v, kInfoNotExecuted);
  // A terminal request cannot be cancelled.
  EXPECT_FALSE(f.try_cancel());
  EXPECT_EQ(f_big.wait().failed_count, 0);
}

TEST(ServiceDeadline, GenerousDeadlineDoesNotPerturbResults) {
  const BatchLayout layout = BatchLayout::interleaved(16, 300);
  Workload<double> reference(layout);
  Workload<double> serviced = reference.clone();
  const FactorResult want = factor_batch_cpu<double>(
      layout, reference.data.span(), {}, reference.info);

  BatchService service({.num_threads = 2});
  SubmitOptions sopts;
  sopts.timeout_ns = std::int64_t{60} * 1'000'000'000;  // one minute
  FactorFuture f = service.submit<double>(layout, serviced.data.span(), {},
                                          serviced.info, nullptr, sopts);
  const FactorResult got = f.wait();
  EXPECT_EQ(f.status(), RequestStatus::kDone);
  EXPECT_EQ(got.failed_count, want.failed_count);
  EXPECT_EQ(serviced.info, reference.info);
  EXPECT_EQ(std::memcmp(serviced.data.span().data(),
                        reference.data.span().data(),
                        reference.data.span().size() * sizeof(double)),
            0);
}

// ------------------------------------------------------------ priority ----

TEST(ServicePriority, HighPriorityClaimedBeforeQueuedNormal) {
  BatchService service({.num_threads = 1});
  Workload<float> head(busy_layout());
  Workload<float> normal(busy_layout(), 7);
  const BatchLayout small = BatchLayout::interleaved(8, 64);
  Workload<float> hi(small);

  FactorFuture f_head = service.submit<float>(busy_layout(), head.data.span(),
                                              {}, head.info);
  FactorFuture f_normal = service.submit<float>(
      busy_layout(), normal.data.span(), {}, normal.info);
  SubmitOptions sopts;
  sopts.priority = 1;
  FactorFuture f_hi = service.submit<float>(small, hi.data.span(), {},
                                            hi.info, nullptr, sopts);

  EXPECT_EQ(f_hi.wait().failed_count, 0);
  // The single worker ran the high-priority request right after the head
  // request; the (much larger) normal request cannot have finished yet.
  EXPECT_NE(f_normal.status(), RequestStatus::kDone);
  EXPECT_EQ(f_normal.wait().failed_count, 0);
  EXPECT_EQ(f_head.wait().failed_count, 0);
}

// ------------------------------------------------------------ admission ----

TEST(ServiceAdmission, RejectPolicyShedsWhenPoolIsFull) {
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.max_inflight = 1;
  opts.policy.admit = AdmitPolicy::kReject;
  BatchService service(opts);

  Workload<float> big(busy_layout());
  FactorFuture f_big = service.submit<float>(busy_layout(), big.data.span(),
                                             {}, big.info);

  const BatchLayout small = BatchLayout::interleaved(8, 64);
  Workload<float> w(small);
  std::vector<float> before(w.data.span().begin(), w.data.span().end());
  FactorFuture f = service.submit<float>(small, w.data.span(), {}, w.info);

  ASSERT_TRUE(f.valid());
  EXPECT_EQ(f.status(), RequestStatus::kOverloaded);
  EXPECT_EQ(f.wait().failed_count, 0);  // immediate: no slot, no work
  EXPECT_FALSE(f.try_cancel());
  EXPECT_TRUE(f.recovery_report().matrices.empty());
  EXPECT_EQ(std::memcmp(w.data.span().data(), before.data(),
                        before.size() * sizeof(float)),
            0);
  for (const std::int32_t v : w.info) EXPECT_EQ(v, kInfoNotExecuted);

  // The reduced-precision and tiled front ends shed through the same
  // admission path: kOverloaded, data untouched, info kInfoNotExecuted.
  {
    std::vector<std::uint16_t> words(small.size_elems());
    for (std::size_t i = 0; i < words.size(); ++i) {
      words[i] = static_cast<std::uint16_t>(0x3F80u + i % 64);  // bf16 ~1
    }
    const std::vector<std::uint16_t> words_before = words;
    std::vector<std::int32_t> info(static_cast<std::size_t>(small.batch()),
                                   -7);
    SubmitOptions so;
    so.storage = StoragePrec::kBf16;
    FactorFuture fm = service.submit_mixed(small, std::span(words), {}, info,
                                           nullptr, so);
    EXPECT_EQ(fm.status(), RequestStatus::kOverloaded);
    EXPECT_EQ(words, words_before);
    for (const std::int32_t v : info) EXPECT_EQ(v, kInfoNotExecuted);
  }
  {
    const BatchLayout large = BatchLayout::interleaved(96, 2);
    Workload<float> t(large);
    std::vector<float> t_before(t.data.span().begin(), t.data.span().end());
    FactorFuture ft = service.submit_tiled<float>(large, t.data.span(), {},
                                                  t.info);
    EXPECT_EQ(ft.status(), RequestStatus::kOverloaded);
    EXPECT_EQ(std::memcmp(t.data.span().data(), t_before.data(),
                          t_before.size() * sizeof(float)),
              0);
    for (const std::int32_t v : t.info) EXPECT_EQ(v, kInfoNotExecuted);
  }
  EXPECT_EQ(f_big.wait().failed_count, 0);

  // With the pool free again, the same submit is admitted and runs.
  Workload<float> again(small);
  EXPECT_EQ(service.factor<float>(small, again.data.span(), {}, again.info)
                .failed_count,
            0);
}

TEST(ServiceAdmission, BoundedWaitRejectsAfterBudget) {
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.max_inflight = 1;
  opts.policy.admit = AdmitPolicy::kBoundedWait;
  opts.policy.max_wait_ns = 2'000'000;  // 2ms ≪ the busy request
  BatchService service(opts);

  Workload<float> big(busy_layout());
  FactorFuture f_big = service.submit<float>(busy_layout(), big.data.span(),
                                             {}, big.info);
  const BatchLayout small = BatchLayout::interleaved(8, 64);
  Workload<float> w(small);
  FactorFuture f = service.submit<float>(small, w.data.span(), {}, w.info);
  EXPECT_EQ(f.status(), RequestStatus::kOverloaded);
  EXPECT_EQ(f_big.wait().failed_count, 0);
}

TEST(ServiceAdmission, ShedOldestReclaimsExpiredQueuedSlot) {
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.max_inflight = 2;
  opts.policy.admit = AdmitPolicy::kShedOldest;
  BatchService service(opts);

  Workload<float> big(busy_layout());
  FactorFuture f_big = service.submit<float>(busy_layout(), big.data.span(),
                                             {}, big.info);
  // Fill the second (last) slot with a request that expires immediately
  // and whose future is dropped — shedding it frees the slot entirely.
  const BatchLayout small = BatchLayout::interleaved(8, 64);
  Workload<float> doomed(small);
  std::vector<float> doomed_before(doomed.data.span().begin(),
                                   doomed.data.span().end());
  {
    SubmitOptions sopts;
    sopts.timeout_ns = 1;
    FactorFuture f = service.submit<float>(small, doomed.data.span(), {},
                                           doomed.info, nullptr, sopts);
  }
  // Pool full; this submit must shed the expired request and be admitted.
  Workload<float> w(small);
  FactorFuture f = service.submit<float>(small, w.data.span(), {}, w.info);
  ASSERT_TRUE(f.valid());
  EXPECT_NE(f.status(), RequestStatus::kOverloaded);
  EXPECT_EQ(f.wait().failed_count, 0);
  EXPECT_EQ(f.status(), RequestStatus::kDone);
  // The shed request was never executed.
  EXPECT_EQ(std::memcmp(doomed.data.span().data(), doomed_before.data(),
                        doomed_before.size() * sizeof(float)),
            0);
  for (const std::int32_t v : doomed.info) EXPECT_EQ(v, kInfoNotExecuted);
  EXPECT_EQ(f_big.wait().failed_count, 0);
}

TEST(ServiceAdmission, ShedOldestRejectsWhenNothingReclaimable) {
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.max_inflight = 2;
  opts.policy.admit = AdmitPolicy::kShedOldest;
  BatchService service(opts);

  Workload<float> big(busy_layout());
  FactorFuture f_big = service.submit<float>(busy_layout(), big.data.span(),
                                             {}, big.info);
  // The queued request has no deadline: shed-oldest must not discard it.
  const BatchLayout small = BatchLayout::interleaved(8, 64);
  Workload<float> queued(small);
  FactorFuture f_queued =
      service.submit<float>(small, queued.data.span(), {}, queued.info);

  Workload<float> w(small);
  FactorFuture f = service.submit<float>(small, w.data.span(), {}, w.info);
  EXPECT_EQ(f.status(), RequestStatus::kOverloaded);
  // The protected request still runs to completion.
  EXPECT_EQ(f_queued.wait().failed_count, 0);
  EXPECT_EQ(f_queued.status(), RequestStatus::kDone);
  EXPECT_EQ(f_big.wait().failed_count, 0);
}

// ------------------------------------------------------ scratch failure ----

TEST(ServiceChaos, AllocFailureAbortsRequestNotService) {
  if constexpr (!chaos::kEnabled) {
    GTEST_SKIP() << "chaos hooks compiled out (IBCHOL_CHAOS=OFF)";
  }
  BatchService service({.num_threads = 1});
  // Explicit chunk_size on a plain interleaved layout forces the packed
  // path — the arena user — and the cold arena guarantees upstream draws.
  const BatchLayout layout = BatchLayout::interleaved(16, 300);
  CpuFactorOptions options;
  options.chunk_size = 64;
  Workload<float> w(layout);
  std::vector<float> before(w.data.span().begin(), w.data.span().end());

  {
    chaos::SvcChaosPlan plan;
    plan.alloc_fail_rate = 1.0;
    ScopedChaos chaos_guard(plan);
    FactorFuture f =
        service.submit<float>(layout, w.data.span(), options, w.info);
    (void)f.wait();
    EXPECT_EQ(f.status(), RequestStatus::kResourceExhausted);
    EXPECT_GT(chaos::chaos_faults_fired(), 0u);
  }
  // Nothing executed: data untouched, info marked, arena accounted.
  EXPECT_EQ(std::memcmp(w.data.span().data(), before.data(),
                        before.size() * sizeof(float)),
            0);
  for (const std::int32_t v : w.info) EXPECT_EQ(v, kInfoNotExecuted);
  const ArenaStats stats = service.arena_stats();
  EXPECT_GT(stats.failed_allocs, 0u);
  EXPECT_EQ(stats.live_leases, 0u);

  // A bf16 request (always staged through fp32 scratch) aborts the same
  // way: kResourceExhausted, words untouched, no lease left behind.
  {
    std::vector<std::uint16_t> words(layout.size_elems());
    for (std::size_t i = 0; i < words.size(); ++i) {
      words[i] = static_cast<std::uint16_t>(0x3F80u + i % 64);  // bf16 ~1
    }
    const std::vector<std::uint16_t> words_before = words;
    std::vector<std::int32_t> info(static_cast<std::size_t>(layout.batch()),
                                   -7);
    SubmitOptions so;
    so.storage = StoragePrec::kBf16;
    chaos::SvcChaosPlan plan;
    plan.alloc_fail_rate = 1.0;
    ScopedChaos chaos_guard(plan);
    FactorFuture f = service.submit_mixed(layout, std::span(words), options,
                                          info, nullptr, so);
    (void)f.wait();
    EXPECT_EQ(f.status(), RequestStatus::kResourceExhausted);
    EXPECT_EQ(words, words_before);
    for (const std::int32_t v : info) EXPECT_EQ(v, kInfoNotExecuted);
    EXPECT_EQ(service.arena_stats().live_leases, 0u);
  }

  // The service survived: the same request now runs clean.
  Workload<float> reference(layout);
  const FactorResult want = factor_batch_cpu<float>(
      layout, reference.data.span(), options, reference.info);
  generate_spd_batch<float>(layout, w.data.span(),
                            {SpdKind::kGramPlusDiagonal, 42, 50.0});
  const FactorResult got =
      service.factor<float>(layout, w.data.span(), options, w.info);
  EXPECT_EQ(got.failed_count, want.failed_count);
  EXPECT_EQ(w.info, reference.info);
}

// ----------------------------------------------------- poison quarantine ----

TEST(ServiceScreen, PoisonedBatchIsQuarantinedWithReport) {
  const BatchLayout layout = BatchLayout::interleaved(16, 300);
  Workload<double> w(layout);
  // Plant NaN/Inf in two matrices (symmetric, off-diagonal — the
  // deterministic-fault convention).
  w.data.span()[layout.index(5, 2, 1)] =
      std::numeric_limits<double>::quiet_NaN();
  w.data.span()[layout.index(5, 1, 2)] =
      std::numeric_limits<double>::quiet_NaN();
  w.data.span()[layout.index(200, 3, 0)] =
      std::numeric_limits<double>::infinity();
  w.data.span()[layout.index(200, 0, 3)] =
      std::numeric_limits<double>::infinity();

  BatchService service({.num_threads = 3});
  SubmitOptions sopts;
  sopts.screen = true;
  FactorFuture f = service.submit<double>(layout, w.data.span(), {}, w.info,
                                          nullptr, sopts);
  const FactorResult r = f.wait();
  EXPECT_EQ(f.status(), RequestStatus::kPoisoned);
  const RecoveryReport report = f.recovery_report();
  EXPECT_EQ(report.nonfinite, 2);
  EXPECT_EQ(report.unrecoverable, 2);
  EXPECT_EQ(report.recovered, 0);
  ASSERT_EQ(report.matrices.size(), 2u);
  EXPECT_EQ(report.matrices[0].index, 5);
  EXPECT_EQ(report.matrices[1].index, 200);
  EXPECT_EQ(report.matrices[0].first_info, kInfoNonFinite);
  EXPECT_EQ(w.info[5], kInfoNonFinite);
  EXPECT_EQ(w.info[200], kInfoNonFinite);
  EXPECT_GE(r.failed_count, 2);

  // Every clean matrix factored exactly as an unpoisoned reference batch.
  Workload<double> reference(layout);
  const FactorResult want = factor_batch_cpu<double>(
      layout, reference.data.span(), {}, reference.info);
  EXPECT_EQ(r.failed_count - 2, want.failed_count);
  for (std::int64_t b = 0; b < layout.batch(); ++b) {
    if (b == 5 || b == 200) continue;
    ASSERT_EQ(w.info[static_cast<std::size_t>(b)],
              reference.info[static_cast<std::size_t>(b)]);
    for (int i = 0; i < layout.n(); ++i) {
      for (int j = 0; j <= i; ++j) {
        ASSERT_EQ(w.data.span()[layout.index(b, i, j)],
                  reference.data.span()[layout.index(b, i, j)])
            << "matrix " << b << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(ServiceScreen, CleanBatchWithScreenIsBitIdentical) {
  const BatchLayout layout = BatchLayout::interleaved_chunked(16, 300, 64);
  Workload<float> reference(layout);
  Workload<float> serviced = reference.clone();
  const FactorResult want = factor_batch_cpu<float>(
      layout, reference.data.span(), {}, reference.info);

  BatchService service({.num_threads = 2});
  SubmitOptions sopts;
  sopts.screen = true;
  FactorFuture f = service.submit<float>(layout, serviced.data.span(), {},
                                         serviced.info, nullptr, sopts);
  const FactorResult got = f.wait();
  EXPECT_EQ(f.status(), RequestStatus::kDone);
  EXPECT_TRUE(f.recovery_report().matrices.empty());
  EXPECT_EQ(got.failed_count, want.failed_count);
  EXPECT_EQ(serviced.info, reference.info);
  EXPECT_EQ(std::memcmp(serviced.data.span().data(),
                        reference.data.span().data(),
                        reference.data.span().size() * sizeof(float)),
            0);
}

// ------------------------------------------------------------- watchdog ----

TEST(ServiceChaos, WatchdogRespawnsStalledWorker) {
  if constexpr (!chaos::kEnabled) {
    GTEST_SKIP() << "chaos hooks compiled out (IBCHOL_CHAOS=OFF)";
  }
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.watchdog.enabled = true;
  opts.watchdog.check_interval_ns = 2'000'000;     // 2ms sampling
  opts.watchdog.stall_threshold_ns = 20'000'000;   // 20ms ≪ the stall
  opts.watchdog.max_respawns = 2;
  BatchService service(opts);
  EXPECT_EQ(service.workers_started(), 1);

  const BatchLayout layout = BatchLayout::interleaved(16, 3 * 64);
  CpuFactorOptions options;
  options.chunk_size = 64;  // 3 units: a few long stalls, quick overall
  Workload<float> reference(layout);
  const FactorResult want = factor_batch_cpu<float>(
      layout, reference.data.span(), options, reference.info);
  Workload<float> w(layout);

  {
    chaos::SvcChaosPlan plan;
    plan.stall_rate = 1.0;
    plan.stall_ms = 100.0;  // every unit stalls 100ms: heartbeat goes flat
    ScopedChaos chaos_guard(plan);
    const FactorResult got =
        service.factor<float>(layout, w.data.span(), options, w.info);
    EXPECT_EQ(got.failed_count, want.failed_count);
  }
  // The watchdog observed a flat heartbeat past the threshold and spawned
  // replacement worker(s), and the stalled (not hung) originals retired
  // without corrupting the result.
  EXPECT_GT(service.workers_started(), 1);
  EXPECT_LE(service.workers_started(), 1 + opts.watchdog.max_respawns);
  EXPECT_EQ(w.info, reference.info);
  EXPECT_EQ(std::memcmp(w.data.span().data(), reference.data.span().data(),
                        reference.data.span().size() * sizeof(float)),
            0);
}

TEST(ServiceWatchdog, QuietServiceNeverRespawns) {
  ServiceOptions opts;
  opts.num_threads = 2;
  opts.watchdog.enabled = true;
  opts.watchdog.check_interval_ns = 1'000'000;
  // Generous threshold: real work heartbeats far faster than this.
  opts.watchdog.stall_threshold_ns = 10'000'000'000;
  BatchService service(opts);
  const BatchLayout layout = BatchLayout::interleaved(16, 200);
  Workload<float> w(layout);
  for (int i = 0; i < 5; ++i) {
    (void)service.factor<float>(layout, w.data.span(), {}, w.info);
  }
  EXPECT_EQ(service.workers_started(), 2);
}

// ------------------------------------------------------------ chaos soak ----

/// One soak round: a mix of plain, deadline, screened(+poisoned), and
/// cancelled requests against one service under an active chaos plan.
/// Invariants: every future terminates with an expected status, kDone
/// results are bit-identical to the synchronous reference, and the arena
/// leaks nothing.
void run_chaos_soak(std::uint64_t seed) {
  chaos::SvcChaosPlan plan;
  plan.seed = seed;
  plan.stall_rate = 0.05;
  plan.stall_ms = 1.0;
  plan.writeback_delay_rate = 0.05;
  plan.writeback_delay_ms = 0.5;
  plan.alloc_fail_rate = 0.1;
  ScopedChaos chaos_guard(plan);

  const BatchLayout layout = BatchLayout::interleaved(16, 300);
  CpuFactorOptions options;
  options.chunk_size = 64;
  Workload<float> reference(layout, seed);

  constexpr int kRequests = 16;
  ServiceOptions sopts_svc;
  sopts_svc.num_threads = 3;
  // Slots must cover futures *held*, and this soak holds all of them
  // until the end; kBlock admission would otherwise wait forever.
  sopts_svc.max_inflight = kRequests;
  sopts_svc.policy.admit = AdmitPolicy::kBlock;

  std::vector<Workload<float>> batches;
  batches.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    batches.push_back(reference.clone());
  }
  // Reference factored synchronously: factor_batch_cpu never touches the
  // service arena, and stalls/delays do not change results anyway.
  const FactorResult want = factor_batch_cpu<float>(
      layout, reference.data.span(), options, reference.info);
  std::vector<RequestStatus> statuses(kRequests, RequestStatus::kQueued);
  {
    BatchService service(sopts_svc);
    std::vector<FactorFuture> futures;
    futures.reserve(kRequests);
    std::vector<int> kind(kRequests, 0);
    for (int i = 0; i < kRequests; ++i) {
      SubmitOptions so;
      auto& b = batches[static_cast<std::size_t>(i)];
      switch (i % 4) {
        case 0:
          break;  // plain
        case 1:
          so.timeout_ns = std::int64_t{30} * 1'000'000'000;  // generous
          break;
        case 2:
          so.screen = true;
          // Poison one matrix; the screen must catch and quarantine it.
          b.data.span()[layout.index(7, 2, 0)] =
              std::numeric_limits<float>::quiet_NaN();
          b.data.span()[layout.index(7, 0, 2)] =
              std::numeric_limits<float>::quiet_NaN();
          break;
        case 3:
          so.priority = 1;
          break;
      }
      kind[static_cast<std::size_t>(i)] = i % 4;
      futures.push_back(service.submit<float>(layout, b.data.span(), options,
                                              b.info, nullptr, so));
    }
    // Cancel a couple (may or may not win the race; both outcomes legal).
    (void)futures[0].try_cancel();
    (void)futures[4].try_cancel();
    for (int i = 0; i < kRequests; ++i) {
      (void)futures[static_cast<std::size_t>(i)].wait();
      statuses[static_cast<std::size_t>(i)] =
          futures[static_cast<std::size_t>(i)].status();
    }
    const ArenaStats stats = service.arena_stats();
    EXPECT_EQ(stats.live_leases, 0u) << "seed " << seed;

    for (int i = 0; i < kRequests; ++i) {
      const RequestStatus st = statuses[static_cast<std::size_t>(i)];
      const auto& b = batches[static_cast<std::size_t>(i)];
      switch (st) {
        case RequestStatus::kDone:
          EXPECT_NE(kind[static_cast<std::size_t>(i)], 2)
              << "poisoned request " << i << " completed kDone (seed "
              << seed << ")";
          EXPECT_EQ(b.info, reference.info) << "request " << i;
          EXPECT_EQ(std::memcmp(b.data.span().data(),
                                reference.data.span().data(),
                                reference.data.span().size() * sizeof(float)),
                    0)
              << "request " << i << " not bit-identical (seed " << seed
              << ")";
          break;
        case RequestStatus::kPoisoned: {
          EXPECT_EQ(kind[static_cast<std::size_t>(i)], 2);
          const RecoveryReport rep =
              futures[static_cast<std::size_t>(i)].recovery_report();
          EXPECT_EQ(rep.nonfinite, 1);
          ASSERT_EQ(rep.matrices.size(), 1u);
          EXPECT_EQ(rep.matrices[0].index, 7);
          EXPECT_EQ(b.info[7], kInfoNonFinite);
          break;
        }
        case RequestStatus::kCancelled:
          EXPECT_TRUE(i == 0 || i == 4);
          break;
        case RequestStatus::kResourceExhausted:
          // Chaos took its scratch; legal for any chunked request.
          break;
        default:
          ADD_FAILURE() << "request " << i << " ended in status "
                        << static_cast<int>(st) << " (seed " << seed << ")";
      }
    }
    EXPECT_EQ(want.failed_count, 0);  // the generator really made SPD input
  }  // service destruction under chaos must drain and join cleanly
}

TEST(ServiceChaos, SoakSeedsTerminateWithExactResults) {
  if constexpr (!chaos::kEnabled) {
    GTEST_SKIP() << "chaos hooks compiled out (IBCHOL_CHAOS=OFF)";
  }
  // check.sh --chaos runs the fixed seeds; IBCHOL_CHAOS_SEED pins one for
  // reproducing a failure.
  if (const char* env = std::getenv("IBCHOL_CHAOS_SEED")) {
    run_chaos_soak(std::strtoull(env, nullptr, 10));
    return;
  }
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_chaos_soak(seed);
  }
}

}  // namespace
}  // namespace ibchol::svc
