// service_open: independent clients against one svc::BatchService. Open
// loop: requests arrive on a seeded schedule at each rate of a fixed
// ladder whether or not earlier ones finished, so a slow service builds a
// queue instead of slowing the clients. A last, saturating rung sends each
// request as soon as a request buffer is free, so every buffer stays in
// flight and the completed matrices per second are the service's capacity.
// Requests are pre-interleaved batches of kRequestBatch matrices at
// n ∈ {16, 32, 64} in fp32, plus a bf16 share that drives the kernel
// layer's widen/narrow lane.
//
// Threads of the benchmark's own, four in all: the generator (this thread)
// sleeps until each request is due, takes a free request buffer and
// submits; one helper polls status() of every in-flight future, timestamps
// terminal ones and releases them at once; two restorers check sampled
// outputs against a synchronous factorization, restore each buffer's input
// and return it to the free pool. Restoring is the client's input
// production; two threads keep it from setting the saturated throughput. Latency
// runs from each request's due time, so a late generator or an exhausted
// buffer pool counts against the request rather than hiding the stall.
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/batch_cholesky.hpp"
#include "cpu/batch_factor.hpp"
#include "cpu/simd/convert.hpp"
#include "layout/generate.hpp"
#include "obs/histogram.hpp"
#include "svc/batch_service.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace ibchol;
using svc::RequestStatus;

constexpr std::int64_t kRequestBatch = 2048;
constexpr std::size_t kBuffersPerWeight = 4;  ///< request buffers per class weight
constexpr int kRestorers = 2;
constexpr int kCheckEvery = 16;    ///< every k-th request is memcmp-checked
constexpr double kLimitMs = 50.0;  ///< p99 latency limit of the SLO
constexpr double kWarmupSeconds = 1.0;
/// Bound on the saturating rung's requests per second (request records are
/// allocated up front), well above what the service has reached.
constexpr double kMaxSaturatedRate = 10000.0;

struct Rung {
  const char* name;
  double rate;  ///< arrivals per second
};
/// The fixed ladder. With the client's restores running beside it, open-
/// loop p99 at this mix on a 4-vCPU AVX-512 host was about 10 ms at 600
/// req/s and 58 ms at 800, and at 1000 the backlog filled every request
/// buffer. So `high` runs just under that limit and `low` well under it.
/// Full-queue capacity, the saturating rung's figure, is about twice 800.
constexpr Rung kLadder[] = {{"low", 200.0}, {"mid", 400.0}, {"high", 600.0}};

struct ClassSpec {
  int n;
  StoragePrec prec;
  std::size_t weight;
};
/// fp32 n = 32 carries 40% of requests so that, whichever of its
/// neighbours is faster, the median request falls inside its latency
/// cluster and not on a boundary between two classes.
constexpr ClassSpec kClasses[] = {{16, StoragePrec::kFp32, 2},
                                  {32, StoragePrec::kFp32, 4},
                                  {64, StoragePrec::kFp32, 2},
                                  {32, StoragePrec::kBf16, 2}};

CpuFactorOptions cpu_options(const TuningParams& p, int n) {
  CpuFactorOptions o;
  o.nb = p.effective_nb(n);
  o.looking = p.looking;
  o.unroll = p.unroll;
  o.math = p.math;
  o.exec = p.exec;
  o.isa = p.isa;
  o.chunk_size = p.chunked ? 0 : p.chunk_size;
  return o;
}

/// One request class: its layout and options, a pristine input, the
/// synchronous reference factor, and reusable request buffers.
struct Class {
  explicit Class(ClassSpec s) : spec(s) {}

  ClassSpec spec;
  BatchLayout layout = BatchLayout::canonical(1, 1);
  CpuFactorOptions options;
  std::size_t elems = 0;
  std::size_t bytes = 0;
  AlignedBuffer<std::uint8_t> pristine, reference;
  std::vector<AlignedBuffer<std::uint8_t>> bufs;
  std::vector<std::vector<std::int32_t>> infos;
  std::unique_ptr<std::atomic<bool>[]> busy;

  /// The caller's set-up: tuning lookup and layout.
  void build(Tracer& t, std::int64_t batch) {
    timed(t, "core.build", {}, [&] {
      const TuningParams params = recommended_params(spec.n);
      layout = BatchCholesky::make_layout(spec.n, batch, params);
      options = cpu_options(params, spec.n);
    });
    elems = layout.size_elems();
    bytes = elems * (spec.prec == StoragePrec::kFp32 ? 4 : 2);
  }

  /// Generates the pristine input and `depth` request buffers holding it.
  void generate(std::uint64_t seed, std::size_t depth) {
    AlignedBuffer<float> a(elems);
    generate_spd_batch<float>(layout, a.span(),
                              {SpdKind::kDiagonallyDominant, seed, 100.0});
    pristine.resize(bytes);
    if (spec.prec == StoragePrec::kFp32) {
      std::memcpy(pristine.data(), a.data(), bytes);
    } else {
      narrow_row(resolve_convert_isa(), spec.prec, a.data(), u16(pristine),
                 static_cast<std::int64_t>(elems), /*nt_stores=*/false);
    }
    bufs.clear();
    infos.clear();
    for (std::size_t d = 0; d < depth; ++d) {
      bufs.emplace_back(bytes);
      std::memcpy(bufs.back().data(), pristine.data(), bytes);
      infos.emplace_back(static_cast<std::size_t>(layout.batch()));
    }
    busy = std::make_unique<std::atomic<bool>[]>(depth);
  }

  static float* f32(AlignedBuffer<std::uint8_t>& b) {
    return reinterpret_cast<float*>(b.data());
  }
  static std::uint16_t* u16(AlignedBuffer<std::uint8_t>& b) {
    return reinterpret_cast<std::uint16_t*>(b.data());
  }

  /// The synchronous factorization the service must match bit for bit.
  bool make_reference() {
    reference.resize(bytes);
    std::memcpy(reference.data(), pristine.data(), bytes);
    std::vector<std::int32_t> info(static_cast<std::size_t>(layout.batch()));
    const FactorResult r =
        spec.prec == StoragePrec::kFp32
            ? factor_batch_cpu<float>(layout, {f32(reference), elems}, options,
                                      info)
            : factor_batch_cpu_mixed(layout, {u16(reference), elems},
                                     spec.prec, options, info);
    return r.ok();
  }

  /// Copies the pristine lower triangle back into buffer `d`: factoring
  /// writes L over the lower triangle and leaves the rest untouched, so this
  /// restores the input at about half the cost of a full copy.
  void restore(int d) {
    const std::size_t es = bytes / elems;
    const auto lanes = static_cast<std::size_t>(layout.chunk()) * es;
    for (std::int64_t b = 0; b < layout.padded_batch(); b += layout.chunk()) {
      for (int j = 0; j < spec.n; ++j) {
        for (int i = j; i < spec.n; ++i) {
          const std::size_t off = layout.index(b, i, j) * es;
          std::memcpy(bufs[d].data() + off, pristine.data() + off, lanes);
        }
      }
    }
  }

  svc::FactorFuture submit(svc::BatchService& s, int d) {
    if (spec.prec == StoragePrec::kFp32) {
      return s.submit<float>(layout, {f32(bufs[d]), elems}, options, infos[d]);
    }
    svc::SubmitOptions so;
    so.storage = spec.prec;
    return s.submit_mixed(layout, {u16(bufs[d]), elems}, options, infos[d],
                          nullptr, so);
  }
};

/// One request's record, written by the generator (submission), the helper
/// (completion) and a restorer (check); read after the rung drains.
struct Request {
  int cls = 0;
  int buf = 0;
  bool sampled = false;
  std::int64_t due_ns = 0;
  std::int64_t submit_ns = 0;
  std::int64_t submitted_ns = 0;
  std::int64_t done_ns = 0;
  RequestStatus status = RequestStatus::kQueued;
  bool wrong = false;
};

struct RungStats {
  std::vector<double> latency_ms;  ///< due → completion; +inf when failed
  std::vector<double> service_ms;  ///< submit return → completion
  std::vector<double> submit_us;
  std::vector<double> late_ms;     ///< generator lateness
  std::int64_t requests = 0, failed = 0, ok = 0;
  std::int64_t not_done[8] = {};
  std::int64_t backlog = 0;        ///< in flight when the last one was sent
  /// First due time → last completion; saturating: the bursts' spans.
  double duration_s = 0.0;
  /// Saturating: completed matrices per second of each burst's span (a
  /// failed or wrong request adds nothing).
  std::vector<double> burst_matrices_per_s;

  /// Adds another saturating rung's requests and bursts to this one.
  void absorb(const RungStats& o) {
    requests += o.requests;
    failed += o.failed;
    ok += o.ok;
    for (std::size_t s = 0; s < std::size(not_done); ++s) not_done[s] += o.not_done[s];
    duration_s += o.duration_s;
    burst_matrices_per_s.insert(burst_matrices_per_s.end(),
                                o.burst_matrices_per_s.begin(),
                                o.burst_matrices_per_s.end());
  }
  double queue_p50_ms = 0.0, queue_p99_ms = 0.0;
  Tallies tallies;                 ///< the generator's counted calls
};

class OpenLoop {
 public:
  OpenLoop(std::vector<Class>& classes, svc::BatchService& service, Tracer& t)
      : classes_(classes), service_(service), t_(t) {
    helper_ = std::thread([this] { poll_loop(); });
    for (int i = 0; i < kRestorers; ++i) {
      restorers_.emplace_back([this] { restore_loop(); });
    }
  }
  ~OpenLoop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    helper_.join();
    for (std::thread& r : restorers_) r.join();
  }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Drives one rung, then waits for the drain. At a finite `rate`:
  /// rate·seconds arrivals spread over `seconds` as a seeded Poisson
  /// process conditioned on its count. At an infinite rate (saturating):
  /// bursts of every request buffer for `seconds`.
  RungStats run(double rate, double seconds, Xoshiro256& rng) {
    const bool saturate = std::isinf(rate);
    const auto count = static_cast<std::size_t>(
        (saturate ? kMaxSaturatedRate : rate) * seconds);
    reqs_.assign(count, Request{});
    completed_.store(0);
    finalized_.store(0);
    obs::reset_histograms();

    RungStats st;
    std::vector<std::pair<std::size_t, double>> bursts;  ///< first request, span
    (void)t_.take_tallies();
    Scope rung(t_, "bench.rung");
    std::size_t sent = 0;
    if (saturate) {
      // Each burst waits until every buffer is restored and free, submits
      // all of them at once and lets the service drain the full queue;
      // restores are held until the burst is done. Only each burst's span,
      // first submit to last completion, is timed, so the client's input
      // production neither competes with the service nor counts against
      // it: the throughput is the one the service sets.
      std::vector<std::pair<int, int>> slots;  // (class, buffer)
      for (int c = 0; c < static_cast<int>(classes_.size()); ++c) {
        for (int d = 0; d < static_cast<int>(classes_[c].bufs.size()); ++d) {
          slots.emplace_back(c, d);
        }
      }
      const std::int64_t stop = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
      while (now_ns() < stop && sent + slots.size() <= count) {
        for (std::size_t i = slots.size(); i > 1; --i) {
          std::swap(slots[i - 1], slots[rng() % i]);
        }
        wait_for(finalized_, sent, "bench.refill");
        set_hold(true);
        const std::size_t first = sent;
        for (const auto& [c, d] : slots) {
          classes_[c].busy[d].store(true, std::memory_order_relaxed);
          submit_one(sent++, c, d, now_ns());
        }
        wait_for(completed_, sent, "bench.burst");
        std::int64_t last_done = 0;
        for (std::size_t k = first; k < sent; ++k) {
          last_done = std::max(last_done, reqs_[k].done_ns);
        }
        bursts.emplace_back(first, to_s(last_done - reqs_[first].due_ns));
        set_hold(false);
      }
    } else {
      std::vector<double> offsets(count);
      for (double& x : offsets) x = rng.uniform(0.0, seconds);
      std::sort(offsets.begin(), offsets.end());
      // Exact class proportions in a seeded order, so the latency mix (and
      // the class its median falls in) is the same in every run.
      std::vector<int> order;
      while (order.size() < count) {
        for (int c = 0; c < static_cast<int>(classes_.size()); ++c) {
          order.insert(order.end(), classes_[c].spec.weight, c);
        }
      }
      order.resize(count);
      for (std::size_t i = count; i > 1; --i) {
        std::swap(order[i - 1], order[rng() % i]);
      }
      const std::int64_t t0 = now_ns() + 1'000'000;
      for (; sent < count; ++sent) {
        const std::int64_t due = t0 + static_cast<std::int64_t>(offsets[sent] * 1e9);
        wait_until(due);
        submit_one(sent, order[sent], acquire(classes_[order[sent]]), due);
      }
      st.backlog = static_cast<std::int64_t>(sent) - finalized_.load();
      wait_for(finalized_, sent, "bench.drain");
      std::int64_t last_done = t0;
      for (std::size_t k = 0; k < sent; ++k) {
        last_done = std::max(last_done, reqs_[k].done_ns);
      }
      st.duration_s = to_s(last_done - t0);
    }
    // The last burst's restores.
    wait_for(finalized_, sent, "bench.drain");
    reqs_.resize(sent);  // the helper and the restorers are done with them
    st.requests = static_cast<std::int64_t>(sent);
    st.tallies = t_.take_tallies();
    for (const Request& q : reqs_) {
      const bool ok = q.status == RequestStatus::kDone && !q.wrong;
      const auto lat = static_cast<double>(q.done_ns - q.due_ns);
      st.latency_ms.push_back(ok ? lat * 1e-6 : INFINITY);
      st.service_ms.push_back(static_cast<double>(q.done_ns - q.submitted_ns) * 1e-6);
      st.submit_us.push_back(static_cast<double>(q.submitted_ns - q.submit_ns) * 1e-3);
      st.late_ms.push_back(static_cast<double>(q.submit_ns - q.due_ns) * 1e-6);
      if (!ok) ++st.failed;
      if (ok) ++st.ok;
      if (q.status != RequestStatus::kDone) ++st.not_done[static_cast<int>(q.status)];
    }
    for (std::size_t b = 0; b < bursts.size(); ++b) {
      const std::size_t end = b + 1 < bursts.size() ? bursts[b + 1].first : sent;
      double ok = 0.0;
      for (std::size_t k = bursts[b].first; k < end; ++k) {
        ok += std::isfinite(st.latency_ms[k]) ? 1.0 : 0.0;
      }
      st.burst_matrices_per_s.push_back(ok * kRequestBatch / bursts[b].second);
      st.duration_s += bursts[b].second;
    }
    for (const auto& [name, snap] : obs::histograms_snapshot()) {
      if (name != "svc.queue_ns") continue;
      st.queue_p50_ms = snap.p50 * 1e-6;
      st.queue_p99_ms = snap.p99 * 1e-6;
    }
    return st;
  }

 private:
  struct InFlight {
    std::size_t k;
    svc::FactorFuture f;
  };

  /// Submits request `k` of class `cls` from buffer `buf`, due at `due`.
  void submit_one(std::size_t k, int cls, int buf, std::int64_t due) {
    Request& q = reqs_[k];
    q.cls = cls;
    q.buf = buf;
    q.due_ns = due;
    q.sampled = k % kCheckEvery == 0;
    svc::FactorFuture f;
    {
      Scope s(t_, "svc.submit", 0, static_cast<std::int64_t>(k));
      q.submit_ns = now_ns();
      f = classes_[cls].submit(service_, buf);
    }
    q.submitted_ns = now_ns();
    const auto matrices = static_cast<double>(kRequestBatch);
    t_.count("svc.submit", {matrices, chol_flops(classes_[cls].spec.n) * matrices},
             to_s(q.submitted_ns - q.submit_ns));
    std::lock_guard<std::mutex> lock(mu_);
    incoming_.push_back({k, std::move(f)});
  }

  /// Waits inside span `name` until `counter` reaches `n`.
  void wait_for(const std::atomic<std::size_t>& counter, std::size_t n,
                const char* name) {
    Scope s(t_, name);
    while (counter.load(std::memory_order_acquire) < n) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// Holds the restorers off (a saturating burst is in flight) or lets
  /// them go.
  void set_hold(bool on) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      hold_ = on;
    }
    if (!on) cv_.notify_all();
  }

  void wait_until(std::int64_t due) {
    Scope s(t_, "bench.wait");
    for (std::int64_t left = due - now_ns(); left > 0; left = due - now_ns()) {
      if (left > 200'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
      }
    }
  }

  int acquire(Class& c) {
    Scope s(t_, "bench.acquire");
    for (;;) {
      for (int d = 0; d < static_cast<int>(c.bufs.size()); ++d) {
        bool expected = false;
        if (c.busy[d].compare_exchange_strong(expected, true,
                                              std::memory_order_acquire)) {
          return d;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// The one thread that polls status(): timestamps completions and
  /// releases each future as soon as it is terminal.
  void poll_loop() {
    std::vector<InFlight> live;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_ && incoming_.empty() && live.empty()) return;
        for (auto& f : incoming_) live.push_back(std::move(f));
        incoming_.clear();
      }
      bool any = false;
      for (std::size_t i = 0; i < live.size();) {
        const RequestStatus st = live[i].f.status();
        if (st == RequestStatus::kQueued || st == RequestStatus::kRunning) {
          ++i;
          continue;
        }
        Request& q = reqs_[live[i].k];
        q.done_ns = now_ns();
        q.status = st;
        completed_.fetch_add(1, std::memory_order_release);
        live[i] = std::move(live.back());
        live.pop_back();  // releases the future
        t_.record("svc.service", q.submitted_ns, q.done_ns,
                  t_.record("svc.request", q.due_ns, q.done_ns, -1,
                            static_cast<std::int64_t>(&q - reqs_.data()), 1),
                  static_cast<std::int64_t>(&q - reqs_.data()), 1);
        {
          std::lock_guard<std::mutex> lock(mu_);
          to_restore_.push_back(&q);
        }
        cv_.notify_one();
        any = true;
      }
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  /// Checks sampled outputs, restores each buffer from its pristine input
  /// and returns it to the pool.
  void restore_loop() {
    for (;;) {
      Request* q = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || (!hold_ && !to_restore_.empty()); });
        if (to_restore_.empty()) return;
        q = to_restore_.front();
        to_restore_.pop_front();
      }
      Class& c = classes_[q->cls];
      if (q->status == RequestStatus::kDone) {
        for (std::int32_t v : c.infos[q->buf]) q->wrong |= v != 0;
        if (q->sampled) {
          q->wrong |= std::memcmp(c.bufs[q->buf].data(), c.reference.data(),
                                  c.bytes) != 0;
        }
      }
      c.restore(q->buf);
      c.busy[q->buf].store(false, std::memory_order_release);
      finalized_.fetch_add(1, std::memory_order_release);
    }
  }

  std::vector<Class>& classes_;
  svc::BatchService& service_;
  Tracer& t_;
  std::vector<Request> reqs_;
  std::atomic<std::size_t> completed_{0};  ///< terminal, seen by the helper
  std::atomic<std::size_t> finalized_{0};  ///< checked and restored
  std::mutex mu_;  ///< guards incoming_, to_restore_, hold_, stop_
  std::condition_variable cv_;
  std::vector<InFlight> incoming_;
  std::deque<Request*> to_restore_;
  bool hold_ = false;
  bool stop_ = false;
  std::thread helper_;
  std::vector<std::thread> restorers_;
};

}  // namespace

Result run_service_open(const Options& o, Tracer& t) {
  Result r;
  std::vector<Class> classes;

  // Set-up: tuning lookup per class, the service's pool, and one first
  // call per class at the real request size (generating its input is
  // excluded).
  const std::int64_t setup0 = now_ns();
  std::int64_t gen_ns = 0;
  std::unique_ptr<svc::BatchService> service;
  {
    Scope s(t, "core.setup");
    service = std::make_unique<svc::BatchService>();
    for (std::size_t i = 0; i < std::size(kClasses); ++i) {
      Class& c = classes.emplace_back(kClasses[i]);
      c.build(t, kRequestBatch);
      const std::int64_t g0 = now_ns();
      c.generate(o.seed * 1000003ULL + i,
                 o.setup_only ? 1 : kBuffersPerWeight * c.spec.weight);
      gen_ns += now_ns() - g0;
      (void)c.submit(*service, 0).wait();
    }
  }
  end_setup(o, t, setup0, gen_ns, r);
  if (o.setup_only) return r;

  bool refs_ok = true;
  for (Class& c : classes) {
    c.restore(0);
    refs_ok &= c.make_reference();
  }
  Xoshiro256 rng(o.seed);
  // Per pass: the ladder's rungs, each followed by a third of the
  // saturating bursts, so that the gated capacity samples the whole pass
  // and not one stretch of host load. A third of a pass's time goes to the
  // ladder and the rest to the bursts; the traced run makes an untraced
  // pass and then a traced one. A pass's last entry holds all its bursts.
  std::vector<RungStats> untraced, traced;
  {
    OpenLoop loop(classes, *service, t);
    const double pass_s = o.seconds / (o.trace ? 2.0 : 1.0);
    const double share_s = pass_s / 3.0 / std::size(kLadder);
    const auto pass = [&](std::vector<RungStats>& out) {
      RungStats saturated;
      for (const Rung& g : kLadder) {
        out.push_back(loop.run(g.rate, share_s, rng));
        saturated.absorb(loop.run(INFINITY, 2.0 * share_s, rng));
      }
      out.push_back(std::move(saturated));
    };
    // Untimed warm-up at the top rate: the service's scratch arena and
    // every request buffer reach steady state before the first timed rung.
    const RungStats warm_up = loop.run(kLadder[std::size(kLadder) - 1].rate,
                                       kWarmupSeconds, rng);
    r.attempted += warm_up.requests;
    r.failed += warm_up.failed;
    pass(untraced);
    if (o.trace) {
      t.set_enabled(true);
      const std::int64_t from = now_ns();
      pass(traced);
      const std::int64_t to = now_ns();
      t.set_enabled(false);
      add_ledger(t, from, to, to_s(to - from), r);
    }
  }

  const std::size_t hi = std::size(kLadder) - 1;
  const std::size_t sat = std::size(kLadder);
  double slo_rate = 0.0;
  for (const auto* set : {&untraced, &traced}) {
    for (std::size_t i = 0; i < set->size(); ++i) {
      const RungStats& st = (*set)[i];
      r.attempted += st.requests;
      r.failed += st.failed;
      if (set != &untraced || i == sat) continue;
      const std::string tag = kLadder[i].name;
      r.report["request_p50_ms." + tag] = quantile(st.latency_ms, 0.5);
      r.report["request_p99_ms." + tag] = quantile(st.latency_ms, 0.99);
      r.report["generator_late_ms.p99." + tag] = quantile(st.late_ms, 0.99);
      r.report["backlog." + tag] = static_cast<double>(st.backlog);
      r.samples["requests." + tag] = static_cast<double>(st.requests);
      const bool steady = st.backlog <= static_cast<std::int64_t>(
                                             kLadder[i].rate * kLimitMs * 1e-3) + 1;
      if (quantile(st.latency_ms, 0.99) <= kLimitMs && steady) slo_rate = kLadder[i].rate;
    }
  }
  if (!refs_ok) ++r.failed;
  r.report["slo_rate_per_s"] = slo_rate;
  r.report["slo_limit_ms"] = kLimitMs;
  // The service's capacity at this mix: the median burst's completed
  // matrices per second with every request buffer queued.
  const auto capacity = [](const RungStats& st) {
    return median(st.burst_matrices_per_s);
  };
  r.samples["requests.saturated"] = static_cast<double>(untraced[sat].requests);
  r.samples["bursts.saturated"] =
      static_cast<double>(untraced[sat].burst_matrices_per_s.size());
  r.report["saturated_requests_per_s"] =
      static_cast<double>(untraced[sat].ok) / untraced[sat].duration_s;
  if (!o.trace) {
    r.metrics["matrices_per_s"] = capacity(untraced[sat]);
    return r;
  }
  // The ladder's figures from the traced run's untraced pass, so the
  // result line carries them too (ungated: see README.md).
  for (const auto& [name, value] : r.report) {
    if (name.rfind("request_", 0) == 0 || name == "slo_rate_per_s") {
      r.metrics["svc." + name] = value;
    }
  }
  const RungStats& th = traced[hi];
  r.metrics["obs.trace_overhead"] =
      capacity(untraced[sat]) / capacity(traced[sat]) - 1.0;
  r.metrics["svc.submit_us"] = quantile(th.submit_us, 0.5);
  r.metrics["svc.service_ms.p50"] = quantile(th.service_ms, 0.5);
  r.metrics["svc.service_ms.p99"] = quantile(th.service_ms, 0.99);
  r.metrics["svc.queue_wait_ms.p50"] = th.queue_p50_ms;
  r.metrics["svc.queue_wait_ms.p99"] = th.queue_p99_ms;
  r.metrics["svc.generator_late_ms"] = quantile(th.late_ms, 0.99);
  const char* names[] = {"", "", "", "cancelled", "deadline_exceeded",
                         "overloaded", "resource_exhausted", "poisoned"};
  for (int s = 3; s < 8; ++s) {
    std::int64_t total = 0;
    for (const auto* set : {&untraced, &traced}) {
      for (const RungStats& st : *set) total += st.not_done[s];
    }
    r.metrics[std::string("svc.not_done.") + names[s]] = static_cast<double>(total);
  }
  // Calls, matrices and flops of the traced `high` rung.
  add_layer_counts({th.tallies}, r);
  return r;
}

}  // namespace perfbench
