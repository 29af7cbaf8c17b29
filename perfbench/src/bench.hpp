// Shared pieces of the repository benchmark: run options, the result every
// workload fills, statistics, and the in-memory span recorder.
//
// Spans are recorded only from benchmark code, one around each public
// library call; the library's own instrumentation is read only through its
// public histogram registry. A span's layer is its name up to the first
// '.', and names the src/ module the wrapped call belongs to ("bench" is
// the harness itself: input restores, output checks, generator waits).
// The root span of a round or rung only brackets it: its self time is what
// no wrapped call and no harness step covers, and the ledger reports it as
// unattributed rather than charging it to any layer.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Busy-waits `ns` nanoseconds (a sleep would overshoot by the scheduler's
/// granularity, which would blur the injected-delay test).
void spin_for(std::int64_t ns);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop after set-up (a fresh process per set-up sample, so first-call
  /// costs are paid every time).
  bool setup_only = false;
  /// Test hook: busy-wait `inject_ns` inside every span named
  /// `inject_span`, traced or not.
  std::string inject_span;
  std::int64_t inject_ns = 0;
  std::string trace_file;  ///< where the traced run writes its spans
};

/// What a workload hands back to main().
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double setup_s = 0.0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, double> metrics;
  /// Workload-specific figures printed by name (e.g. request_p99_ms.high);
  /// informational, not part of the final result line.
  std::map<std::string, double> report;
  /// Sample counts behind the medians and percentiles, by metric.
  std::map<std::string, double> samples;
};

/// What one wrapped call processes, for the per-layer counts.
struct Work {
  double matrices = 0.0;
  double flops = 0.0;
  double bytes = 0.0;  ///< computed from array sizes, not measured traffic
};

/// Counted calls of one span name: how many, what they processed, and
/// their wall seconds.
struct Tally {
  double calls = 0.0;
  double matrices = 0.0;
  double flops = 0.0;
  double bytes = 0.0;
  double seconds = 0.0;
};
using Tallies = std::map<std::string, Tally, std::less<>>;

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;   ///< id of the enclosing span, -1 for a root
  std::int64_t request = -1;  ///< shared by every span of one request
  int lane = 0;               ///< recording thread: 0 = caller, 1 = helper
};

/// Span recorder with one lane per benchmark thread (the caller loop and
/// the open-loop completion helper); each lane is touched by one thread
/// only, ids come from a shared atomic. Spans stay in memory and are
/// written once, by write_jsonl(), after the measured phase.
class Tracer {
 public:
  static constexpr int kLanes = 2;

  /// Recording starts off; workloads enable it around traced phases.
  Tracer(std::string inject_span, std::int64_t inject_ns);

  [[nodiscard]] bool enabled() const { return enabled_.load(); }
  /// Turns recording on or off (closed loops alternate traced and
  /// untraced rounds in the traced run).
  void set_enabled(bool on) { enabled_.store(on); }

  /// Opens a span on `lane`; returns its id (-1 when recording is off).
  std::int64_t open(const char* name, int lane = 0, std::int64_t request = -1);
  /// Closes the innermost open span of `lane`.
  void close(int lane = 0);
  /// Records a finished span whose timing was measured elsewhere.
  std::int64_t record(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int64_t parent,
                      std::int64_t request, int lane);
  std::int64_t next_id() { return next_id_.fetch_add(1); }
  /// Id of the innermost open span of `lane`, -1 if none.
  [[nodiscard]] std::int64_t current(int lane = 0) const {
    return lanes_[lane].stack.empty() ? -1 : lanes_[lane].stack.back().id;
  }
  /// Pays the injected delay if `name` is the target span.
  void maybe_inject(const char* name) const;

  /// Counts one call of span `name` that took `seconds`. Caller thread
  /// only. Counting runs whether or not recording is on; each phase takes
  /// the tallies it reports.
  void count(const char* name, const Work& w, double seconds);
  /// The tallies counted since the last take, by span name; resets them.
  Tallies take_tallies() { return std::exchange(tallies_, {}); }

  /// Self time per layer over the root spans of lane 0 that start in
  /// [from_ns, to_ns): a span's duration minus its children's. Root spans'
  /// self time goes to "unattributed".
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::int64_t from_ns, std::int64_t to_ns) const;
  void write_jsonl(const std::string& path) const;

 private:
  struct Open {
    std::int64_t id;
    const char* name;
    std::int64_t start_ns;
    std::int64_t request;
  };
  struct Lane {
    std::vector<Span> spans;
    std::vector<Open> stack;
  };

  std::atomic<bool> enabled_{false};
  std::string inject_span_;
  std::int64_t inject_ns_ = 0;
  std::atomic<std::int64_t> next_id_{0};
  Lane lanes_[kLanes];
  Tallies tallies_;
};

/// RAII span around one library call. The injected delay (a test hook) is
/// paid inside the span whether or not recording is on, so it reaches both
/// the layer's self time and the end-to-end timing around the call.
class Scope {
 public:
  Scope(Tracer& t, const char* name, int lane = 0, std::int64_t request = -1)
      : t_(t), name_(name), lane_(lane) {
    id_ = t_.open(name, lane, request);
  }
  ~Scope() {
    t_.maybe_inject(name_);
    if (id_ >= 0) t_.close(lane_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  const char* name_;
  int lane_;
  std::int64_t id_ = -1;
};

/// Runs the library call `f` inside a span named `name`, counts it with
/// `w`, and returns its wall seconds, injected delay included.
template <typename F>
double timed(Tracer& t, const char* name, const Work& w, F&& f) {
  const std::int64_t t0 = now_ns();
  {
    Scope s(t, name);
    f();
  }
  const double seconds = to_s(now_ns() - t0);
  t.count(name, w, seconds);
  return seconds;
}

/// Per-round samples of a closed loop.
struct Rounds {
  std::vector<double> untraced_s;  ///< caller-visible library seconds
  std::vector<double> traced_s;
  /// Sum of traced rounds' windows, each from its start to the next
  /// round's start, so loop overhead between rounds counts as wall.
  double traced_wall_s = 0.0;
  std::vector<Tallies> traced_tallies;  ///< one per traced round
};

/// Closed-loop runner: calls `round()` (which returns the round's library
/// seconds) inside a "bench.round" root span until `o.seconds` elapse and
/// each kind of round has at least three samples. The traced run
/// alternates traced and untraced rounds, so drift during the run hits
/// both alike and their ratio is the tracing overhead.
template <typename RoundFn>
Rounds run_rounds(const Options& o, Tracer& t, RoundFn&& round) {
  constexpr std::size_t kMinRounds = 3;
  Rounds r;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  bool traced = false;
  std::int64_t start = now_ns();
  (void)t.take_tallies();
  while (start < end || r.untraced_s.size() < kMinRounds ||
         (o.trace && r.traced_s.size() < kMinRounds)) {
    traced = o.trace && !traced;
    t.set_enabled(traced);
    double lib_s = 0.0;
    {
      Scope s(t, "bench.round");
      lib_s = round();
    }
    const std::int64_t next = now_ns();
    Tallies tallies = t.take_tallies();
    (traced ? r.traced_s : r.untraced_s).push_back(lib_s);
    if (traced) {
      r.traced_wall_s += to_s(next - start);
      r.traced_tallies.push_back(std::move(tallies));
    }
    start = next;
  }
  t.set_enabled(false);
  return r;
}

/// Ends the set-up phase begun at `setup0_ns`: sets setup_s, leaving out
/// `excluded_ns` of benchmark-side input generation, and in the traced run
/// core.calls, the core.* calls the set-up made.
void end_setup(const Options& o, Tracer& t, std::int64_t setup0_ns,
               std::int64_t excluded_ns, Result& r);

/// Sum of `field` over the tallies whose span is `name`, or whose layer is
/// `name` when it holds no '.'.
double tally_sum(const Tallies& tallies, std::string_view name,
                 double Tally::*field);
/// Median over `rounds` of tally_sum().
double tally_median(const std::vector<Tallies>& rounds, std::string_view name,
                    double Tally::*field);

/// Per-layer <layer>.calls/matrices/flops/bytes (those in
/// per_layer_metric_names()), medians over `rounds`.
void add_layer_counts(const std::vector<Tallies>& rounds, Result& r);

/// End-to-end metrics of a closed loop (untraced rounds) and, in the traced
/// run, the tracing overhead, the ledger and the per-layer counts.
void closed_loop_metrics(const Options& o, const Tracer& t, const Rounds& rounds,
                         double matrices_per_round, Result& r);

/// The ledger's layers, in report order. The covered share is their sum;
/// root-span self time is reported apart, as ledger.unattributed_share.
inline constexpr std::string_view kLedgerLayers[] = {
    "layout", "cpu", "tiled", "svc", "als", "bench"};

/// Every per-layer metric name. A traced run reports all of them on every
/// workload; a layer a workload does not exercise reads 0.
std::vector<std::string> per_layer_metric_names();

/// Fills the ledger metrics (ledger.<layer>_share, ledger.covered_share,
/// ledger.unattributed_share) from the tracer's self times over `wall_s`
/// of traced phase.
void add_ledger(const Tracer& tracer, std::int64_t from_ns, std::int64_t to_ns,
                double wall_s, Result& r);

/// Process peak resident set in MB (getrusage).
double peak_rss_mb();

/// The nominal Cholesky operation count the paper reports rates with.
inline double chol_flops(int n) {
  return static_cast<double>(n) * n * n / 3.0;
}

/// Operation count of one solve: a forward and a backward substitution.
inline double solve_flops(int n) { return 2.0 * n * n; }

/// Backward-error bound c·n·u for single precision, applied to
/// ||A − L·Lᵀ||_F / ||A||_F and to the solve residual.
inline double backward_bound(int n) { return 8.0 * n * 0x1p-24; }

// Workload entry points (one translation unit each).
Result run_canonical_small(const Options& o, Tracer& t);
Result run_large_mixed(const Options& o, Tracer& t);
Result run_service_open(const Options& o, Tracer& t);
Result run_als_train(const Options& o, Tracer& t);

}  // namespace perfbench
