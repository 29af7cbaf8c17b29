#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <utility>

#include "bench.hpp"

namespace perfbench {

void spin_for(std::int64_t ns) {
  const std::int64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Tracer::Tracer(std::string inject_span, std::int64_t inject_ns)
    : inject_span_(std::move(inject_span)),
      inject_ns_(inject_ns) {
  for (auto& lane : lanes_) lane.spans.reserve(1 << 16);
}

std::int64_t Tracer::open(const char* name, int lane, std::int64_t request) {
  if (!enabled()) return -1;
  const std::int64_t id = next_id();
  lanes_[lane].stack.push_back({id, name, now_ns(), request});
  return id;
}

void Tracer::close(int lane) {
  Lane& l = lanes_[lane];
  if (l.stack.empty()) return;
  const Open o = l.stack.back();
  l.stack.pop_back();
  const std::int64_t parent = l.stack.empty() ? -1 : l.stack.back().id;
  const std::int64_t request =
      o.request >= 0 || l.stack.empty() ? o.request : l.stack.back().request;
  l.spans.push_back({o.name, o.start_ns, now_ns(), o.id, parent, request, lane});
}

std::int64_t Tracer::record(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int64_t parent,
                            std::int64_t request, int lane) {
  if (!enabled()) return -1;
  const std::int64_t id = next_id();
  lanes_[lane].spans.push_back(
      {name, start_ns, end_ns, id, parent, request, lane});
  return id;
}

void Tracer::maybe_inject(const char* name) const {
  if (inject_ns_ > 0 && inject_span_ == name) spin_for(inject_ns_);
}

void Tracer::count(const char* name, const Work& w, double seconds) {
  Tally& t = tallies_[name];
  t.calls += 1.0;
  t.matrices += w.matrices;
  t.flops += w.flops;
  t.bytes += w.bytes;
  t.seconds += seconds;
}

std::map<std::string, double> Tracer::self_seconds(std::int64_t from_ns,
                                                   std::int64_t to_ns) const {
  const std::vector<Span>& spans = lanes_[0].spans;
  std::map<std::int64_t, const Span*> by_id;
  std::map<std::int64_t, std::int64_t> child_ns;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    const Span* root = &s;
    while (root->parent >= 0) root = by_id.at(root->parent);
    if (root->start_ns < from_ns || root->start_ns >= to_ns) continue;
    const std::string_view name(s.name);
    const auto c = child_ns.find(s.id);
    const std::string layer =
        s.parent < 0 ? "unattributed" : std::string(name.substr(0, name.find('.')));
    self[layer] +=
        to_s(s.end_ns - s.start_ns - (c == child_ns.end() ? 0 : c->second));
  }
  return self;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& lane : lanes_) {
    for (const Span& s : lane.spans) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"lane\":" << s.lane << "}\n";
    }
  }
}

std::vector<std::string> per_layer_metric_names() {
  std::vector<std::string> names = {
      "layout.convert_s", "layout.convert_gbps", "layout.calls",
      "layout.matrices", "layout.bytes",
      "core.setup_s", "core.calls",
      "cpu.factor_s", "cpu.factor_gflops", "cpu.solve_s", "cpu.calls",
      "cpu.matrices", "cpu.flops",
      "tiled.factor_s", "tiled.factor_gflops.n128", "tiled.factor_gflops.n256",
      "tiled.factor_gflops.n512", "tiled.pack_unpack_share", "tiled.calls",
      "tiled.matrices", "tiled.flops",
      "svc.submit_us", "svc.service_ms.p50", "svc.service_ms.p99",
      "svc.queue_wait_ms.p50", "svc.queue_wait_ms.p99",
      "svc.generator_late_ms", "svc.not_done.cancelled",
      "svc.not_done.deadline_exceeded", "svc.not_done.overloaded",
      "svc.not_done.resource_exhausted", "svc.not_done.poisoned",
      "svc.calls", "svc.matrices", "svc.flops", "svc.slo_rate_per_s",
      "als.factor_solve_s", "als.rmse_s", "als.assemble_scatter_s",
      "als.calls", "als.matrices", "als.flops",
      "obs.trace_overhead", "ledger.covered_share",
      "ledger.unattributed_share"};
  for (std::string_view layer : kLedgerLayers) {
    names.push_back("ledger." + std::string(layer) + "_share");
  }
  for (const char* rung : {"low", "mid", "high"}) {
    names.push_back(std::string("svc.request_p50_ms.") + rung);
    names.push_back(std::string("svc.request_p99_ms.") + rung);
  }
  return names;
}

void add_ledger(const Tracer& tracer, std::int64_t from_ns, std::int64_t to_ns,
                double wall_s, Result& r) {
  const auto self = tracer.self_seconds(from_ns, to_ns);
  double covered = 0.0;
  for (std::string_view layer : kLedgerLayers) {
    const auto it = self.find(std::string(layer));
    const double s = it == self.end() ? 0.0 : it->second;
    covered += s;
    r.metrics["ledger." + std::string(layer) + "_share"] =
        wall_s > 0 ? s / wall_s : 0.0;
  }
  r.metrics["ledger.covered_share"] = wall_s > 0 ? covered / wall_s : 0.0;
  const auto root = self.find("unattributed");
  r.metrics["ledger.unattributed_share"] =
      root == self.end() || wall_s <= 0 ? 0.0 : root->second / wall_s;
}

void end_setup(const Options& o, Tracer& t, std::int64_t setup0_ns,
               std::int64_t excluded_ns, Result& r) {
  r.setup_s = to_s(now_ns() - setup0_ns - excluded_ns);
  const Tallies setup = t.take_tallies();
  if (o.trace) r.metrics["core.calls"] = tally_sum(setup, "core", &Tally::calls);
}

double tally_sum(const Tallies& tallies, std::string_view name,
                 double Tally::*field) {
  const bool layer = name.find('.') == std::string_view::npos;
  double sum = 0.0;
  for (const auto& [span, tally] : tallies) {
    const std::string_view s(span);
    if (layer ? s.substr(0, s.find('.')) == name : s == name) sum += tally.*field;
  }
  return sum;
}

double tally_median(const std::vector<Tallies>& rounds, std::string_view name,
                    double Tally::*field) {
  std::vector<double> v;
  for (const Tallies& t : rounds) v.push_back(tally_sum(t, name, field));
  return median(std::move(v));
}

void add_layer_counts(const std::vector<Tallies>& rounds, Result& r) {
  const std::vector<std::string> names = per_layer_metric_names();
  const std::pair<const char*, double Tally::*> fields[] = {
      {"calls", &Tally::calls},
      {"matrices", &Tally::matrices},
      {"flops", &Tally::flops},
      {"bytes", &Tally::bytes}};
  for (const char* layer : {"layout", "cpu", "tiled", "svc", "als"}) {
    for (const auto& [field, member] : fields) {
      const std::string name = std::string(layer) + "." + field;
      if (std::find(names.begin(), names.end(), name) == names.end()) continue;
      r.metrics[name] = tally_median(rounds, layer, member);
    }
  }
}

void closed_loop_metrics(const Options& o, const Tracer& t, const Rounds& rounds,
                         double matrices_per_round, Result& r) {
  const double round_s = median(rounds.untraced_s);
  r.samples["rounds.untraced"] = static_cast<double>(rounds.untraced_s.size());
  r.report["round_p50_ms"] = round_s * 1e3;
  if (!o.trace) {
    r.metrics["matrices_per_s"] = matrices_per_round / round_s;
    return;
  }
  r.samples["rounds.traced"] = static_cast<double>(rounds.traced_s.size());
  r.metrics["obs.trace_overhead"] = median(rounds.traced_s) / round_s - 1.0;
  add_ledger(t, 0, INT64_MAX, rounds.traced_wall_s, r);
  add_layer_counts(rounds.traced_tallies, r);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
