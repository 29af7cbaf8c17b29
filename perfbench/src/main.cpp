// ibchol_perfbench — runs one benchmark workload and prints its metrics.
//
//   ibchol_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                    [--setup-only] [--trace-file=<path>]
//                    [--inject-delay=<span>:<microseconds>]
//
// Workloads: canonical_small, large_mixed, service_open, als_train. The
// untraced run (--trace=0) reports the end-to-end metrics; the traced run
// (--trace=1) records one span per public library call and reports the
// per-layer metrics and the ledger. The last line of standard output is one
// JSON object with the metrics, the failure counts and the effective
// configuration; perfbench/run.py turns it into the benchmark's result.
#include <omp.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "cpu/thread_util.hpp"
#include "obs/trace.hpp"
#include "tune/host_probe.hpp"

extern char** environ;

namespace perfbench {
namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_str(k) + ": " + json_num(v);
  }
  return out + "}";
}

/// The effective configuration that produced the result.
std::string config_block(const Options& o) {
  const ibchol::tune::HostProfile host =
      ibchol::tune::detect_host_profile(/*run_microprobes=*/false);
  std::ostringstream c;
  c << "{\"host_fingerprint\": " << json_str(host.fingerprint())
    << ", \"cpu\": " << json_str(host.cpu_name)
    << ", \"simd_isa\": " << json_str(ibchol::to_string(host.isa))
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"omp_threads\": " << omp_get_max_threads()
    << ", \"pool_threads\": " << ibchol::cached_default_threads()
    << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
    << ", \"cxx_flags\": " << json_str(PERFBENCH_CXX_FLAGS)
    << ", \"ibchol_obs\": " << (ibchol::obs::kEnabled ? "true" : "false")
    << ", \"seed\": " << o.seed << ", \"env\": {";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("IBCHOL_", 0) != 0 && kv.rfind("OMP_", 0) != 0) continue;
    const auto eq = kv.find('=');
    c << (first ? "" : ", ") << json_str(kv.substr(0, eq)) << ": "
      << json_str(kv.substr(eq + 1));
    first = false;
  }
  c << "}}";
  return c.str();
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--setup-only") {
      o.setup_only = true;
    } else if (key == "--trace-file") {
      o.trace_file = val;
    } else if (key == "--inject-delay") {
      const auto colon = val.rfind(':');
      if (colon == std::string::npos) return false;
      o.inject_span = val.substr(0, colon);
      o.inject_ns = std::stoll(val.substr(colon + 1)) * 1000;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  try {
    if (!parse(argc, argv, o)) {
      std::cerr << "usage: ibchol_perfbench --workload=<name> --seed=<n> "
                   "--seconds=<s> --trace=<0|1> [--setup-only] "
                   "[--trace-file=<path>] [--inject-delay=<span>:<us>]\n";
      return 2;
    }
  } catch (const std::exception&) {
    std::cerr << "bad numeric argument\n";
    return 2;
  }
  Tracer tracer(o.inject_span, o.inject_ns);
  Result r;
  try {
    if (o.workload == "canonical_small") {
      r = run_canonical_small(o, tracer);
    } else if (o.workload == "large_mixed") {
      r = run_large_mixed(o, tracer);
    } else if (o.workload == "service_open") {
      r = run_service_open(o, tracer);
    } else if (o.workload == "als_train") {
      r = run_als_train(o, tracer);
    } else {
      std::cerr << "unknown workload: " << o.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "workload failed: " << e.what() << "\n";
    return 1;
  }

  if (o.setup_only) {
    std::cout << "{\"setup_s\": " << json_num(r.setup_s) << "}\n";
    return 0;
  }
  if (o.trace) {
    r.metrics["core.setup_s"] = r.setup_s;
    for (const std::string& name : per_layer_metric_names()) {
      r.metrics.emplace(name, 0.0);  // layers this workload does not use
    }
    if (!o.trace_file.empty()) tracer.write_jsonl(o.trace_file);
  }
  r.report["peak_rss_mb"] = peak_rss_mb();
  const double failed_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
  std::cout << "{\"workload\": " << json_str(o.workload)
            << ", \"correct\": " << (r.failed == 0 && r.attempted > 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"failed_frac\": " << json_num(failed_frac)
            << ", \"setup_s\": " << json_num(r.setup_s)
            << ", \"metrics\": " << json_map(r.metrics)
            << ", \"report\": " << json_map(r.report)
            << ", \"samples\": " << json_map(r.samples)
            << ", \"config\": " << config_block(o) << "}\n";
  return 0;
}
