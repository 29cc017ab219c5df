// mpnjbench: runs one named workload against the runtime's public API and
// prints its metrics, one human line each, then a JSON result line.
//
//   mpnjbench --workload <kv_open|par_gc|sim_replay> --seed N --seconds S
//             [--trace 0|1] [--trace-out FILE] [--ref-rate R]
//             [--sim-expect app=virtual_us:checksum ...]
//   mpnjbench --rungs REPS [--trace-out FILE]   (the rung ladder only)
//   mpnjbench --record-sim                      (print the sim_replay pins)
//
// run.py builds this binary and passes the reference rate and the sim pins
// from pins.json.  Untraced, the result holds the end-to-end metrics; traced,
// the per-layer metrics of all three workloads (the named one for the full
// time, the others shorter) and a trace file with one span per call into a
// layer and one per KV request.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace mpnjbench {

void Outcome::fail(std::uint64_t n, const std::string& why) {
  failed += n;
  correct = false;
  std::fprintf(stderr, "mpnjbench: FAILED %s (%llu)\n", why.c_str(),
               static_cast<unsigned long long>(n));
}

Delta delta_start() {
  Delta d;
  d.before = metrics::registry().snapshot();
  return d;
}

void delta_stop(Delta& d) { d.after = metrics::registry().snapshot(); }

void delta_add(Delta& d, const metrics::Snapshot& from) {
  const metrics::Snapshot to = metrics::registry().snapshot();
  for (std::size_t i = 0; i < to.counters.size(); i++) {
    d.after.counters[i] += to.counters[i] - from.counters[i];
  }
  for (std::size_t i = 0; i < to.histos.size(); i++) {
    auto& h = d.after.histos[i];
    h.count += to.histos[i].count - from.histos[i].count;
    h.sum += to.histos[i].sum - from.histos[i].sum;
    for (std::size_t b = 0; b < h.buckets.size(); b++) {
      h.buckets[b] += to.histos[i].buckets[b] - from.histos[i].buckets[b];
    }
  }
}

double Delta::histo_quantile(metrics::Histo h, double q) const {
  const auto& a = after.histo(h);
  const auto& b = before.histo(h);
  const std::uint64_t n = a.count - b.count;
  if (n == 0) return 0;
  const double target = q * static_cast<double>(n);
  double seen = 0;
  for (std::size_t i = 0; i < metrics::kNumBuckets; i++) {
    const auto c = static_cast<double>(a.buckets[i] - b.buckets[i]);
    if (c > 0 && seen + c >= target) {
      if (i == 0) return 0;
      // Bucket i holds [2^(i-1), 2^i): interpolate linearly inside it.
      const double lo = static_cast<double>(1ull << (i - 1));
      return lo + lo * (target - seen) / c;
    }
    seen += c;
  }
  return static_cast<double>(1ull << (metrics::kNumBuckets - 1));
}

}  // namespace mpnjbench

namespace {

using namespace mpnjbench;

using RunFn = void (*)(const Options&, double, Tracer&, Report&, Report&,
                       Outcome&);

RunFn workload_fn(const std::string& name) {
  if (name == "kv_open") return run_kv_open;
  if (name == "par_gc") return run_par_gc;
  if (name == "sim_replay") return run_sim_replay;
  return nullptr;
}

void print_result(const Outcome& out, const Report& r) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), r.metrics_json().c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: mpnjbench --workload W --seed N --seconds S "
               "[--trace 0|1] [--trace-out F] [--ref-rate R]\n"
               "                 [--sim-expect app=virtual_us:checksum ...]\n"
               "       mpnjbench --rungs REPS [--trace-out F]\n"
               "       mpnjbench --record-sim\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  int rung_reps = 0;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (a == "--record-sim") {
      record_sim_replay();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      opt.trace_path = v;
    } else if (a == "--rungs") {
      rung_reps = std::atoi(v.c_str());
    } else if (a == "--ref-rate") {
      opt.kv_ref_rate = std::strtod(v.c_str(), nullptr);
    } else if (a == "--sim-expect") {
      const auto eq = v.find('=');
      const auto colon = v.find(':', eq);
      if (eq == std::string::npos || colon == std::string::npos) {
        return usage();
      }
      opt.sim_expect[v.substr(0, eq)] = {
          std::strtod(v.c_str() + eq + 1, nullptr),
          std::strtoull(v.c_str() + colon + 1, nullptr, 10)};
    } else {
      return usage();
    }
  }

  Outcome out;
  Report e2e;
  Report layer;

  if (rung_reps > 0) {
    Tracer tracer(!opt.trace_path.empty());
    run_rungs(rung_reps, tracer, layer);
    layer.print_lines();
    if (tracer.enabled() && !tracer.write(opt.trace_path)) return 1;
    out.attempted = layer.metrics().size();
    print_result(out, layer);
    return 0;
  }

  const RunFn fn = workload_fn(opt.workload);
  if (fn == nullptr || opt.seconds <= 0) return usage();

  if (!opt.trace) {
    Tracer off(false);
    fn(opt, opt.seconds, off, e2e, layer, out);
    e2e.print_lines();
    print_result(out, e2e);
    return out.correct ? 0 : 1;
  }

  // Traced: first the named workload untraced for the full time, for the
  // overhead baseline; then every workload traced, the named one for the
  // full time.
  Report base_e2e, unused;
  {
    Tracer off(false);
    Outcome base_out;
    fn(opt, opt.seconds, off, base_e2e, unused, base_out);
    if (!base_out.correct) out.fail(base_out.failed, "untraced baseline");
    out.attempted += base_out.attempted;
  }
  Tracer tracer(true);
  double traced_p50 = 0;
  for (const char* w : {"kv_open", "par_gc", "sim_replay"}) {
    Report w_e2e;
    const bool named = opt.workload == w;
    const double t0 = now_s();
    workload_fn(w)(opt, named ? opt.seconds : kTraceOtherS, tracer, w_e2e,
                   layer, out);
    tracer.span("workload", w, 0, t0, now_s());
    if (named) {
      for (const Metric& m : w_e2e.metrics()) {
        if (m.name == "p50_us") traced_p50 = m.value;
      }
    }
  }
  double base_p50 = 0;
  for (const Metric& m : base_e2e.metrics()) {
    if (m.name == "p50_us") base_p50 = m.value;
  }
  layer.add("trace.overhead_frac",
            base_p50 > 0 ? traced_p50 / base_p50 - 1 : 0, "ratio", 2);
  if (!opt.trace_path.empty() && !tracer.write(opt.trace_path)) {
    out.fail(1, "writing the trace file");
  }
  layer.print_lines();
  print_result(out, layer);
  return out.correct ? 0 : 1;
}
