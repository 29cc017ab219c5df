// sim_replay: the six Figure 6 applications on the simulated 16-proc
// Sequent, plus the simulated KV row (4 procs, 16 connections), all on this
// one OS thread.  Each run's virtual time and checksum are exact and must
// equal the values pins.json holds; the host time a replay set takes is
// the measurement.  The seed only permutes the order of the runs in a set.

#include <algorithm>
#include <cstdio>
#include <random>

#include "bench.h"
#include "mp/sim_platform.h"
#include "threads/scheduler.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

namespace mpnjbench {
namespace {

const char* const kApps[] = {"allpairs", "mst", "abisort", "simple",
                             "mm",       "seq", "kv"};

struct SimRun {
  bool verified = false;
  double virtual_us = 0;
  std::uint64_t checksum = 0;
};

SimRun replay(const std::string& app) {
  SimRun r;
  if (app != "kv") {
    mp::workloads::SimRunSpec spec;
    spec.workload = app;
    spec.machine = mp::sim::sequent_s81(16);
    const auto res = mp::workloads::run_sim(spec);
    r.verified = res.verified;
    r.virtual_us = res.report.total_us;
    r.checksum = res.checksum;
    return r;
  }
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(4);
  mp::SimPlatform platform(cfg);
  mp::workloads::KvWorkloadOptions kopt;
  kopt.shards = 4;
  kopt.connections = 16;
  auto w = mp::workloads::make_kv(kopt);
  mp::threads::Scheduler::run(platform, {},
                              [&](mp::threads::Scheduler& s) { w->run(s, 4); });
  r.verified = w->verify();
  r.virtual_us = platform.report().total_us;
  r.checksum = w->checksum();
  return r;
}

}  // namespace

void record_sim_replay() {
  for (const char* app : kApps) {
    const SimRun r = replay(app);
    std::printf("sim_expect %s %.17g %llu %s\n", app, r.virtual_us,
                static_cast<unsigned long long>(r.checksum),
                r.verified ? "verified" : "UNVERIFIED");
  }
}

void run_sim_replay(const Options& opt, double seconds, Tracer& tracer,
                    Report& e2e, Report& layer, Outcome& out) {
  std::vector<std::string> order(std::begin(kApps), std::end(kApps));
  for (const auto& app : order) {
    if (opt.sim_expect.count(app) == 0) {
      out.fail(1, "sim_replay needs --sim-expect " + app + "=...");
      return;
    }
  }

  // Set-up: build every app's inputs and sequential reference (the workload
  // constructor) and the simulated machine -- the construction run_sim
  // repeats inside each replay before it simulates.  One pass takes ~5 ms,
  // so it is timed many times and the median reported.  The ~0.3 s this
  // takes is normalized by kernel samples taken during it (`setup_host`),
  // not by the run's factor: measured so, its spread over ten runs fell
  // from 0.145 to 0.088.
  std::vector<double> setups;
  HostSpeed setup_host;
  for (int rep = 0; rep < kSimSetupReps; rep++) {
    if (rep % 20 == 0) setup_host.sample();
    const double t0 = now_s();
    for (const char* app : kApps) {
      if (std::string(app) == "kv") continue;
      mp::SimPlatformConfig cfg;
      cfg.machine = mp::sim::sequent_s81(16);
      mp::SimPlatform platform(cfg);
      auto w = mp::workloads::make_workload(app, 16);
    }
    setups.push_back(now_s() - t0);
    tracer.span("sim", "setup", 1, t0, now_s());
  }
  setup_host.sample();

  HostSpeed host;
  std::mt19937_64 rng(opt.seed);
  std::map<std::string, std::vector<double>> host_s;
  std::vector<double> set_s;
  const double end = now_s() + seconds;
  while (now_s() < end && out.correct) {
    std::shuffle(order.begin(), order.end(), rng);
    // Between sets no runtime exists: every replay builds and tears down
    // its own simulated platform on this thread.
    host.sample_every_second();
    const double s0 = now_s();
    for (const auto& app : order) {
      const double t0 = now_s();
      const SimRun r = replay(app);
      const double t1 = now_s();
      char args[96];
      std::snprintf(args, sizeof args, "\"virtual_us\": %.3f", r.virtual_us);
      tracer.span("sim", app, 2, t0, t1, args);
      host_s[app].push_back(t1 - t0);
      out.attempted++;
      const auto& [vus, sum] = opt.sim_expect.at(app);
      if (!r.verified || r.virtual_us != vus || r.checksum != sum) {
        std::fprintf(stderr,
                     "sim_replay: %s: virtual %.17g checksum %llu, expected "
                     "%.17g %llu (verified=%d)\n",
                     app.c_str(), r.virtual_us,
                     static_cast<unsigned long long>(r.checksum), vus,
                     static_cast<unsigned long long>(sum), r.verified);
        out.fail(1, "sim_replay: " + app);
      }
    }
    set_s.push_back(now_s() - s0);
    tracer.span("sim", "set", 1, s0, now_s());
  }

  const Summary ss = summarize(set_s, kE2eTailLevel);
  double busy = 0;
  for (const double s : set_s) busy += s;
  std::printf("sim_replay: %zu sets, set p50 %.1f ms, p%g %.1f ms\n",
              set_s.size(), ss.median * 1e3, ss.tail_level, ss.tail * 1e3);

  const double f = host.factor(kHostKernelRefS);
  const double f_setup = setup_host.factor(kHostKernelRefS);
  const double sets_per_s =
      busy > 0 ? static_cast<double>(set_s.size()) / busy : 0;
  std::printf("sim_replay: host speed factor %.4f (n=%zu), during set-up "
              "%.4f (n=%zu); raw setup %.5f s, %.4f sets/s\n",
              f, host.samples(), f_setup, setup_host.samples(),
              median_of(setups), sets_per_s);
  e2e.add("setup_s", median_of(setups) / f_setup, "s", setups.size());
  e2e.add("rss_mb", peak_rss_mb(), "MB", 1);
  e2e.add("throughput_per_s", sets_per_s * f, "1/s", set_s.size());
  e2e.add("p50_us", ss.median * 1e6 / f, "us", ss.n);
  e2e.add("tail_us", ss.tail * 1e6 / f, "us", ss.n);
  layer.add("host.speed_factor.sim_replay", f, "ratio", host.samples());

  layer.add("sim.runs_per_s",
            busy > 0 ? static_cast<double>(set_s.size() * order.size()) / busy
                     : 0,
            "1/s", set_s.size() * order.size());
  for (const char* app : kApps) {
    layer.add(std::string("sim.host_s.") + app, median_of(host_s[app]), "s",
              host_s[app].size());
  }
}

}  // namespace mpnjbench
