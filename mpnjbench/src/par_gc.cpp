// par_gc: back-to-back verified jobs of two Figure 6 applications, scaled
// up, on native procs.  Closed loop: the next job starts when the previous
// one ends.  Almost all of the time is allocation, the store barrier, the
// parallel copier and fork/join; no I/O, KV or CML code runs.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "mp/native_platform.h"
#include "threads/scheduler.h"
#include "workloads/workload.h"

namespace mpnjbench {

void run_par_gc(const Options& opt, double seconds, Tracer& tracer,
                Report& e2e, Report& layer, Outcome& out) {
  using metrics::Counter;
  const int procs = kGcProcs;
  std::vector<double> setups;
  std::vector<double> job_s;
  std::vector<double> allpairs_s;
  std::vector<double> abisort_s;
  Delta d;
  HostSpeed host;
  std::uint64_t job_index = 0;

  // One job: fresh seeded inputs for both apps, run each on all procs,
  // verify each against its sequential reference.  Returns the seconds the
  // two runs took (input generation and verification are not timed).
  auto job = [&](mp::threads::Scheduler& s, bool record) {
    const std::uint64_t js = mix_seed(opt.seed, job_index++);
    const std::unique_ptr<mp::workloads::Workload> apps[] = {
        mp::workloads::make_allpairs(kGcAllpairsNodes, js),
        mp::workloads::make_abisort(kGcAbisortLog2, js)};
    double total = 0;
    for (const auto& app : apps) {
      const double t0 = now_s();
      app->run(s, procs);
      const double t1 = now_s();
      tracer.span("workloads", app->name(), 2, t0, t1);
      total += t1 - t0;
      out.attempted++;
      if (!app->verify()) out.fail(1, std::string("par_gc: ") + app->name());
      if (record) {
        (std::string(app->name()) == "allpairs" ? allpairs_s : abisort_s)
            .push_back(t1 - t0);
      }
    }
    return total;
  };

  // The jobs run in platform lifetimes of about kGcLifetimeS each, so that
  // host speed can be sampled between them, while no runtime exists.  A
  // lifetime's set-up is its platform plus one warm-up job: heap pages,
  // stack slots and parked proc threads are then in place for the measured
  // jobs.
  auto sample_host = [&] {
    for (int k = 0; k < 3; k++) host.sample();
  };
  const double end = now_s() + seconds;
  while (out.correct && (setups.empty() || now_s() < end)) {
    sample_host();
    const double t0 = now_s();
    mp::NativePlatformConfig pcfg;
    pcfg.max_procs = procs;
    mp::NativePlatform platform(pcfg);
    mp::threads::Scheduler::run(
        platform, {}, [&](mp::threads::Scheduler& s) {
          job(s, false);
          setups.push_back(now_s() - t0);
          tracer.span("gc", "setup", 2, t0, now_s());
          const metrics::Snapshot from = metrics::registry().snapshot();
          const double stop = std::min(end, now_s() + kGcLifetimeS);
          do {
            const double j0 = now_s();
            job_s.push_back(job(s, true));
            tracer.span("gc", "job", 1, j0, now_s());
          } while (now_s() < stop && out.correct);
          delta_add(d, from);
        });
  }
  sample_host();

  const Summary sj = summarize(job_s, kE2eTailLevel);
  double busy = 0;
  for (const double j : job_s) busy += j;
  const double jobs = static_cast<double>(job_s.size());
  std::printf("par_gc: %zu jobs, job p50 %.1f ms, p%g %.1f ms\n", job_s.size(),
              sj.median * 1e3, sj.tail_level, sj.tail * 1e3);

  const double f = host.factor(kHostKernelRefS);
  std::printf("par_gc: host speed factor %.4f (n=%zu); raw setup %.4f s, "
              "%.4f jobs/s\n",
              f, host.samples(), median_of(setups), busy > 0 ? jobs / busy : 0);
  e2e.add("setup_s", median_of(setups) / f, "s", setups.size());
  e2e.add("rss_mb", peak_rss_mb(), "MB", 1);
  e2e.add("throughput_per_s", busy > 0 ? jobs / busy * f : 0, "1/s",
          job_s.size());
  e2e.add("p50_us", sj.median * 1e6 / f, "us", sj.n);
  e2e.add("tail_us", sj.tail * 1e6 / f, "us", sj.n);
  layer.add("host.speed_factor.par_gc", f, "ratio", host.samples());

  layer.add("gc.jobs_per_s", busy > 0 ? jobs / busy : 0, "1/s", job_s.size());
  layer.add("threads.dispatches_per_job",
            jobs > 0 ? d.counter(Counter::kSchedDispatches) / jobs : 0, "count",
            job_s.size());
  layer.add("gc.minor_pause_p50_us",
            d.histo_quantile(metrics::Histo::kGcMinorPauseUs, 0.5), "us",
            d.histo_count(metrics::Histo::kGcMinorPauseUs));
  layer.add("gc.minor_pause_p99_us",
            d.histo_quantile(metrics::Histo::kGcMinorPauseUs, 0.99), "us",
            d.histo_count(metrics::Histo::kGcMinorPauseUs));
  layer.add("gc.pause_share",
            busy > 0 ? d.counter(Counter::kGcPauseUsTotal) / (busy * 1e6) : 0,
            "ratio", job_s.size());
  const double alloc_words = d.counter(Counter::kGcAllocWords);
  layer.add("gc.copied_per_alloc_word",
            alloc_words > 0 ? d.counter(Counter::kGcWordsCopied) / alloc_words
                            : 0,
            "ratio", static_cast<std::size_t>(d.counter(Counter::kGcMinor)));
  layer.add("workloads.allpairs_s", median_of(allpairs_s), "s",
            allpairs_s.size());
  layer.add("workloads.abisort_s", median_of(abisort_s), "s",
            abisort_s.size());
}

}  // namespace mpnjbench
