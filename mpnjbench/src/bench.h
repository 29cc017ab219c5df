#pragma once

// The benchmark's workloads and rungs, each run against the runtime's
// public API.  A workload fills `e2e` with the end-to-end metrics a user
// sees and `layer` with per-layer metrics read from its own spans and from
// deltas of the runtime's metrics registry.

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common.h"
#include "metrics/metrics.h"

namespace mpnjbench {

namespace metrics = mp::metrics;

// The benchmark's constants.  Every commit runs the same load; the only
// values kept as data are the reference rate and the simulator pins
// (pins.json), which run.py passes on the command line.
inline constexpr int kKvProcs = 3;
inline constexpr int kKvConns = 4;
inline constexpr std::uint32_t kKvKeysPerConn = 4096;
inline constexpr int kKvValueBytes = 32;
inline constexpr double kKvWarmUpS = 0.3;  // per server, at the ref rate
inline constexpr double kKvRefShare = 0.3;  // of the run: reference phase
inline constexpr int kKvLadderSteps = 80;
inline constexpr double kKvStepFactor = 1.025;
inline constexpr double kKvGetP90LimitUs = 2000;
// A flat backlog: at most this much offered load still in flight when a
// ladder step's last request is sent.
inline constexpr double kKvBacklogLimitUs = 10000;
inline constexpr int kGcProcs = 3;
inline constexpr int kGcAllpairsNodes = 150;
inline constexpr int kGcAbisortLog2 = 16;
// The jobs run in platform lifetimes of this length (see par_gc.cpp).
inline constexpr double kGcLifetimeS = 2.5;
inline constexpr int kSimSetupReps = 60;
// The host-speed kernel's time on an unloaded host (HostSpeed), and the
// wake-up round trip (wake_rtt_s, over this many round trips).
inline constexpr double kHostKernelRefS = 0.05;
inline constexpr double kHostWakeRefS = 13e-6;
inline constexpr int kHostWakeRoundTrips = 1000;
// Traced runs: the time given to each workload other than the named one.
inline constexpr double kTraceOtherS = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // measured time of the named workload
  bool trace = false;
  std::string trace_path;
  double kv_ref_rate = 0;  // ops/s of kv_open's reference phase
  // sim_replay's pins: app -> (exact virtual time in us, checksum).
  std::map<std::string, std::pair<double, std::uint64_t>> sim_expect;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  void fail(std::uint64_t n, const std::string& why);
};

// Each runs for about `seconds`; `tracer` is enabled only in traced runs.
void run_kv_open(const Options& opt, double seconds, Tracer& tracer,
                 Report& e2e, Report& layer, Outcome& out);
void run_par_gc(const Options& opt, double seconds, Tracer& tracer,
                Report& e2e, Report& layer, Outcome& out);
void run_sim_replay(const Options& opt, double seconds, Tracer& tracer,
                    Report& e2e, Report& layer, Outcome& out);

// Prints one "sim_expect <app> <virtual_us> <checksum>" line per replay
// app: the values pins.json holds.
void record_sim_replay();

// The rung ladder: per-call costs of each layer's public calls, as the
// median of `reps` repetitions.  Names are the per-layer metric names.
void run_rungs(int reps, Tracer& tracer, Report& layer);

// Metrics-registry deltas.
struct Delta {
  metrics::Snapshot before;
  metrics::Snapshot after;
  double counter(metrics::Counter c) const {
    return static_cast<double>(after.counter(c) - before.counter(c));
  }
  // Quantile of the histogram delta, interpolated inside its log2 bucket.
  double histo_quantile(metrics::Histo h, double q) const;
  std::uint64_t histo_count(metrics::Histo h) const {
    return after.histo(h).count - before.histo(h).count;
  }
};
Delta delta_start();
void delta_stop(Delta& d);
// Adds the registry's change since `from` to a delta that started empty, so
// one delta can sum several measured windows.
void delta_add(Delta& d, const metrics::Snapshot& from);

}  // namespace mpnjbench
