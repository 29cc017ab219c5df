// kv_open: the sharded KV service served over loopback TCP through the
// reactor, driven open-loop by one generator OS thread outside the runtime.
//
// The generator owns every client socket.  It sends each request when its
// seeded schedule says it is due, whatever the server's state (so a stall
// shows as queueing, not as a slower offered load), times each request from
// its due time to the last byte of its reply, and checks every reply byte
// for byte against a per-connection sequential model.  The runtime sees
// only the generated requests.

#include <netinet/in.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "io/reactor.h"
#include "io/stream.h"
#include "kv/server.h"
#include "kv/service.h"
#include "mp/native_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace mpnjbench {
namespace {

using metrics::Counter;
using metrics::Histo;

const char* kind_name(KvKind k) {
  switch (k) {
    case KvKind::kGet: return "GET";
    case KvKind::kSet: return "SET";
    case KvKind::kRange: return "RANGE";
  }
  return "?";
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Confines the calling thread to CPUs [first, first + count) when the host
// has first + count of them; returns whether it did.
bool pin_thread(int first, int count) {
  if (sysconf(_SC_NPROCESSORS_ONLN) < first + count) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c < first + count; c++) CPU_SET(c, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

struct PhaseResult {
  std::vector<double> lat_us[3];  // due -> last reply byte, by KvKind
  std::vector<double> lag_us;     // due -> handed to the kernel
  double gen_cpu_s = 0;  // generator thread CPU time during the phase
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::size_t backlog = 0;  // requests in flight when the last one was sent
  bool drained = true;
  double start_s = 0;
  double end_s = 0;
};

// How long a phase that missed its drain limit may take to receive its
// remaining replies before the run fails.
constexpr double kSettleS = 30;

class Generator {
 public:
  Generator(const KvShape& shape, Tracer& tracer)
      : shape_(shape), tracer_(tracer) {
    for (int c = 0; c < shape.conns; c++) conns_.emplace_back(c, shape);
  }
  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool connect(std::uint16_t port) {
    for (Conn& c : conns_) {
      c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (c.fd < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0) {
        return false;
      }
      int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    return true;
  }

  // Closed-loop preload of every key (version 0), `window` requests in
  // flight per connection.
  PhaseResult preload(int window) {
    std::vector<KvOp> ops;
    for (std::uint32_t k = 0; k < shape_.keys_per_conn; k++) {
      for (int c = 0; c < shape_.conns; c++) {
        KvOp op;
        op.conn = c;
        op.kind = KvKind::kSet;
        op.key = k;
        ops.push_back(op);
      }
    }
    return run(ops, 10.0, window, false);
  }

  // Open-loop phase: sends each op when due (relative to the phase start),
  // then waits up to `drain_s` for the replies still in flight, and past
  // that until every reply has arrived (see kSettleS).  With
  // `span_every` > 0, every span_every-th completed request is recorded as
  // a span (a span per request would make the generator the bottleneck).
  PhaseResult run(const std::vector<KvOp>& ops, double drain_s, int window,
                  bool record, int span_every = 0) {
    PhaseResult r;
    r.start_s = now_s() + 1e-3;
    const double t0 = r.start_s;
    const double cpu0 = thread_cpu_s();
    std::size_t i = 0;
    double send_end = -1;
    std::vector<pollfd> pfds(conns_.size());
    std::vector<char> buf(1 << 16);
    for (;;) {
      double now = now_s();
      while (i < ops.size() && t0 + ops[i].due_s <= now) {
        const KvOp& op = ops[i];
        Conn& c = conns_[static_cast<std::size_t>(op.conn)];
        if (window > 0 && c.inflight.size() >= static_cast<std::size_t>(window)) {
          break;
        }
        c.check.expect(c.model.apply(op, &c.out));
        c.inflight.push_back({t0 + op.due_s, now, op.kind});
        r.sent++;
        i++;
      }
      for (Conn& c : conns_) {
        if (!flush(c)) return abort_phase(r);
      }
      now = now_s();
      if (i == ops.size() && send_end < 0) {
        send_end = now;
        for (const Conn& c : conns_) r.backlog += c.inflight.size();
      }
      std::size_t inflight = 0;
      for (const Conn& c : conns_) inflight += c.inflight.size();
      if (i == ops.size() && inflight == 0) break;
      // Requests still in flight at the drain limit count as failed for
      // this phase.  Their replies are still received and checked, untimed,
      // so that none is left to be counted against the next phase; a server
      // that does not catch up within kSettleS fails the run.
      if (send_end >= 0 && now > send_end + drain_s && r.drained) {
        r.drained = false;
        r.failed += inflight;
        record = false;
      }
      if (!r.drained && now > send_end + drain_s + kSettleS) {
        return abort_phase(r);
      }

      double wait_s = 1e-3;
      if (i < ops.size()) {
        wait_s = std::clamp(t0 + ops[i].due_s - now, 0.0, 1e-3);
      }
      for (std::size_t k = 0; k < conns_.size(); k++) {
        pfds[k].fd = conns_[k].fd;
        pfds[k].events = POLLIN;
        if (conns_[k].out_pos < conns_[k].out.size()) pfds[k].events |= POLLOUT;
        pfds[k].revents = 0;
      }
      timespec ts{};
      ts.tv_nsec = static_cast<long>(wait_s * 1e9);
      if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 &&
          errno != EINTR) {
        return abort_phase(r);
      }
      for (std::size_t k = 0; k < conns_.size(); k++) {
        if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& c = conns_[k];
        for (;;) {
          const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), MSG_DONTWAIT);
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          if (n <= 0) return abort_phase(r);  // the server closed on us
          const double t = now_s();
          std::size_t done = 0;
          if (!c.check.feed(buf.data(), static_cast<std::size_t>(n), &done)) {
            std::fprintf(stderr, "kv_open: conn %d: reply mismatch\n", c.id);
            return abort_phase(r);
          }
          for (std::size_t d = 0; d < done; d++) {
            const Pending p = c.inflight.front();
            c.inflight.pop_front();
            r.completed++;
            if (!record) continue;
            r.lat_us[static_cast<int>(p.kind)].push_back((t - p.due) * 1e6);
            r.lag_us.push_back(std::max(0.0, p.sent - p.due) * 1e6);
            if (span_every > 0 && r.completed % span_every == 0) {
              char args[160];
              std::snprintf(args, sizeof args,
                            "\"conn\": %d, \"due_us\": %.3f, \"sent_us\": "
                            "%.3f, \"replied_us\": %.3f",
                            c.id, (p.due - t0) * 1e6, (p.sent - t0) * 1e6,
                            (t - t0) * 1e6);
              tracer_.span("kv.request", kind_name(p.kind), 100 + c.id,
                           p.due, t, args);
            }
          }
        }
      }
    }
    r.end_s = now_s();
    r.gen_cpu_s = thread_cpu_s() - cpu0;
    return r;
  }

 private:
  struct Pending {
    double due;
    double sent;
    KvKind kind;
  };
  struct Conn {
    Conn(int c, const KvShape& shape) : id(c), model(c, shape) {}
    int id;
    int fd = -1;
    ConnModel model;
    ReplyChecker check;
    std::deque<Pending> inflight;
    std::string out;
    std::size_t out_pos = 0;
  };

  static bool flush(Conn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      c.out_pos += static_cast<std::size_t>(n);
    }
    c.out.clear();
    c.out_pos = 0;
    return true;
  }

  PhaseResult& abort_phase(PhaseResult& r) {
    for (Conn& c : conns_) {
      r.failed += c.inflight.size();
      c.inflight.clear();
    }
    r.failed = std::max<std::uint64_t>(r.failed, 1);
    r.drained = false;
    r.end_s = now_s();
    broken_ = true;
    return r;
  }

 public:
  bool broken() const { return broken_; }

 private:
  KvShape shape_;
  Tracer& tracer_;
  std::vector<Conn> conns_;
  bool broken_ = false;
};

struct StepResult {
  double rate = 0;
  bool pass = false;
  double get_p90_us = 0;
  double get_p99_us = 0;
  double lag_p99_us = 0;
  std::size_t backlog = 0;
};

// One server lifetime: platform, scheduler, service, reactor, listener and
// `conns` accepted connections, with `client` run on the generator thread
// once the port is known.  Returns the seconds from entry until the client
// reported set-up complete.
template <typename Client>
double serve_once(int procs, const KvShape& shape, Client&& client) {
  const double t0 = now_s();
  std::atomic<double> setup_done{0};
  // The procs share CPUs 0..procs-1 and the generator has the next one to
  // itself, so load generation never takes CPU time from a proc.  Proc
  // threads inherit the mask of the thread that starts them.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  pthread_getaffinity_np(pthread_self(), sizeof saved, &saved);
  const bool pinned = pin_thread(0, procs + 1) && pin_thread(0, procs);
  mp::NativePlatformConfig pcfg;
  pcfg.max_procs = procs;
  mp::NativePlatform platform(pcfg);
  mp::threads::Scheduler::run(
      platform, {}, [&](mp::threads::Scheduler& s) {
        mp::kv::KvConfig kcfg;
        kcfg.shards = procs;
        mp::kv::KvService svc(s, kcfg);
        svc.start();
        auto reactor = std::make_unique<mp::io::Reactor>(s);
        mp::io::Listener lis = mp::io::Listener::tcp(*reactor, 0, 64);
        mp::threads::CountdownLatch served(s, shape.conns);
        s.fork([&] {
          for (int c = 0; c < shape.conns; c++) {
            mp::io::Stream st = lis.accept();
            s.fork([&svc, &served, st] {
              mp::kv::serve(svc, mp::io::Duplex{st, st});
              served.count_down();
            });
          }
        });
        std::atomic<bool> finished{false};
        const std::uint16_t port = lis.port();
        std::thread gen([&] {
          prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
          if (pinned) pin_thread(procs, 1);
          client(port, [&] { setup_done.store(now_s()); });
          finished.store(true);
        });
        while (!finished.load()) s.sleep_for(2000);
        gen.join();
        served.await();
        svc.stop();
        lis.close();
        reactor.reset();
      });
  if (pinned) pthread_setaffinity_np(pthread_self(), sizeof saved, &saved);
  const double done = setup_done.load();
  return done > 0 ? done - t0 : -1;
}

double max_pass(const std::vector<StepResult>& steps) {
  double m = 0;
  for (const StepResult& s : steps) {
    if (s.pass) m = std::max(m, s.rate);
  }
  return m;
}

double pct(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

}  // namespace

void run_kv_open(const Options& opt, double seconds, Tracer& tracer,
                 Report& e2e, Report& layer, Outcome& out) {
  KvShape shape;
  shape.conns = kKvConns;
  shape.keys_per_conn = kKvKeysPerConn;
  shape.value_bytes = kKvValueBytes;
  const int procs = kKvProcs;
  const double ref_rate = opt.kv_ref_rate;
  if (ref_rate <= 0) {
    out.fail(1, "kv_open needs --ref-rate");
    return;
  }
  // About a dozen ladder steps share what the reference phase leaves.
  const double step_s = seconds * (1 - kKvRefShare) / 12;

  std::vector<double> setups;
  PhaseResult ref;
  std::vector<StepResult> steps;
  Delta ref_delta;
  double ref_rss_mb = 0;
  // Host speed is sampled on the procs' CPUs while no runtime exists:
  // before the first server and after each one has been torn down.
  HostSpeed host;
  std::vector<double> wake_rtts;
  auto sample_host = [&] {
    cpu_set_t saved;
    CPU_ZERO(&saved);
    pthread_getaffinity_np(pthread_self(), sizeof saved, &saved);
    const bool moved = pin_thread(0, procs);
    for (int k = 0; k < 3; k++) host.sample();
    if (moved) pthread_setaffinity_np(pthread_self(), sizeof saved, &saved);
    wake_rtts.push_back(wake_rtt_s(kHostWakeRoundTrips));
  };
  // Every measured phase -- the reference phase and each ladder step -- runs
  // on a server of its own: set-up (which ends when the preload is done),
  // a warm-up at the reference rate, the phase, teardown.  So host speed is
  // sampled between phases while no runtime exists, no phase inherits
  // another's backlog, and set-up is timed once per phase.
  auto lifetime = [&](auto&& phase) {
    const double setup = serve_once(
        procs, shape, [&](std::uint16_t port, auto&& ready) {
          Generator gen(shape, tracer);
          const double t0 = now_s();
          PhaseResult pre;
          if (gen.connect(port)) pre = gen.preload(256);
          tracer.span("kv", "setup", 1, t0, now_s());
          out.attempted += pre.sent;
          if (gen.broken() || pre.failed > 0 || pre.sent == 0) {
            out.fail(std::max<std::uint64_t>(pre.failed, 1), "kv preload");
            return;
          }
          ready();
          const PhaseResult warm = gen.run(
              make_schedule(mix_seed(opt.seed, 1), ref_rate, kKvWarmUpS, shape),
              2.0, 0, false);
          out.attempted += warm.sent;
          if (warm.failed > 0) out.fail(warm.failed, "kv warm-up");
          if (!out.correct) return;
          phase(gen);
          if (gen.broken()) out.fail(1, "kv connection");
        });
    if (setup < 0) {
      out.fail(1, "kv server set-up");
      return false;
    }
    setups.push_back(setup);
    return out.correct;
  };

  Delta run_delta = delta_start();
  sample_host();
  bool ok = lifetime([&](Generator& gen) {
    ref_delta = delta_start();
    ref = gen.run(make_schedule(mix_seed(opt.seed, 2), ref_rate,
                                seconds * kKvRefShare, shape),
                  2.0, 0, true, tracer.enabled() ? 8 : 0);
    delta_stop(ref_delta);
    // Peak memory at the reference load: the overloaded ladder steps below
    // queue a backlog whose size depends on how they fall.
    ref_rss_mb = peak_rss_mb();
    tracer.span("kv", "reference", 1, ref.start_s, ref.end_s);
    out.attempted += ref.sent;
    if (ref.failed > 0) out.fail(ref.failed, "kv reference phase");
  });
  sample_host();
  // The ladder: fixed offered rates ref_rate * kKvStepFactor^k for
  // k = 0..kKvLadderSteps.  A step passes when its GET p90 meets the limit,
  // its backlog stays flat and no operation fails; the highest passing step
  // is found by bisection.  A missed step is run once more before it
  // counts, so one host hiccup does not decide the result.
  int lo = -1;                  // highest step known to pass
  int hi = kKvLadderSteps + 1;  // lowest step known to miss
  for (int k = 0; ok && lo + 1 < hi; k++) {
    const int mid = lo < 0 ? 0 : (lo + hi) / 2;
    const double rate = ref_rate * std::pow(kKvStepFactor, mid);
    bool pass = false;
    for (int attempt = 0; ok && attempt < 2 && !pass; attempt++) {
      ok = lifetime([&](Generator& gen) {
        const PhaseResult st = gen.run(
            make_schedule(mix_seed(opt.seed, 100 + 2 * k + attempt), rate,
                          step_s, shape),
            2.0, 0, true);
        out.attempted += st.sent;
        StepResult sr;
        sr.rate = rate;
        sr.get_p90_us = pct(st.lat_us[0], 0.90);
        sr.get_p99_us = pct(st.lat_us[0], 0.99);
        sr.lag_p99_us = pct(st.lag_us, 0.99);
        sr.backlog = st.backlog;
        // A step that could not drain is overload, not a wrong reply.
        sr.pass = st.failed == 0 && st.drained &&
                  sr.get_p90_us <= kKvGetP90LimitUs &&
                  static_cast<double>(st.backlog) <=
                      std::max(8.0, rate * kKvBacklogLimitUs * 1e-6);
        steps.push_back(sr);
        char name[48];
        std::snprintf(name, sizeof name, "ladder %.0f/s", rate);
        tracer.span("kv", name, 1, st.start_s, st.end_s);
        pass = sr.pass;
      });
      sample_host();
    }
    (pass ? lo : hi) = mid;
    if (!pass && mid == 0) break;
  }
  if (!ok) return;
  delta_stop(run_delta);

  const double max_rate = max_pass(steps);
  for (const StepResult& s : steps) {
    std::printf(
        "kv ladder: %9.0f ops/s  get p90 %9.1f p99 %9.1f us  lag_p99 %7.1f us  "
        "backlog %5zu  %s\n",
        s.rate, s.get_p90_us, s.get_p99_us, s.lag_p99_us, s.backlog,
        s.pass ? "pass" : "FAIL");
  }

  std::vector<double> all;
  for (const auto& v : ref.lat_us) all.insert(all.end(), v.begin(), v.end());
  const Summary s_all = summarize(all, kE2eTailLevel);
  const Summary s_get = summarize(ref.lat_us[0]);
  const Summary s_set = summarize(ref.lat_us[1]);
  const Summary s_range = summarize(ref.lat_us[2]);
  const Summary s_lag = summarize(ref.lag_us);
  std::printf(
      "kv reference %.0f ops/s: get p50 %.1f p%g %.1f us (n=%zu)  set p%g "
      "%.1f us (n=%zu)  range p%g %.1f us (n=%zu)  lag p%g %.1f us\n",
      ref_rate, s_get.median, s_get.tail_level, s_get.tail, s_get.n,
      s_set.tail_level, s_set.tail, s_set.n, s_range.tail_level, s_range.tail,
      s_range.n, s_lag.tail_level, s_lag.tail);

  const double f = host.factor(kHostKernelRefS);
  // Latency at the reference rate is bound by wake-ups more than by CPU
  // speed, so it is divided by the wake factor (see NOTES.md).
  const double f_wake = median_of(wake_rtts) / kHostWakeRefS;
  std::printf("kv: host speed factor %.4f (n=%zu), wake factor %.4f (n=%zu); "
              "raw setup %.4f s, kv_max %.0f ops/s, p50 %.2f us, p%g %.2f us\n",
              f, host.samples(), f_wake, wake_rtts.size(), median_of(setups),
              max_rate, s_all.median, s_all.tail_level, s_all.tail);
  e2e.add("setup_s", median_of(setups) / f, "s", setups.size());
  e2e.add("rss_mb", ref_rss_mb, "MB", 1);
  e2e.add("throughput_per_s", max_rate * f, "1/s", steps.size());
  e2e.add("p50_us", s_all.median / f_wake, "us", s_all.n);
  e2e.add("tail_us", s_all.tail / f_wake, "us", s_all.n);
  layer.add("host.speed_factor.kv_open", f, "ratio", host.samples());
  layer.add("host.wake_factor.kv_open", f_wake, "ratio", wake_rtts.size());

  const double reqs = std::max<double>(1, static_cast<double>(ref.completed));
  const Delta& d = ref_delta;
  layer.add("kv.get_p50_us", s_get.median, "us", s_get.n);
  layer.add("kv.get_p99_us", s_get.tail, "us", s_get.n);
  layer.add("kv.set_p99_us", s_set.tail, "us", s_set.n);
  layer.add("kv.range_p99_us", s_range.tail, "us", s_range.n);
  layer.add("gen.lag_p99_us", s_lag.tail, "us", s_lag.n);
  layer.add("gen.cpu_share",
            ref.gen_cpu_s / std::max(1e-9, ref.end_s - ref.start_s), "ratio",
            1);
  layer.add("threads.dispatches_per_req",
            d.counter(Counter::kSchedDispatches) / reqs, "count", ref.completed);
  layer.add("threads.parks_per_req", d.counter(Counter::kSchedParkWaits) / reqs,
            "count", ref.completed);
  const double attempts = d.counter(Counter::kSchedStealAttempts);
  layer.add("threads.steal_commit_ratio",
            attempts > 0 ? d.counter(Counter::kSchedStealCommits) / attempts : 0,
            "ratio", static_cast<std::size_t>(attempts));
  const double commits =
      d.counter(Counter::kCmlSends) + d.counter(Counter::kCmlRecvs);
  layer.add("cml.select_retries_per_commit",
            commits > 0 ? d.counter(Counter::kCmlSelectRetries) / commits : 0,
            "count", static_cast<std::size_t>(commits));
  const double batches = d.counter(Counter::kIoDispatchBatches);
  layer.add("io.wakeups_per_batch",
            batches > 0 ? d.counter(Counter::kIoWakeups) / batches : 0, "count",
            static_cast<std::size_t>(batches));
  const double pool = run_delta.counter(Counter::kContPoolHits) +
                      run_delta.counter(Counter::kContPoolMisses);
  layer.add("cont.pool_hit_ratio",
            pool > 0 ? run_delta.counter(Counter::kContPoolHits) / pool : 0,
            "ratio", static_cast<std::size_t>(pool));
  const struct {
    const char* name;
    Histo h;
  } histos[] = {
      {"kv.queue_p99_us.get", Histo::kKvQueueUsGet},
      {"kv.queue_p99_us.set", Histo::kKvQueueUsSet},
      {"kv.queue_p99_us.range", Histo::kKvQueueUsRange},
      {"kv.req_p99_us.get", Histo::kKvReqUsGet},
      {"kv.req_p99_us.set", Histo::kKvReqUsSet},
      {"kv.req_p99_us.range", Histo::kKvReqUsRange},
  };
  for (const auto& h : histos) {
    layer.add(h.name, d.histo_quantile(h.h, 0.99), "us", d.histo_count(h.h));
  }
}

}  // namespace mpnjbench
