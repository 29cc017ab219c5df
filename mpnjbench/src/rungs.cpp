// The rung ladder: the cost of one public call into each layer, from the
// context switch up to a KV request submitted to its shard.  Each rung runs
// batches of ~20 ms and reports the median per-call time over `reps`
// batches, so a rung's cost can be set against the rungs below it.  All
// rungs run on one proc, with nothing else runnable, to measure the call
// itself rather than contention.

#include <functional>
#include <string>
#include <vector>

#include "arch/ctx.h"
#include "bench.h"
#include "cml/cml.h"
#include "cml/mailbox.h"
#include "cont/cont.h"
#include "cont/exec.h"
#include "cont/segment.h"
#include "gc/roots.h"
#include "io/reactor.h"
#include "io/stream.h"
#include "kv/proto.h"
#include "kv/service.h"
#include "kv/store.h"
#include "mp/native_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace mpnjbench {
namespace {

using mp::threads::Scheduler;

constexpr double kBatchS = 0.02;

// Runs `op` in batches of about kBatchS and returns the median seconds per
// call over `reps` batches, each recorded as one span.
double time_rung(Tracer& tracer, const char* name, int reps,
                 const std::function<void()>& op) {
  // Calibrate the batch size on a short warm-up.
  long n = 0;
  const double w0 = now_s();
  while (now_s() - w0 < kBatchS / 4) {
    for (int i = 0; i < 16; i++) op();
    n += 16;
  }
  const double per = (now_s() - w0) / static_cast<double>(n);
  const long batch = std::max(16L, static_cast<long>(kBatchS / per));
  std::vector<double> v;
  for (int r = 0; r < reps; r++) {
    const double t0 = now_s();
    for (long i = 0; i < batch; i++) op();
    const double t1 = now_s();
    tracer.span("rung", name, 3, t0, t1);
    v.push_back((t1 - t0) / static_cast<double>(batch));
  }
  return median_of(v);
}

void one_proc(const std::function<void(Scheduler&)>& body) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 1;
  mp::NativePlatform p(cfg);
  Scheduler::run(p, {}, body);
}

// ---- arch ----

struct SwapPair {
  mp::arch::Context main_ctx;
  mp::arch::Context side_ctx;
};

void side_loop(void* arg) {
  auto* sp = static_cast<SwapPair*>(arg);
  for (;;) mp::arch::ctx_swap(sp->side_ctx, sp->main_ctx);
}

double ctx_swap_ns(Tracer& tr, int reps) {
  std::vector<unsigned char> stack(256 * 1024);
  SwapPair sp;
  mp::arch::ctx_make(sp.side_ctx, stack.data(), stack.size(), side_loop, &sp);
  // One op is a round trip: two switches.
  return time_rung(tr, "arch.ctx_swap", reps, [&] {
           mp::arch::ctx_swap(sp.main_ctx, sp.side_ctx);
         }) * 1e9 / 2;
}

// ---- cont ----

class ManualProc {
 public:
  ManualProc() {
    exec_.idle_ctx = &idle_ctx_;
    mp::cont::set_current_exec(&exec_);
  }
  ~ManualProc() { mp::cont::set_current_exec(nullptr); }
  ManualProc(const ManualProc&) = delete;
  ManualProc& operator=(const ManualProc&) = delete;
  void run(std::function<void()> f) {
    mp::cont::run_from_idle(mp::cont::make_entry(std::move(f)), exec_);
  }

 private:
  mp::cont::ExecContext exec_;
  mp::arch::Context idle_ctx_;
};

volatile int g_sink = 0;

void cont_rungs(Tracer& tr, int reps, Report& layer) {
  auto& pool = mp::cont::SegmentPool::instance();
  layer.add("cont.segment_acquire_ns",
            time_rung(tr, "cont.segment_acquire", reps,
                      [&] {
                        auto* seg = pool.acquire();
                        seg->drop_ref();
                      }) * 1e9,
            "ns", static_cast<std::size_t>(reps));
  ManualProc proc;
  double throw_s = 0;
  double return_s = 0;
  proc.run([&] {
    throw_s = time_rung(tr, "cont.callcc_throw", reps, [] {
      g_sink = mp::cont::callcc<int>([](mp::cont::Cont<int> k) -> int {
        mp::cont::throw_to(std::move(k), 1);
      });
    });
    return_s = time_rung(tr, "cont.callcc_return", reps, [] {
      g_sink = mp::cont::callcc<int>([](mp::cont::Cont<int>) -> int {
        return 2;
      });
    });
  });
  layer.add("cont.callcc_throw_ns", throw_s * 1e9, "ns",
            static_cast<std::size_t>(reps));
  layer.add("cont.callcc_return_ns", return_s * 1e9, "ns",
            static_cast<std::size_t>(reps));
}

// ---- mp, threads, cml, gc ----

void runtime_rungs(Tracer& tr, int reps, Report& layer) {
  const auto n = static_cast<std::size_t>(reps);
  {
    mp::NativePlatformConfig cfg;
    cfg.max_procs = 1;
    mp::NativePlatform p(cfg);
    p.run([&] {
      const mp::MutexLock l = p.mutex_lock();
      layer.add("mp.lock_pair_ns", time_rung(tr, "mp.lock_pair", reps, [&] {
                  p.lock(l);
                  p.unlock(l);
                }) * 1e9,
                "ns", n);
    });
  }
  one_proc([&](Scheduler& s) {
    layer.add("threads.yield_ns",
              time_rung(tr, "threads.yield", reps, [&] { s.yield(); }) * 1e9,
              "ns", n);
  });
  one_proc([&](Scheduler& s) {
    // The partner is joined before the root returns, so the stop flag it
    // polls outlives it.
    std::atomic<bool> stop{false};
    mp::threads::CountdownLatch joined(s, 1);
    s.fork([&] {
      while (!stop.load(std::memory_order_relaxed)) s.yield();
      joined.count_down();
    });
    // Each yield runs the partner once: one op is two switches.
    layer.add("threads.yield_pingpong_ns",
              time_rung(tr, "threads.yield_pingpong", reps,
                        [&] { s.yield(); }) * 1e9,
              "ns", n);
    stop.store(true);
    joined.await();
  });
  one_proc([&](Scheduler& s) {
    layer.add("threads.fork_join_ns",
              time_rung(tr, "threads.fork_join", reps,
                        [&] {
                          mp::threads::CountdownLatch latch(s, 1);
                          s.fork([&] { latch.count_down(); });
                          latch.await();
                        }) * 1e9,
              "ns", n);
  });
  one_proc([&](Scheduler& s) {
    mp::threads::Mutex m(s);
    layer.add("threads.mutex_ns", time_rung(tr, "threads.mutex", reps, [&] {
                m.lock();
                m.unlock();
              }) * 1e9,
              "ns", n);
  });
  one_proc([&](Scheduler& s) {
    mp::cml::Channel<int> ping(s), pong(s);
    mp::threads::CountdownLatch joined(s, 1);
    s.fork([&] {
      for (;;) {
        const int v = ping.recv();
        if (v < 0) break;
        pong.send(v);
      }
      joined.count_down();
    });
    layer.add("cml.chan_rtt_ns", time_rung(tr, "cml.chan_rtt", reps, [&] {
                ping.send(1);
                g_sink = pong.recv();
              }) * 1e9,
              "ns", n);
    ping.send(-1);
    joined.await();
  });
  one_proc([&](Scheduler& s) {
    mp::cml::Mailbox<int> ping(s), pong(s);
    mp::threads::CountdownLatch joined(s, 1);
    s.fork([&] {
      for (;;) {
        const int v = ping.recv();
        if (v < 0) break;
        pong.send(v);
      }
      joined.count_down();
    });
    layer.add("cml.mailbox_rtt_ns", time_rung(tr, "cml.mailbox_rtt", reps, [&] {
                ping.send(1);
                g_sink = pong.recv();
              }) * 1e9,
              "ns", n);
    ping.send(-1);
    joined.await();
  });
  {
    mp::NativePlatformConfig cfg;
    cfg.max_procs = 1;
    cfg.heap.nursery_bytes = 8u << 20;
    mp::NativePlatform p(cfg);
    p.run([&] {
      auto& h = p.heap();
      using mp::gc::Value;
      layer.add("gc.alloc_ref_ns", time_rung(tr, "gc.alloc_ref", reps, [&] {
                  g_sink = static_cast<int>(
                      h.alloc_ref(Value::from_int(3)).raw_bits() & 1);
                }) * 1e9,
                "ns", n);
      layer.add("gc.alloc_record_ns",
                time_rung(tr, "gc.alloc_record", reps, [&] {
                  g_sink = static_cast<int>(
                      h.alloc_record({Value::from_int(1), Value::from_int(2)})
                          .raw_bits() &
                      1);
                }) * 1e9,
                "ns", n);
      mp::gc::Roots<1> r;
      r[0] = h.alloc_array(64, Value::from_int(0));
      h.collect_now();  // promote: stores now take the old-generation barrier
      std::size_t i = 0;
      layer.add("gc.store_ns", time_rung(tr, "gc.store", reps, [&] {
                  h.store(r[0], i++ & 63, Value::from_int(1));
                }) * 1e9,
                "ns", n);
    });
  }
}

// ---- io, kv ----

void io_kv_rungs(Tracer& tr, int reps, Report& layer) {
  const auto n = static_cast<std::size_t>(reps);
  one_proc([&](Scheduler& s) {
    mp::io::Reactor reactor(s);
    mp::io::Listener lis = mp::io::Listener::tcp(reactor);
    mp::threads::CountdownLatch served(s, 1);
    s.fork([&] {
      mp::io::Stream srv = lis.accept();
      char buf[64];
      for (;;) {
        const std::size_t got = srv.read_some(buf, sizeof buf);
        if (got == 0) break;
        srv.write_all(buf, got);
      }
      srv.close();
      served.count_down();
    });
    mp::io::Stream cli = mp::io::Stream::connect_tcp(reactor, lis.port());
    char payload[64] = {};
    char reply[64];
    layer.add("io.tcp_rtt_us", time_rung(tr, "io.tcp_rtt", reps, [&] {
                cli.write_all(payload, sizeof payload);
                cli.read_exact(reply, sizeof reply);
              }) * 1e6,
              "us", n);
    cli.close();
    served.await();
    lis.close();
  });

  {
    // One frame per call: a GET, a SET or a RANGE, in the workload's mix.
    std::string wire;
    for (int i = 0; i < 20; i++) {
      const std::string k = kv_key(i & 3, static_cast<std::uint32_t>(i * 97));
      if (i % 20 == 19) {
        mp::kv::encode_range(&wire, k, kv_key(i & 3, i * 97 + 15), 8);
      } else if (i % 20 >= 16) {
        mp::kv::encode_set(&wire, k, kv_value(i & 3, i, 1, 32));
      } else {
        mp::kv::encode_get(&wire, k);
      }
    }
    mp::kv::FrameParser parser;
    mp::kv::Request req;
    layer.add("kv.parse_ns", time_rung(tr, "kv.parse", reps, [&] {
                parser.feed(wire.data(), wire.size());
                while (parser.next(&req)) g_sink = static_cast<int>(req.op);
              }) * 1e9 / 20,
              "ns", n);
  }
  {
    mp::kv::ShardStore store(7);
    constexpr std::uint32_t kKeys = 16384;
    std::vector<std::string> keys;
    for (std::uint32_t k = 0; k < kKeys; k++) {
      keys.push_back(kv_key(0, k));
      store.set(keys.back(), kv_value(0, k, 0, 32));
    }
    const std::string v = kv_value(0, 1, 1, 32);
    std::uint32_t i = 0;
    layer.add("kv.store_get_ns", time_rung(tr, "kv.store_get", reps, [&] {
                g_sink = store.get(keys[(i += 7919) % kKeys]) != nullptr;
              }) * 1e9,
              "ns", n);
    layer.add("kv.store_set_ns", time_rung(tr, "kv.store_set", reps, [&] {
                g_sink = store.set(keys[(i += 7919) % kKeys], v);
              }) * 1e9,
              "ns", n);
  }
  one_proc([&](Scheduler& s) {
    mp::kv::KvConfig cfg;
    cfg.shards = 1;
    mp::kv::KvService svc(s, cfg);
    svc.start();
    mp::cml::Mailbox<std::uint64_t> reply(s);
    mp::kv::KvReq r;
    r.req.op = mp::kv::Op::kSet;
    r.req.key = "rung";
    r.req.value = "value";
    r.reply = &reply;
    svc.submit(&r);
    (void)reply.recv();
    r.req.op = mp::kv::Op::kGet;
    layer.add("kv.submit_rtt_us", time_rung(tr, "kv.submit_rtt", reps, [&] {
                r.out.clear();
                svc.submit(&r);
                (void)reply.recv();
              }) * 1e6,
              "us", n);
    svc.stop();
  });
}

}  // namespace

void run_rungs(int reps, Tracer& tracer, Report& layer) {
  layer.add("arch.ctx_swap_ns", ctx_swap_ns(tracer, reps), "ns",
            static_cast<std::size_t>(reps));
  cont_rungs(tracer, reps, layer);
  runtime_rungs(tracer, reps, layer);
  io_kv_rungs(tracer, reps, layer);
}

}  // namespace mpnjbench
