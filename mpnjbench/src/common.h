#pragma once

// Shared pieces of the mpnj benchmark: clocks, the percentile rule, the
// host-speed probe, the metric report, the in-memory span recorder (Chrome
// trace-event JSON), and the kv_open request schedule with its
// per-connection reply model.  Kept
// free of runtime dependencies so the self-tests can exercise them alone.

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace mpnjbench {

// ---- clocks ----

double now_s();        // steady clock, seconds
double peak_rss_mb();  // peak resident set of this process

// ---- the percentile rule ----

// The tail a sample supports: the highest of the levels 99, 95, 90, 75, 50,
// up to `max_level`, with at least ten samples strictly above its value's
// rank; 0 when even the median has fewer than ten beyond it.
double tail_level(std::size_t n, double max_level = 99);

// Nearest-rank quantile of an ascending sample, q in [0, 1].
double quantile_sorted(const std::vector<double>& sorted, double q);

struct Summary {
  std::size_t n = 0;
  double median = 0;
  double tail = 0;        // value at tail_level
  double tail_level = 0;  // percentile the tail is taken at (0 = none)
};
Summary summarize(std::vector<double> v, double max_level = 99);

// The end-to-end tails stop at p90: on a shared 4-CPU host, p95 and above
// of a server's latency move by 2x from run to run with host stalls (see
// NOTES.md), too much for any regression bound.
inline constexpr double kE2eTailLevel = 90;

double median_of(std::vector<double> v);

// ---- host speed ----

// The host this benchmark runs on switches between speed regimes: identical
// deterministic work takes 0.49 s or 0.72 s in consecutive processes, and a
// plain sort loop follows it with correlation 0.96.  Each workload therefore
// times a fixed kernel that uses nothing of the runtime (fill and sort 2^19
// words, 2 MB: past the per-core caches, as the workloads are) only while no
// runtime exists in the process -- no proc thread that could spin or park
// beside it -- and reports times divided by, and rates multiplied by,
// factor() = median kernel time / reference time.
class HostSpeed {
 public:
  void sample();  // time the kernel once
  // Time the kernel if a second has passed since the last sample.
  void sample_every_second() {
    if (now_s() - last_ >= 1.0) sample();
  }
  double factor(double ref_s) const { return median_of(samples_) / ref_s; }
  std::size_t samples() const { return samples_.size(); }

 private:
  std::vector<double> samples_;
  double last_ = 0;
};

// The host's wake-up latency: the median round trip of a wake-up between two
// OS threads on CPUs 0 and 1, each blocked in read() on an eventfd -- the
// kernel path a parked proc takes when it is woken.  Like HostSpeed, timed
// only while no runtime exists.  Returns 0 if the threads cannot be set up.
double wake_rtt_s(int round_trips);

// ---- the metric report ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  const std::vector<Metric>& metrics() const { return metrics_; }
  // One human line per metric: name, value, unit, sample count.
  void print_lines() const;
  // {"name":{"value":v,"unit":"u"},...}
  std::string metrics_json() const;

 private:
  std::vector<Metric> metrics_;
};

// ---- spans ----

// In-memory span recorder.  Disabled recorders drop everything, so the
// untraced runs pay one branch per span.  Written once, at exit, as Chrome
// trace-event JSON (Perfetto and chrome://tracing open it).
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // A complete ("X") event; times in steady-clock seconds.  `args` is a
  // JSON object body without braces ("\"due_us\":12.5"), or empty.
  void span(const char* cat, const std::string& name, int tid, double start_s,
            double end_s, const std::string& args = {});
  std::size_t size() const { return events_.size(); }
  std::string to_json() const;
  bool write(const std::string& path) const;

 private:
  struct Event {
    const char* cat;
    std::string name;
    int tid;
    double start_s;
    double end_s;
    std::string args;
  };
  bool enabled_;
  std::vector<Event> events_;
};

// ---- kv_open: schedule and reply model ----

enum class KvKind : std::uint8_t { kGet, kSet, kRange };

struct KvOp {
  double due_s = 0;  // offset from the start of the phase
  int conn = 0;
  KvKind kind = KvKind::kGet;
  std::uint32_t key = 0;      // key index inside the connection's prefix
  std::uint32_t version = 0;  // SET: selects the value written
};

struct KvShape {
  int conns = 4;
  std::uint32_t keys_per_conn = 4096;
  int value_bytes = 32;
  std::uint32_t range_span = 16;  // RANGE covers keys [k, k + span)
  int range_limit = 8;
};

// Open-loop schedule: Poisson arrivals at `rate` ops/s for `seconds`,
// each assigned a uniformly random connection, an op from the
// 80/15/5 GET/SET/RANGE mix and a uniformly random key.  A pure function of
// its arguments.
std::vector<KvOp> make_schedule(std::uint64_t seed, double rate,
                                double seconds, const KvShape& shape);

std::string kv_key(int conn, std::uint32_t key);
std::string kv_value(int conn, std::uint32_t key, std::uint32_t version,
                     int bytes);

// The sequential model of one connection's slice of the store.  Requests on
// one connection are applied by the service in submission order, so the
// model's reply to each request, computed when it is sent, is the exact
// byte string the server must answer with.
class ConnModel {
 public:
  ConnModel(int conn, const KvShape& shape) : conn_(conn), shape_(shape) {}
  // Appends the request's wire bytes to *wire and returns its expected
  // reply, updating the model.
  std::string apply(const KvOp& op, std::string* wire);
  std::size_t size() const { return data_.size(); }

 private:
  int conn_;
  KvShape shape_;
  std::map<std::string, std::string> data_;
};

// Checks one connection's reply stream against the concatenated expected
// replies, byte for byte, as bytes arrive in arbitrary chunks.
class ReplyChecker {
 public:
  // Queue the expected reply of the next request sent.
  void expect(const std::string& reply);
  // Feed received bytes.  Returns false on the first mismatch (and every
  // call after it).  *completed counts requests whose whole reply arrived.
  bool feed(const char* data, std::size_t n, std::size_t* completed);
  std::size_t pending() const { return left_.size(); }
  bool failed() const { return failed_; }

 private:
  std::string expected_;        // expected bytes not yet received, from pos_
  std::size_t pos_ = 0;
  std::deque<std::size_t> left_;  // unreceived bytes of each pending reply
  bool failed_ = false;
};

// ---- seeding ----

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

}  // namespace mpnjbench
