#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

namespace mpnjbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double tail_level(std::size_t n, double max_level) {
  static const double kLevels[] = {99, 95, 90, 75, 50};
  for (const double p : kLevels) {
    if (p > max_level) continue;
    // Samples strictly above the nearest-rank p-th percentile.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
    if (rank >= 1 && n - rank >= 10) return p;
  }
  return 0;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Summary summarize(std::vector<double> v, double max_level) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = quantile_sorted(v, 0.5);
  s.tail_level = tail_level(v.size(), max_level);
  s.tail = s.tail_level > 0 ? quantile_sorted(v, s.tail_level / 100.0)
                            : v.back();
  return s;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- HostSpeed ----

namespace {
volatile std::uint32_t g_kernel_sink = 0;  // keeps the kernel's sort live
}  // namespace

void HostSpeed::sample() {
  std::mt19937 rng(7);
  std::vector<std::uint32_t> v(1u << 19);
  const double t0 = now_s();
  for (auto& x : v) x = static_cast<std::uint32_t>(rng());
  std::sort(v.begin(), v.end());
  g_kernel_sink = v[v.size() / 2];
  last_ = now_s();
  samples_.push_back(last_ - t0);
}

namespace {

void pin_to(int cpu) {
  if (sysconf(_SC_NPROCESSORS_ONLN) <= cpu) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

bool post(int fd) {
  const std::uint64_t one = 1;
  return ::write(fd, &one, sizeof one) == sizeof one;
}

bool take(int fd) {
  std::uint64_t v = 0;
  return ::read(fd, &v, sizeof v) == sizeof v;
}

}  // namespace

double wake_rtt_s(int round_trips) {
  const int ping = eventfd(0, EFD_CLOEXEC);
  const int pong = eventfd(0, EFD_CLOEXEC);
  std::vector<double> rtt;
  if (ping >= 0 && pong >= 0) {
    std::thread echo([&] {
      pin_to(1);
      for (int i = 0; i < round_trips; i++) {
        if (!take(ping) || !post(pong)) return;
      }
    });
    cpu_set_t saved;
    CPU_ZERO(&saved);
    pthread_getaffinity_np(pthread_self(), sizeof saved, &saved);
    pin_to(0);
    for (int i = 0; i < round_trips; i++) {
      const double t0 = now_s();
      if (!post(ping) || !take(pong)) break;
      rtt.push_back(now_s() - t0);
    }
    pthread_setaffinity_np(pthread_self(), sizeof saved, &saved);
    echo.join();
  }
  if (ping >= 0) ::close(ping);
  if (pong >= 0) ::close(pong);
  return median_of(rtt);
}

// ---- Report ----

void Report::add(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::print_lines() const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-36s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

std::string Report::metrics_json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); i++) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

// ---- Tracer ----

void Tracer::span(const char* cat, const std::string& name, int tid,
                  double start_s, double end_s, const std::string& args) {
  if (!enabled_) return;
  events_.push_back({cat, name, tid, start_s, end_s, args});
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}
}  // namespace

std::string Tracer::to_json() const {
  double t0 = 0;
  if (!events_.empty()) {
    t0 = events_.front().start_s;
    for (const Event& e : events_) t0 = std::min(t0, e.start_s);
  }
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < events_.size(); i++) {
    const Event& e = events_[i];
    const double ts = (e.start_s - t0) * 1e6;
    const double dur = std::max(0.0, (e.end_s - e.start_s) * 1e6);
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  e.tid, ts, dur);
    out += "{\"name\": \"" + json_escape(e.name) + "\", \"cat\": \"" +
           json_escape(e.cat) + "\", " + buf;
    if (!e.args.empty()) out += ", \"args\": {" + e.args + "}";
    out += i + 1 < events_.size() ? "},\n" : "}\n";
  }
  return out + "]}\n";
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = to_json();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

// ---- kv_open schedule and model ----

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<KvOp> make_schedule(std::uint64_t seed, double rate,
                                double seconds, const KvShape& shape) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<int> conn(0, shape.conns - 1);
  std::uniform_int_distribution<std::uint32_t> key(0, shape.keys_per_conn - 1);
  std::uniform_int_distribution<int> mix(0, 99);
  std::vector<KvOp> ops;
  ops.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  std::uint32_t version = 1;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    KvOp op;
    op.due_s = t;
    op.conn = conn(rng);
    const int m = mix(rng);
    op.kind = m < 80 ? KvKind::kGet : m < 95 ? KvKind::kSet : KvKind::kRange;
    op.key = key(rng);
    if (op.kind == KvKind::kRange) {
      op.key = std::min(op.key, shape.keys_per_conn - shape.range_span);
    }
    if (op.kind == KvKind::kSet) op.version = version++;
    ops.push_back(op);
  }
  return ops;
}

std::string kv_key(int conn, std::uint32_t key) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "c%d:k%06u", conn, key);
  return buf;
}

std::string kv_value(int conn, std::uint32_t key, std::uint32_t version,
                     int bytes) {
  std::uint64_t h = mix_seed(mix_seed(static_cast<std::uint64_t>(conn), key),
                             version);
  std::string v(static_cast<std::size_t>(bytes), 'v');
  static const char kHex[] = "0123456789abcdef";
  for (std::size_t i = 0; i < v.size(); i++) {
    if (i % 16 == 0) h = mix_seed(h, i);
    v[i] = kHex[(h >> (4 * (i % 16))) & 15];
  }
  return v;
}

namespace {
void put_bulk(std::string* out, const std::string& v) {
  *out += "$" + std::to_string(v.size()) + "\r\n" + v + "\r\n";
}
}  // namespace

std::string ConnModel::apply(const KvOp& op, std::string* wire) {
  std::string reply;
  const std::string key = kv_key(conn_, op.key);
  switch (op.kind) {
    case KvKind::kGet: {
      *wire += "GET " + key + "\n";
      const auto it = data_.find(key);
      if (it == data_.end()) {
        reply = "$-1\r\n";
      } else {
        put_bulk(&reply, it->second);
      }
      break;
    }
    case KvKind::kSet: {
      const std::string v =
          kv_value(conn_, op.key, op.version, shape_.value_bytes);
      *wire += "SET " + key + " " + std::to_string(v.size()) + "\n" + v + "\n";
      data_[key] = v;
      reply = "+OK\r\n";
      break;
    }
    case KvKind::kRange: {
      const std::string hi = kv_key(conn_, op.key + shape_.range_span - 1);
      *wire += "RANGE " + key + " " + hi + " " +
               std::to_string(shape_.range_limit) + "\n";
      std::string body;
      int n = 0;
      for (auto it = data_.lower_bound(key);
           it != data_.end() && it->first <= hi && n < shape_.range_limit;
           ++it, n++) {
        put_bulk(&body, it->first);
        put_bulk(&body, it->second);
      }
      reply = "*" + std::to_string(2 * n) + "\r\n" + body;
      break;
    }
  }
  return reply;
}

void ReplyChecker::expect(const std::string& reply) {
  if (pos_ > (1u << 16) && pos_ * 2 > expected_.size()) {
    expected_.erase(0, pos_);
    pos_ = 0;
  }
  expected_ += reply;
  left_.push_back(reply.size());
}

bool ReplyChecker::feed(const char* data, std::size_t n,
                        std::size_t* completed) {
  *completed = 0;
  if (failed_) return false;
  if (n > expected_.size() - pos_ ||
      std::memcmp(data, expected_.data() + pos_, n) != 0) {
    failed_ = true;
    return false;
  }
  pos_ += n;
  while (n > 0) {
    const std::size_t take = std::min(n, left_.front());
    left_.front() -= take;
    n -= take;
    if (left_.front() == 0) {
      left_.pop_front();
      ++*completed;
    }
  }
  return true;
}

}  // namespace mpnjbench
