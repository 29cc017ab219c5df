// Self-tests of the benchmark's own machinery: the percentile rule, the
// schedule's determinism, the trace writer, and the reply model catching a
// wrong reply.  Exits non-zero on the first failed check.
//
//   mpnjbench_selftest TRACE_FILE
//
// run.py --selftest runs it and then parses TRACE_FILE as JSON.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

using namespace mpnjbench;

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) failures++;
}

void percentile_rule() {
  check(tail_level(9) == 0, "tail: 9 samples support no level");
  check(tail_level(20) == 50, "tail: 20 samples support the median");
  check(tail_level(100) == 90, "tail: 100 samples support p90");
  check(tail_level(999) == 95, "tail: 999 samples stop short of p99");
  check(tail_level(1000) == 99, "tail: 1000 samples support p99");
  check(tail_level(100000) == 99, "tail: p99 is the highest level");
  check(tail_level(100000, 90) == 90 && tail_level(50, 90) == 75,
        "tail: a lower cap holds");
  std::vector<double> v;
  for (int i = 1000; i >= 1; i--) v.push_back(i);
  const Summary s = summarize(v);
  check(s.median == 500 && s.tail_level == 99 && s.tail == 990,
        "summary: median 500, p99 990 of 1..1000");
  const std::size_t beyond = 1000 - static_cast<std::size_t>(s.tail);
  check(beyond >= 10, "summary: at least ten samples beyond the tail");
}

void schedule_determinism() {
  KvShape shape;
  const auto a = make_schedule(42, 5000, 1.0, shape);
  const auto b = make_schedule(42, 5000, 1.0, shape);
  const auto c = make_schedule(43, 5000, 1.0, shape);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); i++) {
    same = a[i].due_s == b[i].due_s && a[i].conn == b[i].conn &&
           a[i].kind == b[i].kind && a[i].key == b[i].key &&
           a[i].version == b[i].version;
  }
  check(same, "schedule: one seed gives one schedule");
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); i++) {
    differs = a[i].due_s != c[i].due_s || a[i].key != c[i].key;
  }
  check(differs, "schedule: another seed gives another schedule");
  std::size_t gets = 0, ranges = 0;
  bool ordered = true;
  for (std::size_t i = 0; i < a.size(); i++) {
    gets += a[i].kind == KvKind::kGet;
    ranges += a[i].kind == KvKind::kRange;
    if (i > 0 && a[i].due_s < a[i - 1].due_s) ordered = false;
    if (a[i].key >= shape.keys_per_conn) ordered = false;
  }
  check(ordered, "schedule: due times ascend, keys stay in range");
  check(a.size() > 4500 && a.size() < 5500, "schedule: offered rate holds");
  check(gets > a.size() * 3 / 4 && gets < a.size() * 17 / 20 &&
            ranges > a.size() / 40 && ranges < a.size() / 10,
        "schedule: 80/15/5 mix");
}

void reply_model() {
  KvShape shape;
  ConnModel model(1, shape);
  std::string wire;
  KvOp set;
  set.kind = KvKind::kSet;
  set.key = 5;
  set.version = 3;
  KvOp get = set;
  get.kind = KvKind::kGet;
  KvOp miss = get;
  miss.key = 6;
  KvOp range = get;
  range.kind = KvKind::kRange;
  range.key = 0;
  const std::string r_set = model.apply(set, &wire);
  const std::string r_get = model.apply(get, &wire);
  const std::string r_miss = model.apply(miss, &wire);
  const std::string r_range = model.apply(range, &wire);
  const std::string v = kv_value(1, 5, 3, shape.value_bytes);
  check(wire == "SET c1:k000005 32\n" + v + "\nGET c1:k000005\n"
                "GET c1:k000006\nRANGE c1:k000000 c1:k000015 8\n",
        "model: request encoding");
  check(r_set == "+OK\r\n" && r_get == "$32\r\n" + v + "\r\n" &&
            r_miss == "$-1\r\n" &&
            r_range == "*2\r\n$10\r\nc1:k000005\r\n$32\r\n" + v + "\r\n",
        "model: expected replies");

  // The checker accepts the right bytes in any chunking...
  ReplyChecker ok;
  for (const auto* r : {&r_set, &r_get, &r_miss, &r_range}) ok.expect(*r);
  const std::string all = r_set + r_get + r_miss + r_range;
  std::size_t done = 0, total = 0;
  bool fed = true;
  for (std::size_t i = 0; i < all.size(); i += 3) {
    fed = fed && ok.feed(all.data() + i, std::min<std::size_t>(3, all.size() - i),
                         &done);
    total += done;
  }
  check(fed && total == 4 && ok.pending() == 0,
        "checker: right replies pass in 3-byte chunks");

  // ...and catches one wrong byte, a wrong value, or an extra byte.
  std::string wrong = all;
  wrong[r_set.size() + r_get.size() - 4] ^= 1;
  ReplyChecker bad;
  for (const auto* r : {&r_set, &r_get, &r_miss, &r_range}) bad.expect(*r);
  check(!bad.feed(wrong.data(), wrong.size(), &done) && bad.failed(),
        "checker: an injected wrong reply byte is caught");
  ReplyChecker stale;
  stale.expect(r_get);
  const std::string old = "$32\r\n" + kv_value(1, 5, 2, 32) + "\r\n";
  check(!stale.feed(old.data(), old.size(), &done),
        "checker: a stale value is caught");
  ReplyChecker extra;
  extra.expect(r_set);
  const std::string two = r_set + r_set;
  check(!extra.feed(two.data(), two.size(), &done),
        "checker: an unrequested reply is caught");
}

void trace_writer(const char* path) {
  Tracer off(false);
  off.span("x", "dropped", 0, 1, 2);
  check(off.size() == 0, "trace: a disabled tracer records nothing");
  Tracer t(true);
  const double t0 = now_s();
  t.span("layer", "call \"quoted\"\n", 3, t0, now_s(), "\"n\": 1");
  t.span("kv.request", "GET", 100, t0, t0 + 1e-4,
         "\"due_us\": 0.000, \"sent_us\": 1.000, \"replied_us\": 100.000");
  check(t.size() == 2, "trace: spans are kept in memory");
  check(t.write(path), "trace: file written");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: mpnjbench_selftest TRACE_FILE\n");
    return 2;
  }
  percentile_rule();
  schedule_determinism();
  reply_model();
  trace_writer(argv[1]);
  std::printf("%d failed\n", failures);
  return failures == 0 ? 0 : 1;
}
