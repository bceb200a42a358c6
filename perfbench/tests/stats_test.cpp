// Hand-vector tests of the benchmark's statistics helpers (src/stats.h):
// percentiles with the count beyond them, the quietest window, ratios
// with their base, and self time of nested spans. Exit status 0 means
// every check passed.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cpp:%d: FAILED: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using perfbench::percentile;
using perfbench::Ratio;
using perfbench::self_times;
using perfbench::SpanRec;

void test_percentiles() {
  // 1..10 shuffled. Type-7 ranks: p50 at 4.5 → 5.5; p90 at 8.1 → 9.1.
  const std::vector<double> v = {7, 3, 10, 1, 9, 2, 8, 6, 4, 5};
  const auto p50 = percentile(v, 0.5);
  EXPECT(near(p50.value, 5.5));
  EXPECT(p50.count == 10);
  EXPECT(p50.beyond == 5);  // 6..10
  const auto p90 = percentile(v, 0.9);
  EXPECT(near(p90.value, 9.1));
  EXPECT(p90.beyond == 1);  // only 10
  const auto p0 = percentile(v, 0.0);
  EXPECT(near(p0.value, 1.0));
  EXPECT(p0.beyond == 9);
  const auto p100 = percentile(v, 1.0);
  EXPECT(near(p100.value, 10.0));
  EXPECT(p100.beyond == 0);

  // Odd count: the median is the middle sample exactly.
  const auto m = percentile({30, 10, 20}, 0.5);
  EXPECT(near(m.value, 20.0));
  EXPECT(m.beyond == 1);

  // Ties: samples equal to the value are not beyond it.
  const auto t = percentile({5, 5, 5, 5, 9}, 0.5);
  EXPECT(near(t.value, 5.0));
  EXPECT(t.beyond == 1);

  // 100 samples 1..100: p90 at rank 89.1 → 90.1, with 10 samples beyond.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const auto h90 = percentile(hundred, 0.9);
  EXPECT(near(h90.value, 90.1));
  EXPECT(h90.beyond == 10);

  const auto empty = percentile({}, 0.5);
  EXPECT(empty.count == 0 && empty.beyond == 0 && empty.value == 0.0);
}

void test_windows() {
  using perfbench::TimedSample;
  // Windows of 4 ops: op 0-3 → {10, 10, 10, 50}, op 4-7 → {10, 10, 10, 50},
  // op 8-11 → a slow window {90, 90, 90, 90}, op 12 missing, op 13 → {20}.
  std::vector<TimedSample> s;
  const double us[] = {10, 10, 10, 50, 10, 10, 10, 50, 90, 90, 90, 90};
  for (std::uint64_t i = 0; i < 12; ++i) s.push_back({i, us[i]});
  s.push_back({13, 20});
  EXPECT(perfbench::split_windows(s, 4).size() == 4);

  // Window medians 10, 10, 90, 20 → the quietest is 10; the slow window
  // does not drag the result. Beyond 10: 50, 50, 90×4, 20 = 7.
  const auto p50 = perfbench::quietest_window_percentile(s, 4, 0.5);
  EXPECT(near(p50.value, 10.0));
  EXPECT(p50.count == 13);
  EXPECT(p50.beyond == 7);

  // Window p90s (type 7, rank 2.7 of 4): 10 + 0.7·40 = 38 twice, 90, 20
  // → the quietest is 20. Beyond 20: 50, 50, 90×4.
  const auto p90 = perfbench::quietest_window_percentile(s, 4, 0.9);
  EXPECT(near(p90.value, 20.0));
  EXPECT(p90.beyond == 6);

  // Window rates: 4 ops / 80 µs = 50000/s twice, 4 / 360 µs ≈ 11111/s,
  // 1 / 20 µs = 50000/s → the best is 50000.
  EXPECT(near(perfbench::quietest_window_rate(s, 4), 50000.0));
  // One slow window alone: 4 / 360 µs.
  const std::vector<TimedSample> slow(s.begin() + 8, s.begin() + 12);
  EXPECT(std::fabs(perfbench::quietest_window_rate(slow, 4) - 11111.1111) < 1e-3);
  EXPECT(perfbench::quietest_window_rate({}, 4) == 0.0);
}

void test_ratios() {
  const Ratio hit{30, 40};
  EXPECT(near(hit.value(), 0.75));
  EXPECT(hit.base == 40);
  const Ratio inval{3, 1500};
  EXPECT(near(inval.per(1000), 2.0));
  const Ratio none{0, 0};
  EXPECT(none.value() == 0.0);
}

SpanRec span(std::int32_t parent, std::uint64_t start, std::uint64_t end) {
  SpanRec s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_self_time() {
  // op [0,100) ⊃ a [10,30), b [40,70) ⊃ b1 [45,50); c [60,80) overlaps b.
  const std::vector<SpanRec> spans = {
      span(-1, 0, 100),  // 0: op
      span(0, 10, 30),   // 1: a
      span(0, 40, 70),   // 2: b
      span(2, 45, 50),   // 3: b1 (grandchild of op)
      span(0, 60, 80),   // 4: c, overlapping b by 10
  };
  const auto self = self_times(spans);
  // op: children cover [10,30) ∪ [40,80) = 20 + 40 = 60 → self 40. The
  // grandchild is inside b, so it is not subtracted twice.
  EXPECT(self[0] == 40);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 25);  // 30 minus b1's 5
  EXPECT(self[3] == 5);
  EXPECT(self[4] == 20);

  // A child that outlives its parent is clipped to the parent.
  const auto clipped = self_times({span(-1, 0, 10), span(0, 5, 20)});
  EXPECT(clipped[0] == 5);

  // Two op roots do not subtract from each other.
  const auto roots = self_times({span(-1, 0, 10), span(-1, 5, 15)});
  EXPECT(roots[0] == 10 && roots[1] == 10);
}

}  // namespace

int main() {
  test_percentiles();
  test_windows();
  test_ratios();
  test_self_time();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
