#include "lina/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lina/obs/registry.hpp"

namespace lina::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(5.0, [&] { order.push_back(2); });
  queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(9.0, [&] { order.push_back(3); });
  EXPECT_EQ(queue.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 9.0);
}

TEST(EventQueueTest, EqualTimesFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CallbacksCanScheduleMore) {
  EventQueue queue;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 4) queue.schedule_in(1.0, chain);
  };
  queue.schedule(0.0, chain);
  queue.run();
  EXPECT_EQ(fired, 4);
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueueTest, RejectsNaNAndInfiniteTimes) {
  // Regression: a NaN compares false against everything, so the old
  // `delay_ms < 0.0` guard let NaN through and silently corrupted the
  // heap order. Both entry points must reject it loudly.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EventQueue queue;
  EXPECT_THROW(queue.schedule_in(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule_in(-nan, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule_in(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule_in(-1e-9, [] {}), std::invalid_argument);
  // The queue stays usable (and ordered) after the rejections.
  std::vector<int> order;
  queue.schedule(2.0, [&] { order.push_back(2); });
  queue.schedule(1.0, [&] { order.push_back(1); });
  EXPECT_EQ(queue.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, RejectsPastAndEmpty) {
  EventQueue queue;
  queue.schedule(5.0, [] {});
  queue.run();
  EXPECT_THROW(queue.schedule(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule_in(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule(10.0, nullptr), std::invalid_argument);
}

TEST(EventQueueTest, RunNextOnEmpty) {
  EventQueue queue;
  EXPECT_FALSE(queue.run_next());
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.run(), 0u);
}

TEST(EventQueueTest, MaxEventsBound) {
  EventQueue queue;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(static_cast<double>(i), [&] { ++fired; });
  }
  EXPECT_EQ(queue.run(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(queue.pending(), 7u);
}

TEST(EventQueueTest, SeriesTiesBreakInSchedulingOrder) {
  // The series takes the sequence numbers of the loop it replaces: its
  // firings tie after events scheduled before it, before events scheduled
  // after it, and before what its own callbacks schedule for later.
  EventQueue queue;
  std::vector<std::string> order;
  const auto log = [&](std::string what) {
    return [&order, what = std::move(what)] { order.push_back(what); };
  };
  queue.schedule(10.0, log("before@10"));
  queue.schedule_series(0.0, 10.0, 30.0, [&] {
    order.push_back("series@" + std::to_string(static_cast<int>(queue.now())));
    // Lands on the next firing's time; it was scheduled after the series.
    queue.schedule_in(10.0, log("inner@" + std::to_string(
                                    static_cast<int>(queue.now() + 10.0))));
    queue.schedule_in(0.0, log("now@" + std::to_string(
                                   static_cast<int>(queue.now()))));
  });
  queue.schedule(0.0, log("after@0"));
  queue.schedule(20.0, log("after@20"));
  EXPECT_EQ(queue.run(), 12u);
  EXPECT_EQ(order,
            (std::vector<std::string>{
                "series@0", "after@0", "now@0", "before@10", "series@10",
                "inner@10", "now@10", "series@20", "after@20", "inner@20",
                "now@20", "inner@30"}));
  EXPECT_DOUBLE_EQ(queue.now(), 30.0);
}

TEST(EventQueueTest, SeriesMatchesOneScheduleUnderRandomTies) {
  // Differential: a randomized workload on a coarse time grid (so ties are
  // everywhere) runs once with schedule_series and once with one
  // schedule() per firing. Callbacks schedule single events and further
  // series, some at the current instant. The execution logs and the
  // queue's registry-on metrics must be identical.
  struct Run {
    std::vector<std::pair<int, double>> log;
    obs::Snapshot metrics;
  };
  const auto run = [](bool series, unsigned seed) {
    obs::Registry::instance().reset();
    const obs::EnabledScope scope;
    EventQueue queue;
    std::mt19937 rng(seed);
    Run out;
    int next_id = 0;
    std::function<void(double, double, double)> add_series;
    const auto body = [&](int id) {
      return [&, id] {
        out.log.emplace_back(id, queue.now());
        const unsigned roll = rng() % 8;
        if (roll == 0) {
          queue.schedule_in(5.0 * static_cast<double>(rng() % 3),
                            [&, tag = next_id++] {
                              out.log.emplace_back(tag, queue.now());
                            });
        } else if (roll == 1 && next_id < 200) {
          add_series(queue.now() + 5.0 * static_cast<double>(rng() % 2),
                     5.0 * static_cast<double>(1 + rng() % 3),
                     queue.now() + 5.0 * static_cast<double>(rng() % 6));
        }
      };
    };
    add_series = [&](double start, double interval, double end) {
      const int id = next_id++;
      if (series) {
        queue.schedule_series(start, interval, end, body(id));
      } else {
        for (double t = start; t < end; t += interval)
          queue.schedule(t, body(id));
      }
    };
    for (int i = 0; i < 12; ++i) {
      if (rng() % 2 == 0) {
        queue.schedule(5.0 * static_cast<double>(rng() % 10),
                       [&, tag = next_id++] {
                         out.log.emplace_back(tag, queue.now());
                       });
      } else {
        add_series(5.0 * static_cast<double>(rng() % 4),
                   5.0 * static_cast<double>(1 + rng() % 3),
                   5.0 * static_cast<double>(rng() % 12));
      }
    }
    queue.run();
    out.metrics = obs::Registry::instance().snapshot();
    return out;
  };
  std::size_t ties = 0;
  for (unsigned seed = 1; seed <= 20; ++seed) {
    const Run per_firing = run(false, seed);
    const Run series = run(true, seed);
    for (std::size_t i = 1; i < per_firing.log.size(); ++i)
      ties += per_firing.log[i].second == per_firing.log[i - 1].second;
    EXPECT_EQ(series.log, per_firing.log) << "seed " << seed;
    EXPECT_EQ(series.metrics.counters, per_firing.metrics.counters)
        << "seed " << seed;
    EXPECT_EQ(series.metrics.gauges, per_firing.metrics.gauges)
        << "seed " << seed;
    ASSERT_EQ(series.metrics.histograms.size(),
              per_firing.metrics.histograms.size());
    for (std::size_t i = 0; i < series.metrics.histograms.size(); ++i) {
      const auto& [name, a] = series.metrics.histograms[i];
      const auto& b = per_firing.metrics.histograms[i].second;
      EXPECT_EQ(name, per_firing.metrics.histograms[i].first);
      EXPECT_EQ(a.count, b.count) << name;
      EXPECT_EQ(a.sum, b.sum) << name;
      EXPECT_EQ(a.buckets, b.buckets) << name;
    }
  }
  EXPECT_GT(ties, 100u);
  obs::Registry::instance().reset();
}

TEST(EventQueueTest, EmptySeriesSchedulesNothing) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule_series(5.0, 1.0, 5.0, [&] { order.push_back(-1); });
  queue.schedule_series(5.0, 1.0, 2.0, [&] { order.push_back(-2); });
  queue.schedule(1.0, [&] { order.push_back(2); });
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_EQ(queue.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, SeriesRejectsBadIntervalsAndStarts) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EventQueue queue;
  queue.schedule(5.0, [] {});
  queue.run();
  const auto cb = [] {};
  for (const double interval : {0.0, -1.0, nan, inf, -inf})
    EXPECT_THROW(queue.schedule_series(5.0, interval, 10.0, cb),
                 std::invalid_argument)
        << interval;
  for (const double start : {4.0, nan, inf, -inf})
    EXPECT_THROW(queue.schedule_series(start, 1.0, 10.0, cb),
                 std::invalid_argument)
        << start;
  EXPECT_THROW(queue.schedule_series(5.0, 1.0, inf, cb),
               std::invalid_argument);
  EXPECT_THROW(queue.schedule_series(5.0, 1.0, nan, cb),
               std::invalid_argument);
  // 1e17 + 1 == 1e17: the time would never reach the end.
  EXPECT_THROW(queue.schedule_series(1e17, 1.0, 2e17, cb),
               std::invalid_argument);
  EXPECT_THROW(queue.schedule_series(5.0, 1.0, 10.0, nullptr),
               std::invalid_argument);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, PendingCountsUnrunSeriesFirings) {
  EventQueue queue;
  std::vector<std::size_t> seen;
  queue.schedule_series(0.0, 2.0, 10.0, [&] {
    seen.push_back(queue.pending());
  });
  queue.schedule(3.0, [] {});
  EXPECT_EQ(queue.pending(), 6u);
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(queue.run(3), 3u);  // firings at 0 and 2, the event at 3
  EXPECT_EQ(queue.pending(), 3u);
  EXPECT_EQ(queue.run(), 3u);
  EXPECT_TRUE(queue.empty());
  // Inside each firing: the later firings, plus the event at 3 until it ran.
  EXPECT_EQ(seen, (std::vector<std::size_t>{5, 4, 2, 1, 0}));
}

TEST(EventQueueTest, SeriesContinuesAfterAThrowingFiring) {
  EventQueue queue;
  std::vector<double> fired;
  queue.schedule_series(0.0, 1.0, 3.0, [&] {
    fired.push_back(queue.now());
    if (queue.now() == 1.0) throw std::runtime_error("firing");
  });
  EXPECT_THROW(queue.run(), std::runtime_error);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.run(), 1u);
  EXPECT_EQ(fired, (std::vector<double>{0.0, 1.0, 2.0}));
}

}  // namespace
}  // namespace lina::sim
