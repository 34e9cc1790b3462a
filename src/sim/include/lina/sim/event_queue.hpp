#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace lina::sim {

/// A discrete-event simulation clock and queue.
///
/// Events are callbacks scheduled at absolute times (milliseconds of
/// simulated time); equal-time events fire in scheduling order. The queue
/// owns the clock: `now()` is the time of the event currently (or most
/// recently) executing.
///
/// A series (schedule_series) is a periodic stream of firings held as one
/// heap entry: the entry of its next firing, put back when the previous
/// firing's callback returns or throws. Its order is that of the loop it
/// replaces, `for (t = start; t < end; t += interval) schedule(t, cb)`:
/// at registration it takes the block of sequence numbers that loop would
/// have taken, and firing k keeps sequence number k of the block, so every
/// equal-time tie against events scheduled before, after or from inside a
/// callback breaks as it would with one entry per firing.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `callback` at absolute time `time_ms` (>= now()); throws on
  /// attempts to schedule in the past or at a NaN/infinite time (a NaN
  /// would silently corrupt the heap order).
  void schedule(double time_ms, Callback callback);

  /// Schedules `callback` `delay_ms` (>= 0, finite) after now(); throws
  /// on negative or NaN delays.
  void schedule_in(double delay_ms, Callback callback);

  /// Schedules `callback` at start_ms, start_ms + interval_ms, ... (times
  /// accumulated by repeated addition) while the time is below `end_ms`;
  /// an `end_ms` at or before `start_ms` schedules nothing. Counts, in
  /// pending() and the queue metrics, as that many schedule() calls.
  /// Throws std::invalid_argument for a start in the past or not finite,
  /// an interval that is not finite and positive, an end that is not
  /// finite, an interval too small to advance the time, or an empty
  /// callback.
  void schedule_series(double start_ms, double interval_ms, double end_ms,
                       Callback callback);

  /// Runs the earliest event; returns false if the queue is empty.
  bool run_next();

  /// Runs until the queue drains or `max_events` have executed; returns
  /// the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  [[nodiscard]] double now() const { return now_ms_; }
  [[nodiscard]] bool empty() const { return pending_ == 0; }
  /// Events not yet run, every unrun firing of a series included.
  [[nodiscard]] std::size_t pending() const { return pending_; }

 private:
  struct Entry {
    double time_ms;
    std::uint64_t sequence;  // FIFO tie-break
    Callback callback;
    double scheduled_at_ms;  // now() at schedule time, for dwell metrics
    // A series' next firing: its interval and the firings after this one
    // (0 for a single event).
    double interval_ms;
    std::uint64_t later_firings;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time_ms != b.time_ms) return a.time_ms > b.time_ms;
      return a.sequence > b.sequence;
    }
  };

  void count_scheduled(std::uint64_t events);

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  double now_ms_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::size_t pending_ = 0;
};

}  // namespace lina::sim
