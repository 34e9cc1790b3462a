#include "lina/sim/event_queue.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "lina/obs/metrics.hpp"

namespace lina::sim {

void EventQueue::schedule(double time_ms, Callback callback) {
  // Negated comparison so NaN is rejected too: a NaN time compares false
  // against everything, which would otherwise slip past a `<` check and
  // silently corrupt the heap order.
  if (!(time_ms >= now_ms_) || !std::isfinite(time_ms))
    throw std::invalid_argument(
        "EventQueue::schedule: time in the past or not finite");
  if (!callback)
    throw std::invalid_argument("EventQueue::schedule: empty callback");
  queue_.push(
      {time_ms, next_sequence_++, std::move(callback), now_ms_, 0.0, 0});
  count_scheduled(1);
}

void EventQueue::schedule_series(double start_ms, double interval_ms,
                                 double end_ms, Callback callback) {
  if (!(start_ms >= now_ms_) || !std::isfinite(start_ms))
    throw std::invalid_argument(
        "EventQueue::schedule_series: start in the past or not finite");
  if (!(interval_ms > 0.0) || !std::isfinite(interval_ms))
    throw std::invalid_argument(
        "EventQueue::schedule_series: interval not finite and positive");
  if (!std::isfinite(end_ms))
    throw std::invalid_argument(
        "EventQueue::schedule_series: end not finite");
  if (!callback)
    throw std::invalid_argument("EventQueue::schedule_series: empty callback");
  // As many firings as the loop this series replaces would schedule, so
  // it can take their sequence numbers.
  std::uint64_t firings = 0;
  for (double t = start_ms; t < end_ms; ++firings) {
    const double next = t + interval_ms;
    if (!(next > t))
      throw std::invalid_argument(
          "EventQueue::schedule_series: interval too small to advance");
    t = next;
  }
  if (firings == 0) return;
  queue_.push({start_ms, next_sequence_, std::move(callback), now_ms_,
               interval_ms, firings - 1});
  next_sequence_ += firings;
  count_scheduled(firings);
}

void EventQueue::count_scheduled(std::uint64_t events) {
  pending_ += events;
  obs::metric::event_queue_scheduled().add(events);
  obs::metric::event_queue_depth().set(static_cast<double>(pending_));
}

void EventQueue::schedule_in(double delay_ms, Callback callback) {
  if (!(delay_ms >= 0.0))
    throw std::invalid_argument(
        "EventQueue::schedule_in: negative or NaN delay");
  schedule(now_ms_ + delay_ms, std::move(callback));
}

bool EventQueue::run_next() {
  if (queue_.empty()) return false;
  // Copy out before popping: the callback may schedule new events.
  Entry entry = std::move(const_cast<Entry&>(queue_.top()));
  queue_.pop();
  --pending_;
  now_ms_ = entry.time_ms;
  obs::metric::event_queue_executed().add();
  obs::metric::event_queue_dwell_ms().record(entry.time_ms -
                                             entry.scheduled_at_ms);
  if (entry.later_firings == 0) {
    entry.callback();
    return true;
  }
  // A series firing runs its callback from this local, never from the
  // heap, which the callback may grow. The next firing goes back on the
  // heap once the callback returns or throws, with the next reserved
  // sequence number, as its own entry would have stayed there.
  const auto rearm = [&] {
    entry.time_ms += entry.interval_ms;
    entry.sequence += 1;
    entry.later_firings -= 1;
    queue_.push(std::move(entry));
  };
  try {
    entry.callback();
  } catch (...) {
    rearm();
    throw;
  }
  rearm();
  return true;
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && run_next()) ++executed;
  return executed;
}

}  // namespace lina::sim
