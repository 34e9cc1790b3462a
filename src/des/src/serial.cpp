#include <functional>

#include "lina/des/engine.hpp"
#include "lina/prof/prof.hpp"
#include "lina/sim/event_queue.hpp"

namespace lina::des {

RunStats run_serial(const PacketModel& model) {
  PROF_SPAN("lina.des.serial");
  sim::EventQueue queue;
  RunStats stats;
  // Each record is boxed into a std::function entry on the one global
  // queue — the allocation-per-event reference the session-parallel
  // executor is measured (and bit-compared) against.
  std::function<void(const EventRecord&)> schedule_record =
      [&](const EventRecord& record) {
        queue.schedule(record.time_ms, [&, record] {
          stats.events += 1;
          model.handle(record, stats.digest,
                       [&](const EventRecord& next) {
                         schedule_record(next);
                       });
        });
      };
  for (std::uint32_t i = 0; i < model.session_count(); ++i) {
    schedule_record(model.initial_event(i));
  }
  queue.run();
  return stats;
}

}  // namespace lina::des
