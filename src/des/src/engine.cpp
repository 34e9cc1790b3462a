#include "lina/des/engine.hpp"

#include <algorithm>
#include <vector>

#include "lina/exec/parallel.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/prof/prof.hpp"

namespace lina::des {

namespace {

/// A few chunks per worker, so a chunk of long sessions does not leave
/// the other workers idle at the join.
constexpr std::size_t kChunksPerThread = 4;

}  // namespace

RunStats run_parallel(const PacketModel& model, EngineConfig config) {
  PROF_SPAN("lina.des.run");
  const std::size_t sessions = model.session_count();
  const std::size_t threads =
      config.threads != 0 ? config.threads : exec::default_threads();
  const std::size_t chunks = std::min(sessions, threads * kChunksPerThread);
  const RunStats stats = exec::parallel_reduce(
      chunks, RunStats{},
      [&](std::size_t chunk) {
        PROF_SPAN("lina.des.sessions");
        RunStats local;
        std::vector<EventRecord> work;
        const auto push = [&work](const EventRecord& next) {
          work.push_back(next);
        };
        const std::size_t end = sessions * (chunk + 1) / chunks;
        for (std::size_t i = sessions * chunk / chunks; i < end; ++i) {
          work.push_back(model.initial_event(static_cast<std::uint32_t>(i)));
          while (!work.empty()) {
            const EventRecord record = work.back();
            work.pop_back();
            local.events += 1;
            model.handle(record, local.digest, push);
          }
        }
        return local;
      },
      [](RunStats total, const RunStats& part) {
        total.digest.combine(part.digest);
        total.events += part.events;
        return total;
      },
      threads);
  obs::metric::des_events_executed().add(stats.events);
  return stats;
}

}  // namespace lina::des
