#include "lina/des/replay.hpp"

#include "lina/prof/prof.hpp"
#include "lina/trace/replay.hpp"

namespace lina::des {

PacketReplayStats replay_packets_streamed(
    const sim::ForwardingFabric& fabric, const trace::ShardSet& set,
    const PacketReplayConfig& config) {
  PROF_SPAN("lina.des.replay");
  trace::DeviceTraceStream stream(set);
  PacketReplayStats total;
  std::uint64_t next_user = 0;
  while (!stream.done()) {
    const std::vector<mobility::DeviceTrace> batch =
        stream.next_batch(config.batch_users);
    if (batch.empty()) break;
    PacketModel model(fabric, config.architecture, config.failures);
    for (const mobility::DeviceTrace& trace : batch) {
      SessionParams params;
      // Global user index, not the batch-local session slot: the digest
      // must be invariant across batch sizes.
      params.digest_id = next_user++;
      params.correspondent = config.correspondent;
      params.schedule =
          trace::session_schedule_from_trace(trace, config.hours);
      params.duration_ms = config.hours * 1000.0;
      params.interval_ms = config.interval_ms;
      params.resolver_ttl_ms = config.resolver_ttl_ms;
      if (!config.replicas.empty()) {
        params.resolver_as = config.replicas.front();
        params.resolver_replicas = config.replicas;
      }
      model.add_session(params);
    }
    total.sessions += model.session_count();
    const RunStats run = config.serial ? run_serial(model)
                                       : run_parallel(model, config.engine);
    total.digest.combine(run.digest);
    total.events += run.events;
    total.batches += 1;
  }
  return total;
}

}  // namespace lina::des
