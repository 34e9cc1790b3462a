// Out-of-core packet replay: the streamed digest must equal the serial
// reference and must not depend on how users are cut into trace shards,
// into decoded batches, or across threads.

#include <gtest/gtest.h>

#include "../support/fixtures.hpp"
#include "../trace/trace_test_util.hpp"
#include "lina/des/replay.hpp"
#include "lina/mobility/device_workload.hpp"
#include "lina/trace/streaming.hpp"

namespace lina::des {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const sim::ForwardingFabric& fabric() {
  static const sim::ForwardingFabric instance(shared_internet());
  return instance;
}

AsId edge(std::size_t i) { return shared_internet().edge_ases()[i]; }

/// Writes the shared 12-user, 3-day workload as a shard set with
/// `users_per_shard` users per trace shard.
trace::ShardSet write_set(const lina::testing::TempTraceDir& dir,
                          std::size_t users_per_shard) {
  mobility::DeviceWorkloadConfig workload;
  workload.user_count = 12;
  workload.days = 3;
  const mobility::DeviceWorkloadGenerator generator(shared_internet(),
                                                    workload);
  trace::StreamingWorkloadConfig stream;
  stream.users_per_shard = users_per_shard;
  return trace::StreamingWorkload(generator, stream).write_shards(dir.path());
}

PacketReplayConfig replicated_config() {
  PacketReplayConfig config;
  config.architecture = sim::SimArchitecture::kReplicatedResolution;
  config.hours = 24.0;
  config.interval_ms = 400.0;
  config.correspondent = edge(0);
  config.replicas = {edge(1), edge(2), edge(3)};
  return config;
}

TEST(DesReplayTest, StreamedReplayIdentityAcrossBatchAndShards) {
  // The same 12 users cut into 3 or 1 trace shards, replayed at 1 or 4
  // threads in batches of one user, of sizes that split the set evenly
  // (3, 12) or unevenly (7), and of more users than the set holds: one
  // digest, equal to the serial reference.
  PacketReplayConfig config = replicated_config();
  lina::testing::TempTraceDir three_dir("des-replay-3-shards");
  lina::testing::TempTraceDir one_dir("des-replay-1-shard");
  const trace::ShardSet three_shards = write_set(three_dir, 5);
  const trace::ShardSet one_shard = write_set(one_dir, 12);
  config.serial = true;
  const PacketReplayStats serial =
      replay_packets_streamed(fabric(), three_shards, config);
  EXPECT_EQ(serial.sessions, 12u);
  EXPECT_GT(serial.digest.sent, 0u);

  config.serial = false;
  for (const trace::ShardSet* set : {&three_shards, &one_shard}) {
    for (const std::size_t batch : {1u, 3u, 7u, 12u, 8192u}) {
      for (const std::size_t threads : {1u, 4u}) {
        config.batch_users = batch;
        config.engine.threads = threads;
        const PacketReplayStats streamed =
            replay_packets_streamed(fabric(), *set, config);
        EXPECT_EQ(streamed.digest, serial.digest)
            << "trace shards=" << set->shards().size() << " batch=" << batch
            << " threads=" << threads;
        EXPECT_EQ(streamed.sessions, serial.sessions);
        EXPECT_EQ(streamed.events, serial.events);
        EXPECT_EQ(streamed.batches, (12 + batch - 1) / batch);
        EXPECT_EQ(streamed.windows, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace lina::des
