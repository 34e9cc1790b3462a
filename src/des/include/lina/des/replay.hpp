#pragma once

// Out-of-core packet replay: sessions stream out of a lina::trace shard
// set in bounded user batches; each batch becomes a PacketModel and runs
// through the session-parallel executor (or the serial reference), and
// the per-batch digests fold commutatively — so peak memory is one
// decoded batch plus one small worklist per chunk, no matter how many
// users the set holds, and the combined digest is invariant across batch
// size, trace shard layout, and thread count.

#include <cstdint>
#include <vector>

#include "lina/des/engine.hpp"
#include "lina/trace/streaming.hpp"

namespace lina::des {

struct PacketReplayConfig {
  sim::SimArchitecture architecture = sim::SimArchitecture::kIndirection;
  /// Trace hours replayed per user (1 simulated second per trace hour).
  double hours = 24.0;
  double interval_ms = 1000.0;
  double resolver_ttl_ms = 200.0;
  /// Correspondent AS every session streams from.
  topology::AsId correspondent = 0;
  /// Resolver placement: the single resolver is replicas.front(); the
  /// replicated architecture uses the whole pool.
  std::vector<topology::AsId> replicas;
  std::size_t batch_users = 8192;
  EngineConfig engine;
  const sim::FailurePlan* failures = nullptr;
  /// Run the serial sim::EventQueue reference instead of the
  /// session-parallel executor (for identity gates).
  bool serial = false;
};

struct PacketReplayStats {
  DeliveryDigest digest;
  std::uint64_t sessions = 0;
  std::uint64_t events = 0;
  /// Always 0: the session-parallel executor has no barrier windows.
  /// Kept so existing readers of the field keep building.
  std::uint64_t windows = 0;
  std::uint64_t batches = 0;
};

/// Streams every user of `set` through the packet executor. Throws
/// std::invalid_argument on a config the model rejects.
[[nodiscard]] PacketReplayStats replay_packets_streamed(
    const sim::ForwardingFabric& fabric, const trace::ShardSet& set,
    const PacketReplayConfig& config);

}  // namespace lina::des
