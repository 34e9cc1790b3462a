// Edge cases of the session-parallel executor: an empty model, a single
// session (fewer sessions than chunks), zero-delay hops (every event of a
// packet lands at one instant), and a hop chain cut short by the packet
// TTL. All must match the serial engine bit-for-bit.

#include <gtest/gtest.h>

#include "../support/fixtures.hpp"
#include "lina/des/engine.hpp"

namespace lina::des {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const sim::ForwardingFabric& fabric() {
  static const sim::ForwardingFabric instance(shared_internet());
  return instance;
}

AsId edge(std::size_t i) { return shared_internet().edge_ases()[i]; }

SessionParams roaming_session() {
  SessionParams p;
  p.correspondent = edge(3);
  p.schedule = {{0.0, edge(40)}, {300.0, edge(41)}, {600.0, edge(42)}};
  p.interval_ms = 20.0;
  p.duration_ms = 900.0;
  return p;
}

PacketModel basic_model(const sim::ForwardingFabric& f,
                        std::size_t packet_ttl_hops = 64) {
  PacketModel model(f, sim::SimArchitecture::kIndirection, nullptr,
                    packet_ttl_hops);
  model.add_session(roaming_session());
  SessionParams q;
  q.correspondent = edge(7);
  q.schedule = {{0.0, edge(60)}};
  q.interval_ms = 20.0;
  q.duration_ms = 900.0;
  model.add_session(q);
  return model;
}

void expect_matches_serial(const PacketModel& model) {
  const RunStats serial = run_serial(model);
  for (const std::size_t threads : {1u, 4u, 8u}) {
    const RunStats parallel = run_parallel(model, {.threads = threads});
    EXPECT_EQ(parallel.digest, serial.digest) << "threads=" << threads;
    EXPECT_EQ(parallel.events, serial.events) << "threads=" << threads;
  }
}

TEST(DesEngineTest, EmptyModelRunsToNothing) {
  PacketModel model(fabric(), sim::SimArchitecture::kIndirection);
  const RunStats stats = run_parallel(model);
  EXPECT_EQ(stats.events, 0u);
  EXPECT_EQ(stats.digest, DeliveryDigest{});
  EXPECT_EQ(run_serial(model).events, 0u);
}

TEST(DesEdgeCaseTest, SingleSession) {
  // One session at eight threads: one chunk, seven idle workers.
  PacketModel model(fabric(), sim::SimArchitecture::kIndirection);
  model.add_session(roaming_session());
  const RunStats stats = run_parallel(model, {.threads = 8});
  EXPECT_EQ(stats.digest.sent, 45u);  // emits at 0, 20, ..., 880
  EXPECT_GT(stats.digest.delivered, 0u);
  expect_matches_serial(model);
}

TEST(DesEdgeCaseTest, ZeroDelayHops) {
  // A fabric where every link has zero delay: every hop of a packet runs
  // at its emission instant, so the serial reference orders them by FIFO
  // alone. The executor must still deliver the same multiset.
  sim::FabricConfig zero;
  zero.per_hop_ms = 0.0;
  zero.inflation = 0.0;
  zero.min_link_ms = 0.0;
  const sim::ForwardingFabric flat(shared_internet(), zero);
  ASSERT_EQ(flat.link_delay_ms(edge(3), shared_internet()
                                            .graph()
                                            .links(edge(3))
                                            .front()
                                            .neighbor),
            0.0);
  const PacketModel model = basic_model(flat);
  EXPECT_EQ(run_serial(model).digest.delay_us_total, 0u);
  expect_matches_serial(model);
}

TEST(DesEdgeCaseTest, HopChainHitsTtl) {
  // A one-hop TTL: every packet to a mobile more than one AS-hop away is
  // dropped mid-chain, so nothing is delivered and every hop chain ends
  // in the TTL branch.
  const PacketModel model = basic_model(fabric(), 1);
  const RunStats serial = run_serial(model);
  ASSERT_GT(serial.digest.sent, 0u);
  EXPECT_EQ(serial.digest.delivered, 0u);
  EXPECT_EQ(serial.digest.lost, serial.digest.sent);
  expect_matches_serial(model);
}

}  // namespace
}  // namespace lina::des
