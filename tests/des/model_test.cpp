// Packet model basics: session validation, the initial event, serial
// accounting, and the digest algebra the executors fold with.

#include <gtest/gtest.h>

#include <stdexcept>

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

TEST(DesModelTest, ValidatesSessions) {
  PacketModel model(fabric(), sim::SimArchitecture::kIndirection);
  SessionParams good;
  good.correspondent = edge(0);
  good.schedule = {{0.0, edge(1)}};
  EXPECT_EQ(model.add_session(good), 0u);

  SessionParams p = good;
  p.schedule.clear();
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  p = good;
  p.schedule = {{5.0, edge(1)}};  // first step must be at 0
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  p = good;
  p.schedule = {{0.0, edge(1)}, {200.0, edge(2)}, {100.0, edge(3)}};
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  p = good;
  p.interval_ms = 0.0;
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  p = good;
  p.duration_ms = -1.0;
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  p = good;
  p.correspondent = static_cast<AsId>(1u << 30);  // out of range
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  PacketModel resolution(fabric(), sim::SimArchitecture::kNameResolution);
  p = good;  // no resolver_as
  EXPECT_THROW(resolution.add_session(p), std::invalid_argument);
  p.resolver_as = edge(5);
  EXPECT_EQ(resolution.add_session(p), 0u);

  PacketModel replicated(fabric(),
                         sim::SimArchitecture::kReplicatedResolution);
  p = good;  // no replicas
  EXPECT_THROW(replicated.add_session(p), std::invalid_argument);
  p.resolver_replicas = {edge(5), edge(6)};
  EXPECT_EQ(replicated.add_session(p), 0u);
}

TEST(DesModelTest, InitialEventShape) {
  PacketModel model(fabric(), sim::SimArchitecture::kIndirection);
  SessionParams p;
  p.correspondent = edge(0);
  p.schedule = {{0.0, edge(1)}};
  p.start_ms = 125.0;
  model.add_session(p);
  const EventRecord first = model.initial_event(0);
  EXPECT_EQ(first.type, EventType::kEmit);
  EXPECT_DOUBLE_EQ(first.time_ms, 125.0);
  EXPECT_EQ(first.session, 0u);
  EXPECT_EQ(first.packet, 0u);
  EXPECT_EQ(first.at, edge(0));
}

TEST(DesModelTest, SerialAccounting) {
  PacketModel model(fabric(), sim::SimArchitecture::kIndirection);
  SessionParams p;
  p.correspondent = edge(0);
  p.schedule = {{0.0, edge(1)}};
  p.interval_ms = 20.0;
  p.duration_ms = 900.0;  // emits at 0, 20, ..., 880 -> 45 packets
  model.add_session(p);
  const RunStats stats = run_serial(model);
  EXPECT_EQ(stats.digest.sent, 45u);
  EXPECT_EQ(stats.digest.sent, stats.digest.delivered + stats.digest.lost);
  EXPECT_GE(stats.digest.hop_events, stats.digest.delivered);
  EXPECT_GT(stats.events, stats.digest.sent);
}

TEST(DesDigestTest, CombineIsCommutative) {
  DeliveryDigest a;
  a.add_delivered(1, 2, 30.0, 10.0, 5, 7);
  a.add_delivered(1, 3, 50.0, 30.0, 4, 7);
  DeliveryDigest b;
  b.add_delivered(2, 0, 12.0, 2.0, 3, 9);
  DeliveryDigest ab = a;
  ab.combine(b);
  DeliveryDigest ba = b;
  ba.combine(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.fingerprint(), ba.fingerprint());
  EXPECT_NE(ab.fingerprint(), a.fingerprint());
}

}  // namespace
}  // namespace lina::des
