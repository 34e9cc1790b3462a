// The sim/DES differential suite: the stateful session simulator
// (sim::simulate_session) and the pure packet model (des::PacketModel
// driven by des::run_serial) implement the same four architectures
// independently, one with mutable registries and an event queue, the
// other closed-form in time. Over the shared 80-user fixture's first 24 h
// (20 ms CBR, no failures, cache off) they must send and deliver the same
// packets per session, with the same delay summed in microseconds, for
// every architecture. The directed cases below pin the two rules the
// engines used to disagree on: the newest registration wins, and a
// resolution is a round trip.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "../support/fixtures.hpp"
#include "lina/des/engine.hpp"
#include "lina/sim/resolver_pool.hpp"
#include "lina/sim/session.hpp"
#include "lina/trace/replay.hpp"

namespace lina::des {
namespace {

using lina::testing::shared_device_traces;
using lina::testing::shared_internet;
using topology::AsId;

constexpr double kHours = 24.0;
constexpr double kIntervalMs = 20.0;
constexpr double kTtlMs = 500.0;

const sim::ForwardingFabric& fabric() {
  static const sim::ForwardingFabric instance(shared_internet());
  return instance;
}

const std::vector<AsId>& replicas() {
  static const std::vector<AsId> pool =
      sim::ResolverPool::metro_placement(shared_internet(), 8);
  return pool;
}

AsId correspondent() { return shared_internet().edge_ases()[0]; }

/// One session's outcome on either side, in the DES digest's units.
struct Outcome {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delay_us_total = 0;
};

/// The one session description both engines run.
sim::SessionConfig session_config(
    const std::vector<sim::MobilityStep>& schedule) {
  sim::SessionConfig config;
  config.correspondent = correspondent();
  config.schedule = schedule;
  config.packet_interval_ms = kIntervalMs;
  config.duration_ms = kHours * 1000.0;
  config.resolver_as = replicas().front();
  config.resolver_ttl_ms = kTtlMs;
  config.resolver_replicas = replicas();
  return config;
}

Outcome run_sim(sim::SimArchitecture arch, const sim::SessionConfig& config) {
  const sim::SessionStats stats = simulate_session(fabric(), arch, config);
  Outcome outcome{stats.packets_sent, stats.packets_delivered, 0};
  // Same rounding as DeliveryDigest::add_delivered.
  for (const double delay : stats.delivery_delay_ms.sorted_samples())
    outcome.delay_us_total +=
        static_cast<std::uint64_t>(delay * 1000.0 + 0.5);
  return outcome;
}

Outcome run_des(sim::SimArchitecture arch, const sim::SessionConfig& config) {
  PacketModel model(fabric(), arch);
  model.add_session(config);
  const DeliveryDigest digest = run_serial(model).digest;
  return {digest.sent, digest.delivered, digest.delay_us_total};
}

/// Runs `config` through both engines, expects equal outcomes, and
/// returns the simulator's.
Outcome agreed(sim::SimArchitecture arch, const sim::SessionConfig& config) {
  const Outcome sim = run_sim(arch, config);
  const Outcome des = run_des(arch, config);
  EXPECT_EQ(sim.sent, des.sent);
  EXPECT_EQ(sim.delivered, des.delivered);
  EXPECT_EQ(sim.delay_us_total, des.delay_us_total);
  return sim;
}

double delay_ms(AsId from, AsId to) {
  return *fabric().path_delay_ms(from, to);
}

/// The registry the correspondent reads in the directed cases below: its
/// nearest replica, which is also the home agent and the single resolver.
AsId registry() {
  return sim::ResolverPool(fabric(), replicas())
      .nearest_replica(correspondent());
}

/// A short session with the directed cases' registry and `schedule`.
sim::SessionConfig directed_config(std::vector<sim::MobilityStep> schedule,
                                   double duration_ms) {
  sim::SessionConfig config = session_config(schedule);
  config.duration_ms = duration_ms;
  config.home_as = registry();
  config.resolver_as = registry();
  return config;
}

constexpr sim::SimArchitecture kArchitectures[] = {
    sim::SimArchitecture::kIndirection,
    sim::SimArchitecture::kNameResolution,
    sim::SimArchitecture::kReplicatedResolution,
    sim::SimArchitecture::kNameBased};

TEST(SimAgreementTest, EveryArchitectureSendsTheSamePackets) {
  ASSERT_EQ(shared_device_traces().size(), 80U);
  for (const auto arch : kArchitectures) {
    SCOPED_TRACE(sim::sim_architecture_name(arch));
    for (std::size_t u = 0; u < shared_device_traces().size(); ++u) {
      SCOPED_TRACE("user " + std::to_string(u));
      agreed(arch, session_config(trace::session_schedule_from_trace(
                       shared_device_traces()[u], kHours)));
    }
  }
}

// The device moves far away, then 1 ms later onto the registry itself, so
// the second registration lands at once and the first arrives later. The
// registry must keep the newer location: every packet sent once both have
// landed and the correspondent has re-resolved is delivered. A registry
// that kept the last arrival would point at the far AS for good.
TEST(SimAgreementTest, StaleRegistrationArrivingLateLosesToTheNewerOne) {
  const AsId home = registry();
  const sim::ResolverPool pool(fabric(), replicas());
  AsId far = home;
  for (const AsId as : shared_internet().edge_ases())
    if (delay_ms(as, home) > delay_ms(far, home)) far = as;
  const AsId start = shared_internet().edge_ases()[5];
  ASSERT_NE(start, home);
  constexpr double kMoveMs = 1000.0;
  constexpr double kSettledMs = 5000.0;
  constexpr double kDurationMs = 20000.0;
  const sim::SessionConfig config = directed_config(
      {{0.0, start}, {kMoveMs, far}, {kMoveMs + 1.0, home}}, kDurationMs);
  const auto settled_packets =
      static_cast<std::uint64_t>((kDurationMs - kSettledMs) / kIntervalMs);
  for (const auto arch : {sim::SimArchitecture::kIndirection,
                          sim::SimArchitecture::kNameResolution,
                          sim::SimArchitecture::kReplicatedResolution}) {
    SCOPED_TRACE(sim::sim_architecture_name(arch));
    // When the far registration reaches the registry: directly, or via
    // the device's nearest replica, which relays it.
    const AsId primary = arch == sim::SimArchitecture::kReplicatedResolution
                             ? pool.nearest_replica(far)
                             : home;
    const double late_ms =
        kMoveMs + delay_ms(far, primary) + delay_ms(primary, home);
    ASSERT_GT(late_ms, kMoveMs + 1.0);
    ASSERT_LT(late_ms + 2.0 * kTtlMs + 2.0 * delay_ms(correspondent(), home),
              kSettledMs);
    EXPECT_GE(agreed(arch, config).delivered, settled_packets);
  }
}

// The device moves onto the registry itself 1 ms before a TTL epoch. The
// epoch's query reads the new location, but the correspondent only learns
// it when the answer is back, one round trip later: until then it keeps
// sending to the old attachment, and those packets are lost.
TEST(SimAgreementTest, MoveBeforeAnEpochStaysHiddenForTheRoundTrip) {
  const AsId resolver = registry();
  const AsId start = shared_internet().edge_ases()[5];
  ASSERT_NE(start, resolver);
  const double query_ms = delay_ms(correspondent(), resolver);
  ASSERT_LT(query_ms, kTtlMs - 1.0);  // the epoch before reads `start`
  constexpr double kEpochMs = 10.0 * kTtlMs;
  constexpr double kMoveMs = kEpochMs - 1.0;
  constexpr double kDurationMs = kEpochMs + 2000.0;
  const double installed_ms =
      kEpochMs + query_ms + delay_ms(resolver, correspondent());
  const sim::SessionConfig config = directed_config(
      {{0.0, start}, {kMoveMs, resolver}}, kDurationMs);
  // Delivered: packets that reach `start` before the move, then packets
  // sent after the answer naming `resolver` is installed.
  std::uint64_t expected = 0;
  const double to_start = delay_ms(correspondent(), start);
  for (double t = 0.0; t < kDurationMs; t += kIntervalMs) {
    if (t + to_start < kMoveMs || t > installed_ms) ++expected;
  }
  for (const auto arch : {sim::SimArchitecture::kNameResolution,
                          sim::SimArchitecture::kReplicatedResolution}) {
    SCOPED_TRACE(sim::sim_architecture_name(arch));
    EXPECT_EQ(agreed(arch, config).delivered, expected);
  }
}

}  // namespace
}  // namespace lina::des
