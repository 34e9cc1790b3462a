// First rung of the sim/DES differential suite: the stateful session
// simulator (sim::simulate_session) and the pure packet model
// (des::PacketModel driven by des::run_serial) implement the same four
// architectures independently. Over the shared 80-user fixture's first
// 24 h (20 ms CBR, no failures, cache off) they must emit the same
// packets per session, and name-based routing, whose beliefs both sides
// derive from the same closed-form wavefront, must also deliver the same
// packets with the same summed delay. The known delivered-count
// divergences of the three resolution/indirection architectures are
// recorded as test properties (`ctest --output-junit`), not asserted.

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

struct Mismatches {
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::size_t delay = 0;
};

Mismatches compare(sim::SimArchitecture arch) {
  Mismatches mismatches;
  for (const mobility::DeviceTrace& trace : shared_device_traces()) {
    const sim::SessionConfig config =
        session_config(trace::session_schedule_from_trace(trace, kHours));
    const Outcome sim = run_sim(arch, config);
    const Outcome des = run_des(arch, config);
    mismatches.sent += sim.sent != des.sent ? 1 : 0;
    mismatches.delivered += sim.delivered != des.delivered ? 1 : 0;
    mismatches.delay += sim.delay_us_total != des.delay_us_total ? 1 : 0;
  }
  return mismatches;
}

std::string slug(sim::SimArchitecture arch) {
  switch (arch) {
    case sim::SimArchitecture::kIndirection:
      return "indirection";
    case sim::SimArchitecture::kNameResolution:
      return "resolution";
    case sim::SimArchitecture::kNameBased:
      return "name_based";
    case sim::SimArchitecture::kReplicatedResolution:
      return "replicated";
  }
  return "unknown";
}

TEST(SimAgreementTest, EveryArchitectureSendsTheSamePackets) {
  ASSERT_EQ(shared_device_traces().size(), 80U);
  for (const auto arch :
       {sim::SimArchitecture::kIndirection,
        sim::SimArchitecture::kNameResolution,
        sim::SimArchitecture::kReplicatedResolution,
        sim::SimArchitecture::kNameBased}) {
    SCOPED_TRACE(sim::sim_architecture_name(arch));
    const Mismatches mismatches = compare(arch);
    EXPECT_EQ(mismatches.sent, 0U);
    if (arch == sim::SimArchitecture::kNameBased) {
      EXPECT_EQ(mismatches.delivered, 0U);
      EXPECT_EQ(mismatches.delay, 0U);
    } else {
      // Known divergence (ROADMAP: one semantics per architecture).
      RecordProperty("delivered_mismatch_" + slug(arch),
                     static_cast<int>(mismatches.delivered));
    }
  }
}

}  // namespace
}  // namespace lina::des
