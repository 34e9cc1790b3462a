// The acceptance gate of DESIGN.md §4i: the session-parallel executor's
// delivered-packet digest and event count must equal the serial
// sim::EventQueue loop's bit-for-bit for every architecture, at thread
// counts {1, 4, 8}, with and without an active FailurePlan.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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

std::vector<AsId> metro_locals(std::size_t anchor, std::size_t k) {
  return shared_internet().edge_ases_near(topology::metro_anchors()[anchor],
                                          k);
}

/// A small mixed population: stationary, metro-local roamers, and one
/// cross-metro mover, so every belief path (stale resolver answers,
/// wavefront re-aiming, triangle re-addressing) fires.
void add_population(PacketModel& model,
                    const sim::FailurePlan* failures = nullptr) {
  const std::vector<AsId> near0 = metro_locals(0, 4);
  const std::vector<AsId> near1 = metro_locals(1, 3);
  {
    sim::SessionConfig p;
    p.failures = failures;
    p.correspondent = edge(0);
    p.schedule = {{0.0, edge(25)}};
    p.packet_interval_ms = 40.0;
    p.duration_ms = 1600.0;
    p.resolver_as = edge(10);
    p.resolver_replicas = {edge(10), edge(30), edge(50)};
    model.add_session(p);
  }
  {
    sim::SessionConfig p;
    p.failures = failures;
    p.correspondent = edge(1);
    p.schedule = {{0.0, near0[0]},
                  {400.0, near0[1]},
                  {800.0, near0[2]},
                  {1200.0, near0[3]}};
    p.packet_interval_ms = 25.0;
    p.duration_ms = 1600.0;
    p.resolver_ttl_ms = 120.0;
    p.resolver_as = edge(10);
    p.resolver_replicas = {edge(10), edge(30), edge(50)};
    model.add_session(p);
  }
  {
    sim::SessionConfig p;
    p.failures = failures;
    p.correspondent = edge(2);
    p.schedule = {{0.0, near0[1]}, {700.0, near1[0]}, {1300.0, near1[1]}};
    p.packet_interval_ms = 30.0;
    p.duration_ms = 1500.0;
    p.resolver_ttl_ms = 90.0;
    p.resolver_as = edge(30);
    p.resolver_replicas = {edge(30), edge(50)};
    p.update_scope_hops = 3;  // §8 scoped flooding
    model.add_session(p);
  }
}

sim::FailurePlan faulty_plan() {
  sim::FailurePlan plan(7);
  // A transit outage and a link cut mid-run impair the data plane; a
  // resolver crash and a home-agent crash hit the control processes the
  // resolution / indirection architectures depend on.
  plan.as_outage(shared_internet().graph().ases_of_tier(
                     topology::AsTier::kTier2)[0],
                 300.0, 700.0);
  plan.link_cut(edge(25), shared_internet()
                              .graph()
                              .links(edge(25))
                              .front()
                              .neighbor,
                500.0, 900.0);
  plan.resolver_crash(edge(10), 200.0, 600.0);
  plan.home_agent_crash(edge(25), 800.0, 1100.0);
  return plan;
}

constexpr sim::SimArchitecture kAll[] = {
    sim::SimArchitecture::kIndirection,
    sim::SimArchitecture::kNameResolution,
    sim::SimArchitecture::kReplicatedResolution,
    sim::SimArchitecture::kNameBased,
};

TEST(DesIdentityTest, ParallelMatchesSerialAcrossMatrix) {
  const sim::FailurePlan plan = faulty_plan();
  for (const bool with_faults : {false, true}) {
    for (const sim::SimArchitecture arch : kAll) {
      PacketModel model(fabric(), arch);
      add_population(model, with_faults ? &plan : nullptr);
      const RunStats serial = run_serial(model);
      ASSERT_GT(serial.digest.sent, 0u);
      ASSERT_GT(serial.digest.delivered, 0u);
      EXPECT_EQ(serial.digest.sent,
                serial.digest.delivered + serial.digest.lost);
      for (const std::size_t threads : {1u, 4u, 8u}) {
        const RunStats parallel = run_parallel(model, {.threads = threads});
        EXPECT_EQ(parallel.digest, serial.digest)
            << "arch=" << static_cast<int>(arch) << " threads=" << threads
            << " faults=" << with_faults;
        EXPECT_EQ(parallel.events, serial.events);
      }
    }
  }
}

TEST(DesIdentityTest, DigestIsThreadInvariantButFaultSensitive) {
  const sim::FailurePlan plan = faulty_plan();
  PacketModel healthy(fabric(), sim::SimArchitecture::kIndirection);
  PacketModel faulted(fabric(), sim::SimArchitecture::kIndirection);
  add_population(healthy);
  add_population(faulted, &plan);
  // Thread counts that do not divide the session count still cover every
  // session exactly once.
  const RunStats one = run_parallel(faulted, {.threads = 1});
  for (const std::size_t threads : {2u, 3u, 16u}) {
    EXPECT_EQ(run_parallel(faulted, {.threads = threads}).digest, one.digest)
        << "threads=" << threads;
  }
  // Faults must change the digest (otherwise the with-faults arm of the
  // matrix proves nothing).
  EXPECT_NE(run_serial(healthy).digest, run_serial(faulted).digest);
}

}  // namespace
}  // namespace lina::des
