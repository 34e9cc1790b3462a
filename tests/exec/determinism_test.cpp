// Serial-vs-parallel bit-identity: the lina::exec contract (DESIGN.md §4c)
// is that every parallelized pipeline returns byte-for-byte the same result
// at any thread count. These tests pin that for the workload generator, the
// session simulator (all four architectures), the indirection-stretch
// pipeline, and the update-cost evaluator, and check the fabric's memoized
// degraded graph builds exactly once per (plan, epoch) key and its
// publish-once rows exactly once per AS under a thread race.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <latch>
#include <thread>
#include <vector>

#include "../support/fixtures.hpp"
#include "lina/core/latency_model.hpp"
#include "lina/core/update_cost.hpp"
#include "lina/exec/parallel.hpp"
#include "lina/exec/thread_pool.hpp"
#include "lina/mobility/device_workload.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/obs/registry.hpp"
#include "lina/sim/fabric.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/sim/resolver_pool.hpp"
#include "lina/sim/session.hpp"
#include "lina/stats/rng.hpp"

namespace lina {
namespace {

using lina::testing::shared_device_traces;
using lina::testing::shared_internet;
using topology::AsId;

/// Restores the ambient worker-count override on scope exit so these
/// tests cannot leak a 1-thread default into the rest of the binary.
class ThreadCountGuard {
 public:
  ThreadCountGuard() = default;
  ~ThreadCountGuard() { exec::set_default_threads(0); }
};

void expect_same_cdf(const stats::EmpiricalCdf& a,
                     const stats::EmpiricalCdf& b, const char* what) {
  ASSERT_EQ(a.sorted_samples().size(), b.sorted_samples().size()) << what;
  for (std::size_t i = 0; i < a.sorted_samples().size(); ++i) {
    // Exact double equality on purpose: the contract is bit-identity,
    // not tolerance.
    ASSERT_EQ(a.sorted_samples()[i], b.sorted_samples()[i])
        << what << " sample " << i;
  }
}

void expect_same_traces(const std::vector<mobility::DeviceTrace>& a,
                        const std::vector<mobility::DeviceTrace>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    ASSERT_EQ(a[u].user_id(), b[u].user_id());
    const auto va = a[u].visits();
    const auto vb = b[u].visits();
    ASSERT_EQ(va.size(), vb.size()) << "user " << u;
    for (std::size_t i = 0; i < va.size(); ++i) {
      ASSERT_EQ(va[i].start_hour, vb[i].start_hour) << u << ":" << i;
      ASSERT_EQ(va[i].duration_hours, vb[i].duration_hours) << u << ":" << i;
      ASSERT_EQ(va[i].address.value(), vb[i].address.value()) << u << ":" << i;
      ASSERT_EQ(va[i].as, vb[i].as) << u << ":" << i;
      ASSERT_EQ(va[i].cellular, vb[i].cellular) << u << ":" << i;
    }
  }
}

TEST(WorkloadDeterminismTest, BitIdenticalAtOneTwoAndEightThreads) {
  ThreadCountGuard guard;
  mobility::DeviceWorkloadConfig config;
  config.user_count = 40;
  config.days = 3;
  const mobility::DeviceWorkloadGenerator generator(shared_internet(),
                                                    config);
  exec::set_default_threads(1);
  const auto serial = generator.generate();
  for (const std::size_t threads : {2u, 8u}) {
    exec::set_default_threads(threads);
    expect_same_traces(serial, generator.generate());
  }
}

sim::SessionConfig determinism_session_config() {
  const auto& edges = shared_internet().edge_ases();
  sim::SessionConfig config;
  config.correspondent = edges[0];
  config.schedule = {{0.0, edges[5]}, {1500.0, edges[6]}};
  config.packet_interval_ms = 50.0;
  config.duration_ms = 4000.0;
  config.resolver_ttl_ms = 200.0;
  config.resolver_as = edges[40];
  config.resolver_replicas = {edges[40], edges[41], edges[42]};
  return config;
}

void expect_same_session_stats(const sim::SessionStats& a,
                               const sim::SessionStats& b) {
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.control_retries, b.control_retries);
  expect_same_cdf(a.delivery_delay_ms, b.delivery_delay_ms, "delay");
  expect_same_cdf(a.stretch, b.stretch, "stretch");
  expect_same_cdf(a.outage_ms, b.outage_ms, "outage");
  expect_same_cdf(a.recovery_ms, b.recovery_ms, "recovery");
}

TEST(SessionDeterminismTest, AllArchitecturesBitIdenticalSerialVsParallel) {
  ThreadCountGuard guard;
  const sim::ForwardingFabric fabric(shared_internet());
  const std::vector<sim::SimArchitecture> architectures{
      sim::SimArchitecture::kIndirection,
      sim::SimArchitecture::kNameResolution,
      sim::SimArchitecture::kNameBased,
      sim::SimArchitecture::kReplicatedResolution,
  };
  const auto config = determinism_session_config();

  exec::set_default_threads(1);
  std::vector<sim::SessionStats> serial;
  for (const auto arch : architectures) {
    serial.push_back(sim::simulate_session(fabric, arch, config));
  }
  for (const std::size_t threads : {2u, 8u}) {
    exec::set_default_threads(threads);
    // A fresh fabric per thread count: its memoized route tables must
    // fill to the same values no matter how many workers race to build
    // them.
    const sim::ForwardingFabric parallel_fabric(shared_internet());
    const auto parallel = exec::parallel_map(
        architectures.size(), [&](std::size_t i) {
          return sim::simulate_session(parallel_fabric, architectures[i],
                                       config);
        });
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_same_session_stats(serial[i], parallel[i]);
    }
  }
}

TEST(StretchDeterminismTest, PipelineBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const core::LatencyModel model(shared_internet());
  const auto run = [&](std::size_t threads) {
    exec::set_default_threads(threads);
    stats::Rng rng(99);  // fresh seed per run: coverage coins must match
    return core::evaluate_indirection_stretch(shared_device_traces(), model,
                                              0.3, rng);
  };
  const auto serial = run(1);
  EXPECT_GT(serial.pairs_total, 0u);
  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.pairs_total, serial.pairs_total);
    EXPECT_EQ(parallel.pairs_sampled, serial.pairs_sampled);
    expect_same_cdf(parallel.delay_ms, serial.delay_ms, "delay");
    expect_same_cdf(parallel.policy_hops, serial.policy_hops, "policy");
    expect_same_cdf(parallel.physical_hops, serial.physical_hops,
                    "physical");
    expect_same_cdf(parallel.away_time_share, serial.away_time_share,
                    "away");
  }
}

TEST(UpdateCostDeterminismTest, RatesBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const auto run = [&](std::size_t threads) {
    exec::set_default_threads(threads);
    const core::DeviceUpdateCostEvaluator evaluator(
        shared_internet().vantages());
    return evaluator.evaluate(shared_device_traces());
  };
  const auto serial = run(1);
  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = run(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t r = 0; r < serial.size(); ++r) {
      EXPECT_EQ(parallel[r].router, serial[r].router);
      EXPECT_EQ(parallel[r].events, serial[r].events);
      EXPECT_EQ(parallel[r].updates, serial[r].updates);
    }
  }
}

TEST(FabricMemoTest, DegradedGraphBuildsOncePerPlanEpoch) {
  obs::Registry::instance().reset();
  const obs::EnabledScope scope;
  const sim::ForwardingFabric fabric(shared_internet());
  const auto& edges = shared_internet().edge_ases();
  const AsId from = edges[1];
  const AsId dest = edges[10];
  // Take down the first transit hop of the policy route so every
  // failure-aware query inside the window needs the degraded graph.
  const AsId transit = *fabric.next_hop(from, dest);
  sim::FailurePlan plan(7);
  plan.as_outage(transit, 500.0, 3000.0);

  // Repeated queries (serially and racing across workers) within one
  // fault epoch: the memoizer must build the surviving-topology graph
  // exactly once, not once per query as a per-call cache would.
  for (double t = 600.0; t < 2900.0; t += 100.0) {
    (void)fabric.next_hop(from, dest, plan, t);
    (void)fabric.path_delay_ms(from, dest, plan, t);
  }
  exec::parallel_for(
      64,
      [&](std::size_t i) {
        (void)fabric.next_hop(from, dest, plan,
                              600.0 + static_cast<double>(i % 23) * 100.0);
      },
      8);
  EXPECT_EQ(obs::metric::fabric_degraded_graph_builds().value(), 1u);
  obs::Registry::instance().enable(false);
}

TEST(FabricMemoTest, ColdRowsRaceToOneBuildAndOneAddress) {
  // Stress for the publish-once tables: 8 threads released together walk
  // the same cold destinations of a fresh fabric and a fresh resolver
  // pool, each from its own offset, so first reads of one row collide.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRows = 24;
  obs::Registry::instance().reset();
  const obs::EnabledScope scope;
  const sim::ForwardingFabric fabric(shared_internet());
  const sim::ResolverPool pool(
      fabric, sim::ResolverPool::metro_placement(shared_internet(), 4));
  // The pool's scans read the replicas' route rows; build those first and
  // race over other destinations, so the delta counts only their rows.
  const AsId source = shared_internet().edge_ases().back();
  std::vector<AsId> dests;
  for (const AsId as : shared_internet().edge_ases()) {
    const auto replicas = pool.replicas();
    if (as != source &&
        std::find(replicas.begin(), replicas.end(), as) == replicas.end())
      dests.push_back(as);
    if (dests.size() == kRows) break;
  }
  ASSERT_EQ(dests.size(), kRows);
  for (const AsId replica : pool.replicas())
    (void)fabric.path_delay_ms(source, replica);
  const std::uint64_t builds_before =
      obs::metric::fabric_route_builds().value();

  std::vector<std::vector<const std::size_t*>> hop_rows(
      kThreads, std::vector<const std::size_t*>(kRows));
  std::vector<std::vector<AsId>> nearest(kThreads, std::vector<AsId>(kRows));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t k = 0; k < kRows; ++k) {
        const std::size_t row = (k + t * 3) % kRows;
        (void)fabric.step(source, dests[row]);
        hop_rows[t][row] = fabric.hop_row(dests[row]).data();
        nearest[t][row] = pool.nearest_replica(dests[row]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(obs::metric::fabric_route_builds().value() - builds_before,
            kRows);
  // The pool records one lookup delay per client scan it builds.
  EXPECT_EQ(obs::metric::resolver_lookup_delay_ms().count(), kRows);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(hop_rows[t], hop_rows[0]) << "thread " << t;
    EXPECT_EQ(nearest[t], nearest[0]) << "thread " << t;
  }
}

}  // namespace
}  // namespace lina
