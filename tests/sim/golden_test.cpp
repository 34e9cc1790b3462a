// Absolute pin on the session simulators. Every SessionStats field (the
// counters, the mapping-cache counters, and the bit patterns of the
// sorted samples of all five CDFs) is folded into one fingerprint per
// scenario, and the fingerprints are compared against constants captured
// from the reference implementation. The matrix covers the four
// architectures x {no plan, a plan with every fault kind} x {cache off,
// TTL+LRU cache}, plus the content simulator on the same axes, so a
// refactor of any data or control path (fault-free, faulty or cached)
// that changes a single delivery time fails here. Runs under the
// `resilience` ctest label.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "../support/fixtures.hpp"
#include "lina/cache/policy.hpp"
#include "lina/sim/content_session.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/sim/resolver_pool.hpp"
#include "lina/sim/session.hpp"

namespace lina::sim {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const ForwardingFabric& fabric() {
  static const ForwardingFabric instance(shared_internet());
  return instance;
}

AsId edge(std::size_t i) { return shared_internet().edge_ases()[i]; }

/// The policy route as the sequence of ASes from `from` to `to`.
std::vector<AsId> policy_route(AsId from, AsId to) {
  std::vector<AsId> route{from};
  while (route.back() != to)
    route.push_back(*fabric().next_hop(route.back(), to));
  return route;
}

/// 64-bit FNV-1a over raw words.
class Fingerprint {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const stats::EmpiricalCdf& cdf) {
    const std::vector<double>& samples = cdf.sorted_samples();
    add(samples.size());
    for (const double sample : samples) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &sample, sizeof bits);
      add(bits);
    }
  }
  void add(const cache::CacheStats& stats) {
    add(stats.hits);
    add(stats.misses);
    add(stats.insertions);
    add(stats.evictions);
    add(stats.ttl_expiries);
    add(stats.invalidations);
    add(stats.refreshes);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint(const SessionStats& stats) {
  Fingerprint print;
  print.add(stats.packets_sent);
  print.add(stats.packets_delivered);
  print.add(stats.packets_lost);
  print.add(stats.control_messages);
  print.add(stats.control_retries);
  print.add(stats.packets_sent_during_failure);
  print.add(stats.packets_delivered_during_failure);
  print.add(stats.delivery_delay_ms);
  print.add(stats.stretch);
  print.add(stats.outage_ms);
  print.add(stats.recovery_ms);
  print.add(stats.stretch_degraded);
  print.add(stats.mapping_cache);
  return print.value();
}

std::uint64_t fingerprint(const ContentSessionStats& stats) {
  Fingerprint print;
  print.add(stats.interests_sent);
  print.add(stats.satisfied_from_cache);
  print.add(stats.satisfied_from_publisher);
  print.add(stats.unsatisfied);
  print.add(stats.interest_retries);
  print.add(stats.cache_guided_interests);
  print.add(stats.retrieval_delay_ms);
  print.add(stats.mapping_cache);
  return print.value();
}

cache::CacheConfig ttl_lru_cache() {
  cache::CacheConfig cache;
  cache.policy = cache::Policy::kTtlLru;
  cache.capacity = 16;
  cache.ttl_ms = 400.0;
  return cache;
}

SessionConfig mobile_config() {
  static const std::vector<AsId> local =
      shared_internet().edge_ases_near(topology::metro_anchors()[0], 5);
  SessionConfig config;
  config.correspondent = edge(0);
  config.schedule = {{0.0, local[0]},
                     {2000.0, local[1]},
                     {4000.0, local[2]},
                     {6000.0, local[3]},
                     {8000.0, local[4]}};
  config.packet_interval_ms = 20.0;
  config.duration_ms = 10000.0;
  config.home_as = edge(100);
  config.resolver_as = edge(50);
  config.resolver_ttl_ms = 150.0;
  config.resolver_replicas =
      ResolverPool::metro_placement(shared_internet(), 6);
  // A short burst (100 + 200 + 400 ms) so a registration outlives it
  // within one 2 s dwell and falls back to soft-state renewal.
  config.retry.max_attempts = 4;
  return config;
}

/// One plan carrying every fault kind, each placed where it bites: a
/// transit AS on the correspondent->home route goes dark, a link on the
/// way to the second location is cut, the home agent and the single
/// resolver crash across the 4 s move for longer than one retry burst
/// (soft-state renewal), the correspondent's preferred replica crashes
/// and recovers before the end (anti-entropy resync), and update loss
/// overlaps the 6 s move.
const FailurePlan& every_fault_plan() {
  static const FailurePlan plan = [] {
    const SessionConfig config = mobile_config();
    const auto to_home = policy_route(config.correspondent, *config.home_as);
    const auto to_second =
        policy_route(config.correspondent, config.schedule[1].as);
    const ResolverPool pool(fabric(), config.resolver_replicas);
    FailurePlan faults(42);
    faults.as_outage(to_home[to_home.size() / 2], 1000.0, 2500.0);
    faults.link_cut(to_second[to_second.size() / 2 - 1],
                    to_second[to_second.size() / 2], 2200.0, 3600.0);
    faults.home_agent_crash(*config.home_as, 3500.0, 9000.0);
    faults.resolver_crash(*config.resolver_as, 3500.0, 9000.0);
    faults.resolver_crash(pool.nearest_replica(config.correspondent), 5500.0,
                          7000.0);
    faults.update_loss(0.5, 5800.0, 6500.0);
    return faults;
  }();
  return plan;
}

ContentSessionConfig content_config() {
  ContentSessionConfig config;
  config.consumer = edge(0);
  config.publisher_schedule = {
      {0.0, edge(40)}, {4000.0, edge(41)}, {8000.0, edge(42)}};
  config.duration_ms = 12000.0;
  config.request_interval_ms = 10.0;
  config.catalog_segments = 500;
  // Small content stores let mapping-cache hits travel to the publisher,
  // and a slow wavefront leaves their cached location stale for a while
  // after each move.
  config.cache_capacity = 4;
  config.update_hop_ms = 50.0;
  config.seed = 7;
  return config;
}

/// Publisher outage across the first move plus a dark transit AS on the
/// consumer->publisher route.
const FailurePlan& content_fault_plan() {
  static const FailurePlan plan = [] {
    const ContentSessionConfig config = content_config();
    const auto route =
        policy_route(config.consumer, config.publisher_schedule[1].as);
    FailurePlan faults(7);
    faults.as_outage(config.publisher_schedule[0].as, 3000.0, 5000.0);
    faults.as_outage(route[route.size() / 2], 6000.0, 9000.0);
    return faults;
  }();
  return plan;
}

struct Golden {
  const char* name;
  std::uint64_t fingerprint;
};

constexpr SimArchitecture kArchitectures[] = {
    SimArchitecture::kIndirection, SimArchitecture::kNameResolution,
    SimArchitecture::kNameBased, SimArchitecture::kReplicatedResolution};

// Captured from the reference implementation; order: architecture-major,
// then {no plan, plan}, then {cache off, cache on}.
constexpr Golden kSessionGolden[] = {
    {"indirection/clean/off", 0xff5874c5643bb1a6ULL},
    {"indirection/clean/lru", 0xc24934178977fafeULL},
    {"indirection/faults/off", 0xa4163060a4544d81ULL},
    {"indirection/faults/lru", 0xceac906f787d8440ULL},
    {"resolution/clean/off", 0x586dce1d4a668aa7ULL},
    {"resolution/clean/lru", 0x152457e881e4c561ULL},
    {"resolution/faults/off", 0x5be4dceccc649dafULL},
    {"resolution/faults/lru", 0x3e5d1bc0b03a5453ULL},
    {"name_based/clean/off", 0xfd3c6455dc741ae5ULL},
    {"name_based/clean/lru", 0xfd3c6455dc741ae5ULL},
    {"name_based/faults/off", 0x90e27c36914186c2ULL},
    {"name_based/faults/lru", 0x90e27c36914186c2ULL},
    {"replicated/clean/off", 0x9149f1af5a98c347ULL},
    {"replicated/clean/lru", 0x79cebb8f6131548eULL},
    {"replicated/faults/off", 0x8112c996366e7704ULL},
    {"replicated/faults/lru", 0x8dd9094bc4a1a1ddULL},
};

constexpr Golden kContentGolden[] = {
    {"content/clean/off", 0x0ab8562ae52da389ULL},
    {"content/clean/lru", 0x7ce8c29176139422ULL},
    {"content/faults/off", 0xfb7d62b01d0686d3ULL},
    {"content/faults/lru", 0xd06003550745639fULL},
};

std::string hex(std::uint64_t value) {
  char text[19];
  std::snprintf(text, sizeof text, "0x%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

TEST(SessionGoldenTest, EveryArchitectureFaultAndCacheArm) {
  std::size_t row = 0;
  for (const SimArchitecture arch : kArchitectures) {
    for (const bool faults : {false, true}) {
      for (const bool cached : {false, true}) {
        const Golden& golden = kSessionGolden[row++];
        SessionConfig config = mobile_config();
        if (faults) config.failures = &every_fault_plan();
        if (cached) config.mapping_cache = ttl_lru_cache();
        const SessionStats stats = simulate_session(fabric(), arch, config);
        ASSERT_GT(stats.packets_sent, 0U) << golden.name;
        EXPECT_EQ(hex(fingerprint(stats)), hex(golden.fingerprint))
            << golden.name << " (sent " << stats.packets_sent
            << ", delivered " << stats.packets_delivered << ", control "
            << stats.control_messages << ", retries "
            << stats.control_retries << ")";
      }
    }
  }
}

TEST(SessionGoldenTest, ContentSessionFaultAndCacheArms) {
  std::size_t row = 0;
  for (const bool faults : {false, true}) {
    for (const bool cached : {false, true}) {
      const Golden& golden = kContentGolden[row++];
      ContentSessionConfig config = content_config();
      if (faults) config.failures = &content_fault_plan();
      if (cached) {
        config.mapping_cache = ttl_lru_cache();
        config.mapping_cache.capacity = 64;
        config.mapping_cache.ttl_ms = 5000.0;
      }
      const ContentSessionStats stats =
          simulate_content_session(fabric(), config);
      EXPECT_EQ(hex(fingerprint(stats)), hex(golden.fingerprint))
          << golden.name << " (sent " << stats.interests_sent
          << ", satisfied " << stats.satisfied() << ", retries "
          << stats.interest_retries << ", guided "
          << stats.cache_guided_interests << ", invalidations "
          << stats.mapping_cache.invalidations << ")";
    }
  }
}

/// The plans must actually exercise the faulty paths: every fault kind
/// costs each control-plane architecture something.
TEST(SessionGoldenTest, FaultPlanBitesEveryArchitecture) {
  for (const SimArchitecture arch : kArchitectures) {
    SCOPED_TRACE(sim_architecture_name(arch));
    SessionConfig config = mobile_config();
    const SessionStats clean = simulate_session(fabric(), arch, config);
    config.failures = &every_fault_plan();
    const SessionStats faulty = simulate_session(fabric(), arch, config);
    EXPECT_GT(faulty.packets_sent_during_failure, 0U);
    EXPECT_NE(fingerprint(clean), fingerprint(faulty));
    if (arch != SimArchitecture::kNameBased) {
      EXPECT_GT(faulty.control_retries, 0U);
    }
  }
  ContentSessionConfig content = content_config();
  content.failures = &content_fault_plan();
  EXPECT_GT(simulate_content_session(fabric(), content).interest_retries, 0U);
}

}  // namespace
}  // namespace lina::sim
