// Packet model basics: session validation (one table for both engines),
// the initial event, serial accounting, and the digest algebra the
// executors fold with.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

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

/// What a call threw, by the std exception types validate_session uses.
template <typename Call>
std::string thrown(Call&& call) {
  try {
    call();
  } catch (const std::out_of_range&) {
    return "out_of_range";
  } catch (const std::invalid_argument&) {
    return "invalid_argument";
  } catch (const std::exception&) {
    return "other";
  }
  return "none";
}

/// An AS id no fabric in these tests has.
constexpr AsId kBadAs = AsId{1} << 30;

sim::SessionConfig good_config() {
  sim::SessionConfig config;
  config.correspondent = edge(0);
  config.schedule = {{0.0, edge(1)}, {100.0, edge(2)}};
  config.duration_ms = 200.0;
  return config;
}

// One validation table for both engines: every malformed config must be
// rejected by simulate_session and PacketModel::add_session alike, with
// the same exception type.
TEST(DesModelTest, ValidatesSessions) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static const sim::FailurePlan bad_plan =
      sim::FailurePlan().as_outage(kBadAs, 10.0, 20.0);
  using Arch = sim::SimArchitecture;
  using Config = sim::SessionConfig;
  const std::string bad = "invalid_argument";
  const std::string range = "out_of_range";
  struct Row {
    const char* name;
    Arch arch;
    void (*mutate)(Config&);
    std::string expected;
  };
  const Row rows[] = {
      {"empty schedule", Arch::kIndirection,
       [](Config& c) { c.schedule.clear(); }, bad},
      {"first step not at 0", Arch::kIndirection,
       [](Config& c) { c.schedule.front().time_ms = 5.0; }, bad},
      {"unsorted schedule", Arch::kNameBased,
       [](Config& c) { c.schedule.push_back({50.0, edge(3)}); }, bad},
      {"repeated step time", Arch::kIndirection,
       [](Config& c) { c.schedule.push_back({100.0, edge(3)}); }, bad},
      {"NaN step time", Arch::kNameBased,
       [](Config& c) { c.schedule.back().time_ms = kNaN; }, bad},
      {"infinite step time", Arch::kNameBased,
       [](Config& c) { c.schedule.back().time_ms = kInf; }, bad},
      {"zero interval", Arch::kIndirection,
       [](Config& c) { c.packet_interval_ms = 0.0; }, bad},
      {"NaN interval", Arch::kIndirection,
       [](Config& c) { c.packet_interval_ms = kNaN; }, bad},
      {"infinite interval", Arch::kIndirection,
       [](Config& c) { c.packet_interval_ms = kInf; }, bad},
      {"negative duration", Arch::kIndirection,
       [](Config& c) { c.duration_ms = -1.0; }, bad},
      {"NaN duration", Arch::kIndirection,
       [](Config& c) { c.duration_ms = kNaN; }, bad},
      {"infinite duration", Arch::kIndirection,
       [](Config& c) { c.duration_ms = kInf; }, bad},
      {"NaN resolver TTL", Arch::kNameResolution,
       [](Config& c) { c.resolver_ttl_ms = kNaN; }, bad},
      {"infinite resolver TTL", Arch::kNameResolution,
       [](Config& c) { c.resolver_ttl_ms = kInf; }, bad},
      {"NaN update hop", Arch::kNameBased,
       [](Config& c) { c.update_hop_ms = kNaN; }, bad},
      {"negative infinite update hop", Arch::kNameBased,
       [](Config& c) { c.update_hop_ms = -kInf; }, bad},
      {"no replicas", Arch::kReplicatedResolution,
       [](Config& c) { c.resolver_replicas.clear(); }, bad},
      {"malformed retry policy", Arch::kIndirection,
       [](Config& c) { c.retry.max_attempts = 0; }, bad},
      {"correspondent out of range", Arch::kIndirection,
       [](Config& c) { c.correspondent = kBadAs; }, range},
      {"schedule AS out of range", Arch::kNameBased,
       [](Config& c) { c.schedule.back().as = kBadAs; }, range},
      {"home AS out of range", Arch::kIndirection,
       [](Config& c) { c.home_as = kBadAs; }, range},
      {"resolver AS out of range", Arch::kNameResolution,
       [](Config& c) { c.resolver_as = kBadAs; }, range},
      {"replica AS out of range", Arch::kReplicatedResolution,
       [](Config& c) { c.resolver_replicas = {edge(5), kBadAs}; }, range},
      {"failure-plan AS out of range", Arch::kIndirection,
       [](Config& c) { c.failures = &bad_plan; }, range},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    Config config = good_config();
    row.mutate(config);
    PacketModel model(fabric(), row.arch);
    EXPECT_EQ(thrown([&] {
                (void)sim::simulate_session(fabric(), row.arch, config);
              }),
              row.expected);
    EXPECT_EQ(thrown([&] { model.add_session(config); }), row.expected);
    EXPECT_EQ(model.session_count(), 0u);
  }

  // The documented defaults hold in both engines: the resolver defaults to
  // the correspondent, the home agent to the initial attachment.
  for (const Arch arch : {Arch::kIndirection, Arch::kNameResolution}) {
    PacketModel model(fabric(), arch);
    EXPECT_EQ(thrown([&] { model.add_session(good_config()); }), "none");
    EXPECT_EQ(thrown([&] {
                (void)sim::simulate_session(fabric(), arch, good_config());
              }),
              "none");
  }
}

TEST(DesModelTest, RejectsMappingCache) {
  // The packet model has no mapping cache: a config asking for one is a
  // named error, not a silently uncached run.
  sim::SessionConfig config = good_config();
  config.mapping_cache.policy = cache::Policy::kTtlLru;
  config.mapping_cache.capacity = 4;
  config.mapping_cache.ttl_ms = 100.0;
  ASSERT_TRUE(config.mapping_cache.enabled());
  PacketModel model(fabric(), sim::SimArchitecture::kNameResolution);
  EXPECT_THROW(model.add_session(config), std::invalid_argument);
  EXPECT_NO_THROW((void)sim::simulate_session(
      fabric(), sim::SimArchitecture::kNameResolution, config));
}

TEST(DesModelTest, InitialEventShape) {
  PacketModel model(fabric(), sim::SimArchitecture::kIndirection);
  sim::SessionConfig config;
  config.correspondent = edge(0);
  config.schedule = {{0.0, edge(1)}};
  model.add_session(config);
  const EventRecord first = model.initial_event(0);
  EXPECT_EQ(first.type, EventType::kEmit);
  EXPECT_EQ(first.time_ms, 0.0);
  EXPECT_EQ(first.session, 0u);
  EXPECT_EQ(first.packet, 0u);
  EXPECT_EQ(first.at, edge(0));
}

TEST(DesModelTest, SerialAccounting) {
  PacketModel model(fabric(), sim::SimArchitecture::kIndirection);
  sim::SessionConfig config;
  config.correspondent = edge(0);
  config.schedule = {{0.0, edge(1)}};
  config.packet_interval_ms = 20.0;
  config.duration_ms = 900.0;  // emits at 0, 20, ..., 880 -> 45 packets
  model.add_session(config);
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
