#include "lina/sim/fabric.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "../support/fixtures.hpp"
#include "lina/routing/policy_routing.hpp"
#include "lina/sim/failure_plan.hpp"

namespace lina::sim {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const ForwardingFabric& fabric() {
  static const ForwardingFabric instance(shared_internet());
  return instance;
}

/// A reference route: link delays summed forward from the source.
struct ReferenceRoute {
  double delay_ms = 0.0;
  std::size_t hops = 0;
};

/// Walks `from` -> `to` with the public per-hop queries only: next_hop
/// for the route and link_delay_ms for each link, summed from the source.
std::optional<ReferenceRoute> reference_walk(AsId from, AsId to) {
  ReferenceRoute route;
  AsId current = from;
  while (current != to) {
    const auto next = fabric().next_hop(current, to);
    if (!next.has_value()) return std::nullopt;
    route.delay_ms += fabric().link_delay_ms(current, *next);
    current = *next;
    if (++route.hops > shared_internet().graph().as_count()) {
      ADD_FAILURE() << "routing loop " << from << " -> " << to;
      return std::nullopt;
    }
  }
  return route;
}

/// Every 13th AS: tier-1, transit and stub ASes alike.
std::vector<AsId> sample_ases() {
  std::vector<AsId> sample;
  for (AsId as = 0; as < shared_internet().graph().as_count(); as += 13)
    sample.push_back(as);
  return sample;
}

/// The healthy graph without the ASes and links `plan` has taken down at
/// `time_ms`, built independently of the fabric.
topology::AsGraph surviving_graph(const FailurePlan& plan, double time_ms) {
  const auto& graph = shared_internet().graph();
  topology::AsGraph out;
  for (AsId as = 0; as < graph.as_count(); ++as)
    out.add_as(graph.tier(as), graph.location(as));
  for (AsId u = 0; u < graph.as_count(); ++u) {
    for (const auto& link : graph.links(u)) {
      const AsId v = link.neighbor;
      if (v < u || plan.as_down(u, time_ms) || plan.as_down(v, time_ms) ||
          plan.link_down(u, v, time_ms))
        continue;
      if (link.rel == topology::AsRelationship::kProvider) {
        out.add_provider_link(u, v);
      } else if (link.rel == topology::AsRelationship::kCustomer) {
        out.add_provider_link(v, u);
      } else {
        out.add_peer_link(u, v);
      }
    }
  }
  return out;
}

TEST(FabricTest, SelfNextHopIsSelf) {
  const AsId as = shared_internet().edge_ases()[0];
  EXPECT_EQ(fabric().next_hop(as, as), as);
  EXPECT_EQ(fabric().path_hops(as, as), 0u);
  EXPECT_DOUBLE_EQ(*fabric().path_delay_ms(as, as), 0.0);
}

TEST(FabricTest, NextHopIsAdjacent) {
  const auto& graph = shared_internet().graph();
  const AsId dest = shared_internet().edge_ases()[3];
  for (AsId u = 0; u < graph.as_count(); u += 17) {
    if (u == dest) continue;
    const auto hop = fabric().next_hop(u, dest);
    ASSERT_TRUE(hop.has_value()) << u;
    EXPECT_TRUE(graph.relationship(u, *hop).has_value()) << u;
  }
}

TEST(FabricTest, HopByHopReachesDestination) {
  const AsId src = shared_internet().edge_ases()[1];
  const AsId dest = shared_internet().edge_ases()[10];
  AsId current = src;
  std::size_t hops = 0;
  while (current != dest) {
    const auto next = fabric().next_hop(current, dest);
    ASSERT_TRUE(next.has_value());
    current = *next;
    ASSERT_LT(++hops, 32u);
  }
  EXPECT_EQ(fabric().path_hops(src, dest), hops);
}

TEST(FabricTest, PathDelayIsSumOfLinkDelays) {
  // Bit-exact: the memoized rows must give the same doubles as adding
  // link_delay_ms hop by hop from the source, for every ordered pair.
  for (const AsId from : sample_ases()) {
    for (const AsId to : sample_ases()) {
      SCOPED_TRACE(::testing::Message() << from << " -> " << to);
      const auto reference = reference_walk(from, to);
      ASSERT_TRUE(reference.has_value());
      EXPECT_EQ(*fabric().path_delay_ms(from, to), reference->delay_ms);
      EXPECT_EQ(*fabric().path_hops(from, to), reference->hops);
      AsId current = from;
      while (current != to) {
        const auto step = fabric().step(current, to);
        ASSERT_TRUE(step.has_value());
        EXPECT_EQ(step->next, *fabric().next_hop(current, to));
        EXPECT_EQ(step->delay_ms, fabric().link_delay_ms(current, step->next));
        current = step->next;
      }
      const auto here = fabric().step(to, to);
      ASSERT_TRUE(here.has_value());
      EXPECT_EQ(here->next, to);
      EXPECT_EQ(here->delay_ms, 0.0);
    }
  }
}

TEST(FabricTest, FailureAwarePathDelayIsSumOfLinkDelays) {
  // A dead transit AS on one policy route and a cut link on another, both
  // active at t: pairs whose route crosses either read detour rows.
  const auto& edges = shared_internet().edge_ases();
  std::vector<AsId> route{edges[0]};
  while (route.back() != edges[25])
    route.push_back(*fabric().next_hop(route.back(), edges[25]));
  ASSERT_GE(route.size(), 3u) << "need a transit AS to kill";
  const AsId dead = route[route.size() / 2];
  const AsId cut_to = edges[40];
  AsId cut_from = edges[3];
  while (*fabric().next_hop(cut_from, cut_to) != cut_to)
    cut_from = *fabric().next_hop(cut_from, cut_to);
  const double t = 500.0;
  FailurePlan plan;
  plan.as_outage(dead, 0.0, 1000.0).link_cut(cut_from, cut_to, 0.0, 1000.0);
  ASSERT_TRUE(plan.data_plane_impaired(t));

  const topology::AsGraph surviving = surviving_graph(plan, t);
  std::vector<AsId> sample = sample_ases();
  sample.insert(sample.end(), {edges[0], edges[25], edges[3], cut_to, dead});
  std::size_t detours = 0;
  for (const AsId to : sample) {
    const routing::PolicyRoutes reconverged(surviving, to);
    for (const AsId from : sample) {
      SCOPED_TRACE(::testing::Message() << from << " -> " << to);
      const auto delay = fabric().path_delay_ms(from, to, plan, t);
      const auto step = fabric().step(from, to, plan, t);
      const auto next = fabric().next_hop(from, to, plan, t);
      ASSERT_EQ(step.has_value(), next.has_value());
      if (step.has_value()) {
        EXPECT_EQ(step->next, *next);
        EXPECT_EQ(step->delay_ms,
                  from == to ? 0.0 : fabric().link_delay_ms(from, *next));
      }
      if (plan.as_down(from, t) || plan.as_down(to, t)) {
        EXPECT_FALSE(delay.has_value());
        EXPECT_FALSE(step.has_value());
        continue;
      }
      if (!fabric().policy_path_impaired(from, to, plan, t)) {
        const auto reference = reference_walk(from, to);
        ASSERT_TRUE(reference.has_value());
        ASSERT_TRUE(delay.has_value());
        EXPECT_EQ(*delay, reference->delay_ms);
        continue;
      }
      // Reconverged: the valley-free route on the surviving graph.
      ++detours;
      const auto path = reconverged.best_path(from);
      ASSERT_EQ(delay.has_value(), path.has_value());
      if (!path.has_value()) continue;
      double reference = 0.0;
      AsId at = from;
      for (const AsId hop : path->hops()) {
        reference += fabric().link_delay_ms(at, hop);
        at = hop;
      }
      EXPECT_EQ(*delay, reference);
      ASSERT_TRUE(step.has_value());
      EXPECT_EQ(step->next, path->next_hop());
    }
  }
  EXPECT_GT(detours, 0u);
}

TEST(FabricTest, PolicyPathImpairedMatchesRouteWalk) {
  // Two fault epochs with different dead elements: the memoized
  // impairment rows must agree with a walk of the healthy route that
  // stops at the first dead AS or cut link, in each epoch.
  const auto& edges = shared_internet().edge_ases();
  std::vector<AsId> route{edges[2]};
  while (route.back() != edges[30])
    route.push_back(*fabric().next_hop(route.back(), edges[30]));
  ASSERT_GE(route.size(), 4u);
  FailurePlan plan;
  plan.as_outage(route[1], 0.0, 1000.0)
      .link_cut(route[route.size() - 2], route.back(), 1000.0, 2000.0);
  const auto walk_impaired = [&](AsId from, AsId to, double t) {
    if (plan.as_down(from, t) || plan.as_down(to, t)) return true;
    for (AsId at = from; at != to;) {
      const auto next = fabric().next_hop(at, to);
      if (!next.has_value() || plan.as_down(*next, t) ||
          plan.link_down(at, *next, t))
        return true;
      at = *next;
    }
    return false;
  };
  std::vector<AsId> sample = sample_ases();
  sample.insert(sample.end(), route.begin(), route.end());
  for (const double t : {500.0, 1500.0}) {
    std::size_t impaired = 0;
    for (const AsId to : sample) {
      for (const AsId from : sample) {
        const bool expected = walk_impaired(from, to, t);
        EXPECT_EQ(fabric().policy_path_impaired(from, to, plan, t), expected)
            << from << " -> " << to << " at " << t;
        impaired += expected ? 1 : 0;
      }
    }
    EXPECT_GT(impaired, 0u) << t;
  }
  EXPECT_FALSE(fabric().policy_path_impaired(edges[2], edges[30], plan,
                                             2500.0));
}

TEST(FabricTest, HopRowIsSymmetric) {
  const std::vector<AsId> sample = sample_ases();
  for (const AsId a : sample) {
    const auto row = fabric().hop_row(a);
    ASSERT_EQ(row.size(), shared_internet().graph().as_count());
    EXPECT_EQ(row[a], 0u);
    for (const AsId b : sample) {
      EXPECT_EQ(row[b], fabric().hop_row(b)[a]) << a << " <-> " << b;
      EXPECT_EQ(row[b], fabric().physical_hops(a, b));
    }
  }
  // One memoized row per AS: repeated reads see the same storage.
  EXPECT_EQ(fabric().hop_row(sample[1]).data(),
            fabric().hop_row(sample[1]).data());
}

TEST(FabricTest, UnreachedHopRowEntryThrows) {
  EXPECT_EQ(ForwardingFabric::reached_hops(3), 3u);
  EXPECT_THROW((void)ForwardingFabric::reached_hops(topology::kUnreachedHops),
               std::logic_error);
}

TEST(FabricTest, LinkDelayPositiveAndSymmetricEnough) {
  const auto& graph = shared_internet().graph();
  const AsId a = 0;
  for (const auto& link : graph.links(a)) {
    const double forward = fabric().link_delay_ms(a, link.neighbor);
    const double backward = fabric().link_delay_ms(link.neighbor, a);
    EXPECT_GT(forward, 0.0);
    EXPECT_DOUBLE_EQ(forward, backward);
  }
}

TEST(FabricTest, PhysicalHopsLowerBoundsPolicyHops) {
  for (std::size_t i = 0; i + 5 < shared_internet().edge_ases().size();
       i += 11) {
    const AsId a = shared_internet().edge_ases()[i];
    const AsId b = shared_internet().edge_ases()[i + 5];
    const auto policy = fabric().path_hops(a, b);
    ASSERT_TRUE(policy.has_value());
    EXPECT_GE(*policy, fabric().physical_hops(a, b));
  }
}

TEST(FabricTest, OutOfRangeThrows) {
  const auto n = static_cast<AsId>(shared_internet().graph().as_count());
  EXPECT_THROW((void)fabric().next_hop(1u << 20, 0), std::out_of_range);
  EXPECT_THROW((void)fabric().physical_hops(0, 1u << 20),
               std::out_of_range);
  EXPECT_THROW((void)fabric().hop_row(n), std::out_of_range);
  // A query from an AS outside the graph to itself is not a 0-hop route.
  EXPECT_THROW((void)fabric().path_delay_ms(n, n), std::out_of_range);
  EXPECT_THROW((void)fabric().path_hops(n, n), std::out_of_range);
  EXPECT_THROW((void)fabric().step(n, 0), std::out_of_range);
  EXPECT_THROW((void)fabric().step(0, n), std::out_of_range);
  EXPECT_THROW((void)fabric().link_delay_ms(0, n), std::out_of_range);

  // While a fault is active, the failure-aware queries check too.
  FailurePlan plan;
  plan.as_outage(shared_internet().edge_ases()[5], 0.0, 1000.0);
  ASSERT_TRUE(plan.data_plane_impaired(500.0));
  EXPECT_THROW((void)fabric().path_delay_ms(n, 0, plan, 500.0),
               std::out_of_range);
  EXPECT_THROW((void)fabric().path_delay_ms(0, n, plan, 500.0),
               std::out_of_range);
  EXPECT_THROW((void)fabric().next_hop(n, 0, plan, 500.0),
               std::out_of_range);
  EXPECT_THROW((void)fabric().step(n, 0, plan, 500.0), std::out_of_range);
  EXPECT_THROW((void)fabric().policy_path_impaired(n, 0, plan, 500.0),
               std::out_of_range);
}

}  // namespace
}  // namespace lina::sim
