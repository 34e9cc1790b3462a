#include "lina/sim/fabric.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "lina/obs/metrics.hpp"
#include "lina/obs/trace.hpp"
#include "lina/prof/prof.hpp"
#include "lina/routing/policy_routing.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/topology/geo.hpp"
#include "lina/topology/graph.hpp"

namespace lina::sim {

using topology::AsId;

ForwardingFabric::ForwardingFabric(const routing::SyntheticInternet& internet,
                                   FabricConfig config)
    : internet_(&internet), config_(config) {}

const std::vector<AsId>& ForwardingFabric::next_hops_toward(AsId dest) const {
  return next_hop_cache_.get_or_build(dest, [&] {
    PROF_SPAN("lina.fabric.route_build");
    const auto& graph = internet_->graph();
    const routing::PolicyRoutes routes(graph, dest);
    std::vector<AsId> hops(graph.as_count(), topology::kNoNode);
    hops[dest] = dest;
    for (AsId u = 0; u < graph.as_count(); ++u) {
      if (u == dest) continue;
      const auto path = routes.best_path(u);
      if (path.has_value() && !path->empty()) hops[u] = path->next_hop();
    }
    return hops;
  });
}

std::optional<AsId> ForwardingFabric::next_hop(AsId at, AsId dest) const {
  if (at >= internet_->graph().as_count() ||
      dest >= internet_->graph().as_count())
    throw std::out_of_range("ForwardingFabric::next_hop");
  obs::metric::fabric_next_hop_queries().add();
  const AsId hop = next_hops_toward(dest)[at];
  if (hop == topology::kNoNode) return std::nullopt;
  return hop;
}

double ForwardingFabric::link_delay_ms(AsId a, AsId b) const {
  const double propagation = topology::propagation_delay_ms(
      internet_->graph().location(a), internet_->graph().location(b),
      config_.inflation);
  return std::max(config_.min_link_ms, propagation + config_.per_hop_ms);
}

std::optional<double> ForwardingFabric::path_delay_ms(AsId from,
                                                      AsId to) const {
  double total = 0.0;
  AsId current = from;
  std::size_t guard = 0;
  while (current != to) {
    const auto hop = next_hop(current, to);
    if (!hop.has_value()) return std::nullopt;
    total += link_delay_ms(current, *hop);
    current = *hop;
    if (++guard > internet_->graph().as_count())
      throw std::logic_error("ForwardingFabric: routing loop");
  }
  return total;
}

std::optional<std::size_t> ForwardingFabric::path_hops(AsId from,
                                                       AsId to) const {
  std::size_t hops = 0;
  AsId current = from;
  while (current != to) {
    const auto hop = next_hop(current, to);
    if (!hop.has_value()) return std::nullopt;
    current = *hop;
    if (++hops > internet_->graph().as_count())
      throw std::logic_error("ForwardingFabric: routing loop");
  }
  return hops;
}

bool ForwardingFabric::policy_path_impaired(AsId from, AsId to,
                                            const FailurePlan& failures,
                                            double time_ms) const {
  if (!failures.data_plane_impaired(time_ms)) return false;
  obs::metric::fabric_impaired_path_checks().add();
  if (failures.as_down(from, time_ms) || failures.as_down(to, time_ms))
    return true;
  const auto& hops = next_hops_toward(to);
  AsId current = from;
  std::size_t guard = 0;
  while (current != to) {
    const AsId hop = hops[current];
    if (hop == topology::kNoNode) return true;  // no policy route: detour
    if (failures.as_down(hop, time_ms) ||
        failures.link_down(current, hop, time_ms))
      return true;
    current = hop;
    if (++guard > internet_->graph().as_count())
      throw std::logic_error("ForwardingFabric: routing loop");
  }
  return false;
}

const topology::AsGraph& ForwardingFabric::degraded_graph(
    const FailurePlan& failures, double time_ms) const {
  const auto key =
      std::make_pair(failures.stamp(), failures.data_plane_epoch(time_ms));
  return degraded_graph_cache_.get_or_build(key, [&] {
    PROF_SPAN("lina.fabric.degraded_graph_build");
    obs::metric::fabric_degraded_graph_builds().add();

    // Rebuild the AS graph without the elements the plan has taken down.
    // Every AS keeps its dense id (dead ones just lose all adjacencies), so
    // routes computed on the copy index directly into the healthy graph.
    const auto& graph = internet_->graph();
    topology::AsGraph degraded;
    for (AsId as = 0; as < graph.as_count(); ++as)
      degraded.add_as(graph.tier(as), graph.location(as));
    for (AsId u = 0; u < graph.as_count(); ++u) {
      if (failures.as_down(u, time_ms)) continue;
      for (const auto& link : graph.links(u)) {
        const AsId v = link.neighbor;
        if (v < u) continue;  // each undirected link once
        if (failures.as_down(v, time_ms) || failures.link_down(u, v, time_ms))
          continue;
        switch (link.rel) {  // role of v relative to u
          case topology::AsRelationship::kProvider:
            degraded.add_provider_link(u, v);
            break;
          case topology::AsRelationship::kCustomer:
            degraded.add_provider_link(v, u);
            break;
          case topology::AsRelationship::kPeer:
            degraded.add_peer_link(u, v);
            break;
        }
      }
    }
    return degraded;
  });
}

const std::vector<AsId>& ForwardingFabric::detour_hops_toward(
    AsId dest, const FailurePlan& failures, double time_ms) const {
  const auto key = std::make_tuple(failures.stamp(),
                                   failures.data_plane_epoch(time_ms), dest);
  return detour_cache_.get_or_build(key, [&] {
    PROF_SPAN("lina.fabric.detour_build");
    obs::metric::fabric_detour_route_builds().add();
    obs::TraceRing::instance().record("lina.sim.fabric.reconverge", time_ms,
                                      static_cast<double>(dest));

    // BGP reconvergence: valley-free policy routes on the surviving
    // topology. Detours therefore obey the same export rules as healthy
    // routes — a failure can only lengthen (or sever) a path, never grant a
    // cheaper one than policy allows.
    const auto& graph = degraded_graph(failures, time_ms);
    std::vector<AsId> hops(graph.as_count(), topology::kNoNode);
    if (!failures.as_down(dest, time_ms)) {
      const routing::PolicyRoutes routes(graph, dest);
      hops[dest] = dest;
      for (AsId u = 0; u < graph.as_count(); ++u) {
        if (u == dest || failures.as_down(u, time_ms)) continue;
        const auto path = routes.best_path(u);
        if (path.has_value() && !path->empty()) hops[u] = path->next_hop();
      }
    }
    return hops;
  });
}

std::optional<AsId> ForwardingFabric::next_hop(AsId at, AsId dest,
                                               const FailurePlan& failures,
                                               double time_ms) const {
  if (!failures.data_plane_impaired(time_ms)) return next_hop(at, dest);
  if (failures.as_down(at, time_ms) || failures.as_down(dest, time_ms))
    return std::nullopt;
  if (at == dest) return at;
  if (!policy_path_impaired(at, dest, failures, time_ms))
    return next_hop(at, dest);
  obs::metric::fabric_detour_hops().add();
  const AsId hop = detour_hops_toward(dest, failures, time_ms)[at];
  if (hop == topology::kNoNode) return std::nullopt;
  return hop;
}

std::optional<double> ForwardingFabric::path_delay_ms(
    AsId from, AsId to, const FailurePlan& failures, double time_ms) const {
  if (!failures.data_plane_impaired(time_ms))
    return path_delay_ms(from, to);
  if (failures.as_down(from, time_ms) || failures.as_down(to, time_ms))
    return std::nullopt;
  if (!policy_path_impaired(from, to, failures, time_ms))
    return path_delay_ms(from, to);
  const auto& hops = detour_hops_toward(to, failures, time_ms);
  double total = 0.0;
  AsId current = from;
  std::size_t guard = 0;
  while (current != to) {
    const AsId hop = hops[current];
    if (hop == topology::kNoNode) return std::nullopt;  // partitioned
    total += link_delay_ms(current, hop);
    current = hop;
    if (++guard > internet_->graph().as_count())
      throw std::logic_error("ForwardingFabric: detour loop");
  }
  return total;
}

std::size_t ForwardingFabric::physical_hops(AsId from, AsId to) const {
  if (from >= internet_->graph().as_count() ||
      to >= internet_->graph().as_count())
    throw std::out_of_range("ForwardingFabric::physical_hops");
  const std::size_t d = bfs_cache_.get_or_build(from, [&] {
    PROF_SPAN("lina.fabric.bfs_row");
    return topology::hop_distances(internet_->graph(), from);
  })[to];
  if (d == topology::kUnreachedHops)
    throw std::logic_error("ForwardingFabric: disconnected AS graph");
  return d;
}

}  // namespace lina::sim
