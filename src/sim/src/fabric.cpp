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
    : internet_(&internet),
      config_(config),
      route_cache_(internet.graph().as_count()),
      bfs_cache_(internet.graph().as_count()) {}

void ForwardingFabric::check_range(AsId a, AsId b, const char* query) const {
  if (a >= internet_->graph().as_count() || b >= internet_->graph().as_count())
    throw std::out_of_range(query);
}

ForwardingFabric::RouteRow ForwardingFabric::build_row(
    const topology::AsGraph& graph, AsId dest, const FailurePlan* failures,
    double time_ms) const {
  obs::metric::fabric_route_builds().add();
  const auto down = [&](AsId as) {
    return failures != nullptr && failures->as_down(as, time_ms);
  };
  RouteRow row{std::vector<AsId>(graph.as_count(), topology::kNoNode),
               std::vector<double>(graph.as_count(), 0.0)};
  if (down(dest)) return row;
  const routing::PolicyRoutes routes(graph, dest);
  row.next[dest] = dest;
  for (AsId u = 0; u < graph.as_count(); ++u) {
    if (u == dest || down(u)) continue;
    const auto path = routes.best_path(u);
    if (!path.has_value() || path->empty()) continue;
    row.next[u] = path->next_hop();
    row.link_ms[u] = link_delay_ms(u, row.next[u]);
  }
  return row;
}

const ForwardingFabric::RouteRow& ForwardingFabric::route_row(
    AsId dest) const {
  return route_cache_.get_or_build(dest, [&] {
    PROF_SPAN("lina.fabric.route_build");
    return build_row(internet_->graph(), dest, nullptr, 0.0);
  });
}

std::optional<RouteStep> ForwardingFabric::RouteRow::step(AsId at) const {
  if (next[at] == topology::kNoNode) return std::nullopt;
  return RouteStep{next[at], link_ms[at]};
}

std::optional<ForwardingFabric::Walk> ForwardingFabric::RouteRow::walk(
    AsId from, AsId to) const {
  Walk route{0.0, 0};
  AsId current = from;
  while (current != to) {
    const AsId hop = next[current];
    if (hop == topology::kNoNode) return std::nullopt;
    route.delay_ms += link_ms[current];
    current = hop;
    if (++route.hops > next.size())
      throw std::logic_error("ForwardingFabric: routing loop");
  }
  return route;
}

std::optional<RouteStep> ForwardingFabric::step(AsId at, AsId dest) const {
  check_range(at, dest, "ForwardingFabric::step");
  return route_row(dest).step(at);
}

std::optional<AsId> ForwardingFabric::next_hop(AsId at, AsId dest) const {
  const auto hop = step(at, dest);
  if (!hop.has_value()) return std::nullopt;
  return hop->next;
}

double ForwardingFabric::link_delay_ms(AsId a, AsId b) const {
  check_range(a, b, "ForwardingFabric::link_delay_ms");
  const double propagation = topology::propagation_delay_ms(
      internet_->graph().location(a), internet_->graph().location(b),
      config_.inflation);
  return std::max(config_.min_link_ms, propagation + config_.per_hop_ms);
}

std::optional<double> ForwardingFabric::path_delay_ms(AsId from,
                                                      AsId to) const {
  check_range(from, to, "ForwardingFabric::path_delay_ms");
  const auto route = route_row(to).walk(from, to);
  if (!route.has_value()) return std::nullopt;
  return route->delay_ms;
}

std::optional<std::size_t> ForwardingFabric::path_hops(AsId from,
                                                       AsId to) const {
  check_range(from, to, "ForwardingFabric::path_hops");
  const auto route = route_row(to).walk(from, to);
  if (!route.has_value()) return std::nullopt;
  return route->hops;
}

bool ForwardingFabric::policy_path_impaired(AsId from, AsId to,
                                            const FailurePlan& failures,
                                            double time_ms) const {
  check_range(from, to, "ForwardingFabric::policy_path_impaired");
  if (!failures.data_plane_impaired(time_ms)) return false;
  if (failures.as_down(from, time_ms) || failures.as_down(to, time_ms))
    return true;
  switch (impairment_row(to, failures, time_ms)[from]) {
    case Impairment::kClear:
      return false;
    case Impairment::kLoop:
      throw std::logic_error("ForwardingFabric: routing loop");
    default:
      return true;
  }
}

const std::vector<ForwardingFabric::Impairment>&
ForwardingFabric::impairment_row(AsId dest, const FailurePlan& failures,
                                 double time_ms) const {
  const auto key = std::make_tuple(failures.stamp(),
                                   failures.data_plane_epoch(time_ms), dest);
  return impairment_cache_.get_or_build(key, [&] {
    obs::metric::fabric_impaired_path_checks().add();
    // One pass over the healthy row: a route is impaired at its first dead
    // AS, cut link or missing next hop, so u inherits its next hop's state
    // unless the step u -> next[u] itself is broken. Each walk stops at the
    // first AS already resolved; the ASes it passed take its state.
    const auto& next = route_row(dest).next;
    std::vector<Impairment> row(next.size(), Impairment::kUnknown);
    row[dest] = Impairment::kClear;
    std::vector<AsId> walk;
    for (AsId u = 0; u < next.size(); ++u) {
      AsId current = u;
      Impairment state = row[current];
      while (state == Impairment::kUnknown) {
        row[current] = Impairment::kVisiting;
        walk.push_back(current);
        const AsId hop = next[current];
        if (hop == topology::kNoNode || failures.as_down(hop, time_ms) ||
            failures.link_down(current, hop, time_ms)) {
          state = Impairment::kImpaired;
          break;
        }
        current = hop;
        state = row[current];
      }
      // Back at an AS of this walk: a cycle with no broken step on it.
      if (state == Impairment::kVisiting) state = Impairment::kLoop;
      for (const AsId passed : walk) row[passed] = state;
      walk.clear();
    }
    return row;
  });
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

const ForwardingFabric::RouteRow& ForwardingFabric::detour_row(
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
    return build_row(degraded_graph(failures, time_ms), dest, &failures,
                     time_ms);
  });
}

std::optional<RouteStep> ForwardingFabric::step(AsId at, AsId dest,
                                                const FailurePlan& failures,
                                                double time_ms) const {
  check_range(at, dest, "ForwardingFabric::step");
  if (!failures.data_plane_impaired(time_ms)) return step(at, dest);
  if (failures.as_down(at, time_ms) || failures.as_down(dest, time_ms))
    return std::nullopt;
  if (at == dest) return RouteStep{at, 0.0};
  if (!policy_path_impaired(at, dest, failures, time_ms))
    return step(at, dest);
  obs::metric::fabric_detour_hops().add();
  return detour_row(dest, failures, time_ms).step(at);
}

std::optional<AsId> ForwardingFabric::next_hop(AsId at, AsId dest,
                                               const FailurePlan& failures,
                                               double time_ms) const {
  const auto hop = step(at, dest, failures, time_ms);
  if (!hop.has_value()) return std::nullopt;
  return hop->next;
}

std::optional<double> ForwardingFabric::path_delay_ms(
    AsId from, AsId to, const FailurePlan& failures, double time_ms) const {
  check_range(from, to, "ForwardingFabric::path_delay_ms");
  if (!failures.data_plane_impaired(time_ms))
    return path_delay_ms(from, to);
  if (failures.as_down(from, time_ms) || failures.as_down(to, time_ms))
    return std::nullopt;
  if (!policy_path_impaired(from, to, failures, time_ms))
    return path_delay_ms(from, to);
  const auto route = detour_row(to, failures, time_ms).walk(from, to);
  if (!route.has_value()) return std::nullopt;  // partitioned
  return route->delay_ms;
}

std::span<const std::size_t> ForwardingFabric::hop_row(AsId from) const {
  check_range(from, from, "ForwardingFabric::hop_row");
  return bfs_cache_.get_or_build(from, [&] {
    PROF_SPAN("lina.fabric.bfs_row");
    return topology::hop_distances(internet_->graph(), from);
  });
}

std::size_t ForwardingFabric::physical_hops(AsId from, AsId to) const {
  check_range(from, to, "ForwardingFabric::physical_hops");
  return reached_hops(hop_row(from)[to]);
}

}  // namespace lina::sim
