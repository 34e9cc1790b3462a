#include "lina/core/latency_model.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "lina/exec/parallel.hpp"
#include "lina/routing/policy_routing.hpp"
#include "lina/topology/geo.hpp"

namespace lina::core {

using topology::AsId;

LatencyModel::LatencyModel(const routing::SyntheticInternet& internet,
                           LatencyConfig config)
    : internet_(internet), config_(config) {}

std::size_t LatencyModel::physical_as_hops(AsId from, AsId to) const {
  if (from >= internet_.graph().as_count() ||
      to >= internet_.graph().as_count())
    throw std::out_of_range("LatencyModel::physical_as_hops");
  const std::size_t d = bfs_cache_.get_or_build(from, [&] {
    return topology::hop_distances(internet_.graph(), from);
  })[to];
  if (d == topology::kUnreachedHops)
    throw std::logic_error("LatencyModel: AS graph disconnected");
  return d;
}

std::optional<std::size_t> LatencyModel::policy_distance(AsId from,
                                                         AsId to) const {
  return policy_cache_.get_or_build(to, [&] {
    const routing::PolicyRoutes routes(internet_.graph(), to);
    std::vector<std::optional<std::size_t>> dists(
        internet_.graph().as_count());
    for (AsId u = 0; u < internet_.graph().as_count(); ++u) {
      dists[u] = routes.best_distance(u);
    }
    return dists;
  })[from];
}

std::optional<std::size_t> LatencyModel::policy_as_hops(AsId from,
                                                        AsId to) const {
  if (from >= internet_.graph().as_count() ||
      to >= internet_.graph().as_count())
    throw std::out_of_range("LatencyModel::policy_as_hops");
  if (from == to) return 0;
  return policy_distance(from, to);
}

std::optional<double> LatencyModel::one_way_delay_ms(AsId from,
                                                     AsId to) const {
  const auto hops = policy_as_hops(from, to);
  if (!hops.has_value()) return std::nullopt;
  const double propagation = topology::propagation_delay_ms(
      internet_.graph().location(from), internet_.graph().location(to),
      config_.inflation);
  return std::max(config_.min_delay_ms,
                  propagation + 2.0 * config_.access_ms +
                      config_.per_hop_ms * static_cast<double>(*hops));
}

namespace {

/// Per-trace partial of the Figure-10 analysis; merged in trace order so
/// the reduction is independent of how traces were sharded across workers.
struct StretchPartial {
  std::vector<double> delay_ms;
  std::vector<double> policy_hops;
  std::vector<double> physical_hops;
  std::optional<double> away_time_share;
  std::size_t pairs_total = 0;
  std::size_t pairs_sampled = 0;
};

StretchPartial evaluate_one_trace(const mobility::DeviceTrace& trace,
                                  const LatencyModel& model, double coverage,
                                  stats::Rng rng) {
  StretchPartial partial;
  if (trace.visits().empty()) return partial;
  const AsId home = trace.dominant_as();
  const net::Ipv4Address home_addr = trace.dominant_address();

  double away_time = 0.0;
  double total_time = 0.0;
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen_pairs;
  for (const mobility::DeviceVisit& visit : trace.visits()) {
    total_time += visit.duration_hours;
    const std::size_t physical =
        visit.as == home ? 0 : model.physical_as_hops(home, visit.as);
    if (physical >= 2) away_time += visit.duration_hours;

    // Each distinct (dominant, current) address pair contributes one
    // sample, as in §6.3.2.
    if (visit.address == home_addr) continue;
    if (!seen_pairs.emplace(home_addr.value(), visit.address.value())
             .second) {
      continue;
    }
    ++partial.pairs_total;
    partial.physical_hops.push_back(static_cast<double>(physical));
    if (!rng.chance(coverage)) continue;  // iPlane had no prediction
    const auto hops = model.policy_as_hops(home, visit.as);
    const auto delay = model.one_way_delay_ms(home, visit.as);
    if (!hops.has_value() || !delay.has_value()) continue;
    ++partial.pairs_sampled;
    partial.policy_hops.push_back(static_cast<double>(*hops));
    partial.delay_ms.push_back(*delay);
  }
  if (total_time > 0.0) partial.away_time_share = away_time / total_time;
  return partial;
}

}  // namespace

void IndirectionStretchAccumulator::accumulate(
    std::span<const mobility::DeviceTrace> batch) {
  // Trace t draws its iPlane-coverage coins from the counter-based
  // substream rng.split(t) — a pure function of the caller's seed and the
  // global trace index t — so the sampled pair set, and therefore every
  // distribution below, is bit-identical at any thread count and any
  // batching (including the serial, one-shot path).
  const std::size_t base = next_index_;
  const std::vector<StretchPartial> partials = exec::parallel_map(
      batch.size(), [&](std::size_t t) {
        return evaluate_one_trace(batch[t], model_, coverage_,
                                  rng_.split(base + t));
      });
  next_index_ += batch.size();

  for (const StretchPartial& partial : partials) {
    for (const double d : partial.delay_ms) result_.delay_ms.add(d);
    for (const double h : partial.policy_hops) result_.policy_hops.add(h);
    for (const double h : partial.physical_hops)
      result_.physical_hops.add(h);
    if (partial.away_time_share.has_value())
      result_.away_time_share.add(*partial.away_time_share);
    result_.pairs_total += partial.pairs_total;
    result_.pairs_sampled += partial.pairs_sampled;
  }
}

IndirectionStretchResult evaluate_indirection_stretch(
    std::span<const mobility::DeviceTrace> traces, const LatencyModel& model,
    double coverage, stats::Rng& rng) {
  IndirectionStretchAccumulator accumulator(model, coverage, rng);
  accumulator.accumulate(traces);
  return std::move(accumulator.result());
}

}  // namespace lina::core
