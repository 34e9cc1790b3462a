#include "lina/topology/as_graph.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace lina::topology {

AsId AsGraph::add_as(AsTier tier, GeoPoint location) {
  links_.emplace_back();
  tiers_.push_back(tier);
  locations_.push_back(location);
  return static_cast<AsId>(tiers_.size() - 1);
}

void AsGraph::check(AsId as) const {
  if (as >= tiers_.size()) throw std::out_of_range("AsGraph: id out of range");
}

void AsGraph::add_link(AsId a, AsId b, AsRelationship rel_of_b_to_a) {
  check(a);
  check(b);
  if (a == b) throw std::invalid_argument("AsGraph: self-link");
  if (relationship(a, b).has_value())
    throw std::invalid_argument("AsGraph: duplicate link");
  const AsRelationship rel_of_a_to_b =
      rel_of_b_to_a == AsRelationship::kPeer
          ? AsRelationship::kPeer
          : (rel_of_b_to_a == AsRelationship::kProvider
                 ? AsRelationship::kCustomer
                 : AsRelationship::kProvider);
  links_[a].push_back({b, rel_of_b_to_a});
  links_[b].push_back({a, rel_of_a_to_b});
  ++link_count_;
}

void AsGraph::add_provider_link(AsId customer, AsId provider) {
  add_link(customer, provider, AsRelationship::kProvider);
}

void AsGraph::add_peer_link(AsId a, AsId b) {
  add_link(a, b, AsRelationship::kPeer);
}

std::span<const AsGraph::Link> AsGraph::links(AsId as) const {
  check(as);
  return links_[as];
}

std::size_t AsGraph::degree(AsId as) const {
  check(as);
  return links_[as].size();
}

std::optional<AsRelationship> AsGraph::relationship(AsId a, AsId b) const {
  check(a);
  check(b);
  for (const Link& link : links_[a]) {
    if (link.neighbor == b) return link.rel;
  }
  return std::nullopt;
}

AsTier AsGraph::tier(AsId as) const {
  check(as);
  return tiers_[as];
}

GeoPoint AsGraph::location(AsId as) const {
  check(as);
  return locations_[as];
}

std::vector<AsId> AsGraph::ases_of_tier(AsTier tier) const {
  std::vector<AsId> out;
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (tiers_[i] == tier) out.push_back(static_cast<AsId>(i));
  }
  return out;
}

namespace {

// Twelve world metro regions loosely matching the paper's vantage spread
// (US west/east, South America, Europe, Africa-adjacent islands, Asia,
// Oceania).
constexpr std::array<GeoPoint, 12> kMetroAnchors{{
    {45.5, -122.7},   // Portland / Oregon
    {37.8, -122.4},   // California
    {33.7, -84.4},    // Georgia
    {38.9, -77.0},    // Virginia
    {-23.5, -46.6},   // Sao Paulo
    {51.5, -0.1},     // London
    {48.9, 2.4},      // Paris
    {-20.2, 57.5},    // Mauritius
    {35.7, 139.7},    // Tokyo
    {-33.9, 151.2},   // Sydney
    {1.35, 103.8},    // Singapore
    {19.1, 72.9},     // Mumbai
}};

GeoPoint jitter(GeoPoint base, stats::Rng& rng, double spread_deg) {
  return GeoPoint{base.latitude_deg + rng.uniform(-spread_deg, spread_deg),
                  base.longitude_deg + rng.uniform(-spread_deg, spread_deg)};
}

}  // namespace

std::span<const GeoPoint> metro_anchors() { return kMetroAnchors; }

AsGraph make_hierarchical_internet(const InternetConfig& config,
                                   stats::Rng& rng) {
  if (config.tier1_count == 0 || config.tier2_count == 0)
    throw std::invalid_argument(
        "make_hierarchical_internet: need tier-1 and tier-2 ASes");
  if (config.tier2_min_providers == 0 || config.stub_min_providers == 0 ||
      config.tier2_min_providers > config.tier2_max_providers ||
      config.stub_min_providers > config.stub_max_providers)
    throw std::invalid_argument(
        "make_hierarchical_internet: bad multihoming bounds");

  AsGraph g;

  // Tier-1 core: one AS per metro anchor (cycling), full peer mesh.
  std::vector<AsId> tier1;
  for (std::size_t i = 0; i < config.tier1_count; ++i) {
    const GeoPoint base = kMetroAnchors[i % kMetroAnchors.size()];
    tier1.push_back(g.add_as(AsTier::kTier1, jitter(base, rng, 2.0)));
  }
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) {
      g.add_peer_link(tier1[i], tier1[j]);
    }
  }

  // Tier-2: multihomed to tier-1 providers, lateral peering.
  std::vector<AsId> tier2;
  for (std::size_t i = 0; i < config.tier2_count; ++i) {
    const GeoPoint base = kMetroAnchors[rng.index(kMetroAnchors.size())];
    const AsId as = g.add_as(AsTier::kTier2, jitter(base, rng, 6.0));
    tier2.push_back(as);
    const std::size_t providers =
        config.tier2_min_providers +
        rng.index(config.tier2_max_providers - config.tier2_min_providers + 1);
    std::vector<AsId> pool = tier1;
    for (std::size_t p = 0; p < providers && !pool.empty(); ++p) {
      const std::size_t pick = rng.index(pool.size());
      g.add_provider_link(as, pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  // Lateral tier-2 peering: expected tier2_peering_degree per AS.
  const std::size_t peer_links = static_cast<std::size_t>(
      std::llround(config.tier2_peering_degree *
                   static_cast<double>(config.tier2_count) / 2.0));
  for (std::size_t attempts = 0, made = 0;
       made < peer_links && attempts < peer_links * 20; ++attempts) {
    const AsId a = tier2[rng.index(tier2.size())];
    const AsId b = tier2[rng.index(tier2.size())];
    if (a == b || g.relationship(a, b).has_value()) continue;
    g.add_peer_link(a, b);
    ++made;
  }

  // Stubs: multihomed to (mostly regional) tier-2 providers.
  for (std::size_t i = 0; i < config.stub_count; ++i) {
    const GeoPoint base = kMetroAnchors[rng.index(kMetroAnchors.size())];
    const GeoPoint loc = jitter(base, rng, 8.0);
    const AsId as = g.add_as(AsTier::kStub, loc);
    const std::size_t providers =
        config.stub_min_providers +
        rng.index(config.stub_max_providers - config.stub_min_providers + 1);
    std::vector<AsId> pool = tier2;
    for (std::size_t p = 0; p < providers && !pool.empty(); ++p) {
      std::size_t pick = rng.index(pool.size());
      if (rng.chance(config.regional_bias)) {
        // Choose the nearest remaining tier-2 instead of a random one.
        double best = great_circle_km(loc, g.location(pool[0]));
        pick = 0;
        for (std::size_t c = 1; c < pool.size(); ++c) {
          const double d = great_circle_km(loc, g.location(pool[c]));
          if (d < best) {
            best = d;
            pick = c;
          }
        }
      }
      g.add_provider_link(as, pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }

  return g;
}

std::vector<std::size_t> hop_distances(const AsGraph& graph, AsId source) {
  if (source >= graph.as_count())
    throw std::out_of_range("hop_distances: source out of range");
  std::vector<std::size_t> dist(graph.as_count(), kUnreachedHops);
  dist[source] = 0;
  std::deque<AsId> queue{source};
  while (!queue.empty()) {
    const AsId u = queue.front();
    queue.pop_front();
    for (const AsGraph::Link& link : graph.links(u)) {
      if (dist[link.neighbor] == kUnreachedHops) {
        dist[link.neighbor] = dist[u] + 1;
        queue.push_back(link.neighbor);
      }
    }
  }
  return dist;
}

}  // namespace lina::topology
