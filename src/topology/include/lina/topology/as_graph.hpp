#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "lina/stats/rng.hpp"
#include "lina/topology/geo.hpp"

namespace lina::topology {

using AsId = std::uint32_t;

/// The business relationship a neighbor has *to* a given AS.
enum class AsRelationship : std::uint8_t {
  kProvider,  // the neighbor sells transit to this AS
  kCustomer,  // the neighbor buys transit from this AS
  kPeer,      // settlement-free peering
};

enum class AsTier : std::uint8_t {
  kTier1 = 1,  // transit-free core (peers with all other tier-1s)
  kTier2 = 2,  // regional transit providers
  kStub = 3,   // edge networks: enterprises, eyeball and content ASes
};

/// An AS-level Internet topology annotated with Gao-style business
/// relationships and geographic locations.
///
/// This is the substrate the policy-routing engine (src/routing) runs on to
/// produce the per-vantage RIBs that substitute for the paper's Routeviews
/// dumps, and the plane the latency model measures distances over.
class AsGraph {
 public:
  struct Link {
    AsId neighbor;
    AsRelationship rel;  // role of `neighbor` relative to the owning AS
  };

  /// Adds an AS; returns its dense id.
  AsId add_as(AsTier tier, GeoPoint location);

  /// Adds a transit link: `provider` sells transit to `customer`.
  /// Throws on self-links, duplicates, or out-of-range ids.
  void add_provider_link(AsId customer, AsId provider);

  /// Adds a settlement-free peering link.
  void add_peer_link(AsId a, AsId b);

  [[nodiscard]] std::span<const Link> links(AsId as) const;
  [[nodiscard]] std::size_t degree(AsId as) const;

  /// Role of `b` relative to `a`, or nullopt if not adjacent.
  [[nodiscard]] std::optional<AsRelationship> relationship(AsId a,
                                                           AsId b) const;

  [[nodiscard]] AsTier tier(AsId as) const;
  [[nodiscard]] GeoPoint location(AsId as) const;

  [[nodiscard]] std::size_t as_count() const { return tiers_.size(); }
  [[nodiscard]] std::size_t link_count() const { return link_count_; }

  /// All ASes of a given tier.
  [[nodiscard]] std::vector<AsId> ases_of_tier(AsTier tier) const;

 private:
  void check(AsId as) const;
  void add_link(AsId a, AsId b, AsRelationship rel_of_b_to_a);

  std::vector<std::vector<Link>> links_;
  std::vector<AsTier> tiers_;
  std::vector<GeoPoint> locations_;
  std::size_t link_count_ = 0;
};

/// hop_distances() entry of an AS the source cannot reach.
inline constexpr std::size_t kUnreachedHops =
    std::numeric_limits<std::size_t>::max();

/// Breadth-first physical hop count from `source` to every AS over all
/// links, ignoring business relationships; kUnreachedHops where no path
/// exists. Throws on an out-of-range source.
[[nodiscard]] std::vector<std::size_t> hop_distances(const AsGraph& graph,
                                                     AsId source);

/// Configuration for the hierarchical Internet generator.
struct InternetConfig {
  std::size_t tier1_count = 12;
  std::size_t tier2_count = 80;
  std::size_t stub_count = 600;

  /// Multihoming: how many providers each non-tier-1 AS buys from.
  std::size_t tier2_min_providers = 1;
  std::size_t tier2_max_providers = 3;
  std::size_t stub_min_providers = 1;
  std::size_t stub_max_providers = 2;

  /// Average number of lateral peering links per tier-2 AS.
  double tier2_peering_degree = 2.0;

  /// Probability that a stub's provider choice is biased to a geographically
  /// nearby tier-2 (vs uniformly random) — gives the graph locality.
  double regional_bias = 0.8;
};

/// Builds a three-tier Internet-like AS graph:
///  - tier-1 clique (full peer mesh) spread across world metro regions;
///  - tier-2 ASes multihomed to tier-1 providers, with lateral peering;
///  - stub ASes multihomed to (mostly regional) tier-2 providers.
/// The result is connected and valley-free-routable by construction.
[[nodiscard]] AsGraph make_hierarchical_internet(const InternetConfig& config,
                                                 stats::Rng& rng);

/// The metro anchor points the generator scatters ASes around; exposed so
/// tests and vantage-placement code can reuse them.
[[nodiscard]] std::span<const GeoPoint> metro_anchors();

}  // namespace lina::topology
