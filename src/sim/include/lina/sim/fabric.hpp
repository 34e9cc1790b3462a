#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "lina/exec/memo.hpp"
#include "lina/routing/synthetic_internet.hpp"
#include "lina/topology/as_graph.hpp"

namespace lina::sim {

class FailurePlan;

struct FabricConfig {
  double per_hop_ms = 2.0;   // per-AS processing/queueing
  double inflation = 1.6;    // geographic route inflation
  double min_link_ms = 0.2;  // floor for intra-metro links
};

/// The packet-forwarding substrate: per-destination next hops along the
/// synthetic Internet's valley-free policy routes, and per-link delays
/// from AS geography. All architecture simulators forward through this
/// fabric; they differ only in *which destination* each element of the
/// network believes the mobile endpoint is at.
///
/// Thread-safe: one fabric may be shared by any number of concurrent
/// sessions / query threads (lina::exec workers). The per-destination
/// route tables, BFS distance rows, degraded graphs, and detour tables
/// are memoized behind striped shared mutexes, and each entry is built
/// exactly once per key — so the cached values, and every query result,
/// are bit-identical whether the fabric is driven by one thread or many.
class ForwardingFabric {
 public:
  explicit ForwardingFabric(const routing::SyntheticInternet& internet,
                            FabricConfig config = {});

  /// Next hop from `at` toward destination AS `dest`; `at` itself when
  /// at == dest; nullopt if the policy plane has no route.
  [[nodiscard]] std::optional<topology::AsId> next_hop(
      topology::AsId at, topology::AsId dest) const;

  /// One-hop delay across the (a, b) link.
  [[nodiscard]] double link_delay_ms(topology::AsId a,
                                     topology::AsId b) const;

  /// End-to-end delay along the policy route, or nullopt if unroutable.
  [[nodiscard]] std::optional<double> path_delay_ms(topology::AsId from,
                                                    topology::AsId to) const;

  /// Hop count of the policy route, or nullopt.
  [[nodiscard]] std::optional<std::size_t> path_hops(
      topology::AsId from, topology::AsId to) const;

  /// Physical (policy-free) AS-hop distance; used for update wavefronts.
  [[nodiscard]] std::size_t physical_hops(topology::AsId from,
                                          topology::AsId to) const;

  // Failure-aware forwarding (the FailurePlan layer). When no data-plane
  // fault is active at `time_ms` these delegate to the base queries and
  // return bit-identical results; when the policy route is broken by an
  // active fault they fall back to the valley-free policy route recomputed
  // on the surviving topology (dead ASes and cut links removed), modelling
  // BGP reconvergence — detours stay policy-compliant, they do not become
  // delay-optimal shortcuts. Unroutable (nullopt) when the fault kills an
  // endpoint or no valley-free route survives.

  /// Failure-aware next hop from `at` toward `dest`.
  [[nodiscard]] std::optional<topology::AsId> next_hop(
      topology::AsId at, topology::AsId dest, const FailurePlan& failures,
      double time_ms) const;

  /// Failure-aware end-to-end delay.
  [[nodiscard]] std::optional<double> path_delay_ms(
      topology::AsId from, topology::AsId to, const FailurePlan& failures,
      double time_ms) const;

  /// True when the policy route from -> to traverses an AS or link that a
  /// fault has taken down at `time_ms` (or no policy route exists while
  /// the data plane is impaired).
  [[nodiscard]] bool policy_path_impaired(topology::AsId from,
                                          topology::AsId to,
                                          const FailurePlan& failures,
                                          double time_ms) const;

  [[nodiscard]] const routing::SyntheticInternet& internet() const {
    return *internet_;
  }
  [[nodiscard]] const FabricConfig& config() const { return config_; }

 private:
  const std::vector<topology::AsId>& next_hops_toward(
      topology::AsId dest) const;
  /// The AS graph with dead ASes isolated and cut links removed at the
  /// plan's data-plane epoch covering `time_ms`; same dense AS ids as the
  /// healthy graph. Cached per (plan stamp, epoch).
  const topology::AsGraph& degraded_graph(const FailurePlan& failures,
                                          double time_ms) const;
  /// Valley-free next hops toward `dest` on the degraded graph (post-
  /// reconvergence routes); cached per (plan stamp, epoch, dest).
  const std::vector<topology::AsId>& detour_hops_toward(
      topology::AsId dest, const FailurePlan& failures, double time_ms) const;

  const routing::SyntheticInternet* internet_;
  FabricConfig config_;
  // Striped-shared-mutex memoizers (lina::exec): lazy like the original
  // std::map caches, but safely shareable across workers. The degraded /
  // detour keys are hashed tuples instead of ordered tuple-keyed maps —
  // O(1) lookups on the failure-aware hot path.
  exec::Memo<topology::AsId, std::vector<topology::AsId>> next_hop_cache_;
  exec::Memo<topology::AsId, std::vector<std::size_t>> bfs_cache_;
  exec::Memo<std::pair<std::uint64_t, std::size_t>, topology::AsGraph,
             exec::TupleHash>
      degraded_graph_cache_;
  exec::Memo<std::tuple<std::uint64_t, std::size_t, topology::AsId>,
             std::vector<topology::AsId>, exec::TupleHash>
      detour_cache_;
};

}  // namespace lina::sim
