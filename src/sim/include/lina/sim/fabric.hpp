#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "lina/exec/dense_memo.hpp"
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

/// One forwarding step: the next AS on the route and the delay of the
/// link to it (0 when the step is already at the destination).
struct RouteStep {
  topology::AsId next;
  double delay_ms;
};

/// The packet-forwarding substrate: per-destination next hops along the
/// synthetic Internet's valley-free policy routes, and per-link delays
/// from AS geography. All architecture simulators forward through this
/// fabric; they differ only in *which destination* each element of the
/// network believes the mobile endpoint is at.
///
/// Routes are memoized one row per destination (and per fault epoch for
/// detours). A row holds each AS's next hop *and* the delay of the link
/// to it, computed once when the row is built, so a route walk or a
/// packet hop reads one row and recomputes no geography. Walks still sum
/// the link delays forward from the source, hop by hop, so path delays
/// are bit-identical to adding `link_delay_ms` along the route.
///
/// Every public query range-checks its AS ids and throws
/// std::out_of_range for an id outside the graph.
///
/// Thread-safe: one fabric may be shared by any number of concurrent
/// sessions / query threads (lina::exec workers). The healthy route rows
/// and the BFS distance rows, both keyed by a dense AS id, sit in
/// publish-once tables (exec::DenseMemo): a read is one acquire load, and
/// a miss builds its row under a striped build lock and publishes it once.
/// The fault-keyed degraded graphs, detour rows and impairment rows sit
/// behind striped shared mutexes (exec::Memo). Every entry is built
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

  /// The next hop from `at` toward `dest` together with its link delay:
  /// next_hop(at, dest) and link_delay_ms(at, next) in one row read.
  /// {at, 0.0} when at == dest; nullopt if the policy plane has no route.
  [[nodiscard]] std::optional<RouteStep> step(topology::AsId at,
                                              topology::AsId dest) const;

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
  /// Throws std::logic_error when `to` is unreachable from `from`.
  [[nodiscard]] std::size_t physical_hops(topology::AsId from,
                                          topology::AsId to) const;

  /// The memoized BFS row of `from`: entry `to` is physical_hops(from, to),
  /// or topology::kUnreachedHops where the graph is disconnected. Hop
  /// distance is symmetric, so hop_row(a)[b] == hop_row(b)[a]. Valid for
  /// the fabric's lifetime; throws std::out_of_range for an id outside the
  /// graph.
  [[nodiscard]] std::span<const std::size_t> hop_row(
      topology::AsId from) const;

  /// One hop_row entry as a hop count. Throws std::logic_error for
  /// topology::kUnreachedHops (a disconnected AS graph).
  [[nodiscard]] static std::size_t reached_hops(std::size_t entry) {
    if (entry == topology::kUnreachedHops)
      throw std::logic_error("ForwardingFabric: disconnected AS graph");
    return entry;
  }

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

  /// Failure-aware step: the failure-aware next hop and its link delay.
  [[nodiscard]] std::optional<RouteStep> step(topology::AsId at,
                                              topology::AsId dest,
                                              const FailurePlan& failures,
                                              double time_ms) const;

  /// Failure-aware end-to-end delay.
  [[nodiscard]] std::optional<double> path_delay_ms(
      topology::AsId from, topology::AsId to, const FailurePlan& failures,
      double time_ms) const;

  /// True when the policy route from -> to traverses an AS or link that a
  /// fault has taken down at `time_ms` (or no policy route exists while
  /// the data plane is impaired). Reads one flag of the impairment row
  /// toward `to`, memoized per (plan stamp, data-plane epoch, `to`).
  [[nodiscard]] bool policy_path_impaired(topology::AsId from,
                                          topology::AsId to,
                                          const FailurePlan& failures,
                                          double time_ms) const;

  [[nodiscard]] const routing::SyntheticInternet& internet() const {
    return *internet_;
  }
  [[nodiscard]] const FabricConfig& config() const { return config_; }

 private:
  /// A walk along a route row: summed link delay and hop count.
  struct Walk {
    double delay_ms;
    std::size_t hops;
  };
  /// A memoized route row toward one destination: next[u] is u's next hop
  /// (kNoNode when unroutable, dest at dest) and link_ms[u] is
  /// link_delay_ms(u, next[u]) (0 at dest and where unroutable).
  struct RouteRow {
    std::vector<topology::AsId> next;
    std::vector<double> link_ms;

    [[nodiscard]] std::optional<RouteStep> step(topology::AsId at) const;
    /// Follows the row from `from` to its destination `to`, adding link
    /// delays forward from the source; nullopt where it has no route.
    [[nodiscard]] std::optional<Walk> walk(topology::AsId from,
                                           topology::AsId to) const;
  };

  void check_range(topology::AsId a, topology::AsId b,
                   const char* query) const;
  /// Builds the valley-free route row toward `dest` over `graph`; ASes
  /// down in `failures` at `time_ms` (when given) get no route.
  RouteRow build_row(const topology::AsGraph& graph, topology::AsId dest,
                     const FailurePlan* failures, double time_ms) const;
  const RouteRow& route_row(topology::AsId dest) const;
  /// The AS graph with dead ASes isolated and cut links removed at the
  /// plan's data-plane epoch covering `time_ms`; same dense AS ids as the
  /// healthy graph. Cached per (plan stamp, epoch).
  const topology::AsGraph& degraded_graph(const FailurePlan& failures,
                                          double time_ms) const;
  /// The route row toward `dest` on the degraded graph (post-
  /// reconvergence routes); cached per (plan stamp, epoch, dest).
  const RouteRow& detour_row(topology::AsId dest, const FailurePlan& failures,
                             double time_ms) const;
  /// Per AS u, whether u's healthy route toward `dest` is impaired at the
  /// plan's data-plane epoch covering `time_ms`: kImpaired when it meets a
  /// dead AS, a cut link or a missing route, kLoop when it loops without
  /// meeting one, kClear otherwise. Cached per (plan stamp, epoch, dest).
  enum class Impairment : std::uint8_t {
    kUnknown, kVisiting,  // only while the row is being built
    kClear, kImpaired, kLoop
  };
  const std::vector<Impairment>& impairment_row(topology::AsId dest,
                                                const FailurePlan& failures,
                                                double time_ms) const;

  const routing::SyntheticInternet* internet_;
  FabricConfig config_;
  // Lazy, thread-safe memoizers (lina::exec). The AS-keyed rows are read
  // on every hop, so they sit in publish-once dense tables with a lock-free
  // read; the fault-keyed entries are hashed tuples in striped-shared-mutex
  // memos.
  exec::DenseMemo<RouteRow> route_cache_;
  exec::DenseMemo<std::vector<std::size_t>> bfs_cache_;
  exec::Memo<std::pair<std::uint64_t, std::size_t>, topology::AsGraph,
             exec::TupleHash>
      degraded_graph_cache_;
  using FaultKey = std::tuple<std::uint64_t, std::size_t, topology::AsId>;
  exec::Memo<FaultKey, RouteRow, exec::TupleHash> detour_cache_;
  exec::Memo<FaultKey, std::vector<Impairment>, exec::TupleHash>
      impairment_cache_;
};

}  // namespace lina::sim
