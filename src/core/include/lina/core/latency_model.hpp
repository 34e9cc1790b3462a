#pragma once

#include <optional>
#include <span>
#include <vector>

#include "lina/exec/memo.hpp"
#include "lina/mobility/device_trace.hpp"
#include "lina/routing/synthetic_internet.hpp"
#include "lina/stats/cdf.hpp"
#include "lina/stats/rng.hpp"

namespace lina::core {

/// The iPlane substitute (DESIGN.md §1): predicts the one-way delay and AS
/// hop count between two ASes of the synthetic Internet.
///
/// Delay = great-circle propagation between the AS locations (light in
/// fiber, with a route-inflation factor) + a per-AS-hop processing/queueing
/// term along the valley-free policy route. The physical AS-hop distance
/// (shortest path on the undirected AS graph, ignoring policy) reproduces
/// the paper's §6.3.2 lower-bound technique.
struct LatencyConfig {
  double per_hop_ms = 10.0;   // processing + intra-AS traversal per hop
  double inflation = 1.6;     // geographic route-inflation factor
  double access_ms = 10.0;    // last-mile access latency, charged per end
  double min_delay_ms = 0.5;  // floor for same-metro pairs
};

class LatencyModel {
 public:
  explicit LatencyModel(const routing::SyntheticInternet& internet,
                        LatencyConfig config = {});

  /// Shortest AS-hop count on the physical (policy-free) AS graph.
  [[nodiscard]] std::size_t physical_as_hops(topology::AsId from,
                                             topology::AsId to) const;

  /// AS-hop count of the valley-free policy route, or nullopt if none.
  [[nodiscard]] std::optional<std::size_t> policy_as_hops(
      topology::AsId from, topology::AsId to) const;

  /// Modeled one-way delay along the policy route, or nullopt if none.
  [[nodiscard]] std::optional<double> one_way_delay_ms(
      topology::AsId from, topology::AsId to) const;

  [[nodiscard]] const LatencyConfig& config() const { return config_; }

 private:
  [[nodiscard]] std::optional<std::size_t> policy_distance(
      topology::AsId from, topology::AsId to) const;

  const routing::SyntheticInternet& internet_;
  LatencyConfig config_;
  // Striped-shared-mutex memoizers (lina::exec): one model instance is
  // safely shared by parallel workers; entries build exactly once per key.
  exec::Memo<topology::AsId, std::vector<std::size_t>> bfs_cache_;
  // Per-destination best policy distances from every AS.
  exec::Memo<topology::AsId, std::vector<std::optional<std::size_t>>>
      policy_cache_;
};

/// The §6.3 displacement-from-home analysis.
struct IndirectionStretchResult {
  /// Figure 10: one-way delay H -> M for the sampled (covered) pairs.
  stats::EmpiricalCdf delay_ms;
  /// AS hops of the predicted (policy) route — the paper's iPlane median 4.
  stats::EmpiricalCdf policy_hops;
  /// AS hops of the physical shortest path — the paper's lower bound
  /// (median 2).
  stats::EmpiricalCdf physical_hops;
  /// Per user: fraction of the day spent at ASes >= 2 physical AS hops
  /// from the dominant AS (the paper's "around 25%" key finding).
  stats::EmpiricalCdf away_time_share;

  std::size_t pairs_total = 0;
  std::size_t pairs_sampled = 0;  // pairs the 5%-coverage model answered
};

/// Replays every trace, pairs each visited location with the user's
/// dominant ("home") location, samples pairs at `coverage` (iPlane answered
/// only ~5% of pairs), and builds the Figure-10 distributions.
///
/// Traces are evaluated in parallel (lina::exec); trace t draws its
/// coverage coins from the substream rng.split(t), so the result is
/// bit-identical at any thread count for a given rng seed.
[[nodiscard]] IndirectionStretchResult evaluate_indirection_stretch(
    std::span<const mobility::DeviceTrace> traces, const LatencyModel& model,
    double coverage, stats::Rng& rng);

/// Batched form of evaluate_indirection_stretch for streamed workloads:
/// feed user-ordered batches of any size. Trace t (global index across
/// every batch fed so far) still draws from rng.split(t) and partials are
/// still folded in global trace order, so the result is bit-identical to
/// the one-shot call — and to itself at any batch size or thread count.
class IndirectionStretchAccumulator {
 public:
  IndirectionStretchAccumulator(const LatencyModel& model, double coverage,
                                const stats::Rng& rng)
      : model_(model), coverage_(coverage), rng_(rng) {}

  void accumulate(std::span<const mobility::DeviceTrace> batch);

  [[nodiscard]] IndirectionStretchResult& result() { return result_; }

 private:
  const LatencyModel& model_;
  double coverage_;
  stats::Rng rng_;  // only split() is used; the copy never draws
  std::size_t next_index_ = 0;
  IndirectionStretchResult result_;
};

}  // namespace lina::core
