#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "lina/cache/policy.hpp"
#include "lina/core/backoff.hpp"
#include "lina/sim/fabric.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/stats/cdf.hpp"

namespace lina::sim {

/// Which location-independence machinery carries the session's packets.
enum class SimArchitecture : std::uint8_t {
  kIndirection,          // home agent registration + triangle forwarding
  kNameResolution,       // resolver + TTL-cached direct sending
  kNameBased,            // per-router belief updated by a flooding wavefront
  kReplicatedResolution, // GNS-style geo-replicated resolver pool [49]
};

[[nodiscard]] std::string_view sim_architecture_name(SimArchitecture arch);

/// One attachment change of the mobile endpoint.
struct MobilityStep {
  double time_ms = 0.0;  // first step must be at 0 (initial attachment)
  topology::AsId as = 0;
};

/// Exponential-backoff retransmission policy for control-plane operations
/// (registrations, lookups, update relays). Retries are fault-only steps:
/// without an active FailurePlan nothing is lost, so nothing is retried.
using RetryPolicy = core::BackoffPolicy;

/// A correspondent streaming constant-bit-rate packets at a mobile device.
/// The one session description both engines take: simulate_session runs it
/// on the stateful simulator, des::PacketModel::add_session on the packet
/// model. validate_session states the rules it must meet.
struct SessionConfig {
  topology::AsId correspondent = 0;
  std::vector<MobilityStep> schedule;  // strictly time-ordered, first at 0
  double packet_interval_ms = 20.0;
  double duration_ms = 10000.0;

  /// Indirection: the home agent AS (defaults to the initial attachment).
  std::optional<topology::AsId> home_as;

  /// Name resolution: resolver AS (defaults to the correspondent) and the
  /// correspondent's cache lifetime.
  std::optional<topology::AsId> resolver_as;
  double resolver_ttl_ms = 500.0;

  /// Replicated resolution: replica ASes of the GNS-style pool (must be
  /// non-empty for kReplicatedResolution).
  std::vector<topology::AsId> resolver_replicas;

  /// Name-based routing: the per-AS-hop latency of the update wavefront
  /// that re-points router beliefs after a move.
  double update_hop_ms = 5.0;

  /// Name-based routing: flooding scope in physical AS hops around the new
  /// attachment (§8's hybrid direction). Routers beyond the scope keep
  /// routing toward the initial (globally announced) attachment, so scoped
  /// flooding suits metro-local mobility. SIZE_MAX = global flooding.
  std::size_t update_scope_hops = SIZE_MAX;

  /// Packets are dropped after this many forwarding hops (transient loops
  /// during name-based convergence).
  std::size_t packet_ttl_hops = 64;

  /// Fault injection. Every architecture runs one data path and one
  /// control path whose fault-only steps are guarded on an active plan;
  /// with nullptr or an empty plan every guard is false, so the results
  /// are bit-identical to a config without the field. The plan must
  /// outlive the simulate_session call.
  const FailurePlan* failures = nullptr;

  /// Control-plane retry behaviour under injected faults.
  RetryPolicy retry;

  /// Correspondent-side loc/ID mapping cache (DESIGN.md §4h). Off by
  /// default. Every cache step is guarded on an enabled cache, so a
  /// disabled one takes none of them and leaves every architecture
  /// bit-identical to a config without the field. When enabled:
  ///  - indirection: a Mobile-IPv6-style binding cache. A hit sends the
  ///    packet straight to the cached care-of AS (no triangle); a miss
  ///    goes via the home agent, which pushes a binding update back to
  ///    the correspondent. Registrations landing at the home agent push
  ///    churn notifications that invalidate/refresh the cached binding.
  ///  - name resolution / replicated resolution: the periodic TTL
  ///    re-resolution loop is replaced by demand resolution. A hit sends
  ///    immediately to the cached location; a miss makes the packet ride
  ///    a resolver round trip, installs the answer, then sends. Location
  ///    updates landing at the (lookup) resolver push churn
  ///    notifications down the update stream.
  ///  - name-based routing has no resolution step, so the cache is
  ///    ignored there.
  /// Churn notifications count as control messages; cache activity is
  /// reported in SessionStats::mapping_cache.
  cache::CacheConfig mapping_cache;
};

/// Delivery metrics of one simulated session.
struct SessionStats {
  std::size_t packets_sent = 0;
  std::size_t packets_delivered = 0;
  std::size_t packets_lost = 0;
  std::size_t control_messages = 0;  // registrations / resolutions / updates

  stats::EmpiricalCdf delivery_delay_ms;
  /// Delivered delay divided by the direct-path delay at delivery time —
  /// the multiplicative data-path stretch.
  stats::EmpiricalCdf stretch;
  /// Per mobility event: time until the first post-move delivery.
  stats::EmpiricalCdf outage_ms;

  // Resilience metrics; all zero / empty when no FailurePlan is attached.

  /// Control retransmissions (attempts beyond the first per operation);
  /// the control-message amplification a failure causes is
  /// control_retries / (control_messages - control_retries).
  std::size_t control_retries = 0;
  /// Packets whose send instant fell inside any active fault window.
  std::size_t packets_sent_during_failure = 0;
  /// ...and how many of those still made it (delayed / degraded rather
  /// than lost — e.g. over a detour route).
  std::size_t packets_delivered_during_failure = 0;
  /// Per repair instant: time until the first subsequent delivery — the
  /// architecture's time-to-recover.
  stats::EmpiricalCdf recovery_ms;
  /// Stretch of packets sent while a fault was active — degraded-mode
  /// routing quality (compare against `stretch`).
  stats::EmpiricalCdf stretch_degraded;

  /// Correspondent mapping-cache counters; all zero when the cache is
  /// disabled (SessionConfig::mapping_cache).
  cache::CacheStats mapping_cache;

  [[nodiscard]] double delivery_ratio() const {
    return packets_sent == 0
               ? 0.0
               : static_cast<double>(packets_delivered) /
                     static_cast<double>(packets_sent);
  }

  /// Fraction of packets sent during fault windows that were lost.
  [[nodiscard]] double failure_loss_fraction() const {
    return packets_sent_during_failure == 0
               ? 0.0
               : 1.0 - static_cast<double>(packets_delivered_during_failure) /
                           static_cast<double>(packets_sent_during_failure);
  }
};

/// The session rules both engines enforce before running a config:
///  - the schedule is non-empty, its first step is at 0, and its times are
///    finite and strictly increasing;
///  - packet_interval_ms, duration_ms, resolver_ttl_ms and update_hop_ms
///    are finite and positive;
///  - kReplicatedResolution has at least one resolver replica;
///  - the retry policy and the mapping-cache config are well formed.
/// Throws std::invalid_argument when one fails, and std::out_of_range when
/// an AS the config names (correspondent, schedule, home agent, resolver,
/// replica, failure-plan element) is not in the fabric's graph.
void validate_session(const ForwardingFabric& fabric,
                      SimArchitecture architecture,
                      const SessionConfig& config);

/// The rules a mobility schedule meets before steps_made, location_at or
/// wavefront_belief read it: non-empty, first step at 0, finite and
/// strictly increasing times (else std::invalid_argument), and every AS
/// in the fabric's graph (else std::out_of_range).
void validate_schedule(const ForwardingFabric& fabric,
                       std::span<const MobilityStep> schedule);

/// How many steps of a (validated) schedule are made by `time_ms`: step
/// i is made once its time is at or before it.
[[nodiscard]] std::size_t steps_made(std::span<const MobilityStep> schedule,
                                     double time_ms);

/// Where the mobile is attached at `time_ms`: the last step of the
/// (validated) schedule at or before it.
[[nodiscard]] topology::AsId location_at(
    std::span<const MobilityStep> schedule, double time_ms);

/// Name-based routing: the attachment router `at` believes the name maps
/// to at `time_ms`. That is the newest step at or before `time_ms` whose
/// flooding wavefront, spreading update_hop_ms per physical AS hop from
/// the new attachment, has reached `at`. Scoped flooding (§8 hybrid):
/// a step is only announced within `scope_hops` of its attachment
/// (SIZE_MAX = global); the initial attachment is announced globally and
/// is what out-of-scope routers keep routing toward.
[[nodiscard]] topology::AsId wavefront_belief(
    const ForwardingFabric& fabric, std::span<const MobilityStep> schedule,
    topology::AsId at, double time_ms, double update_hop_ms,
    std::size_t scope_hops);

/// Runs one correspondent->mobile session under the chosen architecture on
/// a packet-by-packet discrete-event simulation over the fabric. Validates
/// the §2/§5 trade-offs dynamically: indirection pays stretch, name
/// resolution pays staleness on mobility, name-based routing pays
/// convergence (and router updates) but no steady-state stretch.
/// Throws as validate_session does on malformed configs.
[[nodiscard]] SessionStats simulate_session(const ForwardingFabric& fabric,
                                            SimArchitecture architecture,
                                            const SessionConfig& config);

}  // namespace lina::sim
