#pragma once

// The packet-forwarding model both DES drivers execute (DESIGN.md §4i).
//
// Every event handler is a *pure function* of the event record, the
// immutable session arena, and point-in-time queries against the shared
// ForwardingFabric / FailurePlan (both deterministic, build-once memoized
// values). No handler mutates state another handler can observe, so the
// multiset of delivered packets — and therefore the DeliveryDigest — is
// invariant under any execution order of the same event set. That is the
// lemma that makes the session-parallel executor bit-identical to the
// serial sim::EventQueue loop at any thread count.
//
// Architecture semantics (who the correspondent/routers believe the
// mobile is attached to) are *closed-form in time*: beliefs are derived
// from the mobility schedule plus control-propagation delays, not from
// mutable registries. They follow the rules the session simulator's
// registries follow too (DESIGN.md §4i): the newest registration wins, a
// resolution is a round trip, and a replica learns a move through the
// device's nearest replica, which relays it.
// Control-plane propagation (registrations, resolutions, update
// wavefronts) rides the healthy-topology delays; the data plane consults
// the failure-aware fabric routes and control-process crash windows.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "lina/des/event.hpp"
#include "lina/sim/fabric.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/sim/resolver_pool.hpp"
#include "lina/sim/session.hpp"

namespace lina::des {

/// The immutable session arena plus the event handlers. Build it (add
/// every session), then hand it to run_parallel / run_serial; handle()
/// is const and thread-safe.
class PacketModel {
 public:
  PacketModel(const sim::ForwardingFabric& fabric,
              sim::SimArchitecture architecture);

  /// Validates (sim::validate_session) and appends one session; returns
  /// its index. `digest_id` is the identity folded into the delivery
  /// digest (defaults to the session's index in this model); out-of-core
  /// replay passes the global user index so the digest is invariant
  /// across batch sizes. The model reads the schedule, timing, home agent,
  /// resolver, replicas, wavefront, packet TTL and failure plan; it has
  /// no retries, and a config with an enabled mapping cache throws
  /// std::invalid_argument because the model has no cache. The failure
  /// plan must outlive the model.
  std::uint32_t add_session(const sim::SessionConfig& config,
                            std::optional<std::uint64_t> digest_id = {});

  [[nodiscard]] std::size_t session_count() const { return specs_.size(); }

  /// The session's first event: the kEmit that launches packet 0 at time
  /// 0 from the correspondent.
  [[nodiscard]] EventRecord initial_event(std::uint32_t session) const;

  /// Executes one event: updates `digest` and emits follow-up records via
  /// `emit(const EventRecord&)`. Pure with respect to engine state; safe
  /// to call concurrently from any thread for any events.
  template <typename Emit>
  void handle(const EventRecord& ev, DeliveryDigest& digest,
              Emit&& emit) const {
    const Spec& s = specs_[ev.session];
    const double t = ev.time_ms;
    if (ev.type == EventType::kEmit) {
      digest.sent += 1;
      const double next = t + s.interval_ms;
      if (next < s.duration_ms) {
        EventRecord rearm = ev;
        rearm.time_ms = next;
        rearm.packet = ev.packet + 1;
        emit(rearm);
      }
      EventRecord hop = ev;  // at the correspondent, no hops taken yet
      hop.type = EventType::kHop;
      hop.sent_ms = t;
      switch (arch_) {
        case sim::SimArchitecture::kIndirection:
          hop.dest = s.registry;
          hop.stage = HopStage::kRelay;
          break;
        case sim::SimArchitecture::kNameResolution:
        case sim::SimArchitecture::kReplicatedResolution:
          hop.dest = resolver_belief(s, t);
          break;
        case sim::SimArchitecture::kNameBased:
          hop.dest = sim::wavefront_belief(*fabric_, schedule(s), hop.at, t,
                                           s.update_hop_ms, s.scope_hops);
          break;
      }
      emit(hop);
      return;
    }
    // kHop.
    digest.hop_events += 1;
    const std::uint32_t at = ev.at;
    std::uint32_t dest = ev.dest;
    if (arch_ == sim::SimArchitecture::kNameBased) {
      // Per-router belief: every hop re-aims at where *this* router
      // currently thinks the mobile is (the update wavefront may not have
      // reached it yet — transient loops are bounded by the hop TTL).
      dest = sim::wavefront_belief(*fabric_, schedule(s), at, t,
                                   s.update_hop_ms, s.scope_hops);
    }
    if (at == dest) {
      if (ev.stage == HopStage::kRelay) {
        // At the indirection relay: re-address to the registered care-of
        // AS and keep forwarding (same instant, same router).
        if (s.failures != nullptr && s.failures->home_agent_down(at, t)) {
          digest.lost += 1;
          return;
        }
        EventRecord fwd = ev;
        fwd.stage = HopStage::kFinal;
        fwd.dest = registered(s, s.registry, t);
        if (fwd.dest == at) {
          finish(s, fwd, digest);
          return;
        }
        emit(fwd);
        return;
      }
      finish(s, ev, digest);
      return;
    }
    if (ev.hops >= s.packet_ttl_hops) {
      digest.lost += 1;
      return;
    }
    const std::optional<sim::RouteStep> step =
        (s.failures != nullptr && s.failures->data_plane_impaired(t))
            ? fabric_->step(at, dest, *s.failures, t)
            : fabric_->step(at, dest);
    if (!step.has_value() || step->next == at) {
      digest.lost += 1;
      return;
    }
    EventRecord n = ev;
    n.at = step->next;
    n.dest = dest;
    n.hops = static_cast<std::uint16_t>(ev.hops + 1);
    n.time_ms = t + step->delay_ms;
    emit(n);
  }

 private:
  struct Spec {
    std::uint64_t digest_id = 0;
    const sim::FailurePlan* failures = nullptr;  // nullptr when none/empty
    const sim::ResolverPool* pool = nullptr;     // resolution archs
    topology::AsId correspondent = 0;
    // The registry the correspondent reads: the home agent, the resolver,
    // or the correspondent's nearest replica.
    topology::AsId registry = 0;
    std::uint32_t first_step = 0;  // into steps_ and arrivals_
    std::uint32_t step_count = 0;
    double duration_ms = 0.0;
    double interval_ms = 0.0;
    double ttl_ms = 0.0;
    double query_ms = 0.0;   // correspondent -> registry (+inf: unroutable)
    double answer_ms = 0.0;  // registry -> correspondent (+inf: unroutable)
    double update_hop_ms = 0.0;
    std::size_t scope_hops = 0;  // SIZE_MAX = global
    std::uint16_t packet_ttl_hops = 0;
  };

  /// The session's slice of the step arena.
  [[nodiscard]] std::span<const sim::MobilityStep> schedule(
      const Spec& s) const {
    return {steps_.data() + s.first_step, s.step_count};
  }

  /// Healthy-route delay; +inf when `to` is unroutable from `from`.
  [[nodiscard]] double delay_ms(topology::AsId from, topology::AsId to) const;

  /// When `step`'s registration reaches `registry`: straight from the new
  /// attachment without a pool; with one, via the device's nearest
  /// replica, which relays it on arrival.
  [[nodiscard]] double arrival_ms(const sim::MobilityStep& step,
                                  const sim::ResolverPool* pool,
                                  topology::AsId registry) const;

  /// The location `registry` holds at `t`: the newest step whose
  /// registration has arrived by `t`; the initial attachment is always
  /// known. For the session's registry this scans its arrival row.
  [[nodiscard]] topology::AsId registered(const Spec& s,
                                          topology::AsId registry,
                                          double t) const;

  /// Where the correspondent's answer points when a packet is emitted at
  /// `t`: the answer of the newest TTL epoch (k * ttl, k >= 1) whose round
  /// trip ended before `t`, read from the registry when the query got
  /// there. Under faults an epoch whose registry is down fails over to the
  /// nearest live replica, or goes unserved if there is none.
  [[nodiscard]] topology::AsId resolver_belief(const Spec& s,
                                               double t) const;

  /// Final-arrival bookkeeping: delivered iff the mobile is attached at
  /// the arrival AS at the arrival instant, lost otherwise (staleness).
  void finish(const Spec& s, const EventRecord& ev,
              DeliveryDigest& digest) const;

  const sim::ForwardingFabric* fabric_;
  sim::SimArchitecture arch_;
  std::vector<Spec> specs_;
  std::vector<sim::MobilityStep> steps_;  // per-session slices
  /// Per step, when its registration reaches the session's registry
  /// (empty for name-based routing, which has no registry).
  std::vector<double> arrivals_;
  /// One pool per distinct replica set (a single resolver is a pool of
  /// one), shared by the sessions that name it. Map nodes stay put across
  /// insertions and moves, so Spec::pool stays valid.
  std::map<std::vector<topology::AsId>, sim::ResolverPool> pools_;
};

}  // namespace lina::des
