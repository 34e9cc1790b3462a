#include "lina/sim/session.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "lina/cache/mapping_cache.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/obs/trace.hpp"
#include "lina/prof/prof.hpp"
#include "lina/sim/event_queue.hpp"
#include "lina/sim/resolver_pool.hpp"

namespace lina::sim {

using topology::AsId;

std::string_view sim_architecture_name(SimArchitecture arch) {
  switch (arch) {
    case SimArchitecture::kIndirection:
      return "indirection (home agent)";
    case SimArchitecture::kNameResolution:
      return "name resolution (resolver)";
    case SimArchitecture::kNameBased:
      return "name-based routing";
    case SimArchitecture::kReplicatedResolution:
      return "replicated resolution (GNS)";
  }
  throw std::invalid_argument("sim_architecture_name: unknown architecture");
}

void validate_schedule(const ForwardingFabric& fabric,
                       std::span<const MobilityStep> schedule) {
  if (schedule.empty() || schedule.front().time_ms != 0.0)
    throw std::invalid_argument(
        "validate_schedule: the schedule must start at time 0");
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    if (!std::isfinite(schedule[i].time_ms) ||
        !(schedule[i].time_ms > schedule[i - 1].time_ms))
      throw std::invalid_argument(
          "validate_schedule: schedule times must be finite and increase");
  }
  for (const MobilityStep& step : schedule) {
    if (step.as >= fabric.internet().graph().as_count())
      throw std::out_of_range("validate_schedule: schedule AS");
  }
}

void validate_session(const ForwardingFabric& fabric,
                      SimArchitecture architecture,
                      const SessionConfig& config) {
  validate_schedule(fabric, config.schedule);
  for (const double timing :
       {config.packet_interval_ms, config.duration_ms,
        config.resolver_ttl_ms, config.update_hop_ms}) {
    if (!std::isfinite(timing) || timing <= 0.0)
      throw std::invalid_argument(
          "validate_session: timing must be finite and positive");
  }
  if (architecture == SimArchitecture::kReplicatedResolution &&
      config.resolver_replicas.empty())
    throw std::invalid_argument(
        "validate_session: kReplicatedResolution needs resolver_replicas");
  if (!config.retry.valid())
    throw std::invalid_argument("validate_session: malformed retry policy");
  if (!config.mapping_cache.valid())
    throw std::invalid_argument("validate_session: non-positive cache TTL");
  const std::size_t as_count = fabric.internet().graph().as_count();
  const auto check_as = [&](AsId as, const char* what) {
    if (as >= as_count)
      throw std::out_of_range(std::string("validate_session: ") + what);
  };
  check_as(config.correspondent, "correspondent AS");
  if (config.home_as.has_value()) check_as(*config.home_as, "home AS");
  if (config.resolver_as.has_value())
    check_as(*config.resolver_as, "resolver AS");
  for (const AsId replica : config.resolver_replicas)
    check_as(replica, "replica AS");
  if (config.failures != nullptr) {
    for (const FailureEvent& event : config.failures->events()) {
      check_as(event.element, "failure-plan AS");
      if (event.kind == FailureKind::kLinkCut)
        check_as(event.element_b, "failure-plan AS");
    }
  }
}

std::size_t steps_made(std::span<const MobilityStep> schedule,
                       double time_ms) {
  return static_cast<std::size_t>(
      std::upper_bound(schedule.begin(), schedule.end(), time_ms,
                       [](double value, const MobilityStep& step) {
                         return value < step.time_ms;
                       }) -
      schedule.begin());
}

AsId location_at(std::span<const MobilityStep> schedule, double time_ms) {
  return schedule[std::max<std::size_t>(steps_made(schedule, time_ms), 1) - 1]
      .as;
}

AsId wavefront_belief(const ForwardingFabric& fabric,
                      std::span<const MobilityStep> schedule, AsId at,
                      double time_ms, double update_hop_ms,
                      std::size_t scope_hops) {
  // Newest first over the steps made by `time_ms`; step 0 is the global
  // announcement every router starts from. Every step is priced from one
  // BFS row: the hop distance from `at`.
  const std::size_t made = steps_made(schedule, time_ms);
  if (made <= 1) return schedule.front().as;
  const std::span<const std::size_t> hops_from_at = fabric.hop_row(at);
  for (std::size_t i = made; i-- > 1;) {
    const MobilityStep& step = schedule[i];
    if (step.as >= hops_from_at.size())
      throw std::out_of_range("wavefront_belief: schedule AS");
    const std::size_t hops =
        ForwardingFabric::reached_hops(hops_from_at[step.as]);
    if (hops > scope_hops) continue;
    if (step.time_ms + update_hop_ms * static_cast<double>(hops) <= time_ms)
      return step.as;
  }
  return schedule.front().as;
}

namespace {

/// Shared session machinery; architecture subclasses provide the control
/// plane (on_move) and the data plane (send_packet).
///
/// Each architecture has one data path and one control path. Steps that
/// only a fault can trigger (crash checks, update-loss coins, retries,
/// failover, anti-entropy) sit behind `faults_`, which is false when no
/// FailurePlan is attached or the plan is empty, and leg_delay() is the
/// one place that picks the plain or the plan-aware fabric route. Mapping
/// cache steps sit behind `cached_`. With an empty plan and a disabled
/// cache every such guard is false.
class SessionRunner {
 public:
  SessionRunner(const ForwardingFabric& fabric, const SessionConfig& config)
      : fabric_(fabric),
        config_(config),
        plan_(config.failures),
        faults_(plan_ != nullptr && !plan_->empty()),
        binding_(config.mapping_cache),
        cached_(binding_.enabled()) {}
  virtual ~SessionRunner() = default;

  SessionStats run() {
    // Mobility events.
    for (std::size_t i = 1; i < config_.schedule.size(); ++i) {
      const MobilityStep& step = config_.schedule[i];
      queue_.schedule(step.time_ms, [this, step] {
        obs::TraceRing::instance().record("lina.sim.session.move",
                                          queue_.now(),
                                          static_cast<double>(step.as));
        if (move_pending_) {
          // The previous move never saw a delivery: record the censored
          // outage up to this move.
          stats_.outage_ms.add(queue_.now() - last_move_ms_);
        }
        last_move_ms_ = queue_.now();
        move_pending_ = true;
        on_move(step.as);
      });
    }
    // Repair markers: the first delivery after each repair measures the
    // architecture's time-to-recover.
    if (faults_) {
      for (const double repair_ms : plan_->repair_times()) {
        if (repair_ms <= 0.0 || repair_ms >= config_.duration_ms) continue;
        queue_.schedule(repair_ms,
                        [this, repair_ms] { awaiting_recovery_ = repair_ms; });
      }
    }
    // Packet generation.
    queue_.schedule_series(
        0.0, config_.packet_interval_ms, config_.duration_ms, [this] {
          ++stats_.packets_sent;
          if (faults_ && plan_->any_active(queue_.now()))
            ++stats_.packets_sent_during_failure;
          send_packet(queue_.now());
        });
    queue_.run();
    stats_.packets_lost = stats_.packets_sent - stats_.packets_delivered;
    stats_.mapping_cache = binding_.stats();
    return std::move(stats_);
  }

 protected:
  virtual void on_move(AsId new_as) = 0;
  virtual void send_packet(double send_time_ms) = 0;

  [[nodiscard]] AsId device_location(double time_ms) const {
    return location_at(config_.schedule, time_ms);
  }

  /// The index of the step the device is on now: the move sequence number
  /// a registration sent now carries.
  [[nodiscard]] std::size_t current_step() const {
    return steps_made(config_.schedule, queue_.now()) - 1;
  }

  void deliver(double send_time_ms) {
    ++stats_.packets_delivered;
    const double delay = queue_.now() - send_time_ms;
    stats_.delivery_delay_ms.add(delay);
    const double direct =
        fabric_.path_delay_ms(config_.correspondent,
                              device_location(queue_.now()))
            .value_or(delay);
    const double stretch =
        delay / std::max(direct, fabric_.config().min_link_ms);
    stats_.stretch.add(stretch);
    if (move_pending_) {
      stats_.outage_ms.add(queue_.now() - last_move_ms_);
      move_pending_ = false;
    }
    if (faults_) {
      if (plan_->any_active(send_time_ms)) {
        ++stats_.packets_delivered_during_failure;
        stats_.stretch_degraded.add(stretch);
      }
      if (awaiting_recovery_.has_value()) {
        stats_.recovery_ms.add(queue_.now() - *awaiting_recovery_);
        awaiting_recovery_.reset();
      }
    }
  }

  void count_control(std::size_t messages) {
    stats_.control_messages += messages;
  }

  /// Accounts one control-plane attempt (retransmissions beyond the first
  /// attempt also count toward the amplification metric).
  void count_attempt(std::size_t attempt) {
    count_control(1);
    if (attempt > 0) ++stats_.control_retries;
  }

  /// Delay before retransmission number `attempt` + 1 (capped exponential,
  /// so long outages keep being probed at a steady cadence).
  [[nodiscard]] double backoff_ms(std::size_t attempt) const {
    return config_.retry.delay_ms(attempt);
  }

  [[nodiscard]] bool attempts_left(std::size_t attempt) const {
    return config_.retry.attempts_left(attempt);
  }

  /// Does this session's next control message get through? Always without
  /// faults; under a plan an active update-loss window drops it with a
  /// seeded coin, and every call consumes one message id.
  [[nodiscard]] bool control_delivered() {
    return !faults_ ||
           !plan_->control_message_lost(message_id_++, queue_.now());
  }

  /// The single mobile endpoint's key in the correspondent mapping cache.
  static constexpr std::uint64_t kDeviceKey = 0;

  /// One-way delay of a leg leaving now: the failure-aware route when a
  /// plan is active, the plain policy route otherwise.
  [[nodiscard]] std::optional<double> leg_delay(AsId from, AsId to) const {
    return faults_ ? fabric_.path_delay_ms(from, to, *plan_, queue_.now())
                   : fabric_.path_delay_ms(from, to);
  }

  const ForwardingFabric& fabric_;
  const SessionConfig& config_;
  const FailurePlan* plan_;
  const bool faults_;
  EventQueue queue_;
  SessionStats stats_;
  /// Correspondent-side loc/ID mapping cache (SessionConfig doc); disabled
  /// (no storage, every probe a no-op) unless config.mapping_cache enables
  /// it. `cached_` gates every cache step.
  cache::MappingCache<std::uint64_t, AsId> binding_;
  const bool cached_;

 private:
  double last_move_ms_ = 0.0;
  bool move_pending_ = false;
  std::uint64_t message_id_ = 0;
  std::optional<double> awaiting_recovery_;
};

/// An architecture whose control plane keeps the device's location in a
/// registry the correspondent's packets or resolutions consult: the home
/// agent, the resolver, or the resolver pool. Every move sends one
/// location update (register_location); this class holds what the three
/// share: the registry write rule, the soft-state renewal of an update
/// that did not land, the churn push to the correspondent's mapping cache,
/// and the last leg from the correspondent to a cached location.
///
/// A registry holds the newest move it has heard of as a schedule index,
/// so its location is config_.schedule[index].as. An update carries the
/// index of the step the device is on when it is sent: its sequence
/// number.
class RegistryRunner : public SessionRunner {
 public:
  using SessionRunner::SessionRunner;

 protected:
  /// Sends attempt number `attempt` of the location update for move
  /// `step`.
  virtual void register_location(std::size_t step, std::size_t attempt) = 0;

  /// Writes move `step` to a registry holding move `held` unless it holds
  /// a newer one: the Mobile IPv6 Binding Update rule (RFC 6275 §9.5.1),
  /// so a stale update that arrives late is dropped. Returns whether it
  /// wrote.
  static bool write_newest(std::size_t& held, std::size_t step) {
    if (step < held) return false;
    held = step;
    return true;
  }

  /// Registrations are soft state: once the exponential burst is spent
  /// the device keeps probing at the backoff cap (Mobile-IP-style
  /// lifetime renewal) instead of abandoning the binding, so it survives
  /// outages longer than one burst. The chain ends when a probe lands, a
  /// newer move supersedes it, or the session runs out. Without faults
  /// nothing is lost and an unroutable leg stays unroutable, so there is
  /// nothing to renew.
  void retry_registration(std::size_t step, std::size_t attempt) {
    if (!faults_ || queue_.now() >= config_.duration_ms) return;
    const std::size_t next = attempts_left(attempt) ? attempt + 1 : 0;
    queue_.schedule_in(backoff_ms(attempt), [this, step, next] {
      const AsId location = config_.schedule[step].as;
      if (device_location(queue_.now()) != location) return;  // superseded
      register_location(current_step(), next);
    });
  }

  /// A location update landing at `registry` pushes a churn notification
  /// to the correspondent's mapping cache (invalidate or refresh per the
  /// cache config): one control message, in flight for the registry ->
  /// correspondent delay.
  void notify_churn(AsId registry, AsId new_as) {
    count_control(1);
    if (!control_delivered()) return;
    const auto back = leg_delay(registry, config_.correspondent);
    if (!back.has_value()) return;
    queue_.schedule_in(*back, [this, new_as] {
      binding_.churn(kDeviceKey, new_as, queue_.now());
    });
  }

  /// Last leg from the correspondent to the location it holds (a cache
  /// hit, a resolver answer): delivered iff the device is still there on
  /// arrival.
  void forward_cached(double send_time_ms, AsId target) {
    const auto delay = leg_delay(config_.correspondent, target);
    if (!delay.has_value()) return;
    queue_.schedule_in(*delay, [this, send_time_ms, target] {
      if (device_location(queue_.now()) == target) deliver(send_time_ms);
    });
  }

 private:
  void on_move(AsId /*new_as*/) final {
    register_location(current_step(), 0);
  }
};

class IndirectionRunner final : public RegistryRunner {
 public:
  IndirectionRunner(const ForwardingFabric& fabric,
                    const SessionConfig& config)
      : RegistryRunner(fabric, config),
        home_(config.home_as.value_or(config.schedule.front().as)) {}

 private:
  /// Registration message travels from the new location to the home agent;
  /// under faults it retries with backoff while the agent is dead or the
  /// message is lost, abandoning once a newer move supersedes it.
  void register_location(std::size_t step, std::size_t attempt) override {
    count_attempt(attempt);
    const auto delay = leg_delay(config_.schedule[step].as, home_);
    if (!control_delivered() || !delay.has_value()) {
      retry_registration(step, attempt);
      return;
    }
    queue_.schedule_in(*delay, [this, step, attempt] {
      if (faults_ && plan_->home_agent_down(home_, queue_.now())) {
        retry_registration(step, attempt);
        return;
      }
      if (write_newest(registry_, step) && cached_)
        notify_churn(home_, config_.schedule[step].as);
    });
  }

  /// Triangle routing: correspondent -> home agent -> registered care-of
  /// AS. With a binding cache, a hit sends the packet straight to the
  /// cached care-of AS (Mobile-IPv6 route optimisation, no triangle), and
  /// a miss transiting the home agent makes it answer with a binding
  /// update so later packets go direct.
  void send_packet(double send_time_ms) override {
    if (cached_) {
      const auto hit = binding_.probe(kDeviceKey, queue_.now());
      if (hit.has_value()) {
        forward_cached(send_time_ms, *hit);
        return;
      }
    }
    const auto to_home = leg_delay(config_.correspondent, home_);
    if (!to_home.has_value()) return;  // lost: home unreachable
    queue_.schedule_in(*to_home, [this, send_time_ms] {
      // A dead home agent swallows every packet for the whole outage:
      // indirection's single point of failure.
      if (faults_ && plan_->home_agent_down(home_, queue_.now())) return;
      const AsId target = config_.schedule[registry_].as;
      if (cached_) push_binding(target);
      const auto to_target = leg_delay(home_, target);
      if (!to_target.has_value()) return;
      queue_.schedule_in(*to_target, [this, send_time_ms, target] {
        if (device_location(queue_.now()) == target) deliver(send_time_ms);
      });
    });
  }

  /// Home agent -> correspondent binding update triggered by a cache-miss
  /// packet transiting the home agent.
  void push_binding(AsId care_of) {
    count_control(1);
    if (!control_delivered()) return;
    const auto back = leg_delay(home_, config_.correspondent);
    if (!back.has_value()) return;
    queue_.schedule_in(*back, [this, care_of] {
      binding_.insert(kDeviceKey, care_of, queue_.now());
    });
  }

  AsId home_;
  std::size_t registry_ = 0;  // the newest move registered at the agent
};

/// Name resolution against one resolver or a replica pool. Without a
/// mapping cache the correspondent re-resolves on a TTL clock and sends
/// every packet to its latest answer; with one it resolves on demand, per
/// cache-miss packet. Subclasses say which resolver a query goes to and
/// which record answers it.
class ResolvingRunner : public RegistryRunner {
 public:
  ResolvingRunner(const ForwardingFabric& fabric, const SessionConfig& config)
      : RegistryRunner(fabric, config), answer_(config.schedule.front().as) {
    // Periodic re-resolution at the epochs k * ttl, k >= 1; the initial
    // resolution happened at setup.
    if (!cached_) {
      for (double k = 1.0; k * config.resolver_ttl_ms < config.duration_ms;
           k += 1.0) {
        queue_.schedule(k * config.resolver_ttl_ms, [this] { resolve(0); });
      }
    }
  }

 protected:
  /// The resolver that query attempt `attempt` goes to.
  [[nodiscard]] virtual AsId query_target(std::size_t attempt) const = 0;
  /// The location `resolver` answers with when a query reaches it.
  [[nodiscard]] virtual AsId record_at(AsId resolver) const = 0;

 private:
  /// One resolution round trip: the query leg to query_target(attempt),
  /// the answer read from that resolver's record when the query arrives,
  /// and `answered(answer)` one return leg later. A lost query or a dead
  /// resolver calls `timed_out()` instead.
  template <typename Answered, typename TimedOut>
  void lookup(std::size_t attempt, Answered answered, TimedOut timed_out) {
    const AsId resolver = query_target(attempt);
    const auto to_resolver = leg_delay(config_.correspondent, resolver);
    if (!control_delivered() || !to_resolver.has_value()) {
      timed_out();
      return;
    }
    queue_.schedule_in(*to_resolver, [this, resolver, answered, timed_out] {
      if (faults_ && plan_->resolver_down(resolver, queue_.now())) {
        timed_out();
        return;
      }
      const AsId answer = record_at(resolver);
      const auto back = leg_delay(resolver, config_.correspondent);
      if (!back.has_value()) return;
      queue_.schedule_in(*back, [answered, answer] { answered(answer); });
    });
  }

  /// One TTL-clock resolution; under faults a timed-out lookup is retried.
  void resolve(std::size_t attempt) {
    count_attempt(attempt);
    lookup(attempt, [this](AsId answer) { answer_ = answer; },
           [this, attempt] { retry_resolve(attempt); });
  }

  void retry_resolve(std::size_t attempt) {
    // Without faults a lookup cannot time out; past the burst the next
    // TTL tick re-resolves.
    if (!faults_ || !attempts_left(attempt)) return;
    queue_.schedule_in(backoff_ms(attempt),
                       [this, attempt] { resolve(attempt + 1); });
  }

  void send_packet(double send_time_ms) final {
    if (cached_) {
      send_packet_cached(send_time_ms);
    } else {
      forward_cached(send_time_ms, answer_);
    }
  }

  /// Mapping cache enabled: a hit sends the packet straight to the cached
  /// location; a miss makes the packet ride a full resolver round trip
  /// (demand resolution, one control message), install the answer, then
  /// forward. No retries under faults: a lost query loses the packet and
  /// the next miss re-resolves.
  void send_packet_cached(double send_time_ms) {
    const auto hit = binding_.probe(kDeviceKey, queue_.now());
    if (hit.has_value()) {
      forward_cached(send_time_ms, *hit);
      return;
    }
    count_control(1);
    lookup(
        0,
        [this, send_time_ms](AsId answer) {
          binding_.insert(kDeviceKey, answer, queue_.now());
          forward_cached(send_time_ms, answer);
        },
        [] {});
  }

  AsId answer_;  // the correspondent's latest TTL-clock answer
};

/// One resolver, deliberately not a pool of one: under faults the pool
/// checks its primary's liveness when an update is sent, while a single
/// resolver is found dead only when the update arrives, and the two give
/// different fault results.
class ResolutionRunner final : public ResolvingRunner {
 public:
  ResolutionRunner(const ForwardingFabric& fabric,
                   const SessionConfig& config)
      : ResolvingRunner(fabric, config),
        resolver_(config.resolver_as.value_or(config.correspondent)) {}

 private:
  /// A single resolver has nowhere to fail over to: a dead resolver times
  /// the lookup out and the client can only retry it.
  [[nodiscard]] AsId query_target(std::size_t /*attempt*/) const override {
    return resolver_;
  }
  [[nodiscard]] AsId record_at(AsId /*resolver*/) const override {
    return config_.schedule[registry_].as;
  }

  /// The device updates the resolver (one message; retried under faults).
  void register_location(std::size_t step, std::size_t attempt) override {
    count_attempt(attempt);
    const auto delay = leg_delay(config_.schedule[step].as, resolver_);
    if (!control_delivered() || !delay.has_value()) {
      retry_registration(step, attempt);
      return;
    }
    queue_.schedule_in(*delay, [this, step, attempt] {
      if (faults_ && plan_->resolver_down(resolver_, queue_.now())) {
        retry_registration(step, attempt);
        return;
      }
      if (write_newest(registry_, step) && cached_)
        notify_churn(resolver_, config_.schedule[step].as);
    });
  }

  AsId resolver_;
  std::size_t registry_ = 0;  // the resolver's authoritative record
};

class ReplicatedResolutionRunner final : public ResolvingRunner {
 public:
  ReplicatedResolutionRunner(const ForwardingFabric& fabric,
                             const SessionConfig& config)
      : ResolvingRunner(fabric, config),
        pool_(fabric, config.resolver_replicas),
        records_(pool_.replicas().size(), 0),
        lookup_replica_(
            pool_.replica_index(pool_.nearest_replica(config.correspondent))) {
    if (faults_) {
      // Anti-entropy: at each repair instant a replica that was down (its
      // process crashed or its AS went dark) pulls the current record from
      // its nearest live peer, so it stops answering with the location it
      // last heard before the crash.
      for (const FailureEvent& event : plan_->events()) {
        if (event.kind != FailureKind::kResolverCrash &&
            event.kind != FailureKind::kAsOutage)
          continue;
        if (event.end_ms >= config.duration_ms) continue;
        const auto& ases = pool_.replicas();
        if (std::find(ases.begin(), ases.end(), event.element) == ases.end())
          continue;
        queue_.schedule(event.end_ms,
                        [this, as = event.element] { resync_replica(as); });
      }
    }
  }

 private:
  /// The replica the correspondent always queries first: its nearest.
  [[nodiscard]] AsId lookup_replica() const {
    return pool_.replicas()[lookup_replica_];
  }

  /// Failover: the first attempt goes to the statically nearest replica
  /// (the client cannot know it died); once an attempt times out, the
  /// retry targets the nearest replica *believed live* at retry time, so
  /// service resumes within one backoff of the preferred replica dying.
  [[nodiscard]] AsId query_target(std::size_t attempt) const override {
    if (!faults_ || attempt == 0) return lookup_replica();
    return pool_
        .nearest_live_replica(config_.correspondent, *plan_, queue_.now())
        .value_or(lookup_replica());
  }

  /// A replica answers from its own, possibly stale, record: a recovered
  /// replica serves whatever it last heard.
  [[nodiscard]] AsId record_at(AsId resolver) const override {
    return config_.schedule[records_[pool_.replica_index(resolver)]].as;
  }

  /// Writes replica `index`'s record unless it holds a newer move; a
  /// write at the correspondent's lookup replica also pushes churn down
  /// the update stream to its mapping cache.
  void write_record(std::size_t index, std::size_t step) {
    if (write_newest(records_[index], step) && cached_ &&
        index == lookup_replica_)
      notify_churn(lookup_replica(), config_.schedule[step].as);
  }

  /// Recovered-replica anti-entropy pull: request to the nearest live
  /// peer, answer from the peer's record at answer time. Either leg can
  /// be lost or unroutable; the replica then keeps its stale record until
  /// the next device update reaches it. The answer is written like any
  /// registration, so it never overwrites a newer device update that
  /// landed while it was in flight.
  void resync_replica(AsId recovered) {
    if (plan_->resolver_down(recovered, queue_.now())) return;  // overlap
    std::optional<AsId> peer;
    double best = 0.0;
    for (const AsId replica : pool_.replicas()) {
      if (replica == recovered ||
          plan_->resolver_down(replica, queue_.now()))
        continue;
      const auto delay = leg_delay(recovered, replica);
      if (!delay.has_value()) continue;
      if (!peer.has_value() || *delay < best) {
        peer = replica;
        best = *delay;
      }
    }
    if (!peer.has_value()) return;
    count_control(1);
    if (!control_delivered()) return;
    queue_.schedule_in(best, [this, recovered, peer = *peer] {
      if (plan_->resolver_down(peer, queue_.now())) return;
      const std::size_t answer = records_[pool_.replica_index(peer)];
      count_control(1);
      if (!control_delivered()) return;
      const auto back = leg_delay(peer, recovered);
      if (!back.has_value()) return;
      queue_.schedule_in(*back, [this, recovered, answer] {
        if (!plan_->resolver_down(recovered, queue_.now()))
          write_record(pool_.replica_index(recovered), answer);
      });
    });
  }

  /// Device -> primary replica, then primary -> every other replica: the
  /// primary relays when the update reaches it. The device registers with
  /// its nearest replica, under faults its nearest *live* one; replicas
  /// that are dead, or whose relay is lost or unroutable, miss this update
  /// and serve their stale record until the next one.
  void register_location(std::size_t step, std::size_t attempt) override {
    obs::metric::resolver_updates().add();
    count_attempt(attempt);
    const AsId new_as = config_.schedule[step].as;
    const auto primary =
        faults_ ? pool_.nearest_live_replica(new_as, *plan_, queue_.now())
                : std::optional<AsId>(pool_.nearest_replica(new_as));
    const auto to_primary = primary.has_value()
                                ? leg_delay(new_as, *primary)
                                : std::nullopt;
    if (!primary.has_value() || !control_delivered() ||
        !to_primary.has_value()) {
      retry_registration(step, attempt);
      return;
    }
    queue_.schedule_in(*to_primary, [this, step, primary = *primary,
                                     attempt] {
      if (faults_ && plan_->resolver_down(primary, queue_.now())) {
        retry_registration(step, attempt);
        return;
      }
      write_record(pool_.replica_index(primary), step);
      for (std::size_t i = 0; i < pool_.replicas().size(); ++i) {
        const AsId replica = pool_.replicas()[i];
        if (replica == primary) continue;
        count_control(1);
        const auto relay = leg_delay(primary, replica);
        if (!control_delivered() || !relay.has_value()) continue;
        queue_.schedule_in(*relay, [this, i, step] {
          if (!faults_ ||
              !plan_->resolver_down(pool_.replicas()[i], queue_.now()))
            write_record(i, step);
        });
      }
    });
  }

  ResolverPool pool_;
  std::vector<std::size_t> records_;  // per replica, the newest move
  std::size_t lookup_replica_;  // index of lookup_replica() in the pool
};

class NameBasedRunner final : public SessionRunner {
 public:
  using SessionRunner::SessionRunner;

 private:
  void on_move(AsId new_as) override {
    // The flooding wavefront is massively redundant (every router relays),
    // so a lost copy or a dead AS does not stop it: name-based routing has
    // no control-plane single point of failure to crash. Its failure mode
    // is the data plane rerouting around dead elements (stretch). Router
    // beliefs are the closed-form wavefront_belief over the schedule.
    // Flooding cost: every router within scope (everyone when global).
    const auto& graph = fabric_.internet().graph();
    if (config_.update_scope_hops >= graph.as_count()) {
      count_control(graph.as_count());
    } else {
      // Hop distance is symmetric: one BFS row from the new attachment.
      std::size_t reached = 0;
      for (const std::size_t hops : fabric_.hop_row(new_as))
        if (ForwardingFabric::reached_hops(hops) <= config_.update_scope_hops)
          ++reached;
      count_control(reached);
    }
  }

  void send_packet(double send_time_ms) override {
    hop(config_.correspondent, send_time_ms, 0);
  }

  void hop(AsId at, double send_time_ms, std::size_t hops) {
    if (hops > config_.packet_ttl_hops) return;  // dropped in a loop
    if (faults_ && plan_->as_down(at, queue_.now())) return;  // router dark
    const AsId dest =
        wavefront_belief(fabric_, config_.schedule, at, queue_.now(),
                         config_.update_hop_ms, config_.update_scope_hops);
    if (at == dest) {
      if (device_location(queue_.now()) == at) deliver(send_time_ms);
      return;  // belief said "here" but the device has left: lost
    }
    const auto step = faults_
                          ? fabric_.step(at, dest, *plan_, queue_.now())
                          : fabric_.step(at, dest);
    if (!step.has_value()) return;
    queue_.schedule_in(step->delay_ms, [this, next = step->next,
                                        send_time_ms, hops] {
      hop(next, send_time_ms, hops + 1);
    });
  }
};

/// Mirrors the finished SessionStats into the process-wide registry.
/// Observation only: the stats object itself is never touched, which is
/// what keeps instrumentation-on runs bit-identical to instrumentation-
/// off runs (tests/obs/off_switch_test.cpp).
void mirror_to_registry(const SessionStats& stats) {
  obs::metric::session_runs().add();
  obs::metric::session_packets_sent().add(stats.packets_sent);
  obs::metric::session_packets_delivered().add(stats.packets_delivered);
  obs::metric::session_packets_lost().add(stats.packets_lost);
  obs::metric::session_control_messages().add(stats.control_messages);
  obs::metric::session_control_retries().add(stats.control_retries);
  if (stats.packets_sent_during_failure > 0)
    obs::metric::failure_active_sends().add(
        stats.packets_sent_during_failure);
}

}  // namespace

SessionStats simulate_session(const ForwardingFabric& fabric,
                              SimArchitecture architecture,
                              const SessionConfig& config) {
  validate_session(fabric, architecture, config);
  SessionStats stats;
  switch (architecture) {
    case SimArchitecture::kIndirection: {
      PROF_SPAN("lina.session.indirection");
      stats = IndirectionRunner(fabric, config).run();
      break;
    }
    case SimArchitecture::kNameBased: {
      PROF_SPAN("lina.session.name_based");
      stats = NameBasedRunner(fabric, config).run();
      break;
    }
    case SimArchitecture::kNameResolution: {
      PROF_SPAN("lina.session.name_resolution");
      stats = ResolutionRunner(fabric, config).run();
      break;
    }
    case SimArchitecture::kReplicatedResolution: {
      PROF_SPAN("lina.session.replicated_resolution");
      stats = ReplicatedResolutionRunner(fabric, config).run();
      break;
    }
    default:
      throw std::invalid_argument("simulate_session: unknown architecture");
  }
  mirror_to_registry(stats);
  return stats;
}

}  // namespace lina::sim
