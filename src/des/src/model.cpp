#include "lina/des/model.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace lina::des {

PacketModel::PacketModel(const sim::ForwardingFabric& fabric,
                         sim::SimArchitecture architecture)
    : fabric_(&fabric), arch_(architecture) {}

std::uint32_t PacketModel::add_session(
    const sim::SessionConfig& config,
    std::optional<std::uint64_t> digest_id) {
  sim::validate_session(*fabric_, arch_, config);
  if (config.mapping_cache.enabled())
    throw std::invalid_argument(
        "PacketModel: the packet model has no mapping cache");

  Spec spec;
  spec.digest_id = digest_id.value_or(specs_.size());
  spec.failures = config.failures != nullptr && !config.failures->empty()
                      ? config.failures
                      : nullptr;
  spec.correspondent = config.correspondent;
  spec.registry = config.home_as.value_or(config.schedule.front().as);
  spec.first_step = static_cast<std::uint32_t>(steps_.size());
  spec.step_count = static_cast<std::uint32_t>(config.schedule.size());
  spec.duration_ms = config.duration_ms;
  spec.interval_ms = config.packet_interval_ms;
  spec.ttl_ms = config.resolver_ttl_ms;
  spec.update_hop_ms = config.update_hop_ms;
  spec.scope_hops = config.update_scope_hops;
  spec.packet_ttl_hops = static_cast<std::uint16_t>(
      std::min<std::size_t>(config.packet_ttl_hops, 0xffff));
  if (arch_ == sim::SimArchitecture::kNameResolution ||
      arch_ == sim::SimArchitecture::kReplicatedResolution) {
    std::vector<topology::AsId> replicas =
        arch_ == sim::SimArchitecture::kReplicatedResolution
            ? config.resolver_replicas
            : std::vector<topology::AsId>{
                  config.resolver_as.value_or(config.correspondent)};
    spec.pool = &pools_.try_emplace(replicas, *fabric_, replicas)
                     .first->second;
    spec.registry = spec.pool->nearest_replica(spec.correspondent);
    spec.query_ms = delay_ms(spec.correspondent, spec.registry);
    spec.answer_ms = delay_ms(spec.registry, spec.correspondent);
  }
  steps_.insert(steps_.end(), config.schedule.begin(),
                config.schedule.end());
  if (arch_ != sim::SimArchitecture::kNameBased) {
    arrivals_.push_back(0.0);  // the initial registration, at session setup
    for (std::size_t i = 1; i < config.schedule.size(); ++i)
      arrivals_.push_back(
          arrival_ms(config.schedule[i], spec.pool, spec.registry));
  }

  specs_.push_back(spec);
  return static_cast<std::uint32_t>(specs_.size() - 1);
}

EventRecord PacketModel::initial_event(std::uint32_t session) const {
  EventRecord record;  // a kEmit of packet 0 at time 0
  record.session = session;
  record.at = specs_[session].correspondent;
  return record;
}

double PacketModel::delay_ms(topology::AsId from, topology::AsId to) const {
  return fabric_->path_delay_ms(from, to).value_or(
      std::numeric_limits<double>::infinity());
}

double PacketModel::arrival_ms(const sim::MobilityStep& step,
                               const sim::ResolverPool* pool,
                               topology::AsId registry) const {
  const topology::AsId first =
      pool != nullptr ? pool->nearest_replica(step.as) : registry;
  const double at_first = step.time_ms + delay_ms(step.as, first);
  return first == registry ? at_first : at_first + delay_ms(first, registry);
}

topology::AsId PacketModel::registered(const Spec& s,
                                       topology::AsId registry,
                                       double t) const {
  const std::span<const sim::MobilityStep> steps = schedule(s);
  const double* row = arrivals_.data() + s.first_step;
  for (std::size_t i = sim::steps_made(steps, t); i-- > 1;) {
    const double arrival = registry == s.registry
                               ? row[i]
                               : arrival_ms(steps[i], s.pool, registry);
    if (arrival <= t) return steps[i].as;
  }
  return steps.front().as;
}

topology::AsId PacketModel::resolver_belief(const Spec& s, double t) const {
  for (auto k = static_cast<std::int64_t>(t / s.ttl_ms); k >= 1; --k) {
    const double epoch = static_cast<double>(k) * s.ttl_ms;
    topology::AsId registry = s.registry;
    double query = s.query_ms;
    double answer = s.answer_ms;
    if (s.failures != nullptr &&
        s.failures->resolver_down(registry, epoch)) {
      const std::optional<topology::AsId> live =
          s.pool->nearest_live_replica(s.correspondent, *s.failures, epoch);
      if (!live.has_value()) continue;
      registry = *live;
      query = delay_ms(s.correspondent, registry);
      answer = delay_ms(registry, s.correspondent);
    }
    // A packet sent the instant an answer is installed still uses the
    // previous one.
    const double asked = epoch + query;
    if (asked + answer < t) return registered(s, registry, asked);
  }
  return schedule(s).front().as;
}

void PacketModel::finish(const Spec& s, const EventRecord& ev,
                         DeliveryDigest& digest) const {
  if (sim::location_at(schedule(s), ev.time_ms) == ev.at) {
    digest.add_delivered(s.digest_id, ev.packet, ev.time_ms, ev.sent_ms,
                         ev.hops, ev.at);
  } else {
    digest.lost += 1;  // stale belief: the mobile has moved on
  }
}

}  // namespace lina::des
