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
  spec.home_as = config.home_as.value_or(config.schedule.front().as);
  spec.first_step = static_cast<std::uint32_t>(steps_.size());
  spec.step_count = static_cast<std::uint32_t>(config.schedule.size());
  spec.duration_ms = config.duration_ms;
  spec.interval_ms = config.packet_interval_ms;
  spec.ttl_ms = config.resolver_ttl_ms;
  spec.update_hop_ms = config.update_hop_ms;
  spec.scope_hops = config.update_scope_hops;
  spec.packet_ttl_hops = static_cast<std::uint16_t>(
      std::min<std::size_t>(config.packet_ttl_hops, 0xffff));
  steps_.insert(steps_.end(), config.schedule.begin(),
                config.schedule.end());

  spec.first_replica = static_cast<std::uint32_t>(replicas_.size());
  if (arch_ == sim::SimArchitecture::kNameResolution ||
      arch_ == sim::SimArchitecture::kReplicatedResolution) {
    std::vector<topology::AsId> pool =
        arch_ == sim::SimArchitecture::kReplicatedResolution
            ? config.resolver_replicas
            : std::vector<topology::AsId>{
                  config.resolver_as.value_or(config.correspondent)};
    // Nearest-first (ties by AS id): the correspondent resolves at the
    // first live replica in this order. Precomputed here so the per-event
    // choice is one ordered scan.
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    std::stable_sort(pool.begin(), pool.end(),
                     [&](topology::AsId a, topology::AsId b) {
                       const auto da =
                           fabric_->path_delay_ms(spec.correspondent, a);
                       const auto db =
                           fabric_->path_delay_ms(spec.correspondent, b);
                       const double va = da.value_or(
                           std::numeric_limits<double>::infinity());
                       const double vb = db.value_or(
                           std::numeric_limits<double>::infinity());
                       if (va != vb) return va < vb;
                       return a < b;
                     });
    replicas_.insert(replicas_.end(), pool.begin(), pool.end());
  }
  spec.replica_count =
      static_cast<std::uint32_t>(replicas_.size() - spec.first_replica);

  specs_.push_back(spec);
  return static_cast<std::uint32_t>(specs_.size() - 1);
}

EventRecord PacketModel::initial_event(std::uint32_t session) const {
  const Spec& s = specs_[session];
  EventRecord record;
  record.type = EventType::kEmit;
  record.time_ms = 0.0;
  record.session = session;
  record.packet = 0;
  record.at = s.correspondent;
  return record;
}

topology::AsId PacketModel::home_belief(const Spec& s, double t) const {
  const sim::MobilityStep* begin = steps_.data() + s.first_step;
  for (std::uint32_t i = s.step_count; i-- > 1;) {
    const sim::MobilityStep& step = begin[i];
    if (step.time_ms > t) continue;  // not even sent yet
    const std::optional<double> delay =
        fabric_->path_delay_ms(step.as, s.home_as);
    if (!delay.has_value()) continue;  // registration never arrived
    if (step.time_ms + *delay <= t) return step.as;
  }
  return begin[0].as;  // initial registration happens at session setup
}

topology::AsId PacketModel::resolver_belief(const Spec& s, double t) const {
  const sim::MobilityStep* begin = steps_.data() + s.first_step;
  const topology::AsId* replicas = replicas_.data() + s.first_replica;
  // Resolutions happen on the TTL grid; if every replica is dead at an
  // epoch the correspondent keeps the previous epoch's answer.
  for (auto k = static_cast<std::int64_t>(t / s.ttl_ms); k >= 0; --k) {
    const double epoch = static_cast<double>(k) * s.ttl_ms;
    const topology::AsId* replica = nullptr;
    for (std::uint32_t r = 0; r < s.replica_count; ++r) {
      if (s.failures != nullptr &&
          s.failures->resolver_down(replicas[r], epoch)) {
        continue;
      }
      replica = &replicas[r];
      break;
    }
    if (replica == nullptr) continue;
    // The replica's registry lags each step by the registration
    // propagation delay from the new attachment to that replica.
    for (std::uint32_t i = s.step_count; i-- > 1;) {
      const sim::MobilityStep& step = begin[i];
      if (step.time_ms > epoch) continue;
      const std::optional<double> delay =
          fabric_->path_delay_ms(step.as, *replica);
      if (!delay.has_value()) continue;
      if (step.time_ms + *delay <= epoch) return step.as;
    }
    return begin[0].as;
  }
  return begin[0].as;
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
