#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <iostream>
#include <limits>
#include <optional>
#include <span>

#include "lina/core/aggregateability.hpp"
#include "lina/core/update_cost.hpp"
#include "lina/des/replay.hpp"
#include "lina/mobility/content_workload.hpp"
#include "lina/mobility/device_workload.hpp"
#include "lina/names/interner.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/obs/registry.hpp"
#include "lina/routing/synthetic_internet.hpp"
#include "lina/sim/fabric.hpp"
#include "lina/sim/resolver_pool.hpp"
#include "lina/sim/session.hpp"
#include "lina/snap/store.hpp"
#include "lina/strategy/forwarding_strategy.hpp"
#include "lina/strategy/port_oracle.hpp"
#include "lina/trace/cursor.hpp"
#include "lina/trace/replay.hpp"
#include "lina/trace/streaming.hpp"

namespace linabench {

void Checks::expect(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 20) std::cerr << "linabench: check failed: " << what << "\n";
}

namespace {

using namespace lina;
namespace fs = std::filesystem;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// FNV-1a style mix; order-sensitive, so equal digests mean equal streams.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ULL;
}

/// The paper's synthetic Internet (fixed: the workload seed drives only
/// the generated users and content) with every vantage FIB built.
std::unique_ptr<routing::SyntheticInternet> build_internet(
    SpanRecorder& spans) {
  ScopedSpan span(spans, "routing.internet_build");
  auto internet = std::make_unique<routing::SyntheticInternet>(
      routing::SyntheticInternetConfig{});
  for (const routing::VantageRouter& router : internet->vantages())
    router.build_fib();
  return internet;
}

double span_total_ns(const SpanRecorder& spans, std::string_view name) {
  double total = 0.0;
  for (const std::int64_t ns : spans.samples(name, spans.run()))
    total += static_cast<double>(ns);
  return total;
}

std::size_t span_count(const SpanRecorder& spans, std::string_view name) {
  return spans.samples(name, spans.run()).size();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint64_t events_of(const std::vector<core::RouterUpdateStats>& stats) {
  std::uint64_t n = 0;
  for (const core::RouterUpdateStats& s : stats) n += s.events;
  return n;
}

bool same_tallies(const std::vector<core::RouterUpdateStats>& a,
                  const std::vector<core::RouterUpdateStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].router != b[i].router || a[i].events != b[i].events ||
        a[i].updates != b[i].updates)
      return false;
  }
  return true;
}

/// The router's port for `addr` on its live (mutable IpTrie) FIB, with
/// uncovered addresses mapped to one distinct "no route" port — the
/// independent re-decision of what the evaluators compute on frozen FIBs.
std::uint32_t live_port(const routing::VantageRouter& router,
                        net::Ipv4Address addr) {
  const auto hit = router.fib().lookup(addr);
  return hit.has_value() ? hit->second.port
                         : std::numeric_limits<std::uint32_t>::max();
}

// ---------------------------------------------------------------------------
// device_update_cost: fig8's pattern. Each pass builds a fresh
// DeviceUpdateCostEvaluator per router set and runs evaluate plus
// evaluate_day for every day: memoized point LPM lookups with heavy reuse.
// No trace or DES work. The population is 2048 users x 6 days rather than
// the paper's 372 x 30 (about as many user-days): per-user mobility rates
// are log-normal, so 372 users leave a few heavy users to decide a seed's
// cost and memory.
class DeviceUpdateCost final : public Workload {
 public:
  DeviceUpdateCost(const Options& options, SpanRecorder& spans)
      : options_(options), spans_(spans) {}

  void setup() override {
    traces_.clear();
    ripe_.clear();
    internet_.reset();
    internet_ = build_internet(spans_);
    {
      ScopedSpan span(spans_, "routing.build_vantages");
      ripe_ = internet_->build_vantages(routing::ripe_vantage_specs());
      for (const routing::VantageRouter& router : ripe_) router.build_fib();
    }
    ScopedSpan span(spans_, "mobility.device_generate");
    mobility::DeviceWorkloadConfig config;
    config.seed = options_.seed;
    config.user_count = tiny() ? 40 : 2048;
    config.days = tiny() ? 3 : 6;
    traces_ = mobility::DeviceWorkloadGenerator(*internet_, config).generate();
  }

  std::uint64_t pass() override {
    std::uint64_t router_events = 0;
    for (std::size_t s = 0; s < 2; ++s) {
      const core::DeviceUpdateCostEvaluator evaluator(routers(s));
      Result& result = results_[s];
      {
        ScopedSpan span(spans_, "core.update_cost.first_call");
        result.all = evaluator.evaluate(traces_);
      }
      router_events += events_of(result.all);
      result.days.clear();
      for (std::size_t day = 0; day < days(); ++day) {
        ScopedSpan span(spans_, "core.update_cost.call");
        result.days.push_back(evaluator.evaluate_day(traces_, day));
        router_events += events_of(result.days.back());
      }
    }
    router_events_ = router_events;
    return router_events;
  }

  void reference(Checks& checks) override {
    for (std::size_t s = 0; s < 2; ++s) {
      expected_[s] = results_[s].all;
      if (options_.corrupt_reference) ++expected_[s].front().updates;
      // Re-decide a sample of users' events on the live IpTrie FIBs and
      // compare with the evaluator's tallies for the same users.
      std::vector<mobility::DeviceTrace> sample;
      const std::size_t step = std::max<std::size_t>(1, traces_.size() / 24);
      for (std::size_t u = 0; u < traces_.size(); u += step)
        sample.push_back(traces_[u]);
      const core::DeviceUpdateCostEvaluator evaluator(routers(s));
      const std::vector<core::RouterUpdateStats> got =
          evaluator.evaluate(sample);
      std::vector<core::RouterUpdateStats> want;
      for (const routing::VantageRouter& router : routers(s)) {
        core::RouterUpdateStats tally{std::string(router.name()), 0, 0};
        for (const mobility::DeviceTrace& trace : sample) {
          for (const mobility::DeviceMobilityEvent& e : trace.events()) {
            ++tally.events;
            if (live_port(router, e.from) != live_port(router, e.to))
              ++tally.updates;
          }
        }
        want.push_back(tally);
      }
      if (options_.corrupt_reference) ++want.front().updates;
      checks.expect(same_tallies(got, want),
                    "device: sampled events re-decided on the live FIB");
    }
    // Pin fig8's committed headline (its 372 users x 30 days on the
    // Routeviews-like set) on the default seed.
    if (options_.seed == 7 && !tiny()) {
      mobility::DeviceWorkloadConfig fig8;
      fig8.days = 30;
      const std::vector<mobility::DeviceTrace> traces =
          mobility::DeviceWorkloadGenerator(*internet_, fig8).generate();
      std::vector<double> rates;
      for (const core::RouterUpdateStats& s :
           core::DeviceUpdateCostEvaluator(routers(0)).evaluate(traces))
        rates.push_back(s.rate());
      std::sort(rates.begin(), rates.end());
      double max_rate = 0.20614787734089382;
      double median_rate = 0.09811236290382751;
      if (options_.corrupt_reference) max_rate += 1e-3;
      checks.expect(rates.back() == max_rate, "device: fig8 max_update_rate");
      checks.expect(rates[rates.size() / 2] == median_rate,
                    "device: fig8 median_update_rate");
    }
  }

  void check_pass(Checks& checks) override {
    for (std::size_t s = 0; s < 2; ++s) {
      const Result& result = results_[s];
      // evaluate() must equal the sum of evaluate_day() over the days.
      std::vector<core::RouterUpdateStats> summed = result.all;
      for (core::RouterUpdateStats& t : summed) t.events = t.updates = 0;
      for (const auto& day : result.days) {
        for (std::size_t r = 0; r < summed.size(); ++r) {
          summed[r].events += day[r].events;
          summed[r].updates += day[r].updates;
        }
      }
      checks.expect(same_tallies(summed, result.all),
                    "device: evaluate == sum of evaluate_day");
      checks.expect(same_tallies(result.all, expected_[s]),
                    "device: evaluate matches the reference pass");
    }
  }

  void layer_values(LayerValues& out, const std::string& suffix) override {
    if (suffix.empty())
      out["core.update_cost.router_events"] =
          static_cast<double>(router_events_);
  }

  [[nodiscard]] std::string_view unit() const override {
    return "router event (mobility event x vantage router tallied)";
  }

 private:
  struct Result {
    std::vector<core::RouterUpdateStats> all;
    std::vector<std::vector<core::RouterUpdateStats>> days;
  };

  [[nodiscard]] bool tiny() const { return options_.size == Size::kTiny; }
  [[nodiscard]] std::size_t days() const { return traces_.front().day_count(); }
  [[nodiscard]] std::span<const routing::VantageRouter> routers(
      std::size_t s) const {
    if (s == 0) return internet_->vantages();
    return ripe_;
  }

  Options options_;
  SpanRecorder& spans_;
  std::unique_ptr<routing::SyntheticInternet> internet_;
  std::vector<routing::VantageRouter> ripe_;
  std::vector<mobility::DeviceTrace> traces_;
  std::array<Result, 2> results_;
  std::array<std::vector<core::RouterUpdateStats>, 2> expected_;
  std::uint64_t router_events_ = 0;
};

// ---------------------------------------------------------------------------
// scale_stream: 10240 users x 15 days out of core. Each pass generates the
// population straight to trace shards, replays it per user in batches and
// as one event stream through the k-way cursor, streams every visit
// address through a frozen vantage FIB with batched LPM (no reuse), then
// saves and reloads that FIB with lina::snap and replays the stream
// through the reloaded copy. The work unit is a visit record rather than
// a user: visits per user vary with the seed, and every stage's cost
// follows visits.
class ScaleStream final : public Workload {
 public:
  ScaleStream(const Options& options, SpanRecorder& spans)
      : options_(options),
        spans_(spans),
        shard_dir_(options.work_dir / "scale-shards"),
        snap_dir_(options.work_dir / "scale-snap") {}

  void setup() override {
    internet_.reset();
    internet_ = build_internet(spans_);
  }

  void prepare() override {
    set_.reset();
    fs::remove_all(shard_dir_);
    fs::remove_all(snap_dir_);
  }

  std::uint64_t pass() override {
    const mobility::DeviceWorkloadGenerator generator(*internet_, config());
    trace::StreamingWorkloadConfig stream_config;
    stream_config.users_per_shard = tiny() ? 64 : 2560;
    {
      ScopedSpan span(spans_, "trace.write_shards");
      set_.emplace(trace::StreamingWorkload(generator, stream_config)
                       .write_shards(shard_dir_));
    }
    // Per-user trace replay in batches.
    visits_decoded_ = 0;
    {
      trace::DeviceTraceStream stream(*set_);
      while (!stream.done()) {
        std::vector<mobility::DeviceTrace> batch;
        {
          ScopedSpan span(spans_, "trace.next_batch");
          batch = stream.next_batch(trace::kDefaultBatchUsers);
        }
        for (const mobility::DeviceTrace& trace : batch)
          visits_decoded_ += trace.visits().size();
      }
    }
    // Global event replay through the k-way merge cursor.
    {
      ScopedSpan span(spans_, "trace.cursor");
      trace::TraceCursor cursor(*set_);
      trace::TraceEvent event;
      while (cursor.next(event)) {
      }
      events_replayed_ = cursor.events_replayed();
    }
    // Batched frozen LPM, then a snapshot round trip of the same FIB.
    routing::FrozenFib fib;
    {
      ScopedSpan span(spans_, "routing.fib_freeze");
      fib = internet_->vantages().front().fib().freeze();
    }
    live_digest_ = fib_replay(fib);
    {
      ScopedSpan span(spans_, "snap.save");
      snap::SnapshotStore store(snap_dir_);
      snapshot_bytes_ = store.save_ip_fib("vantage-0", fib).bytes;
    }
    routing::FrozenFib loaded;
    {
      ScopedSpan span(spans_, "snap.load");
      const snap::SnapshotStore store(snap_dir_);
      loaded = store.load_ip_fib("vantage-0");
    }
    snapshot_entries_ = loaded.size();
    warm_digest_ = fib_replay(loaded);
    return set_->visit_count();
  }

  void reference(Checks&) override {
    // The port digest of every visit address on the live IpTrie FIB, in
    // stream order.
    const routing::VantageRouter& router = internet_->vantages().front();
    std::uint64_t digest = kFnvOffset;
    trace::DeviceTraceStream stream(*set_);
    while (!stream.done()) {
      for (const mobility::DeviceTrace& trace :
           stream.next_batch(trace::kDefaultBatchUsers)) {
        for (const mobility::DeviceVisit& visit : trace.visits())
          digest = mix(digest, live_port(router, visit.address));
      }
    }
    reference_digest_ = digest;
    visits_written_ = set_->visit_count();
    events_written_ = set_->event_count();
    if (options_.corrupt_reference) {
      reference_digest_ ^= 1;
      ++visits_written_;
    }
  }

  void check_pass(Checks& checks) override {
    checks.expect(set_->user_count() == config().user_count,
                  "scale: users written");
    checks.expect(visits_decoded_ == visits_written_,
                  "scale: visits decoded == visits written");
    checks.expect(events_replayed_ == events_written_,
                  "scale: cursor events == events written");
    checks.expect(live_digest_ == reference_digest_,
                  "scale: frozen FIB digest == live FIB digest");
    checks.expect(warm_digest_ == reference_digest_,
                  "scale: warm-start digest == live FIB digest");
  }

  void layer_values(LayerValues& out, const std::string& suffix) override {
    const double passes =
        static_cast<double>(span_count(spans_, "trace.cursor"));
    out["trace.cursor_ns_per_event" + suffix] =
        ratio(span_total_ns(spans_, "trace.cursor"),
              passes * static_cast<double>(events_replayed_));
    out["net.lpm_ns_per_lookup" + suffix] =
        ratio(span_total_ns(spans_, "net.lpm_batch"),
              passes * 2.0 * static_cast<double>(visits_decoded_));
    // Sampled generate_user: spans only, percentiles taken by the caller.
    const mobility::DeviceWorkloadGenerator generator(*internet_, config());
    const std::uint32_t users = config().user_count;
    for (std::uint32_t i = 0; i < kGenerateSamples; ++i) {
      const auto user = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(i) * users / kGenerateSamples);
      ScopedSpan span(spans_, "mobility.generate_user");
      (void)generator.generate_user(user);
    }
    if (!suffix.empty()) return;
    std::uint64_t bytes = 0;
    for (const trace::ShardInfo& shard : set_->shards())
      bytes += fs::file_size(shard.path);
    out["trace.bytes_per_visit"] =
        ratio(static_cast<double>(bytes),
              static_cast<double>(set_->visit_count()));
    out["snap.bytes_per_entry"] =
        ratio(static_cast<double>(snapshot_bytes_),
              static_cast<double>(snapshot_entries_));
    // Counter deltas from one untimed, unrecorded replay with the obs
    // registry on.
    const bool recording = spans_.enabled();
    spans_.enable(false);
    std::uint64_t visits = 0;
    std::uint64_t lookups = 0;
    {
      const obs::EnabledScope registry;
      const std::uint64_t visits0 =
          obs::metric::ip_trie_lpm_node_visits().value();
      const std::uint64_t lookups0 =
          obs::metric::ip_trie_lpm_lookups().value();
      (void)fib_replay(internet_->vantages().front().fib().freeze());
      visits = obs::metric::ip_trie_lpm_node_visits().value() - visits0;
      lookups = obs::metric::ip_trie_lpm_lookups().value() - lookups0;
    }
    spans_.enable(recording);
    out["net.ip_trie.lpm_node_visits_per_lookup"] =
        ratio(static_cast<double>(visits), static_cast<double>(lookups));
  }

  [[nodiscard]] std::string_view unit() const override {
    return "visit record carried through generation, shard write, trace "
           "and event replay, FIB replay and the snapshot round trip";
  }

 private:
  static constexpr std::uint32_t kGenerateSamples = 1024;

  [[nodiscard]] bool tiny() const { return options_.size == Size::kTiny; }

  [[nodiscard]] mobility::DeviceWorkloadConfig config() const {
    mobility::DeviceWorkloadConfig config;
    config.seed = options_.seed;
    config.user_count = tiny() ? 256 : 10240;
    config.days = tiny() ? 3 : 15;
    return config;
  }

  /// Streams every visit address through `fib` with batched LPM; returns
  /// the order-sensitive port digest.
  std::uint64_t fib_replay(const routing::FrozenFib& fib) {
    std::uint64_t digest = kFnvOffset;
    trace::DeviceTraceStream stream(*set_);
    std::vector<net::Ipv4Address> addrs;
    std::vector<const routing::FibEntry*> hits;
    while (!stream.done()) {
      std::vector<mobility::DeviceTrace> batch;
      {
        ScopedSpan span(spans_, "trace.next_batch");
        batch = stream.next_batch(trace::kDefaultBatchUsers);
      }
      addrs.clear();
      for (const mobility::DeviceTrace& trace : batch) {
        for (const mobility::DeviceVisit& visit : trace.visits())
          addrs.push_back(visit.address);
      }
      hits.resize(addrs.size());
      {
        ScopedSpan span(spans_, "net.lpm_batch");
        fib.entries_for_many(addrs, hits);
      }
      for (const routing::FibEntry* entry : hits) {
        digest = mix(digest, entry == nullptr
                                 ? std::numeric_limits<std::uint32_t>::max()
                                 : entry->port);
      }
    }
    return digest;
  }

  Options options_;
  SpanRecorder& spans_;
  fs::path shard_dir_;
  fs::path snap_dir_;
  std::unique_ptr<routing::SyntheticInternet> internet_;
  std::optional<trace::ShardSet> set_;
  std::uint64_t visits_decoded_ = 0;
  std::uint64_t events_replayed_ = 0;
  std::uint64_t live_digest_ = 0;
  std::uint64_t warm_digest_ = 0;
  std::uint64_t snapshot_bytes_ = 0;
  std::uint64_t snapshot_entries_ = 0;
  std::uint64_t reference_digest_ = 0;
  std::uint64_t visits_written_ = 0;
  std::uint64_t events_written_ = 0;
};

// ---------------------------------------------------------------------------
// packet_replay: a shard set written during set-up is replayed through the
// packet engine (des::replay_packets_streamed, default EngineConfig) for all
// four architectures, then a subset of its users runs through the stateful
// session simulator with the correspondent's mapping cache on. One
// ForwardingFabric serves both.
struct Architecture {
  sim::SimArchitecture arch;
  const char* des_span;
  const char* sim_span;
};

constexpr std::array<Architecture, 4> kArchitectures{{
    {sim::SimArchitecture::kIndirection, "des.replay.indirection",
     "sim.sessions.indirection"},
    {sim::SimArchitecture::kNameResolution, "des.replay.resolution",
     "sim.sessions.resolution"},
    {sim::SimArchitecture::kReplicatedResolution, "des.replay.replicated",
     "sim.sessions.replicated"},
    {sim::SimArchitecture::kNameBased, "des.replay.name_routing",
     "sim.sessions.name_routing"},
}};

bool same_sessions(const std::vector<sim::SessionStats>& a,
                   const std::vector<sim::SessionStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].packets_sent != b[i].packets_sent ||
        a[i].packets_delivered != b[i].packets_delivered ||
        a[i].packets_lost != b[i].packets_lost ||
        a[i].control_messages != b[i].control_messages ||
        !(a[i].mapping_cache == b[i].mapping_cache) ||
        a[i].delivery_delay_ms.size() != b[i].delivery_delay_ms.size())
      return false;
  }
  return true;
}

class PacketReplay final : public Workload {
 public:
  PacketReplay(const Options& options, SpanRecorder& spans)
      : options_(options),
        spans_(spans),
        replay_dir_(options.work_dir / "packet-shards"),
        session_dir_(options.work_dir / "session-shards") {}

  void setup() override {
    set_.reset();
    session_set_.reset();
    fabric_.reset();
    internet_.reset();
    internet_ = build_internet(spans_);
    {
      ScopedSpan span(spans_, "mobility.device_generate");
      fs::remove_all(replay_dir_);
      fs::remove_all(session_dir_);
      const mobility::DeviceWorkloadGenerator replay_users(
          *internet_, config(replay_users_count()));
      set_.emplace(
          trace::StreamingWorkload(replay_users).write_shards(replay_dir_));
      const mobility::DeviceWorkloadGenerator session_users(
          *internet_, config(session_users_count()));
      session_set_.emplace(
          trace::StreamingWorkload(session_users).write_shards(session_dir_));
    }
    {
      ScopedSpan span(spans_, "sim.fabric_build");
      fabric_ = std::make_unique<sim::ForwardingFabric>(*internet_);
    }
    replicas_ = sim::ResolverPool::metro_placement(*internet_, 8);
  }

  std::uint64_t pass() override {
    std::uint64_t sent = 0;
    for (std::size_t a = 0; a < kArchitectures.size(); ++a) {
      des::PacketReplayStats stats;
      {
        ScopedSpan span(spans_, kArchitectures[a].des_span);
        stats = des::replay_packets_streamed(*fabric_, *set_,
                                             replay_config(a, false));
      }
      replay_[a] = stats;
      sent += stats.digest.sent;
    }
    for (std::size_t a = 0; a < kArchitectures.size(); ++a) {
      ScopedSpan span(spans_, kArchitectures[a].sim_span);
      sessions_[a] = trace::simulate_sessions_streamed(
          *fabric_, kArchitectures[a].arch, session_config(a), kHours,
          *session_set_);
    }
    return sent;
  }

  void reference(Checks&) override {
    // The serial sim::EventQueue reference of the packet engine, and the
    // resident-vector session loop over traces generated in memory (no
    // shard codec) for the streamed session replay.
    const std::vector<mobility::DeviceTrace> traces =
        mobility::DeviceWorkloadGenerator(*internet_,
                                          config(session_users_count()))
            .generate();
    for (std::size_t a = 0; a < kArchitectures.size(); ++a) {
      serial_[a] =
          des::replay_packets_streamed(*fabric_, *set_, replay_config(a, true))
              .digest;
      resident_[a].clear();
      for (const mobility::DeviceTrace& trace : traces) {
        sim::SessionConfig config = session_config(a);
        config.duration_ms = kHours * 1000.0;
        config.schedule = trace::session_schedule_from_trace(trace, kHours);
        resident_[a].push_back(
            sim::simulate_session(*fabric_, kArchitectures[a].arch, config));
      }
      if (options_.corrupt_reference) {
        ++serial_[a].delivered;
        ++resident_[a].front().packets_delivered;
      }
    }
  }

  void check_pass(Checks& checks) override {
    for (std::size_t a = 0; a < kArchitectures.size(); ++a) {
      checks.expect(replay_[a].digest == serial_[a],
                    std::string(kArchitectures[a].des_span) +
                        ": digest == serial reference");
      checks.expect(same_sessions(sessions_[a], resident_[a]),
                    std::string(kArchitectures[a].sim_span) +
                        ": streamed == resident session loop");
    }
  }

  void layer_values(LayerValues& out, const std::string& suffix) override {
    if (!suffix.empty()) return;
    double events = 0.0, sent = 0.0, windows = 0.0;
    for (const des::PacketReplayStats& s : replay_) {
      events += static_cast<double>(s.events);
      sent += static_cast<double>(s.digest.sent);
      windows += static_cast<double>(s.windows);
    }
    double sessions = 0.0, control = 0.0, hits = 0.0, probes = 0.0,
           invalidations = 0.0;
    for (const auto& arch : sessions_) {
      for (const sim::SessionStats& s : arch) {
        sessions += 1.0;
        control += static_cast<double>(s.control_messages);
        hits += static_cast<double>(s.mapping_cache.hits);
        probes += static_cast<double>(s.mapping_cache.probes());
        invalidations += static_cast<double>(s.mapping_cache.invalidations);
      }
    }
    out["des.events_per_packet"] = ratio(events, sent);
    out["des.windows"] = windows;
    out["sim.control_msgs_per_session"] = ratio(control, sessions);
    out["cache.hit_ratio"] = ratio(hits, probes);
    out["cache.invalidations_per_session"] = ratio(invalidations, sessions);
  }

  [[nodiscard]] std::string_view unit() const override {
    return "packet sent in the DES replay (the pass also runs the session "
           "simulator)";
  }

 private:
  static constexpr double kHours = 24.0;

  [[nodiscard]] bool tiny() const { return options_.size == Size::kTiny; }
  [[nodiscard]] std::size_t replay_users_count() const {
    return tiny() ? 64 : 2048;
  }
  [[nodiscard]] std::size_t session_users_count() const {
    return tiny() ? 8 : 64;
  }

  [[nodiscard]] mobility::DeviceWorkloadConfig config(
      std::size_t users) const {
    mobility::DeviceWorkloadConfig config;
    config.seed = options_.seed;
    config.user_count = users;
    config.days = 1;
    return config;
  }

  [[nodiscard]] des::PacketReplayConfig replay_config(std::size_t a,
                                                      bool serial) const {
    des::PacketReplayConfig config;
    config.architecture = kArchitectures[a].arch;
    config.hours = kHours;
    config.interval_ms = 1000.0;
    config.correspondent = internet_->edge_ases()[0];
    config.replicas = replicas_;
    config.serial = serial;
    return config;
  }

  [[nodiscard]] sim::SessionConfig session_config(std::size_t a) const {
    sim::SessionConfig config;
    config.correspondent = internet_->edge_ases()[0];
    config.packet_interval_ms = 100.0;
    config.resolver_ttl_ms = 200.0;
    config.resolver_as = replicas_.front();
    if (kArchitectures[a].arch == sim::SimArchitecture::kReplicatedResolution)
      config.resolver_replicas = replicas_;
    config.mapping_cache.policy = cache::Policy::kTtlLru;
    config.mapping_cache.capacity = 64;
    return config;
  }

  Options options_;
  SpanRecorder& spans_;
  fs::path replay_dir_;
  fs::path session_dir_;
  std::unique_ptr<routing::SyntheticInternet> internet_;
  std::unique_ptr<sim::ForwardingFabric> fabric_;
  std::optional<trace::ShardSet> set_;
  std::optional<trace::ShardSet> session_set_;
  std::vector<topology::AsId> replicas_;
  std::array<des::PacketReplayStats, 4> replay_;
  std::array<std::vector<sim::SessionStats>, 4> sessions_;
  std::array<des::DeliveryDigest, 4> serial_;
  std::array<std::vector<sim::SessionStats>, 4> resident_;
};

// ---------------------------------------------------------------------------
// content_update_cost: the popular/unpopular catalog is built in set-up.
// Each pass runs ContentUpdateCostEvaluator::evaluate under controlled
// flooding and best-port, then evaluate_aggregateability, on both sets:
// LPM over address sets rather than single points, plus the strategy and
// names layers. The work unit is an address lookup (see setup()), which
// follows a pass's cost across seeds; router events do not, because the
// share of large CDN address sets varies from seed to seed.
class ContentUpdateCost final : public Workload {
 public:
  ContentUpdateCost(const Options& options, SpanRecorder& spans)
      : options_(options), spans_(spans) {}

  void setup() override {
    catalog_.reset();
    internet_.reset();
    internet_ = build_internet(spans_);
    ScopedSpan span(spans_, "mobility.content_generate");
    mobility::ContentWorkloadConfig config;
    config.seed = options_.seed;
    // Two days of hourly samples over more domains than the paper's 500 +
    // 500, with the subdomain fan-out capped at 30: the log-normal tail
    // otherwise lets one seed's few giant CDN domains decide a pass's
    // cost and memory.
    config.days = 2;
    config.popular_domains = tiny() ? 40 : 600;
    config.unpopular_domains = tiny() ? 40 : 600;
    config.max_subdomains = 30;
    catalog_.emplace(
        mobility::ContentWorkloadGenerator(*internet_, config).generate());
    // Address lookups per pass: every snapshot address once per router and
    // strategy, and every final address once per router (aggregateability).
    std::uint64_t per_router = 0;
    for (std::size_t s = 0; s < 2; ++s) {
      for (const mobility::ContentTrace& trace : traces(s)) {
        for (const auto& snapshot : trace.snapshots())
          per_router += 2 * snapshot.addresses.size();
        per_router += trace.final_addresses().size();
      }
    }
    address_lookups_ = per_router * internet_->vantages().size();
  }

  std::uint64_t pass() override {
    const core::ContentUpdateCostEvaluator evaluator(internet_->vantages());
    for (std::size_t s = 0; s < 2; ++s) {
      Result& result = results_[s];
      {
        ScopedSpan span(spans_, "core.content_update_cost.flooding");
        result.flooding = evaluator.evaluate(
            traces(s), strategy::StrategyKind::kControlledFlooding);
      }
      {
        ScopedSpan span(spans_, "core.content_update_cost.best_port");
        result.best_port =
            evaluator.evaluate(traces(s), strategy::StrategyKind::kBestPort);
      }
      {
        ScopedSpan span(spans_, "core.aggregateability");
        result.aggregate =
            core::evaluate_aggregateability(internet_->vantages(), traces(s));
      }
    }
    return address_lookups_;
  }

  void reference(Checks& checks) override {
    const auto vantages = internet_->vantages();
    for (std::size_t s = 0; s < 2; ++s) {
      expected_[s] = results_[s];
      // Aggregateability, batched through the accumulator.
      core::AggregateabilityAccumulator accumulator(vantages);
      const std::span<const mobility::ContentTrace> all = traces(s);
      for (std::size_t i = 0; i < all.size(); i += 64)
        accumulator.accumulate(all.subspan(i, std::min<std::size_t>(
                                                  64, all.size() - i)));
      expected_[s].aggregate = accumulator.finish();
      if (options_.corrupt_reference) {
        ++expected_[s].flooding.front().updates;
        ++expected_[s].aggregate.front().lpm_entries;
      }
      // A sample of traces re-decided on the live IpTrie FIBs.
      std::vector<mobility::ContentTrace> sample;
      const std::size_t step = std::max<std::size_t>(1, all.size() / 32);
      for (std::size_t i = 0; i < all.size(); i += step)
        sample.push_back(all[i]);
      const core::ContentUpdateCostEvaluator evaluator(vantages);
      for (const strategy::StrategyKind kind :
           {strategy::StrategyKind::kControlledFlooding,
            strategy::StrategyKind::kBestPort}) {
        std::vector<core::RouterUpdateStats> want;
        for (const routing::VantageRouter& router : vantages) {
          core::RouterUpdateStats tally{std::string(router.name()), 0, 0};
          const strategy::FibOracle oracle(router.fib());
          const auto strat = strategy::make_strategy(kind);
          for (const mobility::ContentTrace& trace : sample) {
            strat->reset();
            bool first = true;
            for (const auto& snapshot : trace.snapshots()) {
              const bool updated = strat->observe(oracle, snapshot.addresses);
              if (!first) {
                ++tally.events;
                if (updated) ++tally.updates;
              }
              first = false;
            }
          }
          want.push_back(tally);
        }
        if (options_.corrupt_reference) ++want.front().updates;
        checks.expect(same_tallies(evaluator.evaluate(sample, kind), want),
                      "content: sampled traces re-decided on the live FIB");
      }
    }
  }

  void check_pass(Checks& checks) override {
    for (std::size_t s = 0; s < 2; ++s) {
      const Result& result = results_[s];
      const Result& expected = expected_[s];
      checks.expect(same_tallies(result.flooding, expected.flooding),
                    "content: flooding matches the reference pass");
      checks.expect(same_tallies(result.best_port, expected.best_port),
                    "content: best-port matches the reference pass");
      bool same = result.aggregate.size() == expected.aggregate.size();
      for (std::size_t r = 0; same && r < result.aggregate.size(); ++r) {
        const core::AggregateabilityResult& x = result.aggregate[r];
        const core::AggregateabilityResult& y = expected.aggregate[r];
        same = x.router == y.router &&
               x.complete_entries == y.complete_entries &&
               x.lpm_entries == y.lpm_entries && x.table_bytes == y.table_bytes;
      }
      checks.expect(same, "content: aggregateability == batched accumulator");
    }
  }

  void layer_values(LayerValues& out, const std::string& suffix) override {
    if (!suffix.empty()) return;
    // Counter deltas from one untimed, unrecorded aggregateability call
    // with the obs registry on.
    const bool recording = spans_.enabled();
    spans_.enable(false);
    std::uint64_t inserts = 0, visits = 0, lookups = 0;
    {
      const obs::EnabledScope registry;
      const std::uint64_t inserts0 = obs::metric::name_trie_inserts().value();
      const std::uint64_t visits0 =
          obs::metric::name_trie_lpm_node_visits().value();
      const std::uint64_t lookups0 =
          obs::metric::name_trie_lpm_lookups().value();
      for (std::size_t s = 0; s < 2; ++s)
        (void)core::evaluate_aggregateability(internet_->vantages(),
                                              traces(s));
      inserts = obs::metric::name_trie_inserts().value() - inserts0;
      visits = obs::metric::name_trie_lpm_node_visits().value() - visits0;
      lookups = obs::metric::name_trie_lpm_lookups().value() - lookups0;
    }
    spans_.enable(recording);
    out["names.name_trie.inserts"] = static_cast<double>(inserts);
    out["names.name_trie.lpm_node_visits_per_lookup"] =
        ratio(static_cast<double>(visits), static_cast<double>(lookups));
    out["names.interner_entries"] =
        static_cast<double>(names::ComponentInterner::global().size());
  }

  [[nodiscard]] std::string_view unit() const override {
    return "address lookup (snapshot address x vantage router x strategy, "
           "plus final address x router for aggregateability)";
  }

 private:
  struct Result {
    std::vector<core::RouterUpdateStats> flooding;
    std::vector<core::RouterUpdateStats> best_port;
    std::vector<core::AggregateabilityResult> aggregate;
  };

  [[nodiscard]] bool tiny() const { return options_.size == Size::kTiny; }
  [[nodiscard]] std::span<const mobility::ContentTrace> traces(
      std::size_t s) const {
    return s == 0 ? catalog_->popular : catalog_->unpopular;
  }

  Options options_;
  SpanRecorder& spans_;
  std::unique_ptr<routing::SyntheticInternet> internet_;
  std::optional<mobility::ContentCatalog> catalog_;
  std::array<Result, 2> results_;
  std::array<Result, 2> expected_;
  std::uint64_t address_lookups_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "device_update_cost", "scale_stream", "packet_replay",
      "content_update_cost"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Options& options,
                                        SpanRecorder& spans) {
  if (name == "device_update_cost")
    return std::make_unique<DeviceUpdateCost>(options, spans);
  if (name == "scale_stream")
    return std::make_unique<ScaleStream>(options, spans);
  if (name == "packet_replay")
    return std::make_unique<PacketReplay>(options, spans);
  if (name == "content_update_cost")
    return std::make_unique<ContentUpdateCost>(options, spans);
  return nullptr;
}

}  // namespace linabench
