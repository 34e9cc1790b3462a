// Google-benchmark microbenchmarks for the hot data structures: the IP LPM
// trie, the hierarchical name trie, route selection, the policy-routing
// engine, and the shortest-path kernels. These bound the cost of scaling
// the reproduction up.

#include <benchmark/benchmark.h>

#include <vector>

#include "lina/cache/mapping_cache.hpp"
#include "lina/exec/thread_pool.hpp"
#include "lina/names/name_trie.hpp"
#include "lina/prof/prof.hpp"
#include "lina/net/ip_trie.hpp"
#include "reference_tries.hpp"
#include "lina/routing/policy_routing.hpp"
#include "lina/routing/rib.hpp"
#include "lina/stats/rng.hpp"
#include "lina/topology/as_graph.hpp"
#include "lina/topology/graph.hpp"
#include "lina/topology/shortest_paths.hpp"

namespace {

using namespace lina;

std::vector<net::Prefix> random_prefixes(std::size_t count,
                                         stats::Rng& rng) {
  std::vector<net::Prefix> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto addr = net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffff)));
    out.emplace_back(addr, 8 + static_cast<unsigned>(rng.index(17)));
  }
  return out;
}

void BM_IpTrieInsert(benchmark::State& state) {
  stats::Rng rng(1);
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    net::IpTrie<int> trie;
    int value = 0;
    for (const auto& prefix : prefixes) trie.insert(prefix, value++);
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IpTrieInsert)->Range(1 << 8, 1 << 14);

void BM_IpTrieLookup(benchmark::State& state) {
  stats::Rng rng(2);
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), rng);
  net::IpTrie<int> trie;
  int value = 0;
  for (const auto& prefix : prefixes) trie.insert(prefix, value++);
  std::vector<net::Ipv4Address> queries;
  for (int i = 0; i < 1024; ++i) {
    queries.push_back(net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffff))));
  }
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(queries[q++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IpTrieLookup)->Range(1 << 8, 1 << 16);

void BM_NameTrieLookup(benchmark::State& state) {
  stats::Rng rng(3);
  names::NameTrie<int> trie;
  std::vector<names::ContentName> names;
  const auto count = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < count; ++i) {
    names::ContentName name({"com", "d" + std::to_string(rng.index(count))});
    if (rng.chance(0.7)) name = name.child("s" + std::to_string(rng.index(40)));
    trie.insert(name, static_cast<int>(i));
    names.push_back(std::move(name));
  }
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(names[q++ % names.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NameTrieLookup)->Range(1 << 8, 1 << 14);

// "Legacy*" benchmarks run the pre-arena reference implementations
// (tests/support/reference_tries.hpp) over identical seeds and shapes, so
// a single JSON run carries the old-vs-new comparison.

void BM_LegacyIpTrieInsert(benchmark::State& state) {
  stats::Rng rng(1);
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    testref::LegacyIpTrie<int> trie;
    int value = 0;
    for (const auto& prefix : prefixes) trie.insert(prefix, value++);
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LegacyIpTrieInsert)->Range(1 << 8, 1 << 14);

void BM_LegacyIpTrieLookup(benchmark::State& state) {
  stats::Rng rng(2);
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), rng);
  testref::LegacyIpTrie<int> trie;
  int value = 0;
  for (const auto& prefix : prefixes) trie.insert(prefix, value++);
  std::vector<net::Ipv4Address> queries;
  for (int i = 0; i < 1024; ++i) {
    queries.push_back(net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffff))));
  }
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(queries[q++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LegacyIpTrieLookup)->Range(1 << 8, 1 << 16);

void BM_IpTrieErase(benchmark::State& state) {
  stats::Rng rng(8);
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    state.PauseTiming();
    net::IpTrie<int> trie;
    int value = 0;
    for (const auto& prefix : prefixes) trie.insert(prefix, value++);
    state.ResumeTiming();
    for (const auto& prefix : prefixes) trie.erase(prefix);
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IpTrieErase)->Range(1 << 8, 1 << 14);

void BM_LegacyIpTrieErase(benchmark::State& state) {
  stats::Rng rng(8);
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    state.PauseTiming();
    testref::LegacyIpTrie<int> trie;
    int value = 0;
    for (const auto& prefix : prefixes) trie.insert(prefix, value++);
    state.ResumeTiming();
    for (const auto& prefix : prefixes) trie.erase(prefix);
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LegacyIpTrieErase)->Range(1 << 8, 1 << 14);

void BM_IpTrieFreeze(benchmark::State& state) {
  stats::Rng rng(9);
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), rng);
  net::IpTrie<int> trie;
  int value = 0;
  for (const auto& prefix : prefixes) trie.insert(prefix, value++);
  for (auto _ : state) {
    const auto frozen = trie.freeze();
    benchmark::DoNotOptimize(frozen.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IpTrieFreeze)->Range(1 << 8, 1 << 14);

void BM_IpTrieFrozenLookupMany(benchmark::State& state) {
  stats::Rng rng(2);  // same table/query stream as BM_IpTrieLookup
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), rng);
  net::IpTrie<int> trie;
  int value = 0;
  for (const auto& prefix : prefixes) trie.insert(prefix, value++);
  const auto frozen = trie.freeze();
  std::vector<net::Ipv4Address> queries;
  for (int i = 0; i < 1024; ++i) {
    queries.push_back(net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffff))));
  }
  std::vector<const int*> hits(queries.size());
  for (auto _ : state) {
    frozen.lookup_many(queries, hits);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(queries.size()));
}
BENCHMARK(BM_IpTrieFrozenLookupMany)->Range(1 << 8, 1 << 16);

void BM_IpTrieCompressedSize(benchmark::State& state) {
  stats::Rng rng(10);
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), rng);
  net::IpTrie<int> trie;
  for (const auto& prefix : prefixes) {
    trie.insert(prefix, static_cast<int>(rng.index(4)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lpm_compressed_size());  // O(1) read
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IpTrieCompressedSize)->Range(1 << 8, 1 << 14);

void BM_LegacyIpTrieCompressedSize(benchmark::State& state) {
  stats::Rng rng(10);
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), rng);
  testref::LegacyIpTrie<int> trie;
  for (const auto& prefix : prefixes) {
    trie.insert(prefix, static_cast<int>(rng.index(4)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lpm_compressed_size());  // full recount
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LegacyIpTrieCompressedSize)->Range(1 << 8, 1 << 14);

std::vector<names::ContentName> bench_names(std::size_t count,
                                            stats::Rng& rng) {
  std::vector<names::ContentName> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    names::ContentName name({"com", "d" + std::to_string(rng.index(count))});
    if (rng.chance(0.7)) name = name.child("s" + std::to_string(rng.index(40)));
    out.push_back(std::move(name));
  }
  return out;
}

void BM_NameTrieInsert(benchmark::State& state) {
  stats::Rng rng(3);
  const auto names_list =
      bench_names(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    names::NameTrie<int> trie;
    int value = 0;
    for (const auto& name : names_list) trie.insert(name, value++);
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NameTrieInsert)->Range(1 << 8, 1 << 14);

void BM_LegacyNameTrieInsert(benchmark::State& state) {
  stats::Rng rng(3);
  const auto names_list =
      bench_names(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    testref::LegacyNameTrie<int> trie;
    int value = 0;
    for (const auto& name : names_list) trie.insert(name, value++);
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LegacyNameTrieInsert)->Range(1 << 8, 1 << 14);

void BM_NameTrieLookupValue(benchmark::State& state) {
  stats::Rng rng(3);  // same table/query stream as BM_NameTrieLookup
  names::NameTrie<int> trie;
  const auto names_list =
      bench_names(static_cast<std::size_t>(state.range(0)), rng);
  int value = 0;
  for (const auto& name : names_list) trie.insert(name, value++);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup_value(names_list[q++ % names_list.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NameTrieLookupValue)->Range(1 << 8, 1 << 14);

void BM_LegacyNameTrieLookup(benchmark::State& state) {
  stats::Rng rng(3);
  testref::LegacyNameTrie<int> trie;
  const auto names_list =
      bench_names(static_cast<std::size_t>(state.range(0)), rng);
  int value = 0;
  for (const auto& name : names_list) trie.insert(name, value++);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trie.lookup_value(names_list[q++ % names_list.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LegacyNameTrieLookup)->Range(1 << 8, 1 << 14);

void BM_NameTrieFrozenLookupMany(benchmark::State& state) {
  stats::Rng rng(3);
  names::NameTrie<int> trie;
  const auto names_list =
      bench_names(static_cast<std::size_t>(state.range(0)), rng);
  int value = 0;
  for (const auto& name : names_list) trie.insert(name, value++);
  const auto frozen = trie.freeze();
  std::vector<const int*> hits(names_list.size());
  for (auto _ : state) {
    frozen.lookup_many(names_list, hits);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(names_list.size()));
}
BENCHMARK(BM_NameTrieFrozenLookupMany)->Range(1 << 8, 1 << 14);

void BM_RouteSelection(benchmark::State& state) {
  stats::Rng rng(4);
  routing::Rib rib;
  const net::Prefix prefix = net::Prefix::parse("10.0.0.0/16");
  const auto candidates = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < candidates; ++i) {
    rib.add(routing::RibRoute{
        .prefix = prefix,
        .as_path = routing::AsPath(
            {static_cast<topology::AsId>(i + 1),
             static_cast<topology::AsId>(1000 + rng.index(50)), 9999}),
        .route_class = static_cast<routing::RouteClass>(rng.index(3)),
        .local_pref = 0,
        .med = static_cast<std::uint32_t>(rng.index(10))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rib.best(prefix));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RouteSelection)->Range(2, 256);

void BM_PolicyRoutes(benchmark::State& state) {
  stats::Rng rng(5);
  topology::InternetConfig config;
  config.tier1_count = 10;
  config.tier2_count = static_cast<std::size_t>(state.range(0)) / 8;
  config.stub_count = static_cast<std::size_t>(state.range(0));
  const auto graph = topology::make_hierarchical_internet(config, rng);
  topology::AsId destination = static_cast<topology::AsId>(
      graph.as_count() - 1);
  for (auto _ : state) {
    const routing::PolicyRoutes routes(graph, destination);
    benchmark::DoNotOptimize(routes.best_distance(0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(graph.as_count()));
}
BENCHMARK(BM_PolicyRoutes)->Range(128, 2048);

/// A connected sparse random graph of the shape the AS-level analyses walk
/// (mean degree ~4, unit weights plus jitter so the PQ sees real ordering
/// work, not all-equal keys).
topology::Graph random_sparse_graph(std::size_t nodes, stats::Rng& rng) {
  topology::Graph graph(nodes);
  for (std::size_t v = 1; v < nodes; ++v) {
    // Spanning-tree edge keeps the graph connected.
    graph.add_edge(static_cast<topology::NodeId>(v),
                   static_cast<topology::NodeId>(rng.index(v)),
                   1.0 + rng.uniform());
  }
  const std::size_t extra = nodes;  // ~2 edges per node total
  for (std::size_t i = 0; i < extra; ++i) {
    const auto a = static_cast<topology::NodeId>(rng.index(nodes));
    const auto b = static_cast<topology::NodeId>(rng.index(nodes));
    if (a == b || graph.has_edge(a, b)) continue;
    graph.add_edge(a, b, 1.0 + rng.uniform());
  }
  return graph;
}

// Covers the Dijkstra micro-opts (uint8_t done flags, reserved PQ backing,
// stale-entry skip). Compare against historical BENCH numbers to see the
// effect; items/sec counts settled nodes.
void BM_Dijkstra(benchmark::State& state) {
  stats::Rng rng(6);
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto graph = random_sparse_graph(nodes, rng);
  for (auto _ : state) {
    const auto tree = dijkstra(graph, 0);
    benchmark::DoNotOptimize(tree.distance.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Dijkstra)->Range(1 << 8, 1 << 13);

// All-pairs build = one Dijkstra per source, fanned across the lina::exec
// pool. Run once with --threads-style env control via exec defaults; the
// 1-thread arm is the serial baseline for the parallel layer's speedup.
void BM_AllPairsShortestPaths(benchmark::State& state) {
  stats::Rng rng(7);
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto graph = random_sparse_graph(nodes, rng);
  const auto threads = static_cast<std::size_t>(state.range(1));
  exec::set_default_threads(threads);
  for (auto _ : state) {
    const topology::AllPairsShortestPaths table(graph);
    benchmark::DoNotOptimize(table.node_count());
  }
  exec::set_default_threads(0);
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_AllPairsShortestPaths)
    ->ArgsProduct({{256, 512, 1024}, {1, 8}});

// Mapping-cache micros: steady-state probe hit, probe miss, and the full
// insert-evict cycle, for each replacement policy. Arg 1 selects the
// policy (0 = TTL+LRU, 1 = LFU, 2 = 2Q); items/sec counts operations.

cache::CacheConfig micro_cache_config(std::int64_t policy_arg,
                                      std::size_t capacity) {
  cache::CacheConfig config;
  config.policy = policy_arg == 0   ? cache::Policy::kTtlLru
                  : policy_arg == 1 ? cache::Policy::kLfu
                                    : cache::Policy::kTwoQ;
  config.capacity = capacity;
  return config;
}

void BM_MappingCacheHit(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  cache::MappingCache<std::uint64_t, std::uint32_t> cache(
      micro_cache_config(state.range(1), capacity));
  for (std::uint64_t k = 0; k < capacity; ++k) {
    cache.insert(k, static_cast<std::uint32_t>(k), 0.0);
  }
  // Skewed resident stream: hot keys dominate, as on the resolution path.
  stats::Rng rng(11);
  std::vector<std::uint64_t> keys(1024);
  for (auto& key : keys) {
    key = static_cast<std::uint64_t>(rng.index(capacity)) / 2;
  }
  std::size_t q = 0;
  double now = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.probe(keys[q++ & 1023], now));
    now += 0.001;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MappingCacheHit)
    ->ArgsProduct({{1 << 8, 1 << 12, 1 << 16}, {0, 1, 2}});

void BM_MappingCacheMiss(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  cache::MappingCache<std::uint64_t, std::uint32_t> cache(
      micro_cache_config(state.range(1), capacity));
  for (std::uint64_t k = 0; k < capacity; ++k) {
    cache.insert(k, static_cast<std::uint32_t>(k), 0.0);
  }
  std::uint64_t q = 0;
  for (auto _ : state) {
    // Keys above the resident range: every probe walks the table and
    // misses.
    benchmark::DoNotOptimize(cache.probe(capacity + (q++ & 1023), 1.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MappingCacheMiss)
    ->ArgsProduct({{1 << 8, 1 << 12, 1 << 16}, {0, 1, 2}});

void BM_MappingCacheEvict(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  cache::MappingCache<std::uint64_t, std::uint32_t> cache(
      micro_cache_config(state.range(1), capacity));
  for (std::uint64_t k = 0; k < capacity; ++k) {
    cache.insert(k, static_cast<std::uint32_t>(k), 0.0);
  }
  // Every insert is a fresh key into a full cache: probe-miss + victim
  // selection + backward-shift erase + insert, the worst-case write.
  std::uint64_t next = capacity;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.insert(next, static_cast<std::uint32_t>(next), 1.0));
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MappingCacheEvict)
    ->ArgsProduct({{1 << 8, 1 << 12, 1 << 16}, {0, 1, 2}});

// Span-overhead pins for the lina::prof contract: a disabled PROF_SPAN
// must cost <= ~2ns (one relaxed atomic load + branch), an enabled span
// recorded into a non-saturated ring <= ~40ns on native hardware (one
// calibrated TSC read per boundary, eight counter samples, one ring slot
// write). VMs that virtualize rdtsc (~15ns/read) roughly double that —
// compare trends across runs on the same box, not the absolute ceiling.

void BM_ProfSpanDisabled(benchmark::State& state) {
  prof::Profiler::instance().enable(false);
  prof::Profiler::instance().reset();
  for (auto _ : state) {
    PROF_SPAN("lina.bench.noop");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfSpanDisabled);

void BM_ProfSpanEnabled(benchmark::State& state) {
  auto& profiler = prof::Profiler::instance();
  profiler.enable(false);
  profiler.set_ring_capacity(1 << 16);
  profiler.reset();
  profiler.enable(true);
  // Drain the ring before it saturates so the benchmark measures the
  // record path, not the cheaper drop-and-count path.
  const std::size_t budget = profiler.ring_capacity() - 8;
  std::size_t since_reset = 0;
  for (auto _ : state) {
    if (++since_reset >= budget) {
      state.PauseTiming();
      profiler.reset();
      since_reset = 0;
      state.ResumeTiming();
    }
    PROF_SPAN("lina.bench.recorded");
    benchmark::ClobberMemory();
  }
  profiler.enable(false);
  profiler.reset();
  profiler.set_ring_capacity(prof::Profiler::kDefaultRingCapacity);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfSpanEnabled);

}  // namespace

BENCHMARK_MAIN();
