// lina benchmark: the command-line entry point.
//
//   linabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--threads <n>] [--trace-threads <n>] [--size full|tiny]
//             [--work-dir <dir>] [--spans-out <path>] [--corrupt-reference]
//             [--list-metrics]
//
// --trace 0 measures the end-to-end metrics with tracing off at --threads:
// the workload's set-up is repeated and its median reported as setup_s,
// one warm-up pass is discarded, then passes run until --seconds of pass
// time have accumulated; work_per_s is the median over passes.
//
// --trace 1 is the separate traced run behind the per-layer metrics: a
// third of --seconds untraced and a third traced, both at --trace-threads
// (default --threads), then a third traced at one thread (the ".t1"
// twins). Spans are written as Chrome trace-event JSON to --spans-out when
// the run ends.
//
// Every pass's outputs are checked against references computed outside the
// timed section. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lina/exec/thread_pool.hpp"
#include "lina/obs/trace.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace linabench {
namespace {

using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  std::string unit;
};

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics{
      {"setup_s", "s"}, {"work_per_s", "1/s"}, {"peak_rss_mib", "MiB"}};
  return metrics;
}

/// How a per-layer metric is derived from the spans of one run.
enum class Stat {
  kTotalMs,    // sum of self time (spans recorded once per set-up)
  kPerPassMs,  // sum of self time / traced passes
  kP50Ms,      // median self time per call
  kCalls,      // number of calls
  kP50Us,      // median self time per call
  kP99Us,      // 99th percentile self time per call (>= 1000 samples)
};

struct SpanMetric {
  const char* metric;
  const char* span;
  Stat stat;
};

// clang-format off
constexpr SpanMetric kSpanMetrics[] = {
    {"routing.internet_build_ms", "routing.internet_build", Stat::kTotalMs},
    {"routing.build_vantages_ms", "routing.build_vantages", Stat::kTotalMs},
    {"routing.fib_freeze_ms", "routing.fib_freeze", Stat::kPerPassMs},
    {"mobility.device_generate_ms", "mobility.device_generate", Stat::kTotalMs},
    {"mobility.generate_user_us_p50", "mobility.generate_user", Stat::kP50Us},
    {"mobility.generate_user_us_p99", "mobility.generate_user", Stat::kP99Us},
    {"mobility.content_generate_ms", "mobility.content_generate", Stat::kTotalMs},
    {"trace.write_shards_ms", "trace.write_shards", Stat::kPerPassMs},
    {"trace.next_batch_ms", "trace.next_batch", Stat::kPerPassMs},
    {"trace.next_batch_ms_p50", "trace.next_batch", Stat::kP50Ms},
    {"trace.next_batch.calls", "trace.next_batch", Stat::kCalls},
    {"net.lpm_batch_ms", "net.lpm_batch", Stat::kPerPassMs},
    {"net.lpm_batch_ms_p50", "net.lpm_batch", Stat::kP50Ms},
    {"net.lpm_batch.calls", "net.lpm_batch", Stat::kCalls},
    {"snap.save_ms", "snap.save", Stat::kPerPassMs},
    {"snap.load_ms", "snap.load", Stat::kPerPassMs},
    {"core.update_cost.call_ms", "core.update_cost.call", Stat::kPerPassMs},
    {"core.update_cost.call_ms_p50", "core.update_cost.call", Stat::kP50Ms},
    {"core.update_cost.calls", "core.update_cost.call", Stat::kCalls},
    {"core.update_cost.first_call_ms", "core.update_cost.first_call", Stat::kPerPassMs},
    {"core.content_update_cost.flooding_ms", "core.content_update_cost.flooding", Stat::kPerPassMs},
    {"core.content_update_cost.best_port_ms", "core.content_update_cost.best_port", Stat::kPerPassMs},
    {"core.aggregateability_ms", "core.aggregateability", Stat::kPerPassMs},
    {"sim.fabric_build_ms", "sim.fabric_build", Stat::kTotalMs},
    {"sim.sessions_ms.indirection", "sim.sessions.indirection", Stat::kPerPassMs},
    {"sim.sessions_ms.resolution", "sim.sessions.resolution", Stat::kPerPassMs},
    {"sim.sessions_ms.replicated", "sim.sessions.replicated", Stat::kPerPassMs},
    {"sim.sessions_ms.name_routing", "sim.sessions.name_routing", Stat::kPerPassMs},
    {"des.replay_ms.indirection", "des.replay.indirection", Stat::kPerPassMs},
    {"des.replay_ms.resolution", "des.replay.resolution", Stat::kPerPassMs},
    {"des.replay_ms.replicated", "des.replay.replicated", Stat::kPerPassMs},
    {"des.replay_ms.name_routing", "des.replay.name_routing", Stat::kPerPassMs},
};
// clang-format on

const char* stat_unit(Stat stat) {
  switch (stat) {
    case Stat::kCalls:
      return "count";
    case Stat::kP50Us:
    case Stat::kP99Us:
      return "us";
    default:
      return "ms";
  }
}

/// Per-layer values the workloads derive themselves (`twin`: also
/// reported for the one-thread run, with a ".t1" suffix).
struct DerivedMetric {
  const char* name;
  const char* unit;
  bool twin;
};

constexpr DerivedMetric kDerivedMetrics[] = {
    {"trace.bytes_per_visit", "B", false},
    {"trace.cursor_ns_per_event", "ns", true},
    {"net.lpm_ns_per_lookup", "ns", true},
    {"net.ip_trie.lpm_node_visits_per_lookup", "count", false},
    {"snap.bytes_per_entry", "B", false},
    {"core.update_cost.router_events", "count", false},
    {"names.name_trie.inserts", "count", false},
    {"names.name_trie.lpm_node_visits_per_lookup", "count", false},
    {"names.interner_entries", "count", false},
    {"sim.control_msgs_per_session", "count", false},
    {"cache.hit_ratio", "frac", false},
    {"cache.invalidations_per_session", "count", false},
    {"des.events_per_packet", "count", false},
    {"des.windows", "count", false},
    {"bench.passes", "count", true},
    {"bench.trace_overhead_frac", "frac", false},
    {"bench.spans_dropped", "count", false},
    {"error_rate", "frac", false},
};

/// Every per-layer metric, in output order.
std::vector<Metric> per_layer_metrics() {
  std::vector<Metric> out;
  for (const char* suffix : {"", ".t1"}) {
    const bool twin = suffix[0] != '\0';
    for (const SpanMetric& m : kSpanMetrics)
      out.push_back({std::string(m.metric) + suffix, stat_unit(m.stat)});
    for (const DerivedMetric& m : kDerivedMetrics) {
      if (!twin || m.twin)
        out.push_back({std::string(m.name) + suffix, m.unit});
    }
  }
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  Options options;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;
  std::size_t trace_threads = 0;  // 0: same as threads
  std::string spans_out;
  bool list_metrics = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "linabench: " << message
            << "\nusage: linabench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--threads <n>] [--trace-threads <n>]"
               " [--size full|tiny]"
               " [--work-dir <dir>] [--spans-out <path>]"
               " [--corrupt-reference] [--list-metrics]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  args.options.work_dir = ".bench_work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        args.workload = value();
      } else if (arg == "--seed") {
        args.options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace wants 0 or 1");
        args.trace = v == "1";
      } else if (arg == "--threads") {
        args.threads = std::stoul(value());
      } else if (arg == "--trace-threads") {
        args.trace_threads = std::stoul(value());
      } else if (arg == "--size") {
        const std::string v = value();
        if (v != "full" && v != "tiny") usage("--size wants full or tiny");
        args.options.size = v == "tiny" ? Size::kTiny : Size::kFull;
      } else if (arg == "--work-dir") {
        args.options.work_dir = value();
      } else if (arg == "--spans-out") {
        args.spans_out = value();
      } else if (arg == "--corrupt-reference") {
        args.options.corrupt_reference = true;
      } else if (arg == "--list-metrics") {
        args.list_metrics = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (args.list_metrics) return args;
  if (args.threads == 0) usage("--threads must be >= 1");
  if (args.trace_threads == 0) args.trace_threads = args.threads;
  if (!(args.seconds > 0.0) || !std::isfinite(args.seconds))
    usage("--seconds must be positive");
  return args;
}

/// Each pass's wall time and work units.
struct PassLog {
  std::vector<double> seconds;
  std::vector<double> units;
};

/// Runs checked passes until `budget_s` of pass time has accumulated (at
/// least `min_passes`).
PassLog run_passes(Workload& workload, Checks& checks, SpanRecorder& spans,
                   double budget_s, std::size_t min_passes) {
  PassLog log;
  double total = 0.0;
  while (log.seconds.size() < min_passes || total < budget_s) {
    workload.prepare();
    const Clock::time_point start = Clock::now();
    std::uint64_t units = 0;
    {
      ScopedSpan span(spans, "bench.pass");
      units = workload.pass();
    }
    const double elapsed = seconds_since(start);
    workload.check_pass(checks);
    log.seconds.push_back(elapsed);
    log.units.push_back(static_cast<double>(units));
    total += elapsed;
  }
  return log;
}

/// The span-derived per-layer metrics of run `run`.
void span_metrics(const SpanRecorder& spans, std::uint32_t run,
                  const std::string& suffix, LayerValues& out) {
  const double passes =
      static_cast<double>(spans.samples("bench.pass", run).size());
  for (const SpanMetric& m : kSpanMetrics) {
    std::vector<double> ns;
    for (const std::int64_t v : spans.samples(m.span, run))
      ns.push_back(static_cast<double>(v));
    double total = 0.0;
    for (const double v : ns) total += v;
    double value = 0.0;
    switch (m.stat) {
      case Stat::kTotalMs:
        value = total / 1e6;
        break;
      case Stat::kPerPassMs:
        value = passes > 0.0 ? total / 1e6 / passes : 0.0;
        break;
      case Stat::kP50Ms:
        value = quantile(ns, 0.5) / 1e6;
        break;
      case Stat::kCalls:
        value = static_cast<double>(ns.size());
        break;
      case Stat::kP50Us:
        value = quantile(ns, 0.5) / 1e3;
        break;
      case Stat::kP99Us:
        if (!ns.empty() && ns.size() < 1000)
          throw std::logic_error(std::string(m.metric) +
                                 ": fewer than 1000 samples");
        value = quantile(ns, 0.99) / 1e3;
        break;
    }
    out[std::string(m.metric) + suffix] = value;
  }
  out["bench.passes" + suffix] = passes;
}

std::string format_number(double value) {
  std::ostringstream os;
  os << std::setprecision(17) << value;
  return os.str();
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics,
                  const LayerValues& values) {
  std::ostringstream json;
  json << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << checks.attempted()
       << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    const auto it = values.find(m.name);
    if (it == values.end())
      throw std::logic_error("metric not produced: " + m.name);
    if (!std::isfinite(it->second))
      throw std::logic_error("metric not finite: " + m.name);
    std::cout << "  " << std::left << std::setw(46) << m.name << " "
              << format_number(it->second) << " " << m.unit << "\n";
    json << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << format_number(it->second) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

double error_rate(const Checks& checks) {
  return checks.attempted() == 0
             ? 0.0
             : static_cast<double>(checks.failed()) /
                   static_cast<double>(checks.attempted());
}

int run(const Args& args) {
  namespace fs = std::filesystem;
  SpanRecorder spans(1 << 18);
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.options, spans);
  if (!workload) usage("unknown workload '" + args.workload + "'");
  Checks checks;
  LayerValues values;
  const std::size_t threads = args.trace ? args.trace_threads : args.threads;
  lina::exec::set_default_threads(threads);

  std::cout << "linabench: workload " << args.workload << ", seed "
            << args.options.seed << ", threads " << threads << ", "
            << (args.trace ? "traced" : "untraced") << ", work unit: "
            << workload->unit() << "\n";

  if (!args.trace) {
    // Set-up is repeated (at least 3 times, up to 7 or ~3 s) and its
    // median reported, so one slow build does not decide setup_s.
    std::vector<double> setups;
    double setup_total = 0.0;
    while (setups.size() < 3 || (setups.size() < 7 && setup_total < 3.0)) {
      const Clock::time_point start = Clock::now();
      workload->setup();
      setups.push_back(seconds_since(start));
      setup_total += setups.back();
    }
    // The first pass of a process runs cold (page faults, lazily spawned
    // workers, allocator growth); it is discarded but still checked.
    workload->prepare();
    (void)workload->pass();
    workload->reference(checks);
    workload->check_pass(checks);
    const PassLog log = run_passes(*workload, checks, spans, args.seconds, 3);
    std::vector<double> rates;
    for (std::size_t i = 0; i < log.seconds.size(); ++i)
      rates.push_back(log.units[i] / log.seconds[i]);
    values["setup_s"] = median(setups);
    values["work_per_s"] = median(rates);
    values["peak_rss_mib"] = peak_rss_mib();
    std::cout << "passes " << log.seconds.size() << ", median pass "
              << format_number(median(log.seconds)) << " s, "
              << format_number(log.units.front()) << " units per pass, "
              << setups.size() << " set-ups\n";
    std::cout << "  " << std::left << std::setw(46) << "error_rate" << " "
              << format_number(error_rate(checks)) << " frac\n";
    print_result(checks, end_to_end_metrics(), values);
    return 0;
  }

  const double third = args.seconds / 3.0;
  // tN: set-up traced, then untraced passes (the overhead baseline), then
  // traced passes.
  spans.start_run(1, "threads " + std::to_string(threads));
  spans.enable(true);
  workload->setup();
  spans.enable(false);
  workload->prepare();
  (void)workload->pass();
  workload->reference(checks);
  workload->check_pass(checks);
  const PassLog untraced = run_passes(*workload, checks, spans, third, 2);
  spans.enable(true);
  const PassLog traced = run_passes(*workload, checks, spans, third, 2);
  workload->layer_values(values, "");
  spans.enable(false);
  span_metrics(spans, 1, "", values);

  // t1: the same again at one thread, after a fresh set-up.
  lina::exec::set_default_threads(1);
  spans.start_run(2, "threads 1");
  spans.enable(true);
  workload->setup();
  spans.enable(false);
  workload->prepare();
  (void)workload->pass();
  workload->check_pass(checks);
  spans.enable(true);
  (void)run_passes(*workload, checks, spans, third, 1);
  workload->layer_values(values, ".t1");
  spans.enable(false);
  span_metrics(spans, 2, ".t1", values);

  values["bench.trace_overhead_frac"] =
      median(traced.seconds) / median(untraced.seconds) - 1.0;
  values["bench.spans_dropped"] = static_cast<double>(spans.dropped());
  // The obs registry was on only around counter reads, on paths that emit
  // no trace events: obs::TraceRing must still be empty.
  checks.expect(lina::obs::TraceRing::instance().size() == 0,
                "obs::TraceRing recorded events");
  values["error_rate"] = error_rate(checks);
  if (!args.spans_out.empty()) {
    const fs::path out(args.spans_out);
    if (out.has_parent_path()) fs::create_directories(out.parent_path());
    if (!spans.write_chrome_trace(args.spans_out))
      throw std::runtime_error("cannot write " + args.spans_out);
    std::cout << "spans: " << spans.spans().size() << " written to "
              << args.spans_out << ", " << spans.dropped() << " dropped\n";
  }
  // A layer the workload does not exercise reports 0; a value under a
  // name outside the table is a bug.
  const std::vector<Metric> metrics = per_layer_metrics();
  for (const Metric& m : metrics) values.try_emplace(m.name, 0.0);
  for (const auto& [name, value] : values) {
    if (std::none_of(metrics.begin(), metrics.end(),
                     [&](const Metric& m) { return m.name == name; }))
      throw std::logic_error("unlisted per-layer metric: " + name);
  }
  print_result(checks, metrics, values);
  return 0;
}

}  // namespace
}  // namespace linabench

int main(int argc, char** argv) {
  const linabench::Args args = linabench::parse_args(argc, argv);
  if (args.list_metrics) {
    for (const auto& m : linabench::end_to_end_metrics())
      std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
    for (const auto& m : linabench::per_layer_metrics())
      std::cout << "per_layer " << m.name << " " << m.unit << "\n";
    for (const std::string& w : linabench::workload_names())
      std::cout << "workload " << w << "\n";
    return 0;
  }
  // Scratch files go to a directory of this process's own, which is
  // removed at exit together with --work-dir if that is then empty.
  namespace fs = std::filesystem;
  linabench::Args run_args = args;
  run_args.options.work_dir /= "run-" + std::to_string(::getpid());
  const auto clean_up = [&] {
    std::error_code ignored;
    fs::remove_all(run_args.options.work_dir, ignored);
    fs::remove(args.options.work_dir, ignored);
  };
  try {
    fs::create_directories(run_args.options.work_dir);
    const int code = linabench::run(run_args);
    clean_up();
    return code;
  } catch (const std::exception& error) {
    std::cerr << "linabench: " << error.what() << "\n";
    clean_up();
    return 1;
  }
}
