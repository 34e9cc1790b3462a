#pragma once

// The benchmark's four workloads. Each drives lina only through its
// public library calls, records a span around every call into a layer,
// and checks its outputs against references computed outside the timed
// section.

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace linabench {

/// kTiny shrinks every input so the self-test runs in seconds.
enum class Size { kFull, kTiny };

struct Options {
  std::uint64_t seed = 7;
  Size size = Size::kFull;
  /// Scratch directory for trace shards and snapshots (inside the
  /// checkout); removed by the caller.
  std::filesystem::path work_dir;
  /// Self-test hook: perturb every reference so each check must fail.
  bool corrupt_reference = false;
};

/// Outputs checked against their references, and how many failed.
class Checks {
 public:
  void expect(bool ok, std::string_view what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Per-layer values a workload derives itself (counts and ratios), keyed
/// by metric name.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds (or rebuilds) everything the workload treats as given: the
  /// synthetic Internet, vantage FIBs and the generated inputs. Timed as
  /// setup_s.
  virtual void setup() = 0;
  /// Untimed preparation before each pass (e.g. clearing shard dirs).
  virtual void prepare() {}
  /// One pass of the measured work; returns the work units it completed.
  virtual std::uint64_t pass() = 0;
  /// Computes the independent references, untimed, after the first pass.
  virtual void reference(Checks& checks) = 0;
  /// Checks the last pass's outputs against the references.
  virtual void check_pass(Checks& checks) = 0;
  /// Traced runs only, untimed: extra sampled calls and counter reads for
  /// the per-layer metrics of the current thread setting. `suffix` is
  /// appended to time metric names ("" or ".t1").
  virtual void layer_values(LayerValues& out, const std::string& suffix) = 0;
  /// What one work unit is, for the report.
  [[nodiscard]] virtual std::string_view unit() const = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      const Options& options,
                                                      SpanRecorder& spans);

}  // namespace linabench
