// Stream-identity self-check (the `trace_stream_identity` ctest, label trace):
// generates the default paper workload (372 users x 30 days) in memory,
// writes it to trace shards, replays the shards through the streamed
// extent pipeline, and requires every CDF sample to match the in-memory
// pipeline bitwise. Exit status 0 on identity, 1 with a named mismatch
// otherwise.

#include <bit>
#include <cstdint>
#include <filesystem>
#include <iostream>

#include "common.hpp"
#include "lina/trace/replay.hpp"

using namespace lina;

namespace {

int failures = 0;

void check_samples(const stats::EmpiricalCdf& resident,
                   const stats::EmpiricalCdf& streamed, const char* what) {
  if (resident.size() != streamed.size()) {
    std::cerr << "MISMATCH " << what << ": " << resident.size() << " vs "
              << streamed.size() << " samples\n";
    ++failures;
    return;
  }
  const auto& a = resident.sorted_samples();
  const auto& b = streamed.sorted_samples();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      std::cerr << "MISMATCH " << what << " sample " << i << ": " << a[i]
                << " vs " << b[i] << "\n";
      ++failures;
      return;
    }
  }
  std::cout << "ok " << what << " (" << a.size() << " samples)\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "check_stream_identity");

  const auto& traces = bench::paper_device_traces();
  const auto resident = core::analyze_extent(traces);

  // A scratch shard set, independent of the shared trace cache.
  const auto dir = std::filesystem::temp_directory_path() /
                   "lina-check-stream-identity";
  std::filesystem::remove_all(dir);
  mobility::DeviceWorkloadConfig config;  // paper-calibrated defaults
  config.days = 30;
  const mobility::DeviceWorkloadGenerator generator(bench::paper_internet(),
                                                    config);
  trace::StreamingWorkloadConfig stream_config;
  stream_config.users_per_shard = 128;  // 3 shards
  const trace::ShardSet set =
      trace::StreamingWorkload(generator, stream_config).write_shards(dir);
  const auto streamed = trace::analyze_extent_streamed(set);
  std::filesystem::remove_all(dir);

  check_samples(resident.ips_per_day, streamed.ips_per_day, "ips_per_day");
  check_samples(resident.prefixes_per_day, streamed.prefixes_per_day,
                "prefixes_per_day");
  check_samples(resident.ases_per_day, streamed.ases_per_day,
                "ases_per_day");
  check_samples(resident.ip_transitions_per_day,
                streamed.ip_transitions_per_day, "ip_transitions_per_day");
  check_samples(resident.prefix_transitions_per_day,
                streamed.prefix_transitions_per_day,
                "prefix_transitions_per_day");
  check_samples(resident.as_transitions_per_day,
                streamed.as_transitions_per_day, "as_transitions_per_day");
  check_samples(resident.dominant_ip_share, streamed.dominant_ip_share,
                "dominant_ip_share");
  check_samples(resident.dominant_prefix_share,
                streamed.dominant_prefix_share, "dominant_prefix_share");
  check_samples(resident.dominant_as_share, streamed.dominant_as_share,
                "dominant_as_share");

  if (failures != 0) {
    std::cerr << failures << " mismatching series — streamed replay is NOT "
              << "bit-identical to the in-memory pipeline\n";
    return 1;
  }
  std::cout << "streamed replay bit-identical to the in-memory pipeline "
            << "(372 users x 30 days)\n";
  return 0;
}
