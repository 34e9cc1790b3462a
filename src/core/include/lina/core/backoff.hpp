#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace lina::core {

/// Capped exponential retransmission backoff for control-plane operations
/// (registrations, lookups, update relays, interest retransmissions) —
/// shared by every simulator that retries under injected faults. Without
/// an active fault plan the simulators never consult it, because nothing
/// ever fails.
///
/// Attempt numbering: attempt 0 is the first transmission; `delay_ms(a)`
/// is the wait before retransmission `a + 1`, growing by `multiplier` per
/// attempt and capped at `max_backoff_ms` so long outages keep being
/// probed at a steady cadence.
struct BackoffPolicy {
  std::size_t max_attempts = 8;  // first try plus up to 7 retransmissions
  double backoff_ms = 100.0;     // delay before the first retransmission
  double multiplier = 2.0;       // backoff growth per retransmission
  double max_backoff_ms = 1000.0;  // cap, so probes keep a steady cadence

  /// A policy a simulator can actually run: at least one attempt,
  /// positive delays, non-shrinking growth.
  [[nodiscard]] bool valid() const {
    return max_attempts > 0 && backoff_ms > 0.0 && multiplier >= 1.0 &&
           max_backoff_ms > 0.0;
  }

  /// Delay before retransmission number `attempt` + 1 (capped
  /// exponential).
  [[nodiscard]] double delay_ms(std::size_t attempt) const {
    return std::min(max_backoff_ms,
                    backoff_ms *
                        std::pow(multiplier, static_cast<double>(attempt)));
  }

  /// Whether the policy permits a retransmission after attempt `attempt`.
  [[nodiscard]] bool attempts_left(std::size_t attempt) const {
    return attempt + 1 < max_attempts;
  }
};

}  // namespace lina::core
