#pragma once

// Session-parallel packet executor (DESIGN.md §4i).
//
// Every PacketModel handler is pure and sessions share no mutable state,
// so any execution order of the same events delivers the same packet
// multiset and therefore the same DeliveryDigest. The executor needs no
// time synchronisation: it splits the session arena into contiguous
// chunks, fans them out with exec::parallel_for, and each chunk drains
// its sessions one at a time from a private LIFO worklist (seeded with
// the session's initial event, fed by the handler's emissions). Per-chunk
// digests and event counts fold with DeliveryDigest::combine, which is
// commutative, so the result is bit-identical to the serial
// sim::EventQueue reference at any thread count.
//
// Time synchronisation (windows, rollback) may come back only if a model
// gains cross-session mutable state, such as per-link queues, and only if
// it then beats this executor on the packet_replay benchmark workload.

#include <cstddef>
#include <cstdint>

#include "lina/des/event.hpp"
#include "lina/des/model.hpp"

namespace lina::des {

struct EngineConfig {
  /// lina::exec worker bound for the session fan-out (0 =
  /// exec::default_threads()).
  std::size_t threads = 0;
};

/// What a run did: the digest is the bit-identity surface, `events` the
/// number of handler invocations (equal across executors and thread
/// counts).
struct RunStats {
  DeliveryDigest digest;
  std::uint64_t events = 0;
};

/// Runs every session of `model` to completion on the session-parallel
/// executor.
RunStats run_parallel(const PacketModel& model, EngineConfig config = {});

/// The serial reference: the same PacketModel driven through
/// sim::EventQueue (one global priority queue of std::function entries),
/// executing every event in global (time, FIFO) order. run_parallel's
/// digest and event count must equal this one bit-for-bit.
RunStats run_serial(const PacketModel& model);

}  // namespace lina::des
