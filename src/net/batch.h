// Per-link frame coalescing.
//
// High fan-in RPC workloads pay one network frame per request, response and
// ack; on a real transport each frame is a syscall and a wire header. The
// batcher buffers a node's outgoing frames per destination and flushes a
// link when either a size bound (frames or bytes) is reached or the oldest
// buffered frame has waited `flush_interval` — the classic throughput/latency
// knob. A flush of one frame is sent raw (no envelope, so batch-size-1
// latency matches direct sends); two or more are wrapped in a single kBatch
// frame that the receiving node unpacks in order, preserving the link's
// FIFO semantics.
//
// Fault interplay: a batch is one frame to the transport, so injected drop /
// duplication / partition hits all members together. That is by design —
// the retry + at-most-once machinery above (rpc.h) already converges under
// whole-frame loss, and a duplicated batch only produces member duplicates
// the dedup table absorbs.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/codec.h"
#include "net/transport.h"

namespace alps::net {

struct BatchOptions {
  std::size_t max_frames = 8;        ///< flush a link at this many members
  std::size_t max_bytes = 48 * 1024; ///< ... or this many buffered bytes
  /// Upper bound on how long a buffered frame may wait for company.
  std::chrono::microseconds flush_interval{200};
};

/// Buffers (dst, frame) pairs per destination and emits them through the
/// supplied post function, coalesced into kBatch frames. Frames enter and
/// leave as FrameBuilders. Thread-safe; a dedicated flusher thread enforces
/// the interval bound, size-bound flushes happen inline on the enqueuing
/// thread. The destructor flushes residue.
class FrameBatcher {
 public:
  /// Flushes leave in scatter-gather form so the transport can keep the
  /// batch envelope on the writev path (a socket backend sends the segment
  /// list directly; the sim builds it at post).
  using PostFn = std::function<void(NodeId dst, FrameBuilder frame)>;

  struct Stats {
    std::uint64_t frames_enqueued = 0;
    std::uint64_t batches_posted = 0;    ///< kBatch envelopes (≥ 2 members)
    std::uint64_t frames_coalesced = 0;  ///< members carried inside batches
    std::uint64_t singles_posted = 0;    ///< flushed alone, sent raw
    std::uint64_t size_flushes = 0;
    std::uint64_t interval_flushes = 0;
  };

  FrameBatcher(BatchOptions options, PostFn post);
  ~FrameBatcher();

  FrameBatcher(const FrameBatcher&) = delete;
  FrameBatcher& operator=(const FrameBatcher&) = delete;

  /// Buffers a frame in its builder form: its payload slices are carried by
  /// reference into the batch envelope and written once, at the envelope's
  /// single build (or scattered write).
  void enqueue(NodeId dst, FrameBuilder frame);

  /// Synchronously flushes every link's buffer (tests / quiesce points).
  void flush_all();

  /// Synchronously flushes (and forgets) one destination's buffer — the
  /// membership-change hook. Posting fails fast at the transport for a
  /// removed peer (counted dropped) instead of the members idling a full
  /// flush_interval and then dying anyway.
  void flush_peer(NodeId dst);

  Stats stats() const;

 private:
  struct LinkBuffer {
    std::vector<FrameBuilder> members;
    std::size_t bytes = 0;
    std::chrono::steady_clock::time_point oldest{};
  };
  using Flush = std::pair<NodeId, FrameBuilder>;

  /// Drains `buf` into one outgoing payload appended to `out`. Caller holds
  /// mu_; the actual post happens outside the lock.
  void collect_locked(NodeId dst, LinkBuffer& buf, std::vector<Flush>& out);
  void flusher(const std::stop_token& st);

  BatchOptions options_;
  PostFn post_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<NodeId, LinkBuffer> buffers_;
  Stats stats_;
  std::jthread flusher_thread_;
};

}  // namespace alps::net
