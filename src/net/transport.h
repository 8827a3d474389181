// Transport — the substrate contract under the RPC layer.
//
// The paper's ALPS kernel ran on a 16-node transputer network (§4): objects
// on distinct nodes, entry calls crossing real links. This interface is the
// seam that makes that claim testable both ways. A Transport moves opaque
// frame payloads between named nodes and delivers them, asynchronously, to
// per-node handlers; everything above it (rpc.h) — retries, at-most-once
// dedup, routing, batching — is transport-agnostic by construction. Two
// implementations ship:
//
//   * net::Network (network.h) — the in-process simulation. Deterministic
//     under a seed, with per-link latency and injected faults (drop /
//     duplicate / reorder / partition). The fault-model tests live here.
//   * net::SocketTransport (transport_socket.h) — real TCP or Unix-domain
//     sockets between OS processes: listener/connector lifecycle, per-peer
//     reconnect with backoff, length-prefixed stream framing, and a
//     writev-style scatter-gather send path that skips the final frame
//     gather entirely.
//
// What the contract promises (and deliberately does not):
//   * Per-link FIFO for delivered frames (sim clamps jitter; TCP is a
//     byte stream) — unless a sim reorder fault is injected on purpose.
//   * Frames may be lost. The sim loses them by injection; sockets lose
//     them when a connection dies mid-flight or a peer is unreachable.
//     Loss is counted, never reported synchronously to the poster.
//   * Frames may be duplicated by the sim (injection) but never by the
//     socket transport; the RPC dedup layer tolerates both.
//   * Delivery handlers run on transport-owned threads and must not block
//     for long; the RPC layer's handlers only enqueue kernel work.
//
// What a backend implements and what the base owns. A backend moves bytes:
// one virtual post(src, dst, FrameBuilder) — the only send entry — plus its
// own partition levers, membership and quiescence. Everything both backends
// would otherwise repeat lives here once: the handler table and the
// set_handler delivery fence (backends hand received frames to deliver()),
// the TransportStats counters, the owned Directory, and the membership
// listeners. DESIGN.md §4.10 tabulates the full sim-vs-socket contract.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/buffer.h"

namespace alps::net {

using NodeId = std::uint64_t;

class Directory;
class FrameBuilder;

/// One point-to-point message in flat form: an opaque payload from src to
/// dst. Senders build frames as a FrameBuilder; this form is what the sim
/// schedules, and what raw posts (tests, probes) hand to post(Frame).
struct Frame {
  NodeId src = 0;
  NodeId dst = 0;
  std::vector<std::uint8_t> payload;
};

/// Transport-agnostic traffic accounting — one shape for both backends, so
/// benches and tests read the same fields over the sim and over sockets.
/// Sim-only fault-injection counters live in SimFaultStats (network.h).
struct TransportStats {
  std::uint64_t frames_posted = 0;     ///< every post(), incl. lost frames
  std::uint64_t bytes_posted = 0;      ///< payload bytes across all posts
  std::uint64_t frames_delivered = 0;  ///< handed to a handler
  std::uint64_t bytes_delivered = 0;
  std::uint64_t frames_dropped = 0;    ///< dst unknown or no handler
  std::uint64_t frames_lost = 0;       ///< injected loss / partition (sim),
                                       ///< dead or unreachable link (sockets)
  // Socket-only resilience counters (always zero on the sim — it has no
  // wire, no handshake and no reconnect; see DESIGN.md §4.11):
  std::uint64_t handshake_rejected = 0;    ///< inbound connections refused
                                           ///< before any frame dispatched
  std::uint64_t connections_poisoned = 0;  ///< connections dropped on
                                           ///< framing corruption
  std::uint64_t frames_requeued = 0;       ///< frames that survived a dead
                                           ///< connection for in-order replay
};

class Transport {
 public:
  /// Delivery callback. `payload` owns its storage (the received frame), so
  /// ≥ kZeroCopySliceThreshold blob decodes alias the frame instead of
  /// copying out of it — on both backends.
  using Handler = std::function<void(NodeId src, Buffer payload)>;

  Transport();
  virtual ~Transport();

  /// Registers a local delivery endpoint; returns its id. The simulation
  /// mints dense ids for any number of in-process nodes; a socket transport
  /// is configured with exactly one local node per process and returns its
  /// preassigned cluster id.
  virtual NodeId add_node(const std::string& name) = 0;

  /// Installs (or, with nullptr, removes) the handler for `node`. Does not
  /// return while a delivery into a previous handler of `node` is still
  /// running, so a deregistering caller (~Node) can safely destroy the
  /// captures. Raises kNetwork for a node that is not a local endpoint.
  void set_handler(NodeId node, Handler handler);

  /// Posts one frame for asynchronous delivery — the only send entry a
  /// backend implements. Never blocks on the remote end; loss is silent
  /// (counted in stats), exactly as a datagram network. The builder is taken
  /// by value so a caller that is done with it moves it into the backend's
  /// queue: the sim gathers it once with build(), a stream transport writes
  /// its slice list directly and never assembles the frame.
  virtual void post(NodeId src, NodeId dst, FrameBuilder frame) = 0;

  /// Posts an already-encoded frame (adopted without a byte copy).
  void post(Frame frame);

  /// Traffic counters, kept by the base for both backends (one snapshot).
  TransportStats transport_stats() const;

  /// The cluster's object directory (name → home node). The simulation's is
  /// the authoritative map for all its in-process nodes; a socket
  /// transport's is this process's replica, seeded from static placement
  /// configuration and healed in-band by kWrongNode redirects (DESIGN.md
  /// §4.10).
  Directory& directory() { return *directory_; }
  const Directory& directory() const { return *directory_; }

  /// True while a↔b is known unreachable: an active sim partition, or a
  /// socket peer whose connection is dead/in backoff. The RPC layer uses it
  /// to type a delivery failure as "partitioned" rather than plain timeout.
  virtual bool is_partitioned(NodeId a, NodeId b) const = 0;

  virtual std::size_t node_count() const = 0;
  virtual std::string node_name(NodeId id) const = 0;

  /// Best effort: blocks until nothing this transport buffered locally is
  /// still queued or being delivered. The sim's version is exact (it owns
  /// both ends); a socket transport can only quiesce its own send queues —
  /// bytes in kernel buffers or the peer process are out of reach.
  virtual void wait_quiescent() const = 0;

  // ---- dynamic membership (DESIGN.md §4.11) ----
  //
  // Both backends support changing the peer set on a live transport: the
  // socket backend spins PeerLinks and reader threads up and down without
  // quiescing; the sim marks nodes departed (their frames are lost, exactly
  // as a cut). Removing a peer also purges its directory entries, so a
  // departed node's named objects fail typed instead of timing out.

  /// Admits `id` to the peer set. `address` is backend-specific ("unix:<path>"
  /// or "host:port" for sockets; ignored by the sim, which revives or appends
  /// the node). Raises kNetwork if the backend cannot honor the request.
  virtual void add_peer(NodeId id, const std::string& name,
                        const std::string& address) = 0;

  /// Evicts `id` from the peer set: frames to/from it are dropped or lost
  /// from now on, its queued frames are counted lost, and its directory
  /// entries are removed. Returns false if the peer was not present.
  virtual bool remove_peer(NodeId id) = 0;

  /// Membership-change hook: invoked (outside transport locks) after every
  /// add_peer / remove_peer, with `added` telling which. Nodes use it to
  /// flush departed-peer batch buffers and drop stale routes. Returns a
  /// token for remove_membership_listener.
  using MembershipListener = std::function<void(NodeId peer, bool added)>;
  std::uint64_t add_membership_listener(MembershipListener listener);
  void remove_membership_listener(std::uint64_t token);

 protected:
  /// Makes `node` a local delivery endpoint (no handler yet). Idempotent.
  void add_endpoint(NodeId node);

  /// Clears `node`'s handler without waiting out a running delivery — for a
  /// backend evicting a node, which may happen on a delivering thread.
  void clear_handler(NodeId node);

  /// Hands one received frame to `dst`'s handler, outside every lock, and
  /// counts it delivered (or dropped, when `dst` has no handler). The
  /// set_handler fence is kept here: two lock rounds per frame.
  void deliver(NodeId dst, NodeId src, Buffer payload);

  /// Adds to the traffic counters. Safe under a backend's own locks: the
  /// lock these take is a leaf.
  void count(std::uint64_t TransportStats::*counter, std::uint64_t n = 1);
  void count_posted(std::size_t bytes);

  /// Backends call this after a membership change, holding no locks. A
  /// departure first purges the peer's directory entries.
  void notify_membership(NodeId peer, bool added);

 private:
  struct Endpoint {
    Handler handler;
    int active = 0;  ///< deliveries running outside state_mu_
  };

  std::unique_ptr<Directory> directory_;

  /// Guards endpoints_ and stats_. A leaf: nothing else is locked or called
  /// while it is held.
  mutable std::mutex state_mu_;
  std::condition_variable fence_cv_;  ///< an endpoint's `active` hit zero
  std::unordered_map<NodeId, Endpoint> endpoints_;
  TransportStats stats_;

  mutable std::mutex listeners_mu_;
  std::unordered_map<std::uint64_t, MembershipListener> listeners_;
  std::uint64_t next_listener_token_ = 1;
};

}  // namespace alps::net
