// SocketTransport — real TCP / Unix-domain-socket transport between
// OS processes.
//
// The other half of the Transport seam (transport.h): where net::Network
// simulates the paper's transputer links in one address space, this
// implementation actually crosses the OS boundary, so "calls to the entry
// procedures of an object are implemented as remote procedure calls" (§1)
// holds between separate processes on separate nodes. The RPC stack above
// (rpc.h) runs unchanged on either backend.
//
// Cluster model. Each process is told its own NodeId, a listen address, and
// the address of every initial peer (SocketTransportOptions); add_peer /
// remove_peer then change the peer set on the live transport — PeerLinks and
// reader threads spin up and down without quiescing (DESIGN.md §4.11). One
// SocketTransport serves exactly one local node — processes are the unit of
// distribution here, unlike the sim's many-nodes-in-one-process model.
//
// Connection lifecycle.
//   * A listener thread accepts inbound connections. Before any frame is
//     dispatched, the connection must present a valid HELLO (codec.h):
//     right magic, matching protocol version, matching cluster token, and a
//     claimed NodeId in the current peer set. Anything else is counted
//     (handshake_rejected), logged, and disconnected — an impostor never
//     feeds the reassembler. After the handshake, a reader thread
//     reassembles length-prefixed stream frames (StreamReassembler) and
//     dispatches them; a frame whose src differs from the handshaken id, or
//     a corrupt length field, poisons the connection (connections_poisoned)
//     and tears it down. Frame payloads arrive as owned Buffers, so ≥256 B
//     blob decodes alias the receive buffer exactly as they alias a
//     simulated delivery.
//   * Outbound links are created on demand: the first post() towards a peer
//     starts its sender thread, which connects lazily (sending its own
//     HELLO first) and reconnects with exponential backoff after failures.
//     Once a link is connected and idle, post() writes the frame on the
//     posting thread itself (non-blocking); the sender thread takes over
//     only a frame the socket buffer would not take, and what queues behind
//     a write in progress or an outage.
//     While a peer is down, queued frames survive up to the retransmit
//     budget (frames and bytes) and replay in order on reconnect — a TCP
//     blip no longer needs the RPC layer's full backoff round-trip. Frames
//     past the budget are counted lost and dropped, per the datagram
//     contract the RPC retry layer already converges under.
//   * sever()/restore() are the real-transport analog of a sim partition:
//     sever tears the connection down and holds (budget-bounded) outbound
//     frames until restore replays them; is_partitioned() reports the cut
//     so RPC failures are typed kPartitioned. ~SocketTransport tears down
//     every connection after a best-effort drain of queued frames.
//
// Zero-copy send path. post(src, dst, FrameBuilder) never builds the frame:
// the builder moves into the link's queue (or straight into an inline
// write), and whichever thread writes it hands its scatter-gather segment
// list to sendmsg() (writev semantics) behind the 12-byte stream header, so
// the data plane's `bytes_assembled` counter stays at zero for every frame
// this transport sends — the slices' single remaining copy happens inside
// the kernel, on the way to the wire. Received frames go to the Transport
// base's deliver(), which owns the handler fence and the traffic counters.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/codec.h"
#include "net/transport.h"

namespace alps::net {

/// One endpoint: either TCP (host:port) or a Unix-domain socket path.
struct SocketAddress {
  std::string host;         ///< TCP peer address; empty for Unix sockets
  std::uint16_t port = 0;   ///< TCP port; 0 asks the OS to pick (listen only)
  std::string path;         ///< Unix socket path; empty for TCP

  static SocketAddress tcp(std::string host, std::uint16_t port) {
    SocketAddress a;
    a.host = std::move(host);
    a.port = port;
    return a;
  }
  static SocketAddress unix_path(std::string path) {
    SocketAddress a;
    a.path = std::move(path);
    return a;
  }
  bool is_unix() const { return !path.empty(); }
  std::string to_string() const;
  /// Inverse of to_string: "unix:<path>" or "host:port" (last ':' splits).
  /// Raises kNetwork on anything unparseable.
  static SocketAddress parse(const std::string& text);
};

struct SocketPeer {
  NodeId id = 0;
  std::string name;
  SocketAddress address;
};

struct SocketTransportOptions {
  NodeId local_node = 0;
  std::string local_name;
  SocketAddress listen;
  std::vector<SocketPeer> peers;  ///< the rest of the static cluster
  /// Reconnect backoff after a failed connect: doubles from initial to max.
  std::chrono::milliseconds connect_backoff_initial{20};
  std::chrono::milliseconds connect_backoff_max{1000};
  /// Per-connect-attempt timeout (non-blocking connect + poll).
  std::chrono::milliseconds connect_timeout{1000};
  /// Bound on frames buffered towards one peer; overflow is counted lost
  /// and dropped (a real NIC queue tail-drops the same way).
  std::size_t max_queued_per_peer = 4096;
  /// While a peer is down (severed, or a connect round failed), at most this
  /// many frames / payload bytes wait for the reconnect and replay in order;
  /// the excess tail-drops as frames_lost. Both bounds apply.
  std::size_t retransmit_budget_frames = 1024;
  std::size_t retransmit_budget_bytes = 4u << 20;
  /// Pre-shared cluster secret carried in the HELLO; an inbound connection
  /// with a different token is rejected before any frame is dispatched.
  /// Empty means "no token required" — but both sides must agree on empty.
  std::string cluster_token;
  /// Wire protocol version claimed and required. Overridable only so tests
  /// can manufacture a version-mismatch rejection.
  std::uint32_t protocol_version = kHelloVersion;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(SocketTransportOptions options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Returns the preconfigured local node id. One local node per transport;
  /// a second registration raises kNetwork.
  NodeId add_node(const std::string& name) override;

  /// The segment list goes to sendmsg directly, inline or from the queue,
  /// never assembling the frame. A frame to the local node is delivered
  /// inline on the posting thread.
  void post(NodeId src, NodeId dst, FrameBuilder frame) override;
  using Transport::post;  // post(Frame): pre-encoded bytes

  /// True while `sever` is in force for the peer, or its connection is down
  /// and in reconnect backoff after a failure.
  bool is_partitioned(NodeId a, NodeId b) const override;

  std::size_t node_count() const override;
  std::string node_name(NodeId id) const override;

  /// Blocks until every peer's send queue is drained and no write is in
  /// flight. Send-side only: bytes in kernel buffers or the peer process
  /// are beyond this transport's knowledge (DESIGN.md §4.10).
  void wait_quiescent() const override;

  /// Real-transport partition: closes the connection to `peer` and fails
  /// every receive for that peer until restore(). Outbound frames posted
  /// during the cut are held up to the retransmit budget and replay in
  /// order on restore; past-budget frames are counted lost. The RPC layer
  /// sees is_partitioned() and types failures kPartitioned, exactly as
  /// under a sim cut.
  void sever(NodeId peer);
  void restore(NodeId peer);

  /// Dynamic membership (DESIGN.md §4.11): admit / evict a peer on the live
  /// transport. add_peer is idempotent per id; remove_peer joins the peer's
  /// sender, drops its queue as lost, tears down its inbound connections and
  /// purges its directory entries.
  void add_peer(const SocketPeer& peer);
  void add_peer(NodeId id, const std::string& name,
                const std::string& address) override;
  bool remove_peer(NodeId id) override;

  /// Closes the outbound connection to `peer` (it reconnects on demand on
  /// the next post). Unhost/teardown hook and a reconnect test handle.
  void disconnect(NodeId peer);

  /// The port the listener actually bound (TCP with port 0); the configured
  /// port otherwise.
  std::uint16_t bound_port() const;

 private:
  /// Outbound link to one peer: lazily-started sender thread, its queue,
  /// and the connection state machine (disconnected → connecting →
  /// connected, with backoff between failed rounds).
  struct PeerLink {
    NodeId id = 0;
    SocketAddress address;
    std::mutex mu;
    std::condition_variable cv;       ///< wakes the sender thread
    std::condition_variable idle_cv;  ///< wakes wait_quiescent
    std::deque<FrameBuilder> queue;
    std::size_t queue_bytes = 0;  ///< payload bytes across `queue`
    /// Stream bytes of queue.front() already on the current connection (an
    /// inline write the socket buffer cut short); its tail goes out first.
    std::size_t front_written = 0;
    int fd = -1;
    bool severed = false;
    /// A thread (the sender, or a poster writing inline) is writing to `fd`
    /// outside mu. Serializes writes, which keeps link FIFO.
    bool sending = false;
    bool unreachable = false;   ///< last connect round failed (in backoff)
    bool removed = false;       ///< evicted by remove_peer; terminal
    bool replaying = false;     ///< queue survived a dead connection
    std::chrono::milliseconds backoff{0};
    std::chrono::steady_clock::time_point next_attempt{};
    // Last member on purpose: ~jthread (request_stop + join) runs first, so
    // the sender never outlives mu/cv above it.
    std::jthread sender;
  };

  /// One accepted inbound connection and its reader thread.
  struct Inbound {
    int fd = -1;
    /// NodeId the HELLO claimed; 0 until `authed`. Atomics because sever /
    /// remove_peer scan these from other threads while the reader runs.
    std::atomic<NodeId> peer{0};
    std::atomic<bool> authed{false};
    std::jthread reader;
  };

  void listen_loop(const std::stop_token& st);
  void reader_loop(const std::stop_token& st, std::shared_ptr<Inbound> conn);
  void sender_loop(const std::stop_token& st, PeerLink* link);
  /// Connects link->fd (non-blocking + poll timeout). Returns false and
  /// arms the backoff on failure. Caller holds link->mu.
  bool connect_locked(PeerLink& link);
  /// Arms the exponential reconnect backoff (same schedule as a failed
  /// connect round). Caller holds link.mu.
  void arm_backoff_locked(PeerLink& link);
  /// Drops the outbound connection. While a thread is writing to it
  /// outside mu, the socket is only shut down and detached (link.fd = -1):
  /// the write ends, and end_write_locked closes the fd, so its number
  /// cannot be reused under the write. Caller holds link.mu.
  void drop_connection_locked(PeerLink& link);
  /// Back under link.mu after writing to `fd` outside it: closes `fd` if
  /// the write failed or the connection was dropped meanwhile.
  void end_write_locked(PeerLink& link, int fd, bool ok);
  /// Back under link.mu after the connection died under `frame`: counts it
  /// lost if the link is going away (`stopping`, severed, removed), else
  /// requeues it whole at the front, arms the backoff and parks the queue.
  void requeue_failed_locked(PeerLink& link, FrameBuilder frame,
                             bool stopping);
  /// Tail-drops frames past the retransmit budget, counting them lost.
  /// Caller holds link.mu.
  void trim_queue_locked(PeerLink& link);
  /// Parks the queue for in-order replay after a blip (cut, failed connect
  /// round, or a connection dying mid-send) and trims it to the retransmit
  /// budget. The single choke point for "parked then dropped": a parked
  /// frame leaves the queue through exactly one of this trim, a teardown
  /// drain, or remove_peer — each of which counts it lost exactly once.
  /// Caller holds link.mu.
  void park_and_trim_locked(PeerLink& link);
  /// Writes one frame as header + scatter segments, from stream byte
  /// `written` on, advancing `written`. Returns 0 once it is all written,
  /// else the errno that stopped it: EAGAIN when MSG_DONTWAIT in `flags`
  /// met a full socket buffer, anything else a dead connection.
  int send_frame(int fd, const FrameBuilder& frame, std::size_t& written,
                 int flags);
  /// Writes our HELLO as the first bytes of a fresh connection.
  bool send_hello(int fd);
  /// Allowlist check: version, token, claimed node known and not us.
  bool validate_hello(const HelloFrame& hello, std::string* why) const;
  /// Counts + logs a pre-dispatch rejection / post-handshake poisoning and
  /// shuts the connection down.
  void reject_inbound(Inbound& conn, const std::string& why);
  void poison_inbound(Inbound& conn, const std::string& why);
  void enqueue(NodeId dst, FrameBuilder frame);
  void count_lost(std::uint64_t frames) {
    if (frames > 0) count(&TransportStats::frames_lost, frames);
  }
  /// Snapshot lookup; the returned shared_ptr keeps the link alive across a
  /// racing remove_peer.
  std::shared_ptr<PeerLink> find_link(NodeId id) const;

  SocketTransportOptions options_;
  std::vector<std::uint8_t> hello_bytes_;  ///< our encoded HELLO, immutable

  mutable std::mutex mu_;  ///< guards have_node_ and inbound_
  bool have_node_ = false;

  /// Peer set. Guarded by links_mu_ (map shape + names); each link's own
  /// state is under its PeerLink::mu. mu_ is a leaf: no other lock is
  /// taken while it is held.
  mutable std::mutex links_mu_;
  std::unordered_map<NodeId, std::shared_ptr<PeerLink>> links_;
  std::unordered_map<NodeId, std::string> peer_names_;

  std::vector<std::shared_ptr<Inbound>> inbound_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::jthread listener_;
};

}  // namespace alps::net
