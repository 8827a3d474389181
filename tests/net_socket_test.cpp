// SocketTransport tests: real OS sockets (Unix-domain and TCP loopback)
// inside one test process. Several transports — one per "node", each with
// its own listener and directory replica — exercise the same code paths a
// multi-process deployment uses (tests/cluster_harness.cpp and the
// net_multiprocess_smoke ctest cover the actual process boundary).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/alps.h"
#include "net/net.h"
#include "support/stats.h"
#include "support/sync.h"

namespace alps::net {
namespace {

using namespace std::chrono_literals;

/// Short per-test unix socket paths (sun_path is ~100 bytes; the default
/// temp dir keeps us well under).
class SocketPaths {
 public:
  explicit SocketPaths(const std::string& tag) {
    base_ = std::filesystem::temp_directory_path() /
            ("alps-" + tag + "-" + std::to_string(::getpid()));
    std::filesystem::create_directories(base_);
  }
  ~SocketPaths() { std::filesystem::remove_all(base_); }

  std::string node(NodeId id) const {
    return (base_ / (std::to_string(id) + ".sock")).string();
  }

 private:
  std::filesystem::path base_;
};

/// A fully-meshed unix-socket cluster config for `ids`, from `self`'s view.
SocketTransportOptions uds_options(const SocketPaths& paths, NodeId self,
                                   const std::vector<NodeId>& ids) {
  SocketTransportOptions opts;
  opts.local_node = self;
  opts.local_name = "n" + std::to_string(self);
  opts.listen = SocketAddress::unix_path(paths.node(self));
  for (NodeId id : ids) {
    if (id == self) continue;
    opts.peers.push_back(SocketPeer{id, "n" + std::to_string(id),
                                    SocketAddress::unix_path(paths.node(id))});
  }
  return opts;
}

TEST(SocketTransport, DeliversRawFramesOverUnixSocket) {
  SocketPaths paths("raw");
  SocketTransport ta(uds_options(paths, 1, {1, 2}));
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  ta.add_node("a");
  tb.add_node("b");

  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> got;
  support::Event done;
  tb.set_handler(2, [&](NodeId src, Buffer payload) {
    EXPECT_EQ(src, 1u);
    std::scoped_lock lock(mu);
    got.emplace_back(payload.data(), payload.data() + payload.size());
    if (got.size() == 3) done.set();
  });

  for (std::uint8_t i = 0; i < 3; ++i) ta.post(Frame{1, 2, {i, 42}});
  ASSERT_TRUE(done.wait_for(30s));

  std::scoped_lock lock(mu);
  ASSERT_EQ(got.size(), 3u);
  for (std::uint8_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i], (std::vector<std::uint8_t>{i, 42}))
        << "frames must arrive intact and FIFO";
  }
  const auto sent = ta.transport_stats();
  EXPECT_EQ(sent.frames_posted, 3u);
  EXPECT_EQ(sent.bytes_posted, 6u);
  const auto recv = tb.transport_stats();
  EXPECT_EQ(recv.frames_delivered, 3u);
  EXPECT_EQ(recv.bytes_delivered, 6u);
}

TEST(SocketTransport, DeliversRawFramesOverTcpLoopback) {
  SocketTransportOptions a_opts;
  a_opts.local_node = 1;
  a_opts.listen = SocketAddress::tcp("127.0.0.1", 0);  // OS picks
  SocketTransport ta(a_opts);  // peer list patched below via second transport

  // B learns A's actual port after A binds. The traffic is one-directional,
  // but A must still admit B to its peer set — the handshake allowlist
  // rejects unknown nodes — so A adds B live (string-address form).
  SocketTransportOptions b_opts;
  b_opts.local_node = 2;
  b_opts.listen = SocketAddress::tcp("127.0.0.1", 0);
  b_opts.peers.push_back(
      SocketPeer{1, "a", SocketAddress::tcp("127.0.0.1", ta.bound_port())});
  SocketTransport tb(b_opts);
  ta.add_peer(2, "b", "127.0.0.1:" + std::to_string(tb.bound_port()));
  ta.add_node("a");
  tb.add_node("b");

  support::Event done;
  std::atomic<std::size_t> bytes{0};
  ta.set_handler(1, [&](NodeId src, Buffer payload) {
    EXPECT_EQ(src, 2u);
    bytes += payload.size();
    done.set();
  });
  tb.post(Frame{2, 1, std::vector<std::uint8_t>(1024, 7)});
  ASSERT_TRUE(done.wait_for(30s));
  EXPECT_EQ(bytes.load(), 1024u);
}

TEST(SocketTransport, LoopbackToSelfDeliversInline) {
  SocketPaths paths("self");
  SocketTransport t(uds_options(paths, 1, {1}));
  t.add_node("a");
  bool got = false;
  t.set_handler(1, [&](NodeId src, Buffer payload) {
    EXPECT_EQ(src, 1u);
    EXPECT_EQ(payload.size(), 2u);
    got = true;
  });
  t.post(Frame{1, 1, {9, 9}});  // synchronous: no peer, no socket
  EXPECT_TRUE(got);
}

/// Two socket transports + an RPC Node on each; the client's directory
/// replica is seeded like static placement config would be.
struct SocketRpcRig {
  SocketPaths paths{"rpc"};
  SocketTransport client_t{uds_options(paths, 1, {1, 2})};
  SocketTransport server_t{uds_options(paths, 2, {1, 2})};
  Node client{client_t, "client"};
  Node server{server_t, "server"};
  Object echo{"Echo"};

  SocketRpcRig() {
    auto dbl = echo.define_entry({.name = "Double", .params = 1, .results = 1});
    echo.implement(dbl, [](BodyCtx& ctx) -> ValueList {
      return {Value(ctx.param(0).as_int() * 2)};
    });
    auto blob = echo.define_entry({.name = "Len", .params = 1, .results = 1});
    echo.implement(blob, [](BodyCtx& ctx) -> ValueList {
      return {Value(static_cast<std::int64_t>(ctx.param(0).as_blob().size()))};
    });
    echo.start();
    server.host(echo);  // registers in the *server's* replica
    // The client's replica is this process's placement knowledge.
    client_t.directory().add("Echo", 2);
  }
  ~SocketRpcRig() { echo.stop(); }
};

TEST(SocketRpc, NameBasedCallRoundTrips) {
  SocketRpcRig rig;
  CallOptions opts;
  opts.retry = RetryPolicy{};  // sockets may need the first-connect grace
  for (int i = 0; i < 10; ++i) {
    auto r = rig.client.call("Echo", "Double", {Value(std::int64_t(i))}, opts);
    ASSERT_TRUE(r.ok()) << r.error().what();
    EXPECT_EQ(r.value()[0].as_int(), 2 * i);
  }
  EXPECT_EQ(rig.server.server_stats().dispatched, 10u);
  EXPECT_EQ(rig.client.client_stats().failures, 0u);
}

TEST(SocketRpc, LargeBlobsRideTheScatterPathWithoutAssembly) {
  SocketRpcRig rig;
  auto& dp = support::data_plane();
  const auto assembled_before = dp.bytes_assembled.get();
  const auto referenced_before = dp.bytes_referenced.get();

  // 64 KiB blob parameter: far above kZeroCopySliceThreshold, so the request
  // frame carries it as a referenced slice and the socket's sendmsg path
  // must never gather it into a contiguous frame.
  Blob big(64 * 1024, 0x5a);
  CallOptions opts;
  opts.retry = RetryPolicy{};
  auto r = rig.client.call("Echo", "Len", {Value(std::move(big))}, opts);
  ASSERT_TRUE(r.ok()) << r.error().what();
  EXPECT_EQ(r.value()[0].as_int(), 64 * 1024);

  EXPECT_GE(dp.bytes_referenced.get() - referenced_before, 64u * 1024u)
      << "the blob must travel by reference on the send side";
  EXPECT_EQ(dp.bytes_assembled.get() - assembled_before, 0u)
      << "no frame on the socket path may pay the final gather";
}

TEST(SocketRpc, ReconnectsAfterDisconnect) {
  SocketRpcRig rig;
  CallOptions opts;
  opts.retry = RetryPolicy{};
  ASSERT_TRUE(rig.client.call("Echo", "Double", vals(1), opts).ok());
  // Drop the established connection; the next call must transparently
  // reconnect (same contract as connect-on-demand).
  rig.client_t.disconnect(2);
  auto r = rig.client.call("Echo", "Double", vals(2), opts);
  ASSERT_TRUE(r.ok()) << r.error().what();
  EXPECT_EQ(r.value()[0].as_int(), 4);
}

TEST(SocketRpc, SeverFailsTypedAndRestoreHeals) {
  SocketRpcRig rig;
  CallOptions opts;
  opts.retry = RetryPolicy{};
  ASSERT_TRUE(rig.client.call("Echo", "Double", vals(1), opts).ok());

  rig.client_t.sever(2);
  EXPECT_TRUE(rig.client_t.is_partitioned(1, 2));
  CallOptions bounded = opts;
  bounded.deadline = 300ms;
  auto r = rig.client.call("Echo", "Double", vals(2), bounded);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause(), RpcCause::kPartitioned);

  rig.client_t.restore(2);
  EXPECT_FALSE(rig.client_t.is_partitioned(1, 2));
  auto healed = rig.client.call("Echo", "Double", vals(3), opts);
  ASSERT_TRUE(healed.ok()) << healed.error().what();
  EXPECT_EQ(healed.value()[0].as_int(), 6);
}

TEST(SocketRpc, WrongNodeRedirectHealsStaleReplica) {
  // Three "processes": the client's directory replica deliberately names a
  // stale home (node 2) for an object actually hosted on node 3. Node 2's
  // replica knows the truth, so the request earns a kWrongNode redirect and
  // the client's second hop lands right — placement heals in-band exactly
  // as in the simulated cluster.
  SocketPaths paths("redir");
  const std::vector<NodeId> ids{1, 2, 3};
  SocketTransport t1(uds_options(paths, 1, ids));
  SocketTransport t2(uds_options(paths, 2, ids));
  SocketTransport t3(uds_options(paths, 3, ids));
  Node client(t1, "client");
  Node middle(t2, "middle");
  Node serving(t3, "serving");

  Object obj("Roamer");
  auto ping = obj.define_entry({.name = "Ping", .params = 0, .results = 1});
  obj.implement(ping, [](BodyCtx&) -> ValueList {
    return {Value(std::int64_t(99))};
  });
  obj.start();
  serving.host(obj);           // t3's replica: Roamer → 3
  t2.directory().add("Roamer", 3);  // node 2 knows the real home
  t1.directory().add("Roamer", 2);  // client's replica is stale

  CallOptions opts;
  opts.retry = RetryPolicy{};
  auto r = client.call("Roamer", "Ping", {}, opts);
  ASSERT_TRUE(r.ok()) << r.error().what();
  EXPECT_EQ(r.value()[0].as_int(), 99);
  EXPECT_GE(client.client_stats().redirects, 1u);
  EXPECT_GE(middle.server_stats().wrong_node_redirects, 1u);
  EXPECT_EQ(client.cached_route("Roamer"), std::optional<NodeId>(3))
      << "the redirect must heal the client's route cache";
  obj.stop();
}

TEST(SocketRpc, BatchedCallsCoalesceOverTheWire) {
  SocketRpcRig rig;
  BatchOptions batch;
  batch.max_frames = 8;
  batch.flush_interval = std::chrono::microseconds(200);
  rig.client.set_batching(batch);

  CallOptions opts;
  opts.retry = RetryPolicy{};
  std::vector<RpcHandle> handles;
  for (int i = 0; i < 32; ++i) {
    handles.push_back(
        rig.client.async_call("Echo", "Double", vals(i), opts));
  }
  rig.client.flush_batches();
  for (int i = 0; i < 32; ++i) {
    auto r = handles[i].result();
    ASSERT_TRUE(r.ok()) << r.error().what();
    EXPECT_EQ(r.value()[0].as_int(), 2 * i);
  }
  EXPECT_GT(rig.client.batch_stats().frames_coalesced, 0u)
      << "some requests must have shared a kBatch envelope on the socket";
}

TEST(SocketTransport, SecondLocalNodeRefused) {
  SocketPaths paths("one");
  SocketTransport t(uds_options(paths, 1, {1}));
  t.add_node("only");
  EXPECT_THROW(t.add_node("second"), Error);
}

// ---- transport resilience (DESIGN.md §4.11) --------------------------------

/// Collects frames at a receiving transport in arrival order.
struct FrameSink {
  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> got;
  support::Event reached;
  std::size_t want = 0;

  Transport::Handler handler() {
    return [this](NodeId, Buffer payload) {
      std::scoped_lock lock(mu);
      got.emplace_back(payload.data(), payload.data() + payload.size());
      if (want != 0 && got.size() >= want) reached.set();
    };
  }
};

TEST(SocketTransport, BlipRetainsQueuedFramesAndReplaysInOrder) {
  SocketPaths paths("blip");
  auto a_opts = uds_options(paths, 1, {1, 2});
  a_opts.connect_backoff_initial = 5ms;
  a_opts.connect_backoff_max = 20ms;
  SocketTransport ta(a_opts);
  ta.add_node("a");

  // B does not exist yet: the first connect rounds fail instantly (no
  // listener at the path). The 5 frames must ride out the blip in A's
  // retransmit queue — not be counted lost. Waiting for is_partitioned
  // pins the "a round actually failed" half of the claim.
  for (std::uint8_t i = 0; i < 5; ++i) ta.post(Frame{1, 2, {i}});
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!ta.is_partitioned(1, 2)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }

  FrameSink sink;
  sink.want = 5;
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  tb.add_node("b");
  tb.set_handler(2, sink.handler());
  ASSERT_TRUE(sink.reached.wait_for(30s));

  std::scoped_lock lock(sink.mu);
  ASSERT_EQ(sink.got.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.got[i], std::vector<std::uint8_t>{i})
        << "replay must preserve posted order";
  }
  const auto stats = ta.transport_stats();
  EXPECT_EQ(stats.frames_lost, 0u);
  EXPECT_GE(stats.frames_requeued, 5u)
      << "the surviving frames must be accounted as requeued";
}

TEST(SocketTransport, RetransmitBudgetOverflowCountsLost) {
  SocketPaths paths("budget");
  auto a_opts = uds_options(paths, 1, {1, 2});
  a_opts.connect_backoff_initial = 5ms;
  a_opts.connect_backoff_max = 20ms;
  a_opts.retransmit_budget_frames = 3;
  SocketTransport ta(a_opts);
  ta.add_node("a");

  // First frame arms the sender; wait until a connect round has failed so
  // the link is known-down and the budget applies.
  ta.post(Frame{1, 2, {0}});
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!ta.is_partitioned(1, 2)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  for (std::uint8_t i = 1; i < 6; ++i) ta.post(Frame{1, 2, {i}});

  FrameSink sink;
  sink.want = 3;
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  tb.add_node("b");
  tb.set_handler(2, sink.handler());
  ASSERT_TRUE(sink.reached.wait_for(30s));
  // Give any unexpected extra frame a moment to arrive, then snapshot.
  ta.wait_quiescent();
  tb.wait_quiescent();

  std::scoped_lock lock(sink.mu);
  ASSERT_EQ(sink.got.size(), 3u)
      << "only the budgeted prefix may survive the outage";
  for (std::uint8_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.got[i], std::vector<std::uint8_t>{i})
        << "the surviving prefix replays in posted order";
  }
  EXPECT_EQ(ta.transport_stats().frames_lost, 3u)
      << "past-budget frames are datagram loss, and counted";
}

TEST(SocketTransport, SeverQueuesUnderBudgetAndRestoreReplaysInOrder) {
  SocketPaths paths("sevq");
  SocketTransport ta(uds_options(paths, 1, {1, 2}));
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  ta.add_node("a");
  tb.add_node("b");
  FrameSink sink;
  sink.want = 1;
  tb.set_handler(2, sink.handler());
  ta.post(Frame{1, 2, {0}});
  ASSERT_TRUE(sink.reached.wait_for(30s));

  ta.sever(2);
  EXPECT_TRUE(ta.is_partitioned(1, 2));
  for (std::uint8_t i = 1; i <= 4; ++i) ta.post(Frame{1, 2, {i}});
  ta.wait_quiescent();  // parked frames count as quiescent during the cut
  {
    std::scoped_lock lock(sink.mu);
    EXPECT_EQ(sink.got.size(), 1u) << "nothing crosses an active cut";
  }

  sink.reached.reset();
  sink.want = 5;
  ta.restore(2);
  ASSERT_TRUE(sink.reached.wait_for(30s));
  std::scoped_lock lock(sink.mu);
  ASSERT_EQ(sink.got.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.got[i], std::vector<std::uint8_t>{i})
        << "restore must replay the parked frames in order";
  }
  const auto stats = ta.transport_stats();
  EXPECT_EQ(stats.frames_lost, 0u);
  EXPECT_GE(stats.frames_requeued, 4u);
}

TEST(SocketTransport, RemovePeerRacesInFlightDeliveryAndRejectsReconnect) {
  SocketPaths paths("evict");
  SocketTransport ta(uds_options(paths, 1, {1, 2}));
  auto b_opts = uds_options(paths, 2, {1, 2});
  b_opts.connect_backoff_initial = 5ms;
  SocketTransport tb(b_opts);
  ta.add_node("a");
  tb.add_node("b");

  support::Event entered, release;
  std::atomic<int> delivered{0};
  tb.set_handler(2, [&](NodeId, Buffer) {
    if (++delivered == 1) {
      entered.set();
      release.wait();
    }
  });
  ta.post(Frame{1, 2, {1}});
  ASSERT_TRUE(entered.wait_for(30s));
  // A second frame is already behind the blocked delivery; the eviction
  // below must win the race against it.
  ta.post(Frame{1, 2, {2}});

  std::thread evict([&] { EXPECT_TRUE(tb.remove_peer(1)); });
  std::this_thread::sleep_for(50ms);  // overlap eviction with the delivery
  release.set();
  evict.join();
  EXPECT_FALSE(tb.remove_peer(1)) << "second eviction must report absent";

  // A keeps talking, but its HELLO now claims a node outside B's peer set:
  // every reconnect is refused before a frame can dispatch.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (tb.transport_stats().handshake_rejected == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    ta.post(Frame{1, 2, {3}});
    ta.disconnect(2);  // force a fresh connection (and a fresh handshake)
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(delivered.load(), 1) << "no frame may land after the eviction";
}

TEST(SocketTransport, AddPeerAdmitsTrafficMidRun) {
  SocketPaths paths("admit");
  SocketTransport ta(uds_options(paths, 1, {1}));  // B unknown at first
  auto b_opts = uds_options(paths, 2, {1, 2});
  b_opts.connect_backoff_initial = 5ms;
  SocketTransport tb(b_opts);
  ta.add_node("a");
  tb.add_node("b");

  std::atomic<int> got{0};
  support::Event first;
  ta.set_handler(1, [&](NodeId src, Buffer) {
    EXPECT_EQ(src, 2u);
    if (++got == 1) first.set();
  });

  std::atomic<int> membership_adds{0};
  const auto token = ta.add_membership_listener([&](NodeId peer, bool added) {
    if (peer == 2 && added) ++membership_adds;
  });

  // Unknown peer: every stream B opens is refused before dispatch.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (ta.transport_stats().handshake_rejected == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    tb.post(Frame{2, 1, {7}});
    tb.disconnect(1);
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(ta.transport_stats().frames_delivered, 0u)
      << "an unadmitted peer must never deliver a frame";

  // Admit B live (string-address form) — traffic starts flowing without
  // touching A's construction-time configuration.
  ta.add_peer(2, "b", "unix:" + paths.node(2));
  EXPECT_EQ(ta.node_name(2), "b");
  EXPECT_EQ(membership_adds.load(), 1);
  while (!first.wait_for(50ms)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    tb.post(Frame{2, 1, {8}});
    tb.disconnect(1);
  }
  EXPECT_GE(got.load(), 1);
  ta.remove_membership_listener(token);
}

TEST(SocketTransport, HandshakeRejectsWrongClusterToken) {
  SocketPaths paths("token");
  auto a_opts = uds_options(paths, 1, {1, 2});
  a_opts.cluster_token = "alpha";
  auto b_opts = uds_options(paths, 2, {1, 2});
  b_opts.cluster_token = "beta";
  b_opts.connect_backoff_initial = 5ms;
  SocketTransport ta(a_opts);
  SocketTransport tb(b_opts);
  ta.add_node("a");
  tb.add_node("b");
  ta.set_handler(1, [&](NodeId, Buffer) { FAIL() << "must not deliver"; });

  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (ta.transport_stats().handshake_rejected == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    tb.post(Frame{2, 1, {1}});
    tb.disconnect(1);
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(ta.transport_stats().frames_delivered, 0u);
}

TEST(SocketTransport, HandshakeRejectsProtocolVersionMismatch) {
  SocketPaths paths("ver");
  auto a_opts = uds_options(paths, 1, {1, 2});
  auto b_opts = uds_options(paths, 2, {1, 2});
  b_opts.protocol_version = kHelloVersion + 1;
  b_opts.connect_backoff_initial = 5ms;
  SocketTransport ta(a_opts);
  SocketTransport tb(b_opts);
  ta.add_node("a");
  tb.add_node("b");
  ta.set_handler(1, [&](NodeId, Buffer) { FAIL() << "must not deliver"; });

  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (ta.transport_stats().handshake_rejected == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    tb.post(Frame{2, 1, {1}});
    tb.disconnect(1);
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(ta.transport_stats().frames_delivered, 0u);
}

/// Connects a bare OS socket to `path` and writes `bytes`; returns after the
/// peer closes (or 2s). The impostor's view: does the transport talk back?
void raw_connection(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  // Wait for the far end to hang up on us (read returns 0).
  char buf[64];
  struct timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
  ::close(fd);
}

TEST(SocketTransport, RawImpostorConnectionNeverDeliversAFrame) {
  SocketPaths paths("impostor");
  SocketTransport ta(uds_options(paths, 1, {1, 2}));
  ta.add_node("a");
  ta.set_handler(1, [&](NodeId, Buffer) { FAIL() << "must not deliver"; });

  // Garbage instead of a HELLO: rejected on the magic check, counted, cut.
  raw_connection(paths.node(1),
                 {'G', 'A', 'R', 'B', 'A', 'G', 'E', '!', 0, 0, 0, 0});
  auto deadline = std::chrono::steady_clock::now() + 30s;
  while (ta.transport_stats().handshake_rejected < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ta.transport_stats().frames_delivered, 0u);

  // A valid HELLO followed by a corrupt length field: the handshake passes,
  // the framing layer poisons the connection before anything dispatches.
  HelloFrame hello;
  hello.node = 2;
  std::vector<std::uint8_t> bytes;
  encode_hello(hello, bytes);
  for (int i = 0; i < 4; ++i) bytes.push_back(0xff);  // length = 2^32-1
  for (int i = 0; i < 8; ++i) bytes.push_back(0x02);  // src (never parsed)
  raw_connection(paths.node(1), bytes);
  deadline = std::chrono::steady_clock::now() + 30s;
  while (ta.transport_stats().connections_poisoned < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ta.transport_stats().frames_delivered, 0u);
}

TEST(SocketRpc, RemovePeerPurgesDirectoryAndFailsTyped) {
  SocketRpcRig rig;
  CallOptions opts;
  opts.retry = RetryPolicy{};
  ASSERT_TRUE(rig.client.call("Echo", "Double", vals(1), opts).ok());
  ASSERT_EQ(rig.client.cached_route("Echo"), std::optional<NodeId>(2));

  rig.client_t.remove_peer(2);
  EXPECT_FALSE(rig.client.cached_route("Echo").has_value())
      << "the membership listener must drop routes to the departed peer";
  EXPECT_FALSE(rig.client_t.directory().lookup("Echo").has_value())
      << "eviction must purge the departed node's directory entries";
  CallOptions bounded = opts;
  bounded.deadline = 300ms;
  auto r = rig.client.call("Echo", "Double", vals(2), bounded);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause(), RpcCause::kObjectNotFound)
      << "a departed home fails typed, not by timeout";
}

TEST(SocketTransport, RemovePeerDemotesMultiHomeDirectoryEntries) {
  // Satellite regression, socket backend: evicting a peer must *demote* it
  // out of multi-home entries (survivors keep serving) and erase only the
  // entries with no surviving home — same semantics the simulated Network
  // gets from Directory::remove_node.
  SocketPaths paths("demote");
  SocketTransport ta(uds_options(paths, 1, {1, 2, 3}));
  ta.add_node("a");
  ta.directory().add("Solo", 2);
  ta.directory().add_sharded("Shards", {2, 3});

  ta.remove_peer(2);

  EXPECT_EQ(ta.directory().lookup("Solo"), std::nullopt)
      << "no surviving home: erased, so calls fail typed";
  auto shards = ta.directory().placement("Shards");
  ASSERT_TRUE(shards.has_value()) << "demote, don't erase";
  EXPECT_EQ(shards->mode, PlacementMode::kSharded);
  for (NodeId h : shards->homes) EXPECT_EQ(h, 3u);
}

TEST(SocketTransport, FrameAccountingConservesAcrossBudgetSeverAndEviction) {
  // Satellite regression: every posted frame is accounted exactly once —
  // delivered, lost (budget trim / sever teardown / eviction drain), or
  // dropped (no such destination). A double-count in any of the parked
  // paths breaks this equality.
  SocketPaths paths("conserve");
  auto a_opts = uds_options(paths, 1, {1, 2});
  a_opts.connect_backoff_initial = 5ms;
  a_opts.connect_backoff_max = 20ms;
  a_opts.retransmit_budget_frames = 3;
  SocketTransport ta(a_opts);
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  ta.add_node("a");
  tb.add_node("b");
  FrameSink sink;
  sink.want = 1;
  tb.set_handler(2, sink.handler());
  ta.post(Frame{1, 2, {0}});
  ASSERT_TRUE(sink.reached.wait_for(30s));

  // Sever, then overflow the retransmit budget: 3 of the 6 park, 3 are
  // tail-dropped by the trim and must be counted lost exactly once.
  ta.sever(2);
  for (std::uint8_t i = 1; i <= 6; ++i) ta.post(Frame{1, 2, {i}});
  ta.wait_quiescent();
  EXPECT_EQ(ta.transport_stats().frames_lost, 3u)
      << "parked-then-trimmed frames are lost once, not twice";

  sink.reached.reset();
  sink.want = 4;
  ta.restore(2);
  ASSERT_TRUE(sink.reached.wait_for(30s));
  ta.wait_quiescent();
  tb.wait_quiescent();
  {
    const auto a = ta.transport_stats();
    const auto b = tb.transport_stats();
    EXPECT_EQ(a.frames_posted, 7u);
    EXPECT_EQ(a.frames_posted,
              b.frames_delivered + a.frames_lost + a.frames_dropped)
        << "conservation after budget trip + replay";
  }

  // Park two more behind a fresh cut, then evict the peer: the teardown
  // drain owns those two frames (and only those two).
  ta.sever(2);
  ta.post(Frame{1, 2, {7}});
  ta.post(Frame{1, 2, {8}});
  ta.remove_peer(2);
  // A post to a removed peer is a drop (dst unknown), not a loss.
  ta.post(Frame{1, 2, {9}});
  ta.wait_quiescent();
  const auto a = ta.transport_stats();
  const auto b = tb.transport_stats();
  EXPECT_EQ(a.frames_posted, 10u);
  EXPECT_EQ(a.frames_lost, 5u) << "3 trimmed + 2 drained at eviction";
  EXPECT_EQ(a.frames_dropped, 1u);
  EXPECT_EQ(a.frames_posted,
            b.frames_delivered + a.frames_lost + a.frames_dropped)
      << "conservation across sever + eviction + post-removal drop";
}

// ---- inline send on an idle link (DESIGN.md §4.10) ------------------------

/// A frame tagged (poster, seq), padded to `size` bytes (at least 5).
std::vector<std::uint8_t> tagged_frame(std::uint8_t poster, std::uint32_t seq,
                                       std::size_t size = 5) {
  std::vector<std::uint8_t> bytes(std::max<std::size_t>(size, 5), 0);
  bytes[0] = poster;
  std::memcpy(bytes.data() + 1, &seq, sizeof(seq));
  return bytes;
}

std::pair<std::uint8_t, std::uint32_t> frame_tag(const Buffer& payload) {
  std::uint32_t seq = 0;
  std::memcpy(&seq, payload.data() + 1, sizeof(seq));
  return {payload.data()[0], seq};
}

TEST(SocketTransport, ConcurrentPostersKeepLinkFifo) {
  // Four posting threads on one link: a post writes inline when the link is
  // idle and queues behind a write in progress, so the two paths interleave
  // (the posters pause between frames so the queue keeps draining). Every
  // poster's frames must still arrive in the order it posted them.
  constexpr int kPosters = 4;
  constexpr std::uint32_t kFrames = 5000;
  SocketPaths paths("fifo");
  auto a_opts = uds_options(paths, 1, {1, 2});
  a_opts.max_queued_per_peer = kPosters * kFrames;  // no tail-drop here
  SocketTransport ta(a_opts);
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  ta.add_node("a");
  tb.add_node("b");

  std::vector<std::int64_t> last(kPosters, -1);
  std::atomic<int> out_of_order{0};
  std::atomic<std::uint32_t> delivered{0};
  support::Event all;
  tb.set_handler(2, [&](NodeId, Buffer payload) {
    const auto [poster, seq] = frame_tag(payload);  // one reader: no lock
    if (static_cast<std::int64_t>(seq) != last[poster] + 1) ++out_of_order;
    last[poster] = seq;
    if (++delivered == kPosters * kFrames) all.set();
  });

  std::vector<std::thread> posters;
  for (int p = 0; p < kPosters; ++p) {
    posters.emplace_back([&ta, p] {
      for (std::uint32_t i = 0; i < kFrames; ++i) {
        ta.post(Frame{1, 2, tagged_frame(static_cast<std::uint8_t>(p), i)});
        std::this_thread::sleep_for(5us);
      }
    });
  }
  for (auto& t : posters) t.join();
  ASSERT_TRUE(all.wait_for(60s)) << delivered.load() << " delivered";
  EXPECT_EQ(out_of_order.load(), 0) << "link FIFO broken";
  EXPECT_EQ(ta.transport_stats().frames_lost, 0u);
}

TEST(SocketTransport, PostStaysNonBlockingWhenThePeerStopsReading) {
  // The receiver's handler blocks, so its reader stops draining the socket
  // and the socket buffer fills. A post must never wait for the peer: the
  // inline write is MSG_DONTWAIT, and what it cannot write goes to the
  // sender thread, which writes the rest of a frame cut short mid-way. Once
  // the peer reads again, every frame arrives intact and in order.
  constexpr std::uint32_t kFrames = 32;     // 256 KiB each: 8 MiB in all,
  constexpr std::size_t kSize = 256 << 10;  // and larger than the socket
                                            // buffer, so writes get cut
  SocketPaths paths("stall");
  SocketTransport ta(uds_options(paths, 1, {1, 2}));
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  ta.add_node("a");
  tb.add_node("b");

  support::Event entered, release;
  std::mutex mu;
  std::vector<std::uint32_t> got;
  support::Event all;
  tb.set_handler(2, [&](NodeId, Buffer payload) {
    if (frame_tag(payload).second == 0) {
      entered.set();
      release.wait();
    }
    std::scoped_lock lock(mu);
    EXPECT_EQ(payload.size(), kSize);
    got.push_back(frame_tag(payload).second);
    if (got.size() == kFrames) all.set();
  });
  ta.post(Frame{1, 2, tagged_frame(0, 0, kSize)});
  ASSERT_TRUE(entered.wait_for(30s));

  std::chrono::steady_clock::duration slowest{};
  support::Event posted;
  std::thread poster([&] {
    for (std::uint32_t i = 1; i < kFrames; ++i) {
      auto bytes = tagged_frame(0, i, kSize);
      const auto begin = std::chrono::steady_clock::now();
      ta.post(Frame{1, 2, std::move(bytes)});
      slowest = std::max(slowest, std::chrono::steady_clock::now() - begin);
    }
    posted.set();
  });
  const bool posted_in_time = posted.wait_for(30s);
  release.set();  // unblock the peer either way, so the poster can finish
  poster.join();
  EXPECT_TRUE(posted_in_time) << "a post blocked on the stalled peer";
  EXPECT_LT(slowest, 250ms) << "slowest post took "
                            << std::chrono::duration_cast<
                                   std::chrono::milliseconds>(slowest)
                                   .count()
                            << " ms";

  ASSERT_TRUE(all.wait_for(60s));
  std::scoped_lock lock(mu);
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(got[i], i) << "frames must arrive in posted order";
  }
  EXPECT_EQ(ta.transport_stats().frames_lost, 0u);
}

TEST(SocketTransport, LinkLeversRacingInlineWritesConserveFrames) {
  // sever / restore / disconnect and finally remove_peer race three posting
  // threads whose frames mostly go out inline (mixed sizes, so some writes
  // are cut short and handed to the sender mid-frame). The posters pause
  // between frames so the link keeps going idle: posting flat out, the
  // queue never drains and every frame takes the sender. Run under TSan, this
  // is the race check for the inline path; in every build each posted frame
  // must end delivered, lost or dropped exactly once, and every frame one
  // connection delivers must be whole and in posted order.
  SocketPaths paths("levers");
  auto a_opts = uds_options(paths, 1, {1, 2});
  a_opts.connect_backoff_initial = 1ms;
  a_opts.connect_backoff_max = 5ms;
  SocketTransport ta(a_opts);
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  ta.add_node("a");
  tb.add_node("b");
  constexpr int kPosters = 3;
  const auto frame_size = [](std::uint32_t seq) -> std::size_t {
    return seq % 16 == 0 ? 96 << 10 : 64;
  };
  std::atomic<int> out_of_order{0};
  std::atomic<int> wrong_size{0};
  tb.set_handler(2, [&](NodeId, Buffer payload) {
    // Each inbound connection has its own reader thread. Within one
    // connection a poster's sequence numbers only rise (frames lost to a
    // cut leave gaps); across connections they need not, since an old
    // connection's reader may still be draining when the next one delivers.
    thread_local std::array<std::int64_t, kPosters> last{-1, -1, -1};
    const auto [poster, seq] = frame_tag(payload);
    if (poster >= kPosters || payload.size() != frame_size(seq)) {
      ++wrong_size;
      return;
    }
    if (static_cast<std::int64_t>(seq) <= last[poster]) ++out_of_order;
    last[poster] = seq;
  });

  std::atomic<bool> stop{false};
  std::vector<std::thread> posters;
  for (int p = 0; p < kPosters; ++p) {
    posters.emplace_back([&, p] {
      for (std::uint32_t i = 0; !stop.load(); ++i) {
        const std::size_t size = frame_size(i);
        ta.post(Frame{1, 2, tagged_frame(static_cast<std::uint8_t>(p), i,
                                         size)});
        std::this_thread::sleep_for(5us);
      }
    });
  }
  for (int round = 0; round < 40; ++round) {
    std::this_thread::sleep_for(2ms);
    ta.disconnect(2);
    std::this_thread::sleep_for(2ms);
    ta.sever(2);
    std::this_thread::sleep_for(1ms);
    ta.restore(2);
    // restore() on a live link changes nothing but wakes the sender while
    // posters write inline: it must not pop while a write is in progress.
    for (int k = 0; k < 5000; ++k) {
      ta.restore(2);
      std::this_thread::yield();
    }
  }
  std::this_thread::sleep_for(2ms);
  ta.remove_peer(2);  // the posters are still going: the rest are drops
  std::this_thread::sleep_for(2ms);
  stop = true;
  for (auto& t : posters) t.join();

  // B's readers may still be draining bytes already in its socket buffers.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  auto accounted = [&] {
    const auto a = ta.transport_stats();
    return tb.transport_stats().frames_delivered + a.frames_lost +
           a.frames_dropped;
  };
  while (accounted() != ta.transport_stats().frames_posted &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  const auto a = ta.transport_stats();
  EXPECT_EQ(out_of_order.load(), 0) << "link FIFO broken within a connection";
  EXPECT_EQ(wrong_size.load(), 0) << "a delivered frame was not whole";
  EXPECT_GT(a.frames_dropped, 0u) << "no post raced the eviction";
  EXPECT_EQ(a.frames_posted, accounted())
      << "posted=" << a.frames_posted
      << " delivered=" << tb.transport_stats().frames_delivered
      << " lost=" << a.frames_lost << " dropped=" << a.frames_dropped;
}

}  // namespace
}  // namespace alps::net
