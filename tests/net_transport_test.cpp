// Transport base contract tests: the handler fence behind set_handler and
// the frame accounting, which the Transport base implements once for both
// backends. Each fence test runs over the simulation and over a pair of
// Unix-domain SocketTransports, so a backend that stops routing deliveries
// through the base's deliver() shows up here on its own.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/alps.h"
#include "net/net.h"
#include "support/rng.h"
#include "support/sync.h"

namespace alps::net {
namespace {

using namespace std::chrono_literals;

enum class Backend { kSim, kUnix };

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kSim ? "Sim" : "Unix";
}

/// A sender and a receiving endpoint on one backend. For the sim both are
/// nodes of one Network; for sockets each is its own SocketTransport (node 1
/// posts, node 2 receives), as two processes would be.
class TransportPair {
 public:
  explicit TransportPair(Backend backend) {
    if (backend == Backend::kSim) {
      auto net = std::make_unique<Network>();
      src_ = net->add_node("a");
      dst_ = net->add_node("b");
      receiver_ = net.get();
      sender_ = std::move(net);
      return;
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("alps-fence-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    src_ = 1;
    dst_ = 2;
    sender_ = std::make_unique<SocketTransport>(options(src_, dst_));
    receiver_owned_ = std::make_unique<SocketTransport>(options(dst_, src_));
    receiver_ = receiver_owned_.get();
    sender_->add_node("n1");
    receiver_->add_node("n2");
  }

  ~TransportPair() {
    receiver_owned_.reset();
    sender_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  Transport& sender() { return *sender_; }
  Transport& receiver() { return *receiver_; }
  NodeId src() const { return src_; }
  NodeId dst() const { return dst_; }

  void post(std::uint8_t tag) {
    sender_->post(
        Frame{src_, dst_, {static_cast<std::uint8_t>(MsgType::kAck), tag}});
  }

  /// Waits until the receiver has accounted (delivered or dropped) `n`
  /// frames. Socket delivery crosses a reader thread, so poll.
  bool wait_accounted(std::uint64_t n) {
    for (int i = 0; i < 3000; ++i) {
      const auto s = receiver_->transport_stats();
      if (s.frames_delivered + s.frames_dropped >= n) return true;
      std::this_thread::sleep_for(1ms);
    }
    return false;
  }

 private:
  SocketTransportOptions options(NodeId self, NodeId peer) const {
    SocketTransportOptions o;
    o.local_node = self;
    o.local_name = "n" + std::to_string(self);
    o.listen =
        SocketAddress::unix_path((dir_ / (o.local_name + ".sock")).string());
    const std::string peer_name = "n" + std::to_string(peer);
    o.peers.push_back(SocketPeer{
        peer, peer_name,
        SocketAddress::unix_path((dir_ / (peer_name + ".sock")).string())});
    return o;
  }

  std::filesystem::path dir_;
  std::unique_ptr<Transport> sender_;
  std::unique_ptr<Transport> receiver_owned_;
  Transport* receiver_ = nullptr;
  NodeId src_ = 0;
  NodeId dst_ = 0;
};

class TransportFence : public ::testing::TestWithParam<Backend> {};

TEST_P(TransportFence, DeregisterWaitsOutRunningDeliveryThenDrops) {
  TransportPair pair(GetParam());
  support::Event entered;
  support::Event release;
  std::atomic<bool> handler_exited{false};
  pair.receiver().set_handler(pair.dst(), [&](NodeId src, Buffer) {
    EXPECT_EQ(src, pair.src());
    entered.set();
    release.wait();
    handler_exited.store(true);
  });

  pair.post(0);
  ASSERT_TRUE(entered.wait_for(30s));

  // Deregister from another thread while the handler blocks on the latch.
  std::atomic<bool> returned{false};
  std::atomic<bool> exited_at_return{false};
  std::thread deregister([&] {
    pair.receiver().set_handler(pair.dst(), nullptr);
    exited_at_return.store(handler_exited.load());
    returned.store(true);
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(returned.load())
      << "set_handler returned while a delivery into the old handler ran";
  release.set();
  deregister.join();
  EXPECT_TRUE(exited_at_return.load())
      << "set_handler must not return before the running handler exits";

  // Frames posted after the fence have no handler to reach: dropped.
  for (std::uint8_t i = 1; i <= 3; ++i) pair.post(i);
  ASSERT_TRUE(pair.wait_accounted(4));
  const auto stats = pair.receiver().transport_stats();
  EXPECT_EQ(stats.frames_delivered, 1u);
  EXPECT_EQ(stats.frames_dropped, 3u);
  EXPECT_EQ(pair.sender().transport_stats().frames_posted, 4u);
}

TEST_P(TransportFence, SetHandlerOnUnknownNodeRaises) {
  TransportPair pair(GetParam());
  EXPECT_THROW(pair.receiver().set_handler(977, nullptr), Error);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportFence,
                         ::testing::Values(Backend::kSim, Backend::kUnix),
                         backend_name);

TEST(TransportAccounting, SimConservesFramesUnderDropFaultsAndRemovePeer) {
  // Every posted frame ends in exactly one of delivered / dropped (no
  // handler) / lost (drop fault, cut, eviction), including frames still
  // queued on a latency link when their destination is evicted.
  Network net(LinkLatency{std::chrono::microseconds(200),
                          std::chrono::microseconds(400)},
              /*seed=*/16);
  net.set_default_faults(LinkFaults{.drop = 0.25});
  std::vector<NodeId> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(net.add_node("n" + std::to_string(i)));
  }
  // Nodes 0-2 have handlers; node 3 has none, so frames to it are dropped.
  for (int i = 0; i < 3; ++i) {
    net.set_handler(nodes[i], [](NodeId, Buffer) {});
  }

  support::Rng rng(7);
  const auto post_burst = [&](int frames) {
    for (int i = 0; i < frames; ++i) {
      const NodeId src = nodes[rng.next_below(nodes.size())];
      const NodeId dst = nodes[rng.next_below(nodes.size())];
      net.post(Frame{src, dst, {static_cast<std::uint8_t>(MsgType::kAck)}});
    }
  };
  post_burst(400);
  ASSERT_TRUE(net.remove_peer(nodes[1]));  // evicts frames still in flight
  post_burst(400);
  net.wait_quiescent();

  const auto s = net.transport_stats();
  EXPECT_EQ(s.frames_posted, 800u);
  EXPECT_EQ(s.frames_posted,
            s.frames_delivered + s.frames_dropped + s.frames_lost);
  EXPECT_GT(s.frames_delivered, 0u);
  EXPECT_GT(s.frames_dropped, 0u);
  EXPECT_GT(s.frames_lost, 0u);
  EXPECT_EQ(s.bytes_posted, 800u);
  EXPECT_EQ(s.bytes_delivered, s.frames_delivered);
}

}  // namespace
}  // namespace alps::net
