// Fault-tolerant RPC: retry/backoff + server-side at-most-once semantics
// under a hostile network.
//
// The headline test is the acceptance criterion for the retry layer: with
// 20% frame drop plus a scripted partition/heal, 1000 remote calls to a
// *non-idempotent* entry all complete under the default RetryPolicy, and the
// entry body executes exactly once per call (verified by the object's own
// counter and the server's dispatch/dedup counters).
//
// The raw-frame tests below drive the at-most-once table deterministically —
// hand-encoded request frames with chosen req_id / epoch / ack fields, no
// timing involved.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/alps.h"
#include "net/net.h"

namespace alps::net {
namespace {

using namespace std::chrono_literals;

/// Non-idempotent service: every execution of Add bumps the counter, so a
/// double-executed retransmission is directly visible.
struct CountingService {
  Object obj{"Counter"};
  std::atomic<std::int64_t> executions{0};

  CountingService() {
    auto add = obj.define_entry({.name = "Add", .params = 1, .results = 1});
    obj.implement(add, [this](BodyCtx& ctx) -> ValueList {
      executions.fetch_add(1, std::memory_order_relaxed);
      return {ctx.param(0)};
    });
    obj.start();
  }
  ~CountingService() { obj.stop(); }
};

TEST(NetFault, ThousandCallsSurviveDropAndPartitionExactlyOnce) {
  Network net(LinkLatency{}, /*seed=*/20260806);
  Node client(net, "client");
  Node server(net, "server");
  CountingService svc;
  server.host(svc.obj);
  auto remote = client.remote(server.id(), "Counter");

  net.set_default_faults(LinkFaults{.drop = 0.20});
  // One scripted partition mid-run: cuts after 600 posted frames, heals
  // after 400 more (retransmissions drive the script forward, so the heal
  // always arrives).
  net.schedule_partition(client.id(), server.id(), 600, 400);

  CallOptions opts;
  opts.retry = RetryPolicy{};  // the default policy must carry all calls

  constexpr int kCalls = 1000;
  constexpr int kWindow = 256;
  std::vector<RpcHandle> window;
  int completed = 0;
  for (int issued = 0; issued < kCalls;) {
    while (issued < kCalls && static_cast<int>(window.size()) < kWindow) {
      window.push_back(remote.async_call("Add", vals(issued), opts));
      ++issued;
    }
    // Drain the oldest handle; its result must be its own echo.
    auto r = window.front().result();
    ASSERT_TRUE(r.ok()) << "call " << completed << " failed: "
                        << r.error().what();
    EXPECT_EQ(r.value()[0].as_int(), completed);
    window.erase(window.begin());
    ++completed;
  }
  for (auto& h : window) {
    auto r = h.result();
    ASSERT_TRUE(r.ok()) << "call " << completed << " failed: "
                        << r.error().what();
    EXPECT_EQ(r.value()[0].as_int(), completed);
    ++completed;
  }
  ASSERT_EQ(completed, kCalls);

  // Exactly-once: the non-idempotent body ran once per call despite
  // retransmissions, duplicate-suppression doing the rest.
  EXPECT_EQ(svc.executions.load(), kCalls);
  const auto ss = server.server_stats();
  EXPECT_EQ(ss.dispatched, static_cast<std::uint64_t>(kCalls));
  const auto cs = client.client_stats();
  EXPECT_GT(cs.retransmits, 0u) << "20% drop must force retransmissions";
  EXPECT_GT(ss.dedup_replayed + ss.dup_in_flight + ss.dup_acked, 0u)
      << "some retransmission must have hit the dedup table";
  EXPECT_EQ(cs.failures, 0u);
  EXPECT_GT(net.transport_stats().frames_lost, 0u);
  EXPECT_EQ(client.inflight(), 0u);
}

TEST(NetFault, DuplicatedRequestFramesExecuteOnce) {
  Network net(LinkLatency{}, /*seed=*/7);
  Node client(net, "client");
  Node server(net, "server");
  CountingService svc;
  server.host(svc.obj);
  LinkFaults faults;
  faults.duplicate = 1.0;  // every request frame arrives twice
  faults.duplicate_jitter = std::chrono::microseconds(500);
  net.set_link_faults(client.id(), server.id(), faults);

  auto remote = client.remote(server.id(), "Counter");
  for (int i = 0; i < 50; ++i) {
    auto r = remote.call("Add", vals(i), {});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value()[0].as_int(), i);
  }
  net.wait_quiescent();
  EXPECT_EQ(svc.executions.load(), 50);
  const auto ss = server.server_stats();
  EXPECT_EQ(ss.dispatched, 50u);
  EXPECT_GT(ss.requests_received, 50u) << "duplicates must have arrived";
  EXPECT_GT(ss.dedup_replayed + ss.dup_in_flight + ss.dup_acked, 0u);
}

// ---- raw-frame at-most-once semantics (fully deterministic) ----

struct RawRig {
  Network net;
  Node server{net, "server"};
  NodeId raw;
  CountingService svc;
  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> responses;

  RawRig() {
    server.host(svc.obj);
    raw = net.add_node("raw-client");
    net.set_handler(raw, [this](NodeId, Buffer payload) {
      std::scoped_lock lock(mu);
      responses.emplace_back(payload.data(), payload.data() + payload.size());
    });
  }

  void post_request(std::uint64_t req_id, std::uint64_t epoch,
                    std::uint64_t ack, std::int64_t param) {
    FrameBuilder payload;
    encode_request_header(
        RequestHeader{req_id, epoch, ack, 0, "Counter", "Add"}, payload);
    encode_list(vals(param), payload);
    net.post(raw, server.id(), std::move(payload));
  }

  void post_ack(std::uint64_t ack_through) {
    FrameBuilder payload;
    encode_ack(ack_through, payload);
    net.post(raw, server.id(), std::move(payload));
  }

  /// Waits until `n` responses have arrived (entry bodies here complete
  /// synchronously, but the frames still cross the delivery thread).
  bool wait_responses(std::size_t n) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::scoped_lock lock(mu);
        if (responses.size() >= n) return true;
      }
      std::this_thread::sleep_for(1ms);
    }
    return false;
  }

  ResponseHeader response_header(std::size_t i) {
    std::scoped_lock lock(mu);
    std::size_t pos = 0;
    EXPECT_EQ(get_u8(responses[i], pos),
              static_cast<std::uint8_t>(MsgType::kResponse));
    return decode_response_header(responses[i], pos);
  }
};

TEST(NetFault, RetransmissionReplaysCachedResponse) {
  RawRig rig;
  rig.post_request(/*req=*/1, /*epoch=*/5, /*ack=*/0, 42);
  ASSERT_TRUE(rig.wait_responses(1));
  EXPECT_EQ(rig.svc.executions.load(), 1);
  EXPECT_EQ(rig.response_header(0).flags & kResponseFlagReplayed, 0);

  // Same (req_id, epoch) again: replayed from cache, body NOT re-run.
  rig.post_request(1, 5, 0, 42);
  ASSERT_TRUE(rig.wait_responses(2));
  EXPECT_EQ(rig.svc.executions.load(), 1) << "at-most-once violated";
  EXPECT_EQ(rig.response_header(1).flags & kResponseFlagReplayed,
            kResponseFlagReplayed);
  const auto ss = rig.server.server_stats();
  EXPECT_EQ(ss.dispatched, 1u);
  EXPECT_EQ(ss.dedup_replayed, 1u);
  EXPECT_EQ(rig.server.dedup_entries(rig.raw), 1u);
}

TEST(NetFault, AckEvictsDedupEntries) {
  RawRig rig;
  rig.post_request(1, 5, 0, 1);
  rig.post_request(2, 5, 0, 2);
  ASSERT_TRUE(rig.wait_responses(2));
  EXPECT_EQ(rig.server.dedup_entries(rig.raw), 2u);

  // Standalone ack: "I will never retransmit ids <= 2."
  rig.post_ack(2);
  rig.net.wait_quiescent();
  EXPECT_EQ(rig.server.dedup_entries(rig.raw), 0u);
  EXPECT_EQ(rig.server.server_stats().dedup_evicted, 2u);

  // Piggybacked ack on a later request evicts as well.
  rig.post_request(3, 5, 0, 3);
  rig.post_request(4, 5, /*ack=*/3, 4);
  ASSERT_TRUE(rig.wait_responses(4));
  EXPECT_EQ(rig.server.dedup_entries(rig.raw), 1u);  // only #4 remains
}

TEST(NetFault, EpochChangeFlushesDedupTable) {
  RawRig rig;
  rig.post_request(1, /*epoch=*/5, 0, 10);
  ASSERT_TRUE(rig.wait_responses(1));
  EXPECT_EQ(rig.svc.executions.load(), 1);

  // A new incarnation of the caller reuses req_id 1 under a new epoch: the
  // stale cached response must NOT be replayed — this is a fresh request.
  rig.post_request(1, /*epoch=*/6, 0, 11);
  ASSERT_TRUE(rig.wait_responses(2));
  EXPECT_EQ(rig.svc.executions.load(), 2);
  EXPECT_EQ(rig.response_header(1).flags & kResponseFlagReplayed, 0);
  EXPECT_EQ(rig.server.server_stats().dedup_replayed, 0u);
  EXPECT_EQ(rig.server.dedup_entries(rig.raw), 1u) << "old epoch flushed";
}

TEST(NetFault, DedupTableIsBoundedWithoutAcks) {
  RawRig rig;
  // An ack-less caller (never acks anything) must not grow the table
  // without bound: completed entries are evicted oldest-first past the cap.
  constexpr int kRequests = 400;  // cap is 256
  for (int i = 1; i <= kRequests; ++i) {
    rig.post_request(static_cast<std::uint64_t>(i), 5, 0,
                     static_cast<std::int64_t>(i));
  }
  ASSERT_TRUE(rig.wait_responses(kRequests));
  EXPECT_EQ(rig.svc.executions.load(), kRequests);
  EXPECT_LE(rig.server.dedup_entries(rig.raw), 256u);
  EXPECT_GT(rig.server.server_stats().dedup_evicted, 0u);
}

TEST(NetFault, BoundEvictedRetransmissionRefusedNotReExecuted) {
  RawRig rig;
  // Fill an ack-less caller's table exactly to the cap (256), waiting for
  // every response so all entries are done, then push it over one request
  // at a time: each overflow insert must evict exactly the oldest done
  // entry, so ids 1..4 fall off the bound deterministically.
  constexpr int kRequests = 260;
  for (int i = 1; i <= 256; ++i) {
    rig.post_request(static_cast<std::uint64_t>(i), 5, 0,
                     static_cast<std::int64_t>(i));
  }
  ASSERT_TRUE(rig.wait_responses(256));
  ASSERT_EQ(rig.server.dedup_entries(rig.raw), 256u);
  for (int i = 257; i <= kRequests; ++i) {
    rig.post_request(static_cast<std::uint64_t>(i), 5, 0,
                     static_cast<std::int64_t>(i));
    ASSERT_TRUE(rig.wait_responses(static_cast<std::size_t>(i)));
  }
  ASSERT_EQ(rig.svc.executions.load(), kRequests);
  ASSERT_EQ(rig.server.dedup_entries(rig.raw), 256u);
  ASSERT_EQ(rig.server.server_stats().dedup_evicted, 4u);

  // A retransmission of a bound-evicted id may already have executed and its
  // cached response is gone — it must come back as a typed refusal, and the
  // body must NOT run again.
  rig.post_request(3, 5, 0, 3);
  ASSERT_TRUE(rig.wait_responses(kRequests + 1));
  EXPECT_EQ(rig.svc.executions.load(), kRequests)
      << "at-most-once violated past the eviction bound";
  const auto refusal = rig.response_header(kRequests);
  EXPECT_EQ(refusal.req_id, 3u);
  EXPECT_EQ(refusal.cause, WireCause::kRemoteError);
  EXPECT_EQ(rig.server.server_stats().dedup_rejected, 1u);

  // An id still inside the table replays exactly-once as usual...
  rig.post_request(kRequests, 5, 0, kRequests);
  ASSERT_TRUE(rig.wait_responses(kRequests + 2));
  EXPECT_EQ(rig.svc.executions.load(), kRequests);
  EXPECT_EQ(
      rig.response_header(kRequests + 1).flags & kResponseFlagReplayed,
      kResponseFlagReplayed);

  // ...and fresh ids past the boundary still dispatch normally.
  rig.post_request(kRequests + 1, 5, 0, kRequests + 1);
  ASSERT_TRUE(rig.wait_responses(kRequests + 3));
  EXPECT_EQ(rig.svc.executions.load(), kRequests + 1);
  EXPECT_EQ(rig.response_header(kRequests + 2).cause, WireCause::kOk);
}

TEST(NetFault, ClientGoingIdleAcksAndServerEvicts) {
  // Full-stack version of ack-based eviction: a real client completes its
  // calls, goes idle towards the server, and the standalone ack empties the
  // server's dedup table for it.
  Network net;
  Node client(net, "client");
  Node server(net, "server");
  CountingService svc;
  server.host(svc.obj);
  auto remote = client.remote(server.id(), "Counter");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(remote.call("Add", vals(i), {}).ok());
  }
  net.wait_quiescent();
  EXPECT_GE(client.client_stats().acks_sent, 1u);
  EXPECT_EQ(server.dedup_entries(client.id()), 0u)
      << "idle client's ack must have evicted its dedup entries";
  EXPECT_EQ(svc.executions.load(), 8);
}

}  // namespace
}  // namespace alps::net
