// E13 (§4): RPC under frame loss — completion rate and tail latency vs drop
// rate, with and without the retry/at-most-once machinery.
//
// Rows sweep drop ∈ {0, 1%, 5%, 20%} × {no retry, default-ish retry}. Each
// iteration is one synchronous remote call; per-row counters report the
// fraction of calls that completed, the p99 call latency, and the retransmit
// cost the retry layer paid. Expected shape: without retries the completion
// rate tracks (1-p)^2 and failed calls pin the tail at the deadline; with
// retries completion stays at 1.0 and the tail grows only by the backoff of
// the unlucky calls.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_util.h"

#include "core/alps.h"
#include "net/net.h"

namespace {

using namespace alps;

struct Service {
  Object obj{"Svc"};
  Service() {
    auto echo = obj.define_entry({.name = "Echo", .params = 1, .results = 1});
    obj.implement(echo, [](BodyCtx& ctx) -> ValueList { return {ctx.param(0)}; });
    obj.start();
  }
  ~Service() { obj.stop(); }
};

void BM_RpcUnderLoss(benchmark::State& state) {
  const double drop = static_cast<double>(state.range(0)) / 100.0;
  const bool with_retry = state.range(1) != 0;

  net::Network network(net::LinkLatency{std::chrono::microseconds(100), {}},
                       /*seed=*/20260806);
  net::Node client(network, "client");
  net::Node server(network, "server");
  Service svc;
  server.host(svc.obj);
  auto remote = client.remote(server.id(), "Svc");
  network.set_default_faults(net::LinkFaults{.drop = drop});

  net::CallOptions opts;
  if (with_retry) {
    net::RetryPolicy retry;  // unlimited attempts, scaled for a fast link
    retry.attempt_timeout = std::chrono::milliseconds(5);
    retry.initial_backoff = std::chrono::milliseconds(1);
    retry.max_backoff = std::chrono::milliseconds(10);
    opts.retry = retry;
  } else {
    // A bare deadline: lost frames burn the full 20 ms and fail the call.
    opts.deadline = std::chrono::milliseconds(20);
  }

  std::vector<double> latency_us;
  std::int64_t completed = 0, failed = 0;
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    auto r = remote.call("Echo", vals(1), opts);
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(elapsed).count());
    if (r.ok()) {
      ++completed;
    } else {
      ++failed;
    }
  }

  std::sort(latency_us.begin(), latency_us.end());
  const auto pct = [&](double q) {
    if (latency_us.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latency_us.size() - 1));
    return latency_us[idx];
  };
  state.counters["completion_rate"] = benchmark::Counter(
      static_cast<double>(completed) /
      static_cast<double>(std::max<std::int64_t>(completed + failed, 1)));
  state.counters["p50_us"] = benchmark::Counter(pct(0.50));
  state.counters["p99_us"] = benchmark::Counter(pct(0.99));
  state.counters["retransmits_per_call"] = benchmark::Counter(
      static_cast<double>(client.client_stats().retransmits) /
      static_cast<double>(std::max<std::int64_t>(completed + failed, 1)));
  state.SetItemsProcessed(completed);
}

// 400 fixed iterations per row: enough samples for a stable p99 while keeping
// the worst row (20% drop, no retries, 20 ms deadline burns) bounded.
BENCHMARK(BM_RpcUnderLoss)
    ->ArgNames({"drop_pct", "retry"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({5, 0})
    ->Args({20, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({5, 1})
    ->Args({20, 1})
    ->Iterations(400)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

ALPS_BENCH_MAIN()
