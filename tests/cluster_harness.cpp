// Multi-process cluster harness: the paper's entry calls as remote procedure
// calls between objects on separate nodes (§1, §4), checked across real OS
// processes. Every server is one process with one node, talking to the
// driver over Unix-domain sockets (net::SocketTransport). Three scenarios
// run on one Cluster scaffold:
//
//   cluster_harness smoke   2 servers x 24 keys: name-based calls, a stale
//                           route healed by a kWrongNode redirect, read-back,
//                           and an exactly-once audit under aggressive
//                           retries.
//   cluster_harness chaos   3+1 servers x 250 keys (DESIGN.md §4.11):
//                           impostor rejection, kill -9 + same-address
//                           restart mid-burst, live add / evict / re-admit.
//   cluster_harness shard   600 keys over a live 2 -> 3 -> 4 home split of
//                           one sharded name (DESIGN.md §4.12).
//
// chaos and shard are soaks: without ALPS_SOAK=1 they print [SKIP-SOAK] and
// exit 77 (ctest SKIP_RETURN_CODE). `serve <dir> <i> <store>` is the server
// entry point the Cluster spawns.
#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/alps.h"
#include "net/net.h"
#include "support/stats.h"
#include "support/sync.h"

namespace {

using namespace alps;
using namespace std::chrono_literals;

constexpr const char* kToken = "alps-cluster-harness";
constexpr const char* kShardedStore = "Store";
constexpr int kMaxServers = 4;  ///< the largest cluster any scenario runs

std::string sock_path(const std::string& dir, int id) {
  return dir + "/" + std::to_string(id) + ".sock";
}
std::string store_name(int i) { return "Store-" + std::to_string(i); }
std::string ctl_name(int i) { return "Ctl-" + std::to_string(i); }
std::string server_name(int i) { return "server-" + std::to_string(i); }
std::string value_of(const std::string& key) { return "value of " + key; }

/// Server `i`: hosts one durable key-log store under `store` plus the
/// control object Ctl-i (Stats, SetMap, Shutdown). Applied keys go to an
/// O_APPEND log *before* the in-memory map, so a kill -9 between the two
/// replays the key on restart (counted as a re-execution, never a loss).
/// Blocks until the driver calls Shutdown.
int serve(const std::string& dir, int i, const std::string& store) {
  net::SocketTransportOptions opts;
  opts.local_node = static_cast<net::NodeId>(i);
  opts.local_name = server_name(i);
  // Listen on a hidden path first and atomically rename to the advertised
  // one only after everything is hosted: a call that races server startup
  // then fails at connect (retried silently by the sender's backoff)
  // instead of reaching a transport with no object behind it (a typed,
  // non-retryable kObjectNotFound).
  opts.listen = net::SocketAddress::unix_path(sock_path(dir, i) + ".tmp");
  opts.peers.push_back(net::SocketPeer{
      0, "driver", net::SocketAddress::unix_path(sock_path(dir, 0))});
  opts.cluster_token = kToken;
  net::SocketTransport transport(opts);
  net::Node node(transport, opts.local_name);

  // Crash recovery: replay the key log a killed predecessor left behind.
  const std::string log_path = dir + "/keys-" + std::to_string(i) + ".log";
  std::unordered_map<std::string, std::string> seen;  // key -> value
  {
    std::ifstream in(log_path);
    std::string line;
    while (std::getline(in, line)) {
      const auto tab = line.find('\t');
      if (tab != std::string::npos) {
        seen[line.substr(0, tab)] = line.substr(tab + 1);
      }
    }
  }
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) {
    std::perror("open key log");
    return 1;
  }

  // Entry bodies of a manager-less object run concurrently on the pooled
  // executor, so the applied-key state is mutex-guarded.
  std::mutex mu;
  std::uint64_t requests = 0, reexec = 0;
  Object obj(store);
  auto insert = obj.define_entry({.name = "Insert", .params = 2, .results = 1});
  obj.implement(insert, [&](BodyCtx& ctx) -> ValueList {
    std::string key = ctx.param(0).as_string();
    std::string value = ctx.param(1).as_string();
    std::scoped_lock lock(mu);
    ++requests;
    if (seen.count(key) != 0) {
      // A retransmit that outlived the RPC dedup table (it died with a
      // killed incarnation) re-executes the body; the durable log makes
      // that visible-but-idempotent instead of a double insert.
      ++reexec;
      return {Value(std::int64_t(0))};
    }
    const std::string rec = key + '\t' + value + '\n';
    if (::write(log_fd, rec.data(), rec.size()) !=
        static_cast<ssize_t>(rec.size())) {
      raise(ErrorCode::kBodyFailed,
            "append key log: " + std::string(std::strerror(errno)));
    }
    seen.emplace(std::move(key), std::move(value));
    return {Value(std::int64_t(1))};
  });
  auto search = obj.define_entry({.name = "Search", .params = 1, .results = 1});
  obj.implement(search, [&](BodyCtx& ctx) -> ValueList {
    std::scoped_lock lock(mu);
    const auto it = seen.find(ctx.param(0).as_string());
    return {Value(it == seen.end() ? std::string() : it->second)};
  });
  obj.start();
  node.host(obj);

  support::Event quit;
  Object ctl(ctl_name(i));
  auto stats = ctl.define_entry({.name = "Stats", .params = 0, .results = 3});
  ctl.implement(stats, [&](BodyCtx&) -> ValueList {
    std::scoped_lock lock(mu);
    return {Value(static_cast<std::int64_t>(seen.size())),
            Value(static_cast<std::int64_t>(requests)),
            Value(static_cast<std::int64_t>(reexec))};
  });
  auto set_map =
      ctl.define_entry({.name = "SetMap", .params = 1, .results = 0});
  ctl.implement(set_map, [&](BodyCtx& ctx) -> ValueList {
    // The shard-split signal: `store` is served by homes {1..n}. From now
    // on this server answers shard-precise kWrongNode redirects for keys it
    // no longer owns.
    std::vector<net::NodeId> homes;
    for (std::int64_t h = 1; h <= ctx.param(0).as_int(); ++h) {
      homes.push_back(static_cast<net::NodeId>(h));
    }
    transport.directory().add_sharded(store, std::move(homes));
    return {};
  });
  auto shutdown =
      ctl.define_entry({.name = "Shutdown", .params = 0, .results = 0});
  ctl.implement(shutdown, [&quit](BodyCtx&) -> ValueList {
    quit.set();
    return {};
  });
  ctl.start();
  node.host(ctl);

  // The static home of every sibling's store, so a misrouted call earns a
  // kWrongNode redirect instead of kObjectNotFound.
  for (int j = 1; j <= kMaxServers; ++j) {
    if (j != i) {
      transport.directory().add(store_name(j), static_cast<net::NodeId>(j));
    }
  }
  std::filesystem::rename(sock_path(dir, i) + ".tmp", sock_path(dir, i));

  quit.wait();
  // quit is set from inside the Shutdown body; its response frame is posted
  // only after the body returns. Give the reply a moment to be enqueued,
  // then drain the wire before tearing down.
  std::this_thread::sleep_for(50ms);
  transport.wait_quiescent();
  ctl.stop();
  obj.stop();
  ::close(log_fd);
  return 0;
}

/// Makes this run's /tmp/alps-cluster-XXXXXX dir and returns it, with
/// `lock_fd` holding an exclusive flock on the dir for as long as it stays
/// open. A driver killed outright (a ctest timeout sends SIGKILL) runs no
/// destructor, but the kernel drops its lock; so before making a dir, every
/// run removes the dirs whose lock it can take — their drivers are gone.
/// Sweep and creation both happen under /tmp/alps-cluster.lock, so no sweep
/// can see a live run's dir before that run has locked it.
std::string make_run_dir(int& lock_fd) {
  const int guard =
      ::open("/tmp/alps-cluster.lock", O_RDWR | O_CREAT | O_CLOEXEC, 0666);
  if (guard < 0 || ::flock(guard, LOCK_EX) != 0) {
    throw std::system_error(errno, std::generic_category(), "cluster lock");
  }
  std::vector<std::filesystem::path> orphans;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/tmp", ec)) {
    if (entry.path().filename().string().rfind("alps-cluster-", 0) != 0) {
      continue;
    }
    const int fd = ::open(entry.path().c_str(),
                          O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) continue;
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0) orphans.push_back(entry.path());
    ::close(fd);
  }
  for (const auto& dir : orphans) std::filesystem::remove_all(dir, ec);

  char tmpl[] = "/tmp/alps-cluster-XXXXXX";
  lock_fd = ::mkdtemp(tmpl) == nullptr
                ? -1
                : ::open(tmpl, O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const int err = errno;
  if (lock_fd >= 0) ::flock(lock_fd, LOCK_EX);
  ::close(guard);
  if (lock_fd < 0) {
    throw std::system_error(err, std::generic_category(), "mkdtemp");
  }
  return tmpl;
}

/// The driver's side of a cluster: the temp dir, the server processes
/// (NodeIds 1..n) and the driver's own node (NodeId 0). The destructor
/// SIGKILLs and reaps every server not yet reaped and removes the dir, so no
/// exit path — early return, failed check, exception — leaks either. A
/// driver killed by a signal leaves its dir to the next run's sweep
/// (make_run_dir).
class Cluster {
 public:
  struct Stats {
    std::int64_t distinct = 0, requests = 0, reexec = 0;
  };

  /// Spawns servers 1..n and waits until each is up. Every server hosts
  /// Store-i, or with `sharded` all host the one name kShardedStore (whose
  /// map the scenario installs). Each attempt of a `reliable` call times out
  /// after `attempt_timeout`.
  Cluster(int n, std::chrono::milliseconds attempt_timeout,
          bool sharded = false)
      : sharded_(sharded), dir_(make_run_dir(dir_lock_)) {
    net::RetryPolicy policy;
    policy.attempt_timeout = attempt_timeout;
    reliable.retry = policy;
    reliable.deadline = 60s;
    try {
      net::SocketTransportOptions opts;
      opts.local_node = 0;
      opts.local_name = "driver";
      opts.listen = net::SocketAddress::unix_path(sock(0));
      for (int i = 1; i <= n; ++i) {
        opts.peers.push_back(
            net::SocketPeer{static_cast<net::NodeId>(i), server_name(i),
                            net::SocketAddress::unix_path(sock(i))});
      }
      opts.cluster_token = kToken;
      transport_.emplace(opts);
      driver_.emplace(*transport_, "driver");
      for (int i = 1; i <= n; ++i) {
        add_routes(i);
        spawn(i);
      }
      wait_up();
    } catch (...) {
      teardown();
      throw;
    }
  }
  ~Cluster() { teardown(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  net::SocketTransport& transport() { return *transport_; }
  net::Node& driver() { return *driver_; }
  std::string sock(int id) const { return sock_path(dir_, id); }

  bool check(bool ok, const char* what) {
    if (!ok) {
      ++failures_;
      std::fprintf(stderr, "FAIL: %s\n", what);
    }
    return ok;
  }

  /// Starts server process i. Throws on a failed fork, so no pid below 1
  /// is ever stored (and later signalled).
  void spawn(int i) {
    // Build argv before fork: the child of a threaded process may only make
    // async-signal-safe calls before exec.
    const std::string id = std::to_string(i);
    const std::string store = sharded_ ? kShardedStore : store_name(i);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::system_error(errno, std::generic_category(), "fork");
    }
    if (pid == 0) {
      // Die with the driver even when a signal kills it (a ctest timeout)
      // and no destructor runs.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) std::_Exit(127);
      ::execl("/proc/self/exe", "cluster_harness", "serve", dir_.c_str(),
              id.c_str(), store.c_str(), static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    pids_[i] = pid;
  }

  /// SIGKILLs server i and reaps it; returns its wait status.
  int kill(int i) {
    const pid_t pid = pids_.at(i);
    pids_.erase(i);
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
  }

  /// Admits server i to the driver's live peer set and routes to it.
  void admit(int i) {
    transport_->add_peer(static_cast<net::NodeId>(i), server_name(i),
                         "unix:" + sock(i));
    add_routes(i);
  }

  /// Issues `keys` (with value_of(key)) as async inserts into `object`,
  /// runs `during` while they are in flight, and checks that every one
  /// completes.
  void burst(const std::string& object, const std::vector<std::string>& keys,
             const std::function<void()>& during, const char* what) {
    std::vector<net::RpcHandle> calls;
    calls.reserve(keys.size());
    for (const auto& key : keys) {
      calls.push_back(driver_->async_call(object, "Insert",
                                          vals(key, value_of(key)), reliable));
    }
    during();
    for (std::size_t k = 0; k < keys.size(); ++k) {
      auto r = calls[k].result();
      if (!check(r.ok(), what)) {
        std::fprintf(stderr, "  %s: %s\n", keys[k].c_str(), r.error().what());
      }
    }
  }
  void insert(const std::string& object, const std::string& key) {
    burst(object, {key}, [] {}, "insert completes");
  }

  /// Server i's own counters, read through its control object.
  std::optional<Stats> stats(int i) {
    auto r = driver_->call(ctl_name(i), "Stats", {}, reliable);
    if (!check(r.ok(), "Stats call completes")) return std::nullopt;
    return Stats{r.value()[0].as_int(), r.value()[1].as_int(),
                 r.value()[2].as_int()};
  }

  /// Shuts every live server down, tears down the driver's node, reaps the
  /// servers and checks each exited 0. Returns the process exit code.
  int finish() {
    net::CallOptions lenient;  // Shutdown replies race process exit
    lenient.deadline = 5s;
    lenient.retry = net::RetryPolicy{};
    for (const auto& [i, pid] : pids_) {
      driver_->call(ctl_name(i), "Shutdown", {}, lenient);
    }
    driver_.reset();
    transport_.reset();
    for (auto it = pids_.begin(); it != pids_.end(); it = pids_.erase(it)) {
      int status = -1;
      if (::waitpid(it->second, &status, 0) < 0 || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "FAIL: server %d exited abnormally (status %d)\n",
                     it->first, status);
        ++failures_;
      }
    }
    return failures_ == 0 ? 0 : 1;
  }

  int failures() const { return failures_; }

  net::CallOptions reliable;

 private:
  void add_routes(int i) {
    const auto id = static_cast<net::NodeId>(i);
    transport_->directory().add(ctl_name(i), id);
    if (!sharded_) transport_->directory().add(store_name(i), id);
  }

  /// Servers are up once their advertised listener exists. A server that
  /// exits first fails the wait at once, with its exit status.
  void wait_up() {
    const auto deadline = std::chrono::steady_clock::now() + 15s;
    for (const auto& [i, pid] : pids_) {
      while (!std::filesystem::exists(sock(i))) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
          const std::string why =
              "server " + std::to_string(i) + " exited during start-up (" +
              (WIFEXITED(status)
                   ? "exit " + std::to_string(WEXITSTATUS(status))
                   : "signal " + std::to_string(WTERMSIG(status))) +
              ")";
          pids_.erase(pids_.find(i));  // reaped: teardown must not kill it
          throw std::runtime_error(why);
        }
        if (std::chrono::steady_clock::now() > deadline) {
          throw std::runtime_error("server " + std::to_string(i) +
                                   " never came up");
        }
        std::this_thread::sleep_for(10ms);
      }
    }
  }

  void teardown() {
    for (const auto& [i, pid] : pids_) ::kill(pid, SIGKILL);
    for (const auto& [i, pid] : pids_) ::waitpid(pid, nullptr, 0);
    pids_.clear();
    driver_.reset();
    transport_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    if (dir_lock_ >= 0) ::close(std::exchange(dir_lock_, -1));
  }

  bool sharded_;
  int dir_lock_ = -1;  ///< flock on dir_ (make_run_dir); declared before it
  std::string dir_;
  std::map<int, pid_t> pids_;  ///< started and not yet reaped
  std::optional<net::SocketTransport> transport_;
  std::optional<net::Node> driver_;
  int failures_ = 0;
};

/// Two servers; the driver deliberately mis-seeds one route, runs every
/// insert under a 10 ms attempt timeout, reads the values back and audits
/// exactly-once execution from the servers' own counters.
int smoke() {
  constexpr int n = 2, keys = 24;
  Cluster c(n, 10ms);
  // The one lie: the last store is claimed to live on node 1. The first
  // call to it lands wrong, earns a kWrongNode redirect from node 1's
  // honest replica, and heals the driver's route cache in-band.
  c.transport().directory().add(store_name(n), 1);

  auto key_of = [](int i, int k) {
    return "key-" + std::to_string(i) + "-" + std::to_string(k);
  };
  for (int i = 1; i <= n; ++i) {
    for (int k = 0; k < keys; ++k) c.insert(store_name(i), key_of(i, k));
  }
  c.check(c.driver().client_stats().redirects >= 1,
          "stale route heals via kWrongNode redirect");
  c.check(c.driver().cached_route(store_name(n)) ==
              std::optional<net::NodeId>(n),
          "route cache learns the true home");

  // However many retransmits the 10 ms attempt timeout produced, each
  // server executed each of its inserts once.
  for (int i = 1; i <= n; ++i) {
    const std::string key = key_of(i, 0);
    auto r = c.driver().call(store_name(i), "Search", vals(key), c.reliable);
    c.check(r.ok() && r.value()[0].as_string() == value_of(key),
            "search returns the inserted value");
    const auto s = c.stats(i);
    if (s && !c.check(s->requests == keys,
                      "server executed each insert exactly once")) {
      std::fprintf(stderr, "  server %d: %lld inserts for %d keys\n", i,
                   static_cast<long long>(s->requests), keys);
    }
  }
  std::printf(
      "smoke: %d servers x %d keys, %llu retransmits, exactly-once %s\n", n,
      keys,
      static_cast<unsigned long long>(c.driver().client_stats().retransmits),
      c.failures() == 0 ? "held" : "VIOLATED");
  return c.finish();
}

/// The scripted failure sequence of DESIGN.md §4.11: impostor rejection,
/// kill -9 + same-address restart mid-burst, a server added to the live
/// cluster, a healthy peer evicted and re-admitted — audited against each
/// server's durable key counters.
int chaos() {
  constexpr int n = 3, K = 250, burst_n = 60;
  constexpr int victim = 1;     // kill -9'ed mid-burst, restarted
  constexpr int churned = 2;    // evicted from the live cluster, re-admitted
  constexpr int added = n + 1;  // joins the live cluster mid-run
  Cluster c(n, 15ms);
  auto& transport = c.transport();
  std::uint64_t peers_added = 0, peers_removed = 0;
  const auto member_token = transport.add_membership_listener(
      [&](net::NodeId, bool was_added) {
        if (was_added) ++peers_added; else ++peers_removed;
      });

  // Impostor: raw garbage at the driver's own listener must be rejected by
  // the HELLO gate before any frame is dispatched.
  const auto rejected_before = support::net_health().handshake_rejected.get();
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, c.sock(0).c_str(), sizeof(addr.sun_path) - 1);
    if (c.check(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                "impostor can reach the listener")) {
      const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
      (void)::send(fd, garbage, sizeof(garbage) - 1, MSG_NOSIGNAL);
      timeval tv{2, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      char buf[64];
      while (::recv(fd, buf, sizeof(buf), 0) > 0) {
      }
    }
    ::close(fd);
  }
  c.check(support::net_health().handshake_rejected.get() > rejected_before,
          "impostor handshake rejected");
  c.check(transport.transport_stats().frames_delivered == 0,
          "impostor delivered no frames");

  auto key_of = [](int i, int k) {
    return "k-" + std::to_string(i) + "-" + std::to_string(k);
  };
  std::map<int, int> next;  // next unissued key index per server
  auto insert_upto = [&](int i, int upto) {
    for (; next[i] < upto; ++next[i]) {
      c.insert(store_name(i), key_of(i, next[i]));
    }
  };

  // Phase A: warm the cluster — 40% of each original server's keys.
  for (int i = 1; i <= n; ++i) insert_upto(i, (K * 2) / 5);

  // Phase B: kill -9 the victim while a burst of calls is in flight and
  // restart it on the same address. Retries ride the retransmit queue
  // across the blip; the durable key log absorbs any re-executions.
  std::vector<std::string> keys;
  for (int b = 0; b < burst_n; ++b) {
    keys.push_back(key_of(victim, next[victim]++));
  }
  c.burst(store_name(victim), keys, [&] {
    const int status = c.kill(victim);
    c.check(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
            "victim died by SIGKILL");
    // A real downtime window, so retransmits queue against a dead address
    // before the restart.
    std::this_thread::sleep_for(100ms);
    c.spawn(victim);
  }, "every in-flight call completes across the kill");

  // Phase C1: admit a brand-new server and give it a full complement of
  // keys while everything else keeps running.
  c.admit(added);
  c.spawn(added);
  insert_upto(added, K);

  // Phase C2: evict a healthy peer live — calls to it must fail typed (its
  // directory entries are purged), not hang — then re-admit it.
  c.check(transport.remove_peer(static_cast<net::NodeId>(churned)),
          "live eviction succeeds");
  net::CallOptions fast;
  fast.deadline = 1s;
  auto evicted = c.driver().call(store_name(churned), "Insert",
                                 vals(std::string("evicted-probe"),
                                      std::string()),
                                 fast);
  c.check(!evicted.ok() &&
              evicted.error().cause() == net::RpcCause::kObjectNotFound,
          "call to an evicted peer fails typed, not by timeout");
  c.admit(churned);

  // Phase D: drain the remaining keys everywhere, including the restarted
  // victim and the re-admitted peer.
  for (int i = 1; i <= n; ++i) insert_upto(i, K);

  // Every server holds exactly its K distinct keys; servers that were never
  // killed saw zero re-executions (the RPC dedup table alone sufficed).
  std::int64_t total_distinct = 0;
  for (int i = 1; i <= added; ++i) {
    const auto s = c.stats(i);
    if (!s) continue;
    total_distinct += s->distinct;
    if (!c.check(s->distinct == K, "server holds exactly K distinct keys")) {
      std::fprintf(stderr, "  server %d: %lld distinct for %d keys\n", i,
                   static_cast<long long>(s->distinct), K);
    }
    if (i != victim) {
      c.check(s->reexec == 0, "never-killed server saw no re-executions");
    }
  }
  c.check(total_distinct == K * (n + 1),
          "cluster converged on every issued key exactly once");
  c.check(peers_added == 2 && peers_removed == 1,
          "membership listener saw the add/evict/re-admit churn");
  transport.remove_membership_listener(member_token);

  std::printf(
      "chaos: %d+1 servers x %d keys, kill -9 + restart survived, "
      "%llu retransmits, %llu frames requeued, %llu handshake rejects, "
      "exactly-once %s\n",
      n, K,
      static_cast<unsigned long long>(c.driver().client_stats().retransmits),
      static_cast<unsigned long long>(
          transport.transport_stats().frames_requeued),
      static_cast<unsigned long long>(
          support::net_health().handshake_rejected.get()),
      c.failures() == 0 ? "held" : "VIOLATED");
  return c.finish();
}

/// Inserts a keyed stream against one sharded name while its map is split
/// live, 2 -> 3 -> 4 homes, under in-flight traffic. The driver's own map
/// stays at 2 homes throughout: every moved key's first call earns a
/// shard-precise kWrongNode redirect that patches one slot of its cached
/// map.
int shard() {
  constexpr int homes_max = 4, K = 600, burst_n = 80;
  Cluster c(homes_max, 15ms, /*sharded=*/true);
  c.transport().directory().add_sharded(kShardedStore, {1, 2});

  // Installs the n-home map on every server, newest first: a new home
  // accepts its shard before any old home starts redirecting into it.
  auto install_map = [&](int homes) {
    for (int i = homes_max; i >= 1; --i) {
      auto r = c.driver().call(ctl_name(i), "SetMap",
                               vals(static_cast<std::int64_t>(homes)),
                               c.reliable);
      c.check(r.ok(), "SetMap reaches every server");
    }
  };
  auto key_of = [](int k) { return "sk-" + std::to_string(k); };
  int issued = 0;
  auto insert_upto = [&](int upto) {
    for (; issued < upto; ++issued) c.insert(kShardedStore, key_of(issued));
  };
  // A burst of async inserts goes up against the old map, the new map is
  // installed while they are in flight, and every call must still
  // complete — moved keys through a redirect hop.
  auto split_under_burst = [&](int homes) {
    std::vector<std::string> keys;
    for (int b = 0; b < burst_n; ++b) keys.push_back(key_of(issued++));
    c.burst(kShardedStore, keys, [&] { install_map(homes); },
            "every in-flight insert completes across the split");
  };

  install_map(2);             // the seed map
  insert_upto((K * 2) / 5);   // warm: cached 2-home map established
  split_under_burst(3);       // live split 2 -> 3 mid-burst
  insert_upto((K * 7) / 10);  // stale slots heal one redirect per slot
  split_under_burst(4);       // live split 3 -> 4 mid-burst
  insert_upto(K);             // drain on the 4-home map

  c.check(c.driver().client_stats().redirects >= 1,
          "moved keys healed via shard-precise kWrongNode redirects");

  // The union of the per-server key logs is exactly the issued key set
  // (each key applied on one server), and no server re-executed a key.
  std::int64_t total_distinct = 0, total_reexec = 0;
  for (int i = 1; i <= homes_max; ++i) {
    const auto s = c.stats(i);
    if (!s) continue;
    total_distinct += s->distinct;
    total_reexec += s->reexec;
    c.check(s->distinct > 0,
            "every home serves a non-empty shard after the splits");
  }
  c.check(total_distinct == issued,
          "union of shard key logs is exactly the issued key set");
  c.check(total_reexec == 0, "zero re-executions across both live splits");

  std::printf(
      "shard: %d keys over 2->3->4 homes, %llu redirects, %llu retransmits, "
      "exactly-once %s\n",
      issued,
      static_cast<unsigned long long>(c.driver().client_stats().redirects),
      static_cast<unsigned long long>(c.driver().client_stats().retransmits),
      c.failures() == 0 ? "held" : "VIOLATED");
  return c.finish();
}

}  // namespace

int main(int argc, char** argv) {
  // A closed stderr pipe (`smoke 2>&1 | head`) must end in the normal
  // teardown through EPIPE, not kill the driver before it removes its dir.
  ::signal(SIGPIPE, SIG_IGN);
  const std::string mode = argc >= 2 ? argv[1] : "";
  try {
    if (mode == "serve" && argc == 5) {
      return serve(argv[2], std::atoi(argv[3]), argv[4]);
    }
    if (argc == 2 && mode == "smoke") return smoke();
    if (argc == 2 && (mode == "chaos" || mode == "shard")) {
      if (std::getenv("ALPS_SOAK") == nullptr) {
        std::printf("[SKIP-SOAK] ALPS_SOAK=1 not set; skipping %s soak\n",
                    mode.c_str());
        return 77;  // ctest SKIP_RETURN_CODE
      }
      return mode == "chaos" ? chaos() : shard();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "usage: %s smoke|chaos|shard\n", argv[0]);
  return 2;
}
