#include "net/transport.h"

#include "core/error.h"
#include "net/codec.h"
#include "net/directory.h"

namespace alps::net {

Transport::Transport() : directory_(std::make_unique<Directory>()) {}

Transport::~Transport() = default;

void Transport::post(Frame frame) {
  post(frame.src, frame.dst,
       FrameBuilder::from_bytes(std::move(frame.payload)));
}

void Transport::add_endpoint(NodeId node) {
  std::scoped_lock lock(state_mu_);
  endpoints_.try_emplace(node);
}

void Transport::set_handler(NodeId node, Handler handler) {
  std::unique_lock lock(state_mu_);
  auto it = endpoints_.find(node);
  if (it == endpoints_.end()) {
    raise(ErrorCode::kNetwork, "set_handler on unknown node");
  }
  it->second.handler = std::move(handler);
  // Deliveries invoke their copy of the handler outside the lock; a caller
  // deregistering (typically ~Node) must not return while one is still
  // running into the old handler's captures.
  fence_cv_.wait(lock, [&] { return it->second.active == 0; });
}

void Transport::clear_handler(NodeId node) {
  std::scoped_lock lock(state_mu_);
  if (auto it = endpoints_.find(node); it != endpoints_.end()) {
    it->second.handler = nullptr;
  }
}

void Transport::deliver(NodeId dst, NodeId src, Buffer payload) {
  Handler handler;
  Endpoint* endpoint = nullptr;
  {
    std::scoped_lock lock(state_mu_);
    auto it = endpoints_.find(dst);
    if (it == endpoints_.end() || !it->second.handler) {
      ++stats_.frames_dropped;
      return;
    }
    endpoint = &it->second;  // endpoints are never erased
    handler = endpoint->handler;
    ++endpoint->active;
    ++stats_.frames_delivered;
    stats_.bytes_delivered += payload.size();
  }
  handler(src, std::move(payload));  // outside the lock: handlers may post
  // Notify under the lock: once set_handler returns, its caller may tear the
  // whole transport down, condition variable included.
  std::scoped_lock lock(state_mu_);
  if (--endpoint->active == 0) fence_cv_.notify_all();
}

void Transport::count(std::uint64_t TransportStats::*counter, std::uint64_t n) {
  std::scoped_lock lock(state_mu_);
  stats_.*counter += n;
}

void Transport::count_posted(std::size_t bytes) {
  std::scoped_lock lock(state_mu_);
  ++stats_.frames_posted;
  stats_.bytes_posted += bytes;
}

TransportStats Transport::transport_stats() const {
  std::scoped_lock lock(state_mu_);
  return stats_;
}

std::uint64_t Transport::add_membership_listener(MembershipListener listener) {
  std::scoped_lock lock(listeners_mu_);
  const std::uint64_t token = next_listener_token_++;
  listeners_.emplace(token, std::move(listener));
  return token;
}

void Transport::remove_membership_listener(std::uint64_t token) {
  std::scoped_lock lock(listeners_mu_);
  listeners_.erase(token);
}

void Transport::notify_membership(NodeId peer, bool added) {
  // A departed node's named objects fail typed (kObjectNotFound) instead of
  // timing out against a dead address.
  if (!added) directory_->remove_node(peer);
  // Snapshot under the lock, invoke outside it: listeners post frames and
  // take node/batcher locks of their own.
  std::vector<MembershipListener> snapshot;
  {
    std::scoped_lock lock(listeners_mu_);
    snapshot.reserve(listeners_.size());
    for (const auto& [token, fn] : listeners_) snapshot.push_back(fn);
  }
  for (const auto& fn : snapshot) fn(peer, added);
}

}  // namespace alps::net
