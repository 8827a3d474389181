#include "net/transport.h"

#include "net/codec.h"

namespace alps::net {

void Transport::post(NodeId src, NodeId dst, const FrameBuilder& frame) {
  // Generic fallback: flatten the scatter-gather list into one contiguous
  // payload. This is the data plane's single gather (bytes_assembled);
  // stream transports override to skip it.
  post(Frame{src, dst, frame.build()});
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
