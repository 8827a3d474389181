#include "net/batch.h"

#include "net/codec.h"
#include "support/thread_util.h"

namespace alps::net {

FrameBatcher::FrameBatcher(BatchOptions options, PostFn post)
    : options_(options), post_(std::move(post)) {
  if (options_.max_frames == 0) options_.max_frames = 1;
  flusher_thread_ =
      std::jthread([this](std::stop_token st) { flusher(st); });
}

FrameBatcher::~FrameBatcher() {
  flusher_thread_.request_stop();
  cv_.notify_all();
  if (flusher_thread_.joinable()) flusher_thread_.join();
  flush_all();  // residue goes out, late but never lost at this layer
}

void FrameBatcher::collect_locked(NodeId dst, LinkBuffer& buf,
                                  std::vector<Flush>& out) {
  if (buf.members.empty()) return;
  if (buf.members.size() == 1) {
    out.emplace_back(dst, std::move(buf.members.front()));
    ++stats_.singles_posted;
  } else {
    // One envelope, still in scatter-gather form: member headers splice into
    // the envelope's arena, member payload slices stay referenced. Whether
    // the members' bytes ever hit contiguous memory is the transport's call
    // (the sim builds once at post; a socket writes the segments directly).
    FrameBuilder envelope;
    encode_batch(buf.members, envelope);
    stats_.frames_coalesced += buf.members.size();
    ++stats_.batches_posted;
    out.emplace_back(dst, std::move(envelope));
  }
  buf.members.clear();
  buf.bytes = 0;
}

void FrameBatcher::enqueue(NodeId dst, FrameBuilder frame) {
  std::vector<Flush> out;
  {
    std::scoped_lock lock(mu_);
    LinkBuffer& buf = buffers_[dst];
    if (buf.members.empty()) {
      buf.oldest = std::chrono::steady_clock::now();
      cv_.notify_all();  // the flusher may need an earlier deadline
    }
    buf.bytes += frame.size();
    buf.members.push_back(std::move(frame));
    ++stats_.frames_enqueued;
    if (buf.members.size() >= options_.max_frames ||
        buf.bytes >= options_.max_bytes) {
      ++stats_.size_flushes;
      collect_locked(dst, buf, out);
    }
  }
  for (auto& [to, p] : out) post_(to, std::move(p));
}

void FrameBatcher::flush_all() {
  std::vector<Flush> out;
  {
    std::scoped_lock lock(mu_);
    for (auto& [dst, buf] : buffers_) collect_locked(dst, buf, out);
  }
  for (auto& [to, p] : out) post_(to, std::move(p));
}

void FrameBatcher::flush_peer(NodeId dst) {
  std::vector<Flush> out;
  {
    std::scoped_lock lock(mu_);
    auto it = buffers_.find(dst);
    if (it == buffers_.end()) return;
    collect_locked(dst, it->second, out);
    buffers_.erase(it);  // a departed peer's buffer does not linger
  }
  for (auto& [to, p] : out) post_(to, std::move(p));
}

void FrameBatcher::flusher(const std::stop_token& st) {
  support::set_current_thread_name("net/batch");
  std::unique_lock lock(mu_);
  while (!st.stop_requested()) {
    auto next_due = std::chrono::steady_clock::time_point::max();
    for (const auto& [dst, buf] : buffers_) {
      if (buf.members.empty()) continue;
      const auto due = buf.oldest + options_.flush_interval;
      if (due < next_due) next_due = due;
    }
    if (next_due == std::chrono::steady_clock::time_point::max()) {
      cv_.wait(lock, [&] {
        if (st.stop_requested()) return true;
        for (const auto& [dst, buf] : buffers_) {
          if (!buf.members.empty()) return true;
        }
        return false;
      });
      continue;
    }
    if (std::chrono::steady_clock::now() < next_due) {
      cv_.wait_until(lock, next_due);
      continue;
    }
    // Flush every link whose oldest member has aged past the interval.
    std::vector<Flush> out;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [dst, buf] : buffers_) {
      if (buf.members.empty()) continue;
      if (buf.oldest + options_.flush_interval <= now) {
        ++stats_.interval_flushes;
        collect_locked(dst, buf, out);
      }
    }
    lock.unlock();
    for (auto& [to, p] : out) post_(to, std::move(p));
    lock.lock();
  }
}

FrameBatcher::Stats FrameBatcher::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

}  // namespace alps::net
