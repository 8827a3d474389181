#include "net/codec.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "core/error.h"
#include "support/stats.h"

namespace alps::net {

namespace {

std::atomic<bool> g_zero_copy{true};

/// Truncation guard, written so an attacker-controlled length field can
/// never overflow the comparison: `n` is checked against the *remaining*
/// bytes, not added to `pos` first.
void need(const Buffer& in, std::size_t pos, std::size_t n) {
  if (pos > in.size() || n > in.size() - pos) {
    raise(ErrorCode::kBadMessage, "truncated frame");
  }
}

}  // namespace

void set_zero_copy_data_plane(bool enabled) {
  g_zero_copy.store(enabled, std::memory_order_relaxed);
}

bool zero_copy_data_plane() {
  return g_zero_copy.load(std::memory_order_relaxed);
}

// ---- primitives ------------------------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::uint8_t get_u8(const Buffer& in, std::size_t& pos) {
  need(in, pos, 1);
  return in[pos++];
}

std::uint32_t get_u32(const Buffer& in, std::size_t& pos) {
  need(in, pos, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[pos++]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const Buffer& in, std::size_t& pos) {
  need(in, pos, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[pos++]) << (8 * i);
  return v;
}

std::string get_string(const Buffer& in, std::size_t& pos) {
  const std::uint32_t n = get_u32(in, pos);
  need(in, pos, n);
  std::string s(reinterpret_cast<const char*>(in.data() + pos), n);
  pos += n;
  return s;
}

// ---- FrameBuilder ----------------------------------------------------------

FrameBuilder FrameBuilder::from_bytes(std::vector<std::uint8_t> bytes) {
  FrameBuilder fb;
  fb.size_ = bytes.size();
  fb.arena_ = std::move(bytes);
  return fb;
}

void FrameBuilder::put_u8(std::uint8_t v) {
  arena_.push_back(v);
  ++size_;
}

void FrameBuilder::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    arena_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  size_ += 4;
}

void FrameBuilder::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    arena_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  size_ += 8;
}

void FrameBuilder::put_string(const std::string& s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(s.data(), s.size());
}

void FrameBuilder::put_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  arena_.insert(arena_.end(), p, p + n);
  size_ += n;
}

void FrameBuilder::append_slice(const Buffer& slice) {
  if (!zero_copy_data_plane() || !slice.owned() ||
      slice.size() < kZeroCopySliceThreshold) {
    put_bytes(slice.data(), slice.size());
    return;
  }
  slices_.push_back(Slice{arena_.size(), slice});
  size_ += slice.size();
}

void FrameBuilder::append(const FrameBuilder& other) {
  std::size_t consumed = 0;
  for (const auto& s : other.slices_) {
    put_bytes(other.arena_.data() + consumed, s.arena_prefix - consumed);
    consumed = s.arena_prefix;
    slices_.push_back(Slice{arena_.size(), s.bytes});
    size_ += s.bytes.size();
  }
  put_bytes(other.arena_.data() + consumed, other.arena_.size() - consumed);
  // The arena re-copy is a real intermediate copy; remember it so the
  // accounting at build() does not under-report envelope assembly.
  copied_extra_ += other.arena_.size() + other.copied_extra_;
}

void FrameBuilder::patch_u64(std::size_t offset, std::uint64_t v) {
  if (offset + 8 > patchable_prefix()) {
    raise(ErrorCode::kBadMessage, "frame patch outside header arena");
  }
  for (int i = 0; i < 8; ++i) {
    arena_[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void FrameBuilder::patch_u8_or(std::size_t offset, std::uint8_t bits) {
  if (offset >= patchable_prefix()) {
    raise(ErrorCode::kBadMessage, "frame patch outside header arena");
  }
  arena_[offset] |= bits;
}

std::vector<std::uint8_t> FrameBuilder::build() const {
  std::vector<std::uint8_t> out;
  out.reserve(size_);
  std::size_t consumed = 0;
  std::size_t referenced = 0;
  for (const auto& s : slices_) {
    out.insert(out.end(), arena_.begin() + static_cast<std::ptrdiff_t>(consumed),
               arena_.begin() + static_cast<std::ptrdiff_t>(s.arena_prefix));
    consumed = s.arena_prefix;
    out.insert(out.end(), s.bytes.begin(), s.bytes.end());
    referenced += s.bytes.size();
  }
  out.insert(out.end(), arena_.begin() + static_cast<std::ptrdiff_t>(consumed),
             arena_.end());
  auto& dp = support::data_plane();
  dp.bytes_copied.add(arena_.size() + copied_extra_);
  dp.bytes_referenced.add(referenced);
  dp.frames_assembled.add(1);
  dp.bytes_assembled.add(size_);
  return out;
}

void FrameBuilder::segments(std::vector<Segment>& out) const {
  std::size_t consumed = 0;
  for (const auto& s : slices_) {
    if (s.arena_prefix > consumed) {
      out.push_back(Segment{arena_.data() + consumed, s.arena_prefix - consumed});
    }
    consumed = s.arena_prefix;
    if (!s.bytes.empty()) {
      out.push_back(Segment{s.bytes.data(), s.bytes.size()});
    }
  }
  if (arena_.size() > consumed) {
    out.push_back(Segment{arena_.data() + consumed, arena_.size() - consumed});
  }
}

void FrameBuilder::note_sent_scattered() const {
  std::size_t referenced = 0;
  for (const auto& s : slices_) referenced += s.bytes.size();
  auto& dp = support::data_plane();
  dp.bytes_copied.add(arena_.size() + copied_extra_);
  dp.bytes_referenced.add(referenced);
  dp.frames_assembled.add(1);
  // bytes_assembled deliberately stays put: the scatter list went to the
  // wire as-is, the final gather never happened.
}

// ---- frame headers ---------------------------------------------------------

void encode_request_header(const RequestHeader& h, FrameBuilder& out) {
  out.put_u8(static_cast<std::uint8_t>(MsgType::kRequest));
  out.put_u64(h.req_id);
  out.put_u64(h.epoch);
  out.put_u64(h.ack_through);
  out.put_u64(h.deadline_ms);
  out.put_string(h.object);
  out.put_string(h.entry);
}

RequestHeader decode_request_header(const Buffer& in, std::size_t& pos) {
  RequestHeader h;
  h.req_id = get_u64(in, pos);
  h.epoch = get_u64(in, pos);
  h.ack_through = get_u64(in, pos);
  h.deadline_ms = get_u64(in, pos);
  h.object = get_string(in, pos);
  h.entry = get_string(in, pos);
  return h;
}

void encode_response_header(const ResponseHeader& h, FrameBuilder& out) {
  out.put_u8(static_cast<std::uint8_t>(MsgType::kResponse));
  out.put_u64(h.req_id);
  out.put_u8(static_cast<std::uint8_t>(h.cause));
  out.put_u8(h.flags);
}

ResponseHeader decode_response_header(const Buffer& in, std::size_t& pos) {
  ResponseHeader h;
  h.req_id = get_u64(in, pos);
  const std::uint8_t cause = get_u8(in, pos);
  if (cause > static_cast<std::uint8_t>(WireCause::kObjectDown)) {
    raise(ErrorCode::kBadMessage, "unknown response cause");
  }
  h.cause = static_cast<WireCause>(cause);
  h.flags = get_u8(in, pos);
  return h;
}

void encode_wrong_node(const WrongNodeHeader& h, FrameBuilder& out) {
  out.put_u8(static_cast<std::uint8_t>(MsgType::kWrongNode));
  out.put_u64(h.req_id);
  out.put_u64(h.home);
  out.put_string(h.object);
  out.put_u32(h.shard);
  out.put_u64(h.map_epoch);
}

WrongNodeHeader decode_wrong_node(const Buffer& in, std::size_t& pos) {
  WrongNodeHeader h;
  h.req_id = get_u64(in, pos);
  h.home = get_u64(in, pos);
  h.object = get_string(in, pos);
  h.shard = get_u32(in, pos);
  h.map_epoch = get_u64(in, pos);
  return h;
}

void encode_batch(const std::vector<FrameBuilder>& members,
                  FrameBuilder& out) {
  out.put_u8(static_cast<std::uint8_t>(MsgType::kBatch));
  out.put_u32(static_cast<std::uint32_t>(members.size()));
  for (const auto& m : members) {
    out.put_u32(static_cast<std::uint32_t>(m.size()));
    out.append(m);
  }
}

std::vector<Buffer> decode_batch_slices(const Buffer& in, std::size_t& pos) {
  const std::uint32_t n = get_u32(in, pos);
  // Each member costs at least its 4-byte length prefix plus a type byte;
  // a count beyond the remaining bytes is a corrupt frame, not a reserve().
  if (n > in.size() - pos) {
    raise(ErrorCode::kBadMessage, "batch count exceeds frame size");
  }
  std::vector<Buffer> members;
  members.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t len = get_u32(in, pos);
    if (len == 0) {
      raise(ErrorCode::kBadMessage, "empty batch member");
    }
    need(in, pos, len);
    members.push_back(in.slice(pos, len));
    pos += len;
  }
  return members;
}

void encode_ack(std::uint64_t ack_through, FrameBuilder& out) {
  out.put_u8(static_cast<std::uint8_t>(MsgType::kAck));
  out.put_u64(ack_through);
}

std::uint64_t decode_ack(const Buffer& in, std::size_t& pos) {
  return get_u64(in, pos);
}

// ---- values ----------------------------------------------------------------

void encode_value(const Value& v, FrameBuilder& out,
                  ChannelResolver* resolver) {
  out.put_u8(static_cast<std::uint8_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kNil:
      return;
    case ValueKind::kBool:
      out.put_u8(v.as_bool() ? 1 : 0);
      return;
    case ValueKind::kInt:
      out.put_u64(static_cast<std::uint64_t>(v.as_int()));
      return;
    case ValueKind::kReal: {
      std::uint64_t bits;
      const double d = v.as_real();
      std::memcpy(&bits, &d, sizeof bits);
      out.put_u64(bits);
      return;
    }
    case ValueKind::kString: {
      // Large strings ride as slices of their shared storage — the Value
      // keeps the payload alive for as long as any frame references it.
      // A frame-aliased string re-encodes from its original frame window,
      // never materializing a std::string.
      Buffer bytes = v.string_bytes();
      out.put_u32(static_cast<std::uint32_t>(bytes.size()));
      out.append_slice(std::move(bytes));
      return;
    }
    case ValueKind::kBlob: {
      const Buffer& b = v.as_blob();
      out.put_u32(static_cast<std::uint32_t>(b.size()));
      out.append_slice(b);
      return;
    }
    case ValueKind::kList: {
      const ValueList& list = v.as_list();
      out.put_u32(static_cast<std::uint32_t>(list.size()));
      for (const auto& x : list) encode_value(x, out, resolver);
      return;
    }
    case ValueKind::kChannel: {
      if (!resolver) {
        raise(ErrorCode::kBadMessage,
              "channel in value but no channel resolver supplied");
      }
      auto [node, id] = resolver->encode_channel(v.as_channel());
      out.put_u64(node);
      out.put_u64(id);
      return;
    }
  }
  raise(ErrorCode::kBadMessage, "unencodable value kind");
}

Value decode_value(const Buffer& in, std::size_t& pos,
                   ChannelResolver* resolver) {
  const auto kind = static_cast<ValueKind>(get_u8(in, pos));
  switch (kind) {
    case ValueKind::kNil:
      return Value();
    case ValueKind::kBool:
      return Value(get_u8(in, pos) != 0);
    case ValueKind::kInt:
      return Value(static_cast<std::int64_t>(get_u64(in, pos)));
    case ValueKind::kReal: {
      const std::uint64_t bits = get_u64(in, pos);
      double d;
      std::memcpy(&d, &bits, sizeof d);
      return Value(d);
    }
    case ValueKind::kString: {
      const std::uint32_t n = get_u32(in, pos);
      need(in, pos, n);
      if (zero_copy_data_plane() && in.owned() &&
          n >= kZeroCopySliceThreshold) {
        // Like blobs: alias the owned frame instead of copying. The copy
        // happens only if someone later insists on the std::string form
        // (as_string), and is counted there.
        Buffer bytes = in.slice(pos, n);
        pos += n;
        support::data_plane().bytes_referenced.add(n);
        return Value::aliased_string(std::move(bytes));
      }
      // Small or borrowed: materialize directly into the shared storage the
      // Value will hand out — one copy, no re-wrap.
      auto s = std::make_shared<const std::string>(
          reinterpret_cast<const char*>(in.data() + pos), n);
      pos += n;
      support::data_plane().bytes_copied.add(n);
      return Value(std::move(s));
    }
    case ValueKind::kBlob: {
      const std::uint32_t n = get_u32(in, pos);
      need(in, pos, n);
      if (zero_copy_data_plane() && in.owned() &&
          n >= kZeroCopySliceThreshold) {
        // Alias the received frame: the blob Value shares the frame's
        // storage and keeps it alive. The whole frame stays resident while
        // any such Value lives — the standard slice-aliasing tradeoff.
        Buffer b = in.slice(pos, n);
        pos += n;
        support::data_plane().bytes_referenced.add(n);
        return Value(std::move(b));
      }
      Blob b(in.begin() + static_cast<std::ptrdiff_t>(pos),
             in.begin() + static_cast<std::ptrdiff_t>(pos + n));
      pos += n;
      support::data_plane().bytes_copied.add(n);
      return Value(std::move(b));
    }
    case ValueKind::kList: {
      const std::uint32_t n = get_u32(in, pos);
      // Every encoded value occupies at least its 1-byte tag; a count that
      // exceeds the remaining bytes is a corrupt (or malicious) frame. This
      // check is what keeps a flipped count byte from becoming a multi-GiB
      // reserve() — a decode bomb.
      if (n > in.size() - pos) {
        raise(ErrorCode::kBadMessage, "list count exceeds frame size");
      }
      ValueList list;
      list.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        list.push_back(decode_value(in, pos, resolver));
      }
      return Value(std::move(list));
    }
    case ValueKind::kChannel: {
      if (!resolver) {
        raise(ErrorCode::kBadMessage,
              "channel in value but no channel resolver supplied");
      }
      const std::uint64_t node = get_u64(in, pos);
      const std::uint64_t id = get_u64(in, pos);
      return Value(resolver->decode_channel(node, id));
    }
  }
  raise(ErrorCode::kBadMessage, "unknown value tag");
}

void encode_list(const ValueList& list, FrameBuilder& out,
                 ChannelResolver* resolver) {
  out.put_u32(static_cast<std::uint32_t>(list.size()));
  for (const auto& v : list) encode_value(v, out, resolver);
}

ValueList decode_list(const Buffer& in, std::size_t& pos,
                      ChannelResolver* resolver) {
  const std::uint32_t n = get_u32(in, pos);
  if (n > in.size() - pos) {
    raise(ErrorCode::kBadMessage, "list count exceeds frame size");
  }
  ValueList list;
  list.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    list.push_back(decode_value(in, pos, resolver));
  }
  return list;
}

// ---- stream framing --------------------------------------------------------

void encode_stream_header(NodeId src, std::size_t payload_bytes,
                          std::uint8_t out[kStreamHeaderBytes]) {
  if (payload_bytes > kMaxStreamFrameBytes - 8) {
    raise(ErrorCode::kBadMessage, "stream frame exceeds the size bound");
  }
  if (payload_bytes == 0) {
    // Every real payload starts with a MsgType byte; the reassembler rejects
    // length 8 as corruption, so refuse to produce it.
    raise(ErrorCode::kBadMessage, "stream frame with empty payload");
  }
  const auto length = static_cast<std::uint32_t>(payload_bytes + 8);
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    out[4 + i] = static_cast<std::uint8_t>(src >> (8 * i));
  }
}

void StreamReassembler::feed(const void* data, std::size_t n) {
  if (poisoned_) {
    raise(ErrorCode::kBadMessage, "stream poisoned by an earlier bad length");
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    if (body_ == nullptr) {
      // Accumulating a (possibly torn) chunk header.
      const std::size_t take = std::min(n, kStreamHeaderBytes - header_fill_);
      std::memcpy(header_ + header_fill_, p, take);
      header_fill_ += take;
      p += take;
      n -= take;
      if (header_fill_ < kStreamHeaderBytes) return;
      std::uint32_t length = 0;
      for (int i = 0; i < 4; ++i) {
        length |= static_cast<std::uint32_t>(header_[i]) << (8 * i);
      }
      src_ = 0;
      for (int i = 0; i < 8; ++i) {
        src_ |= static_cast<NodeId>(header_[4 + i]) << (8 * i);
      }
      if (length > kMaxStreamFrameBytes) {
        // A wild length field means the stream is desynced; there is no way
        // to find the next frame boundary, so refuse everything from here on
        // (the owning connection tears down). Poison events are counted
        // process-wide so corruption is observable, never silent.
        poisoned_ = true;
        support::net_health().streams_poisoned.add();
        raise(ErrorCode::kBadMessage,
              "stream frame length " + std::to_string(length) +
                  " exceeds the " + std::to_string(kMaxStreamFrameBytes) +
                  " byte bound");
      }
      if (length < 9) {
        // Shorter than src + one MsgType byte: no valid frame fits.
        poisoned_ = true;
        support::net_health().streams_poisoned.add();
        raise(ErrorCode::kBadMessage, "stream frame length too small");
      }
      header_fill_ = 0;
      body_ = std::make_shared<Blob>(length - 8);
      body_fill_ = 0;
    }
    const std::size_t take = std::min(n, body_->size() - body_fill_);
    std::memcpy(body_->data() + body_fill_, p, take);
    body_fill_ += take;
    p += take;
    n -= take;
    if (body_fill_ == body_->size()) {
      ready_.push_back(Message{src_, Buffer::from_shared(
                                         std::shared_ptr<const Blob>(body_))});
      body_.reset();
      body_fill_ = 0;
    }
  }
}

std::optional<StreamReassembler::Message> StreamReassembler::next() {
  if (ready_pos_ >= ready_.size()) {
    ready_.clear();
    ready_pos_ = 0;
    return std::nullopt;
  }
  return std::move(ready_[ready_pos_++]);
}

std::size_t StreamReassembler::buffered_bytes() const {
  return header_fill_ + body_fill_;
}

// ---- peer handshake --------------------------------------------------------

void encode_hello(const HelloFrame& h, std::vector<std::uint8_t>& out) {
  if (h.token.size() > kMaxHelloTokenBytes) {
    raise(ErrorCode::kBadMessage, "hello token exceeds the size bound");
  }
  put_u32(out, h.magic);
  put_u32(out, h.version);
  put_u64(out, h.node);
  put_u32(out, static_cast<std::uint32_t>(h.token.size()));
  out.insert(out.end(), h.token.begin(), h.token.end());
}

bool HelloReader::feed(const std::uint8_t*& data, std::size_t& n) {
  if (poisoned_) {
    raise(ErrorCode::kBadMessage, "hello poisoned by earlier bad bytes");
  }
  if (done_) return true;
  const auto read_u32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(buf_[at + i]) << (8 * i);
    }
    return v;
  };
  while (n > 0) {
    // Accumulate the fixed prefix first; the token length then tells us the
    // total size. Validate each field as soon as its bytes arrive so a
    // hostile connection is rejected at the earliest possible byte.
    std::size_t want = buf_.size() < kHelloFixedBytes
                           ? kHelloFixedBytes
                           : kHelloFixedBytes + read_u32(kHelloFixedBytes - 4);
    const std::size_t take = std::min(n, want - buf_.size());
    buf_.insert(buf_.end(), data, data + take);
    data += take;
    n -= take;
    if (buf_.size() >= 4 && read_u32(0) != kHelloMagic) {
      poisoned_ = true;
      raise(ErrorCode::kBadMessage, "bad hello magic");
    }
    if (buf_.size() < kHelloFixedBytes) return false;
    const std::uint32_t token_len = read_u32(kHelloFixedBytes - 4);
    if (token_len > kMaxHelloTokenBytes) {
      // Bounded before any token allocation: an oversized length is
      // corruption (or hostility), not a frame to buffer.
      poisoned_ = true;
      raise(ErrorCode::kBadMessage, "hello token length exceeds the bound");
    }
    if (buf_.size() < kHelloFixedBytes + token_len) continue;
    hello_.magic = read_u32(0);
    hello_.version = read_u32(4);
    hello_.node = 0;
    for (int i = 0; i < 8; ++i) {
      hello_.node |= static_cast<NodeId>(buf_[8 + i]) << (8 * i);
    }
    hello_.token.assign(buf_.begin() + kHelloFixedBytes, buf_.end());
    buf_.clear();
    buf_.shrink_to_fit();
    done_ = true;
    return true;
  }
  return done_;
}

}  // namespace alps::net
