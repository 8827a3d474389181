// Wire codec for alps::Value (the RPC substrate's serialization layer).
//
// Entry calls in ALPS are remote procedure calls (§1); the kernel's untyped
// ValueLists serialize to a compact tag-length-value format. Channels need
// help: a channel reference crossing the wire is encoded as its (home node,
// channel id) pair, and the ChannelResolver — implemented by net::Node —
// turns that pair back into a local reference or a forwarding proxy.
//
// Zero-copy assembly (DESIGN.md §4.9). Every frame is built through a
// FrameBuilder — the only send form: headers and small values are encoded
// into an inline arena, while large string/blob payloads ride as refcounted
// Buffer slices. The scatter-gather list is flattened at most once, by
// build(), into the wire vector (a socket transport writes the slices
// directly instead) — so a payload that travels through encode, a
// retransmit cache and a batch envelope is still written once. On the
// decode side, blob payloads of an *owned* frame buffer alias the frame
// instead of copying out of it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/buffer.h"
#include "core/value.h"
#include "net/transport.h"

namespace alps::net {

// ---- frame layer -----------------------------------------------------------
//
// Every frame payload starts with a one-byte MsgType followed by a typed
// header; requests and responses carry the fields the at-most-once layer
// needs (dedup epoch, ack watermark, error cause). The header codecs below
// are the single source of truth for that layout — rpc.cpp and the tests
// both go through them.

enum class MsgType : std::uint8_t {
  kRequest = 1,    ///< (header, params)        → Object::async_call
  kResponse = 2,   ///< (header, results|error) → completes the caller future
  kChanSend = 3,   ///< (chan_id, message)      → local channel send
  kAck = 4,        ///< (ack_through)           → dedup-table eviction
  kWrongNode = 5,  ///< (req_id, home, object)  → stale route; re-send to home
  kBatch = 6,      ///< (count, length-prefixed member frames) → coalesced link
};

/// Typed cause carried in a response header. kOk means results follow;
/// anything else means an error string follows. Values are wire-stable.
enum class WireCause : std::uint8_t {
  kOk = 0,
  kRemoteError = 1,     ///< entry body threw / no such entry / object stopped
  kObjectNotFound = 2,  ///< target node does not host the named object
  kTimeout = 3,         ///< call deadline expired inside the remote kernel
  kCancelled = 4,       ///< remote kernel revoked the call (CancelToken)
  kObjectDown = 5,      ///< target object quarantined after a manager failure
};

/// Response flag bits.
inline constexpr std::uint8_t kResponseFlagReplayed = 0x01;

/// Payloads at or above this size are carried as Buffer slices through
/// frame assembly (and aliased out of owned frames on decode); smaller ones
/// are cheaper to copy into the arena than to track as segments.
inline constexpr std::size_t kZeroCopySliceThreshold = 256;

/// A/B strawman switch for the payload benches: disabling zero-copy makes
/// append_slice copy into the arena and the decoder always materialize —
/// the seed data plane's behavior — so bench_payload can interleave both
/// modes in one binary. Defaults to enabled.
void set_zero_copy_data_plane(bool enabled);
bool zero_copy_data_plane();

/// Scatter-gather frame under assembly: an inline arena for headers and
/// small values, plus ordered Buffer slices for large payloads. Copyable —
/// a copy duplicates the arena (tens of bytes) and bumps slice refcounts,
/// which is what makes retransmit payloads and dedup response caches cheap
/// to keep. build() flattens into the single wire write and flushes the
/// data-plane counters (support/stats.h).
class FrameBuilder {
 public:
  FrameBuilder() = default;

  /// Adopts an already-encoded frame (vector move, no byte copy). The bytes
  /// land in the arena, so the result stays patchable.
  static FrameBuilder from_bytes(std::vector<std::uint8_t> bytes);

  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  /// u32 length prefix + bytes, into the arena.
  void put_string(const std::string& s);
  /// Raw bytes into the arena (no length prefix).
  void put_bytes(const void* data, std::size_t n);

  /// Appends payload bytes: referenced as a slice when zero-copy is on, the
  /// slice owns its storage and meets kZeroCopySliceThreshold; copied into
  /// the arena otherwise. (Borrowed views are always copied — the frame may
  /// outlive the caller's storage.)
  void append_slice(const Buffer& slice);

  /// Splices another builder's contents: its arena bytes are copied (header
  /// material), its slices are re-referenced. This is how a batch envelope
  /// absorbs member frames without re-copying their payloads.
  void append(const FrameBuilder& other);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Bytes held inline vs. referenced as slices (accounting/tests).
  std::size_t bytes_inline() const { return arena_.size(); }
  std::size_t bytes_referenced() const { return size_ - arena_.size(); }

  /// In-place header patches (ack watermark re-route, replay flag). The
  /// offset must fall inside the leading arena run — header fields always
  /// do, since headers are encoded before any payload slice. Throws
  /// Error(kBadMessage) otherwise.
  void patch_u64(std::size_t offset, std::uint64_t v);
  void patch_u8_or(std::size_t offset, std::uint8_t bits);

  /// Flattens the scatter-gather list into one contiguous wire vector (the
  /// data plane's single copy of referenced payloads).
  std::vector<std::uint8_t> build() const;

  /// One contiguous piece of the frame, in wire order. A writev-style send
  /// path hands these to the kernel directly — no gather ever happens.
  struct Segment {
    const void* data;
    std::size_t size;
  };

  /// Appends this frame's pieces (alternating arena runs and referenced
  /// slices) to `out` in wire order. The views stay valid only while this
  /// builder is alive and unmodified.
  void segments(std::vector<Segment>& out) const;

  /// Flushes the data-plane counters for a frame sent scattered (writev):
  /// arena/copied bytes count as copied, slices as referenced, and — the
  /// whole point — bytes_assembled advances by zero, because no contiguous
  /// frame was ever built. Call exactly once per wire send, in place of the
  /// flush build() would have done.
  void note_sent_scattered() const;

 private:
  struct Slice {
    std::size_t arena_prefix;  ///< arena bytes emitted before this slice
    Buffer bytes;
  };

  /// Frame bytes that are contiguous arena from offset 0 (patch window).
  std::size_t patchable_prefix() const {
    return slices_.empty() ? arena_.size() : slices_.front().arena_prefix;
  }

  std::vector<std::uint8_t> arena_;
  std::vector<Slice> slices_;
  std::size_t size_ = 0;
  /// Arena bytes re-copied by append() (envelope splices) — folded into
  /// bytes_copied at build so intermediate copies stay visible.
  std::size_t copied_extra_ = 0;
};

struct RequestHeader {
  std::uint64_t req_id = 0;
  std::uint64_t epoch = 0;        ///< caller's dedup epoch (see rpc.h)
  std::uint64_t ack_through = 0;  ///< caller will never retransmit ids <= this
  /// Caller's overall deadline in ms (0 = none). The serving node applies it
  /// to the hosted call via kernel CallOptions, so an expiry is detected
  /// where the work queues — the caller gets a typed kTimeout response
  /// instead of retransmitting into a stalled object.
  std::uint64_t deadline_ms = 0;
  std::string object;
  std::string entry;

  bool operator==(const RequestHeader&) const = default;
};

struct ResponseHeader {
  std::uint64_t req_id = 0;
  WireCause cause = WireCause::kOk;
  std::uint8_t flags = 0;

  bool operator==(const ResponseHeader&) const = default;
};

/// Appends the MsgType byte plus the header fields.
void encode_request_header(const RequestHeader& h, FrameBuilder& out);
void encode_response_header(const ResponseHeader& h, FrameBuilder& out);
void encode_ack(std::uint64_t ack_through, FrameBuilder& out);

/// Decoders assume the MsgType byte has already been consumed; they throw
/// Error(kBadMessage) on truncation or an out-of-range cause byte. Inputs
/// are Buffers — a plain byte vector converts to a borrowed view, an owned
/// Buffer (e.g. a received frame) additionally enables payload aliasing.
RequestHeader decode_request_header(const Buffer& in, std::size_t& pos);
ResponseHeader decode_response_header(const Buffer& in, std::size_t& pos);
std::uint64_t decode_ack(const Buffer& in, std::size_t& pos);

/// Typed redirect: the receiving node does not host `object`, but the
/// cluster directory says `home` does. Stateless on the server (no dedup
/// entry is created), so a duplicate request to a wrong node just earns a
/// duplicate redirect. The client refreshes its route cache and re-sends
/// the stored request frame to `home` — at most one extra hop per redirect,
/// never a server-side forwarding chain.
/// WrongNodeHeader::shard value for "not a shard redirect": the whole
/// object re-homed to `home` (single-home migration, the original form).
inline constexpr std::uint32_t kWrongNodeNoShard = 0xffffffffu;

struct WrongNodeHeader {
  std::uint64_t req_id = 0;
  std::uint64_t home = 0;  ///< the directory's current home for `object`
  std::string object;
  /// Shard hint: which shard of `object` the redirected key belongs to
  /// (kWrongNodeNoShard for whole-object redirects). Lets the client patch
  /// one slot of its cached shard map instead of dropping it, so a live
  /// shard split heals key by key with no global barrier.
  std::uint32_t shard = kWrongNodeNoShard;
  /// The answering directory's epoch for `object`; the client only applies
  /// a shard patch from an epoch at least as new as its cached map.
  std::uint64_t map_epoch = 0;

  bool operator==(const WrongNodeHeader&) const = default;
};

void encode_wrong_node(const WrongNodeHeader& h, FrameBuilder& out);
WrongNodeHeader decode_wrong_node(const Buffer& in, std::size_t& pos);

/// Batch frame: `count` member frames, each length-prefixed. Members are
/// complete frame payloads (type byte first) and must not themselves be
/// batches — the dispatch layer rejects nesting, so a hostile frame cannot
/// recurse. Decoders validate every length against the remaining bytes and
/// reject empty members (no type byte).
///
/// The envelope is scatter-gather: member headers/arenas are spliced, member
/// payload slices stay referenced — the whole batch is written once.
void encode_batch(const std::vector<FrameBuilder>& members, FrameBuilder& out);
/// Members as slices of `in` (zero-copy when `in` is owned), so member
/// decode can alias payloads of the original frame.
std::vector<Buffer> decode_batch_slices(const Buffer& in, std::size_t& pos);

// ---- stream framing (byte-stream transports) -------------------------------
//
// A socket carries a byte stream, not frames; this layer restores frame
// boundaries with a fixed 12-byte chunk header:
//
//   [u32 length][u64 src]  followed by `length - 8` payload bytes
//
// `length` counts the src field plus the payload, so a complete chunk is
// kStreamHeaderBytes - 8 + length bytes on the wire. The payload is a normal
// frame (MsgType byte first) and feeds the same dispatch path as a simulated
// delivery. Lengths are validated before any allocation: a corrupt or
// hostile peer can at worst cost kMaxStreamFrameBytes of buffering.

/// Fixed size of the chunk header: u32 length + u64 src.
inline constexpr std::size_t kStreamHeaderBytes = 12;

/// Upper bound on one stream frame's `length` field (64 MiB). Anything
/// larger is rejected as kBadMessage — a real frame never gets close, so an
/// oversized length means stream corruption or a hostile peer.
inline constexpr std::uint32_t kMaxStreamFrameBytes = 64u << 20;

/// Writes the chunk header for a frame of `payload_bytes` payload from
/// `src` into `out` (exactly kStreamHeaderBytes). Throws Error(kBadMessage)
/// if the frame would exceed kMaxStreamFrameBytes.
void encode_stream_header(NodeId src, std::size_t payload_bytes,
                          std::uint8_t out[kStreamHeaderBytes]);

/// Incremental reassembler for one connection's byte stream. feed() accepts
/// arbitrarily torn reads (a header split across reads, a payload arriving
/// in fragments, several frames in one read); next() yields complete frames
/// in order. Each frame's payload is an *owned* Buffer, so ≥256 B blob
/// decodes alias it exactly as they alias a simulated delivery. A connection
/// dying mid-frame simply drops the reassembler with the partial frame —
/// mid_frame() lets the owner count that.
class StreamReassembler {
 public:
  struct Message {
    NodeId src = 0;
    Buffer payload;  ///< owned; frame bytes (MsgType first)
  };

  /// Appends `n` raw bytes read from the stream. Throws Error(kBadMessage)
  /// on an oversized or undersized length field; the stream is then poisoned
  /// (every later feed rethrows) because byte-stream framing cannot resync.
  void feed(const void* data, std::size_t n);

  /// Next complete frame, if one is ready.
  std::optional<Message> next();

  /// True while a frame is partially buffered (torn header or body) — what
  /// a mid-frame connection drop abandons.
  bool mid_frame() const { return header_fill_ > 0 || body_ != nullptr; }

  /// Bytes buffered towards the current incomplete frame.
  std::size_t buffered_bytes() const;

 private:
  std::uint8_t header_[kStreamHeaderBytes];
  std::size_t header_fill_ = 0;
  /// Body under reassembly; shared so the completed frame's Buffer can
  /// alias it without a copy.
  std::shared_ptr<Blob> body_;
  std::size_t body_fill_ = 0;
  NodeId src_ = 0;
  std::vector<Message> ready_;
  std::size_t ready_pos_ = 0;
  bool poisoned_ = false;
};

// ---- peer handshake (byte-stream transports) -------------------------------
//
// The first bytes on every stream connection, before any framed traffic:
//
//   [u32 magic][u32 version][u64 node][u32 token_len][token bytes]
//
// The acceptor validates the hello before dispatching a single frame —
// unknown peers, protocol mismatches and bad cluster tokens are counted and
// disconnected instead of feeding the reassembler (DESIGN.md §4.11). The
// magic is checked as soon as its four bytes arrive and the token length is
// bounded, so a port-scanner or hostile connection costs at most
// kMaxHelloTokenBytes of buffering before it is dropped.

/// First four bytes of every ALPS stream connection ("ALPS", little-endian).
inline constexpr std::uint32_t kHelloMagic = 0x53504C41u;

/// Stream protocol version advertised and required by this build.
inline constexpr std::uint32_t kHelloVersion = 1;

/// Bound on the cluster token carried in a hello.
inline constexpr std::uint32_t kMaxHelloTokenBytes = 1024;

/// Fixed-size prefix of the hello: magic + version + node + token_len.
inline constexpr std::size_t kHelloFixedBytes = 4 + 4 + 8 + 4;

struct HelloFrame {
  std::uint32_t magic = kHelloMagic;
  std::uint32_t version = kHelloVersion;
  NodeId node = 0;        ///< the connecting side's claimed cluster id
  std::string token;      ///< pre-shared cluster token; empty = none

  bool operator==(const HelloFrame&) const = default;
};

/// Appends the wire form of `h` to `out`. Throws Error(kBadMessage) if the
/// token exceeds kMaxHelloTokenBytes.
void encode_hello(const HelloFrame& h, std::vector<std::uint8_t>& out);

/// Incremental hello decoder for one connection. feed() consumes hello bytes
/// from the front of [data, data+n) — advancing both — and returns true once
/// the hello is complete; the remaining bytes belong to the frame stream.
/// Accepts arbitrarily torn reads. Throws Error(kBadMessage) on a bad magic
/// (as soon as four bytes arrive) or an oversized token length; the reader is
/// then poisoned and every later feed rethrows.
class HelloReader {
 public:
  bool feed(const std::uint8_t*& data, std::size_t& n);
  bool done() const { return done_; }
  const HelloFrame& hello() const { return hello_; }

 private:
  std::vector<std::uint8_t> buf_;
  HelloFrame hello_;
  bool done_ = false;
  bool poisoned_ = false;
};

/// Byte offset of the flags field inside an encoded response payload
/// (type + req_id + cause); the server flips the replayed bit in its cached
/// copy without re-encoding the whole frame.
inline constexpr std::size_t kResponseFlagsOffset = 1 + 8 + 1;

/// Byte offset of ack_through inside an encoded request payload (type +
/// req_id + epoch). A kWrongNode re-route patches the piggybacked watermark
/// for the new target link in place, without re-encoding the params — the
/// req_id/epoch dedup key is deliberately untouched so at-most-once state
/// survives the re-route.
inline constexpr std::size_t kRequestAckOffset = 1 + 8 + 8;

/// Hook pair used when values may contain channels. encode_channel must
/// return a stable (node, id) naming; decode_channel must return a channel
/// that routes sends to that name.
class ChannelResolver {
 public:
  virtual ~ChannelResolver() = default;
  virtual std::pair<std::uint64_t, std::uint64_t> encode_channel(
      const ChannelRef& channel) = 0;
  virtual ChannelRef decode_channel(std::uint64_t node, std::uint64_t id) = 0;
};

/// Appends the encoding of `v`. Throws Error(kBadMessage) when a channel is
/// present and `resolver` is null. Large string/blob payloads become slices
/// of the builder (no byte copy).
void encode_value(const Value& v, FrameBuilder& out,
                  ChannelResolver* resolver = nullptr);

/// Decodes one value starting at `pos` (which advances past it). Throws
/// Error(kBadMessage) on malformed input. Blob payloads >=
/// kZeroCopySliceThreshold alias `in` when it owns its storage.
Value decode_value(const Buffer& in, std::size_t& pos,
                   ChannelResolver* resolver = nullptr);

void encode_list(const ValueList& list, FrameBuilder& out,
                 ChannelResolver* resolver = nullptr);

ValueList decode_list(const Buffer& in, std::size_t& pos,
                      ChannelResolver* resolver = nullptr);

// Primitive writers (the HELLO; tests crafting hostile bytes) and readers.
void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_string(std::vector<std::uint8_t>& out, const std::string& s);
std::uint8_t get_u8(const Buffer& in, std::size_t& pos);
std::uint32_t get_u32(const Buffer& in, std::size_t& pos);
std::uint64_t get_u64(const Buffer& in, std::size_t& pos);
std::string get_string(const Buffer& in, std::size_t& pos);

}  // namespace alps::net
