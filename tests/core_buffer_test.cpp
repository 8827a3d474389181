// Tests for the zero-copy data plane's foundation (DESIGN.md §4.9):
// Buffer aliasing and ownership, Value payload sharing (mutation is
// construction — no copy-on-write ambushes), FrameBuilder scatter-gather
// assembly, batch envelopes with mixed small/large members, and cross-thread
// payload release (the TSan sweep runs this binary).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/buffer.h"
#include "core/error.h"
#include "core/value.h"
#include "net/codec.h"
#include "support/stats.h"

namespace alps {
namespace {

using net::FrameBuilder;
using net::kZeroCopySliceThreshold;

Blob pattern_blob(std::size_t n, std::uint8_t seed = 7) {
  Blob b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return b;
}

/// Restores the global zero-copy switch even when a test fails mid-way.
struct ZeroCopyGuard {
  explicit ZeroCopyGuard(bool enabled) { net::set_zero_copy_data_plane(enabled); }
  ~ZeroCopyGuard() { net::set_zero_copy_data_plane(true); }
};

// ---- Buffer semantics ------------------------------------------------------

TEST(Buffer, AdoptSharesStorageAcrossCopiesAndSlices) {
  Buffer a = Buffer::adopt(pattern_blob(1024));
  EXPECT_TRUE(a.owned());
  EXPECT_EQ(a.use_count(), 1);

  Buffer b = a;  // refcount bump, same bytes
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(b.data(), a.data());

  Buffer mid = a.slice(100, 300);
  EXPECT_EQ(a.use_count(), 3);
  EXPECT_TRUE(mid.shares_storage_with(a));
  EXPECT_EQ(mid.size(), 300u);
  EXPECT_EQ(mid.data(), a.data() + 100);
  EXPECT_EQ(mid[0], a[100]);
}

TEST(Buffer, SliceOutOfRangeThrowsTyped) {
  Buffer a = Buffer::adopt(pattern_blob(64));
  EXPECT_NO_THROW(a.slice(64, 0));  // empty window at the end is fine
  try {
    a.slice(60, 5);
    FAIL() << "slice past the end must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadMessage);
  }
  // Offset overflow must not wrap around the length check.
  EXPECT_THROW(a.slice(~std::size_t{0}, 2), Error);
}

TEST(Buffer, BorrowedViewsDoNotOwnOrShare) {
  const Blob bytes = pattern_blob(128);
  Buffer v1 = bytes;  // implicit borrowed view
  Buffer v2 = Buffer::view(bytes.data(), bytes.size());
  EXPECT_FALSE(v1.owned());
  EXPECT_EQ(v1.use_count(), 0);
  EXPECT_FALSE(v1.shares_storage_with(v2));  // views never report sharing
  EXPECT_TRUE(v1 == v2);                     // but contents compare equal
  EXPECT_TRUE(v1 == bytes);
}

TEST(Buffer, CopyOfAndToBlobAreIndependent) {
  Blob original = pattern_blob(256);
  Buffer a = Buffer::copy_of(original.data(), original.size());
  original[0] ^= 0xFF;  // mutating the source must not reach the copy
  EXPECT_NE(a[0], original[0]);

  Blob out = a.to_blob();
  EXPECT_NE(out.data(), a.data());
  EXPECT_TRUE(a == out);
}

TEST(Buffer, EqualityIsDeepAndSizeAware) {
  Buffer a = Buffer::adopt(pattern_blob(300, 1));
  Buffer b = Buffer::adopt(pattern_blob(300, 1));
  Buffer c = Buffer::adopt(pattern_blob(300, 2));
  EXPECT_FALSE(a.shares_storage_with(b));
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == a.slice(0, 299));
}

// ---- Value payload sharing -------------------------------------------------

TEST(ValueSharing, CopyingValuesBumpsRefcountsNotBytes) {
  Value v(pattern_blob(1 << 20));  // 1 MB blob
  EXPECT_EQ(v.as_blob().use_count(), 1);

  Value w = v;
  ValueList list{v, w};
  // v, w, and both list elements all alias one storage block.
  EXPECT_EQ(v.as_blob().use_count(), 4);
  EXPECT_EQ(list[0].as_blob().data(), v.as_blob().data());
}

TEST(ValueSharing, MutationIsConstructionNotCopyOnWrite) {
  Value original(std::string(4096, 'x'));
  Value shared = original;
  const std::string* payload = &original.as_string();
  EXPECT_EQ(&shared.as_string(), payload);  // genuinely shared

  // "Mutating" one holder rebinds it to a brand-new payload; the other
  // holder's bytes are untouched (immutability makes COW unnecessary).
  shared = Value(std::string(4096, 'y'));
  EXPECT_EQ(&original.as_string(), payload);
  EXPECT_EQ(original.as_string()[0], 'x');
  EXPECT_EQ(shared.as_string()[0], 'y');
}

TEST(ValueSharing, SharedStringOutlivesEveryValueHolder) {
  std::shared_ptr<const std::string> kept;
  {
    Value v(std::string(1000, 'z'));
    kept = v.shared_string();
  }
  // The Value died; the payload did not.
  EXPECT_EQ(kept->size(), 1000u);
  EXPECT_EQ((*kept)[999], 'z');
}

TEST(ValueSharing, CrossThreadCopyAndRelease) {
  // Hammer copy/release of one shared payload from many threads; the last
  // release frequently lands off the owning thread. TSan validates the
  // refcount discipline; the final use_count validates no leaks of shares.
  Value v(pattern_blob(1 << 18));
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&v] {
      for (int i = 0; i < kItersPerThread; ++i) {
        Value copy = v;                     // acquire on this thread
        Value moved = std::move(copy);      // transfer within the thread
        ASSERT_EQ(moved.as_blob()[0], v.as_blob()[0]);  // read the bytes
      }                                     // release on this thread
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(v.as_blob().use_count(), 1);
}

TEST(ValueSharing, ParamListFanOutSharesOnePayload) {
  // The manager/select hot path copies parameter prefixes; with shared
  // payloads that is O(participants) pointer work regardless of payload size.
  Value big(pattern_blob(1 << 20));
  ValueList params{big, Value(std::int64_t{7})};
  ValueList captured;
  captured.assign(params.begin(), params.end());  // the accept-prefix copy
  EXPECT_EQ(captured[0].as_blob().data(), big.as_blob().data());
  EXPECT_EQ(big.as_blob().use_count(), 3);  // big + params[0] + captured[0]
}

// ---- FrameBuilder assembly -------------------------------------------------

TEST(FrameBuilderTest, LargePayloadsRideAsSlicesSmallOnesInline) {
  Value small(pattern_blob(kZeroCopySliceThreshold - 1));
  Value large(pattern_blob(4096));

  FrameBuilder fb;
  net::encode_list({small, large}, fb);
  EXPECT_EQ(fb.bytes_referenced(), 4096u);
  EXPECT_LT(fb.bytes_inline(), 2 * kZeroCopySliceThreshold);

  // The gather must reproduce the all-inline encoding byte for byte.
  FrameBuilder eager;
  {
    ZeroCopyGuard off(false);
    net::encode_list({small, large}, eager);
  }
  EXPECT_EQ(eager.bytes_referenced(), 0u);
  EXPECT_EQ(fb.build(), eager.build());
}

TEST(FrameBuilderTest, CopyingABuilderSharesItsSlices) {
  Value large(pattern_blob(1 << 16));
  FrameBuilder fb;
  net::encode_list({large}, fb);
  EXPECT_EQ(large.as_blob().use_count(), 2);  // value + the builder's slice

  FrameBuilder retransmit = fb;  // the rpc retry path's per-attempt copy
  EXPECT_EQ(large.as_blob().use_count(), 3);
  EXPECT_EQ(retransmit.build(), fb.build());
}

TEST(FrameBuilderTest, PatchesConfinedToHeaderArena) {
  FrameBuilder fb;
  net::encode_request_header(
      net::RequestHeader{1, 2, 3, 0, "Obj", "Entry"}, fb);
  net::encode_list({Value(pattern_blob(4096))}, fb);
  ASSERT_GT(fb.bytes_referenced(), 0u);

  fb.patch_u64(net::kRequestAckOffset, 42);  // in the header arena: fine
  std::size_t pos = 1;
  const auto wire = fb.build();
  EXPECT_EQ(net::decode_request_header(wire, pos).ack_through, 42u);

  // Past the first slice boundary the frame is not contiguous arena.
  EXPECT_THROW(fb.patch_u64(fb.size() - 8, 0), Error);
}

TEST(FrameBuilderTest, ZeroCopyDisabledCopiesEverythingInline) {
  ZeroCopyGuard off(false);
  FrameBuilder fb;
  net::encode_list({Value(pattern_blob(1 << 16))}, fb);
  EXPECT_EQ(fb.bytes_referenced(), 0u);
  EXPECT_EQ(fb.bytes_inline(), fb.size());
}

TEST(FrameBuilderTest, BuildFlushesDataPlaneCounters) {
  auto& dp = support::data_plane();
  dp.reset();
  FrameBuilder fb;
  net::encode_list({Value(pattern_blob(1 << 16)), Value(std::int64_t{1})}, fb);
  const auto wire = fb.build();
  EXPECT_EQ(dp.frames_assembled.get(), 1u);
  EXPECT_EQ(dp.bytes_assembled.get(), wire.size());
  EXPECT_EQ(dp.bytes_referenced.get(), std::uint64_t{1} << 16);
  EXPECT_EQ(dp.bytes_copied.get(), wire.size() - (std::uint64_t{1} << 16));
}

// ---- decode aliasing -------------------------------------------------------

TEST(DecodeAliasing, MegabyteBlobRoundTripsAliasingTheFrame) {
  const Blob payload = pattern_blob(1 << 20);
  FrameBuilder fb;
  net::encode_list({Value(payload)}, fb);
  std::vector<std::uint8_t> wire = fb.build();

  // Received frames are owned buffers; blob decode aliases them.
  Buffer frame = Buffer::adopt(std::move(wire));
  std::size_t pos = 0;
  ValueList out = net::decode_list(frame, pos);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(pos, frame.size());
  EXPECT_TRUE(out[0].as_blob().shares_storage_with(frame));
  EXPECT_TRUE(out[0].as_blob() == payload);

  // The Value keeps the frame alive after the last Buffer handle drops.
  Value survivor = out[0];
  out.clear();
  frame = Buffer();
  EXPECT_TRUE(survivor.as_blob() == payload);
}

TEST(DecodeAliasing, BorrowedInputsAlwaysMaterialize) {
  const Blob payload = pattern_blob(1 << 20);
  FrameBuilder fb;
  net::encode_list({Value(payload)}, fb);
  std::vector<std::uint8_t> wire = fb.build();

  std::size_t pos = 0;
  ValueList out = net::decode_list(wire, pos);  // borrowed view input
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].as_blob().owned());
  // Materialized: its bytes live outside the wire vector.
  const auto* lo = wire.data();
  const auto* hi = wire.data() + wire.size();
  EXPECT_TRUE(out[0].as_blob().data() < lo || out[0].as_blob().data() >= hi);
  EXPECT_TRUE(out[0].as_blob() == payload);
}

TEST(DecodeAliasing, SmallBlobsCopyOutOfOwnedFrames) {
  FrameBuilder fb;
  net::encode_list({Value(pattern_blob(kZeroCopySliceThreshold - 1))}, fb);
  std::vector<std::uint8_t> wire = fb.build();
  Buffer frame = Buffer::adopt(std::move(wire));
  std::size_t pos = 0;
  ValueList out = net::decode_list(frame, pos);
  EXPECT_FALSE(out[0].as_blob().shares_storage_with(frame));
}

TEST(DecodeAliasing, LargeStringsAliasOwnedFramesLikeBlobs) {
  // Satellite regression: received string payloads ≥ the slice threshold
  // must alias the owned frame (bytes_referenced), exactly like blobs —
  // not memcpy into a fresh std::string (bytes_copied).
  const std::string payload(1 << 20, 'q');
  FrameBuilder fb;
  net::encode_list({Value(payload)}, fb);
  std::vector<std::uint8_t> wire = fb.build();

  auto& dp = support::data_plane();
  dp.reset();
  Buffer frame = Buffer::adopt(std::move(wire));
  std::size_t pos = 0;
  ValueList out = net::decode_list(frame, pos);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].string_bytes().shares_storage_with(frame));
  EXPECT_EQ(out[0].string_view(), payload) << "view accessors never copy";
  EXPECT_EQ(dp.bytes_referenced.get(), std::uint64_t{1} << 20);
  EXPECT_EQ(dp.bytes_copied.get(), 0u) << "decode itself stays zero-copy";

  // as_string() is the one deliberate copy: materialized once, counted
  // once — a second call reuses the std::string form.
  EXPECT_EQ(out[0].as_string(), payload);
  EXPECT_EQ(dp.bytes_copied.get(), std::uint64_t{1} << 20);
  EXPECT_EQ(out[0].as_string(), payload);
  EXPECT_EQ(dp.bytes_copied.get(), std::uint64_t{1} << 20)
      << "materialization must be once, not per-call";

  // The aliased string keeps the frame's storage alive on its own.
  Value survivor = out[0];
  out.clear();
  frame = Buffer();
  EXPECT_EQ(survivor.string_view(), payload);
}

TEST(DecodeAliasing, SmallStringsCopyOutOfOwnedFrames) {
  const std::string payload(kZeroCopySliceThreshold - 1, 's');
  FrameBuilder fb;
  net::encode_list({Value(payload)}, fb);
  std::vector<std::uint8_t> wire = fb.build();
  auto& dp = support::data_plane();
  dp.reset();
  Buffer frame = Buffer::adopt(std::move(wire));
  std::size_t pos = 0;
  ValueList out = net::decode_list(frame, pos);
  EXPECT_FALSE(out[0].string_bytes().shares_storage_with(frame));
  EXPECT_EQ(out[0].as_string(), payload);
  EXPECT_EQ(dp.bytes_copied.get(), payload.size())
      << "one copy at decode; as_string() must not add a second";
  EXPECT_EQ(dp.bytes_referenced.get(), 0u);
}

TEST(DecodeAliasing, BorrowedStringInputsAlwaysMaterialize) {
  const std::string payload(1 << 20, 'b');
  FrameBuilder fb;
  net::encode_list({Value(payload)}, fb);
  std::vector<std::uint8_t> wire = fb.build();

  std::size_t pos = 0;
  ValueList out = net::decode_list(wire, pos);  // borrowed view input
  ASSERT_EQ(out.size(), 1u);
  // Materialized: its bytes live outside the wire vector.
  const auto* lo = reinterpret_cast<const char*>(wire.data());
  const auto* hi = reinterpret_cast<const char*>(wire.data() + wire.size());
  const auto view = out[0].string_view();
  EXPECT_TRUE(view.data() + view.size() <= lo || view.data() >= hi);
  EXPECT_EQ(view, payload);
}

TEST(DecodeAliasing, AliasedStringsReencodeFromTheFrameWindow) {
  // A frame-aliased string forwarded to the next hop re-encodes by
  // referencing its frame window — round-trips byte-for-byte and never
  // materializes the std::string form.
  const std::string payload(1 << 18, 'f');
  FrameBuilder fb;
  net::encode_list({Value(payload)}, fb);
  std::vector<std::uint8_t> wire = fb.build();
  Buffer frame = Buffer::adopt(std::move(wire));
  std::size_t pos = 0;
  ValueList out = net::decode_list(frame, pos);

  auto& dp = support::data_plane();
  dp.reset();
  FrameBuilder forward;
  net::encode_list(out, forward);
  const auto rewire = forward.build();
  EXPECT_EQ(dp.bytes_referenced.get(), std::uint64_t{1} << 18)
      << "forwarding references the original frame window";
  std::size_t pos2 = 0;
  ValueList round = net::decode_list(rewire, pos2);
  EXPECT_EQ(round[0].string_view(), payload);
}

// ---- batch envelopes with mixed members ------------------------------------

TEST(BatchAssembly, MixedSmallAndLargeMembersGatherOnce) {
  // An ack (tiny, pure arena) plus a request carrying a 256 KB blob.
  std::vector<FrameBuilder> members(2);
  net::encode_ack(99, members[0]);
  const Blob payload = pattern_blob(1 << 18);
  net::encode_request_header(net::RequestHeader{7, 1, 0, 0, "Buf", "Put"},
                             members[1]);
  net::encode_list({Value(payload)}, members[1]);

  FrameBuilder envelope;
  net::encode_batch(members, envelope);
  // The envelope re-references the member's payload slice — no byte copy.
  EXPECT_EQ(envelope.bytes_referenced(), std::size_t{1} << 18);

  // Decode as a received frame: members alias the envelope storage, and the
  // blob inside member 1 aliases it transitively.
  Buffer frame = Buffer::adopt(envelope.build());
  std::size_t pos = 0;
  ASSERT_EQ(net::get_u8(frame, pos),
            static_cast<std::uint8_t>(net::MsgType::kBatch));
  std::vector<Buffer> slices = net::decode_batch_slices(frame, pos);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(pos, frame.size());
  EXPECT_TRUE(slices[0].shares_storage_with(frame));

  std::size_t mpos = 0;
  EXPECT_EQ(net::get_u8(slices[0], mpos),
            static_cast<std::uint8_t>(net::MsgType::kAck));
  EXPECT_EQ(net::decode_ack(slices[0], mpos), 99u);

  mpos = 0;
  ASSERT_EQ(net::get_u8(slices[1], mpos),
            static_cast<std::uint8_t>(net::MsgType::kRequest));
  const auto hdr = net::decode_request_header(slices[1], mpos);
  EXPECT_EQ(hdr.req_id, 7u);
  ValueList params = net::decode_list(slices[1], mpos);
  ASSERT_EQ(params.size(), 1u);
  EXPECT_TRUE(params[0].as_blob().shares_storage_with(frame));
  EXPECT_TRUE(params[0].as_blob() == payload);
}

TEST(BatchAssembly, EnvelopeMatchesVectorEncodingByteForByte) {
  std::vector<FrameBuilder> members(2);
  net::encode_ack(1, members[0]);
  net::encode_ack(2, members[1]);

  // The wire layout written out by hand: type, count, then each member
  // length-prefixed.
  std::vector<std::uint8_t> eager;
  net::put_u8(eager, static_cast<std::uint8_t>(net::MsgType::kBatch));
  net::put_u32(eager, 2);
  for (const auto& m : members) {
    const std::vector<std::uint8_t> bytes = m.build();
    net::put_u32(eager, static_cast<std::uint32_t>(bytes.size()));
    eager.insert(eager.end(), bytes.begin(), bytes.end());
  }

  FrameBuilder envelope;
  net::encode_batch(members, envelope);
  EXPECT_EQ(envelope.build(), eager);
}

}  // namespace
}  // namespace alps
