// Unit tests for the memcached reimplementation: slab accounting, storage
// semantics (set/add/delete), LRU eviction within a slab class, lazy
// expiration, protocol encode/parse — including the ERROR every command
// outside IMCa's set gets — and the daemon over the simulated RPC fabric.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "memcache/cache.h"
#include "memcache/protocol.h"
#include "memcache/server.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "net/sim_context.h"

namespace imca::memcache {
namespace {

Buffer bytes(std::string_view s) { return to_buffer(s); }
Buffer blob(std::size_t n, char fill = 'x') {
  return Buffer::take(std::vector<std::byte>(n, static_cast<std::byte>(fill)));
}

// --- SlabAllocator ---

TEST(Slab, ClassesGrowGeometrically) {
  SlabAllocator s(64 * kMiB);
  ASSERT_GE(s.num_classes(), 10u);
  for (std::uint32_t i = 1; i < s.num_classes(); ++i) {
    EXPECT_GT(s.chunk_size(i), s.chunk_size(i - 1));
  }
  // Largest class holds a full page (1MB items).
  EXPECT_EQ(s.chunk_size(s.num_classes() - 1), 1 * kMiB);
}

TEST(Slab, ClassForPicksSmallestFit) {
  SlabAllocator s(64 * kMiB);
  const auto c = s.class_for(100).value();
  EXPECT_GE(s.chunk_size(c), 100u);
  if (c > 0) { EXPECT_LT(s.chunk_size(c - 1), 100u); }
}

TEST(Slab, OversizeRejected) {
  SlabAllocator s(64 * kMiB);
  EXPECT_EQ(s.class_for(kMaxItemTotal + 1).error(), Errc::kTooBig);
  EXPECT_TRUE(s.class_for(kMaxItemTotal).has_value());
}

TEST(Slab, AllocAssignsPagesUpToLimit) {
  SlabAllocator s(2 * kMiB);  // two pages only
  const auto cls = s.class_for(1000).value();
  const auto per_page = 1 * kMiB / s.chunk_size(cls);
  // Exhaust both pages.
  for (std::uint64_t i = 0; i < 2 * per_page; ++i) {
    ASSERT_TRUE(s.alloc(cls)) << "i=" << i;
  }
  EXPECT_EQ(s.pages_assigned(), 2u);
  EXPECT_EQ(s.alloc(cls).error(), Errc::kNoSpc);
  s.free(cls);
  EXPECT_TRUE(s.alloc(cls).has_value());  // reuses the freed chunk
}

TEST(Slab, PagesAreNotSharedAcrossClasses) {
  SlabAllocator s(1 * kMiB);  // a single page
  const auto small = s.class_for(100).value();
  const auto big = s.class_for(100000).value();
  ASSERT_NE(small, big);
  ASSERT_TRUE(s.alloc(small));
  // The one page belongs to `small` now; `big` cannot get one.
  EXPECT_EQ(s.alloc(big).error(), Errc::kNoSpc);
}

// --- McCache semantics ---

TEST(Cache, SetGetRoundTrip) {
  McCache c(64 * kMiB);
  ASSERT_TRUE(c.set("k", 7, 0, bytes("value"), 0));
  const auto v = c.get("k", 1);
  ASSERT_TRUE(v);
  EXPECT_EQ(v->flags, 7u);
  EXPECT_EQ(to_string(v->data), "value");
  EXPECT_EQ(c.stats().get_hits, 1u);
}

TEST(Cache, GetMissCounts) {
  McCache c(64 * kMiB);
  EXPECT_EQ(c.get("absent", 0).error(), Errc::kNoEnt);
  EXPECT_EQ(c.stats().get_misses, 1u);
}

TEST(Cache, SetOverwrites) {
  McCache c(64 * kMiB);
  ASSERT_TRUE(c.set("k", 0, 0, bytes("old"), 0));
  ASSERT_TRUE(c.set("k", 0, 0, bytes("newer"), 1));
  EXPECT_EQ(to_string(c.get("k", 2)->data), "newer");
  EXPECT_EQ(c.item_count(), 1u);
}

TEST(Cache, AddOnlyWhenAbsent) {
  McCache c(64 * kMiB);
  ASSERT_TRUE(c.add("k", 0, 0, bytes("a"), 0));
  EXPECT_EQ(c.add("k", 0, 0, bytes("b"), 1).error(), Errc::kNotStored);
  EXPECT_EQ(to_string(c.get("k", 2)->data), "a");
}

TEST(Cache, DeleteRemoves) {
  McCache c(64 * kMiB);
  ASSERT_TRUE(c.set("k", 0, 0, bytes("v"), 0));
  ASSERT_TRUE(c.del("k"));
  EXPECT_EQ(c.del("k").error(), Errc::kNoEnt);
  EXPECT_EQ(c.get("k", 1).error(), Errc::kNoEnt);
  EXPECT_EQ(c.item_count(), 0u);
}

TEST(Cache, KeyLengthCeiling) {
  McCache c(64 * kMiB);
  const std::string long_key(kMaxKeyLen + 1, 'k');
  EXPECT_EQ(c.set(long_key, 0, 0, bytes("v"), 0).error(), Errc::kKeyTooLong);
  const std::string max_key(kMaxKeyLen, 'k');
  EXPECT_TRUE(c.set(max_key, 0, 0, bytes("v"), 0));
}

TEST(Cache, OneMegabyteItemCeiling) {
  McCache c(64 * kMiB);
  // Value + key + overhead must fit in kMaxItemTotal.
  EXPECT_EQ(c.set("k", 0, 0, blob(kMaxItemTotal), 0).error(), Errc::kTooBig);
  EXPECT_TRUE(
      c.set("k", 0, 0, blob(kMaxItemTotal - 1 - kItemOverhead), 0));
}

TEST(Cache, LazyExpirationOnGet) {
  McCache c(64 * kMiB);
  ASSERT_TRUE(c.set("k", 0, /*expire_at=*/100, bytes("v"), 0));
  EXPECT_TRUE(c.get("k", 50).has_value());   // still fresh
  EXPECT_EQ(c.get("k", 100).error(), Errc::kNoEnt);  // reaped on access
  EXPECT_EQ(c.stats().expired_unfetched, 1u);
  EXPECT_EQ(c.item_count(), 0u);
}

TEST(Cache, ExpiredKeyCanBeAdded) {
  McCache c(64 * kMiB);
  ASSERT_TRUE(c.set("k", 0, 10, bytes("old"), 0));
  // add() at t=20 finds the item expired, so the add succeeds.
  ASSERT_TRUE(c.add("k", 0, 0, bytes("fresh"), 20));
  EXPECT_EQ(to_string(c.get("k", 30)->data), "fresh");
}

TEST(Cache, EvictsLruWithinClassWhenFull) {
  // Cache sized to 1 page; items ~100KB -> class fits ~10 per page.
  McCache c(1 * kMiB);
  const std::uint64_t item_size = 100 * kKiB;
  int stored = 0;
  for (int i = 0; i < 12; ++i) {
    if (c.set("key" + std::to_string(i), 0, 0, blob(item_size), 0)) ++stored;
  }
  EXPECT_EQ(stored, 12);  // all sets succeed; old items were evicted
  EXPECT_GT(c.stats().evictions, 0u);
  // The most recent key is present, the oldest is gone.
  EXPECT_TRUE(c.get("key11", 1).has_value());
  EXPECT_EQ(c.get("key0", 1).error(), Errc::kNoEnt);
}

TEST(Cache, GetRefreshesLruOrder) {
  McCache c(1 * kMiB);
  const std::uint64_t item_size = 100 * kKiB;
  // Insert until the first eviction fires: that eviction removed w0, so the
  // surviving items are w1..wN with w1 the least recently used.
  std::size_t n = 0;
  while (c.stats().evictions == 0) {
    ASSERT_TRUE(c.set("w" + std::to_string(n), 0, 0, blob(item_size), 0));
    ++n;
  }
  ASSERT_GT(n, 3u);
  ASSERT_EQ(c.get("w0", 1).error(), Errc::kNoEnt);  // first victim
  // Touch w1 so w2 becomes the LRU victim for the next insertion.
  ASSERT_TRUE(c.get("w1", 2).has_value());
  ASSERT_TRUE(c.set("extra", 0, 0, blob(item_size), 3));
  EXPECT_TRUE(c.get("w1", 4).has_value());          // survived (recently used)
  EXPECT_EQ(c.get("w2", 4).error(), Errc::kNoEnt);  // evicted instead
}

TEST(Cache, FlushAllEmptiesEverything) {
  McCache c(64 * kMiB);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(c.set("k" + std::to_string(i), 0, 0, bytes("v"), 0));
  }
  c.flush_all();
  EXPECT_EQ(c.item_count(), 0u);
  EXPECT_EQ(c.stats().curr_items, 0u);
  EXPECT_EQ(c.stats().bytes, 0u);
}

TEST(Cache, BytesAccountingBalances) {
  McCache c(64 * kMiB);
  ASSERT_TRUE(c.set("k", 0, 0, blob(1000), 0));
  EXPECT_EQ(c.stats().bytes, 1 + 1000 + kItemOverhead);
  ASSERT_TRUE(c.del("k"));
  EXPECT_EQ(c.stats().bytes, 0u);
}

// --- protocol ---

TEST(Protocol, SetThenGetThroughWireFormat) {
  McCache c(64 * kMiB);
  auto resp1 = handle_request(
      c, encode_store(StoreVerb::kSet, "key1", 5, 0, bytes("hello")), 0);
  EXPECT_EQ(parse_store_response(resp1).value(), StoreReply::kStored);

  const std::string keys[] = {"key1"};
  auto resp2 = handle_request(c, encode_get(keys), 1);
  auto got = parse_get_response(resp2);
  ASSERT_TRUE(got);
  ASSERT_TRUE(got->contains("key1"));
  EXPECT_EQ(got->at("key1").flags, 5u);
  EXPECT_EQ(to_string(got->at("key1").data), "hello");
}

TEST(Protocol, MissOmitsKeyFromResponse) {
  McCache c(64 * kMiB);
  const std::string keys[] = {"nope"};
  auto resp = handle_request(c, encode_get(keys), 0);
  auto got = parse_get_response(resp);
  ASSERT_TRUE(got);
  EXPECT_TRUE(got->empty());
}

TEST(Protocol, MultiGetMixedHitMiss) {
  McCache c(64 * kMiB);
  (void)handle_request(c, encode_store(StoreVerb::kSet, "a", 0, 0, bytes("1")), 0);
  (void)handle_request(c, encode_store(StoreVerb::kSet, "c", 0, 0, bytes("3")), 0);
  const std::string keys[] = {"a", "b", "c"};
  auto resp = handle_request(c, encode_get(keys), 1);
  auto got = parse_get_response(resp).value();
  EXPECT_EQ(got.size(), 2u);
  EXPECT_TRUE(got.contains("a"));
  EXPECT_FALSE(got.contains("b"));
  EXPECT_TRUE(got.contains("c"));
}

TEST(Protocol, BinarySafeValues) {
  McCache c(64 * kMiB);
  // A value containing CRLF and NUL must survive the text protocol because
  // the data block is length-delimited.
  std::vector<std::byte> raw = to_bytes("a\r\nEND\r\n\0b");
  raw.push_back(std::byte{0});
  Buffer nasty = Buffer::take(std::move(raw));
  (void)handle_request(c, encode_store(StoreVerb::kSet, "k", 0, 0, nasty), 0);
  const std::string keys[] = {"k"};
  auto got = parse_get_response(
                 *std::make_unique<ByteBuf>(handle_request(c, encode_get(keys), 1)))
                 .value();
  ASSERT_TRUE(got.contains("k"));
  EXPECT_TRUE(got.at("k").data.content_equals(nasty));
}

TEST(Protocol, DeleteReplies) {
  McCache c(64 * kMiB);
  (void)handle_request(c, encode_store(StoreVerb::kSet, "k", 0, 0, bytes("v")), 0);
  auto r1 = handle_request(c, encode_delete("k"), 1);
  EXPECT_EQ(parse_delete_response(r1).value(), DeleteReply::kDeleted);
  auto r2 = handle_request(c, encode_delete("k"), 2);
  EXPECT_EQ(parse_delete_response(r2).value(), DeleteReply::kNotFound);
}

TEST(Protocol, OversizeItemIsServerError) {
  McCache c(64 * kMiB);
  auto resp = handle_request(
      c, encode_store(StoreVerb::kSet, "k", 0, 0, blob(kMaxItemTotal)), 0);
  EXPECT_EQ(parse_store_response(resp).value(), StoreReply::kServerError);
}

TEST(Protocol, MalformedInputYieldsError) {
  McCache c(64 * kMiB);
  const auto expect_error = [&](std::string_view raw) {
    ByteBuf req;
    req.put_raw(raw);
    auto resp = handle_request(c, std::move(req), 0);
    const std::string text = to_string(resp.buffer());
    EXPECT_TRUE(text.starts_with("ERROR")) << "input: " << raw;
  };
  expect_error("");                        // no line terminator
  expect_error("bogus\r\n");               // unknown command
  expect_error("get\r\n");                 // get with no keys
  expect_error("set k 0 0\r\n");           // missing byte count
  expect_error("set k 0 0 5\r\nab\r\n");   // short data block
  expect_error("set k 0 0 x\r\nabcde\r\n");  // non-numeric byte count
  expect_error("delete\r\n");              // missing key
  // memcached commands IMCa never sends: the daemon does not know them.
  expect_error("incr k 1\r\n");
  expect_error("decr k 1\r\n");
  expect_error("incr k\r\n");
  expect_error("decr k 1 2\r\n");
  expect_error("incr k x\r\n");
  expect_error("replace k 0 0 1\r\nx\r\n");
  expect_error("append k 0 0 1\r\nx\r\n");
  expect_error("prepend k 0 0 1\r\nx\r\n");
  expect_error("stats\r\n");
  expect_error("flush_all\r\n");           // only the clean flush exists
}

TEST(Protocol, WrappedByteCountIsRejected) {
  // n + 2 wraps to 0 for n = 2^64 - 2: the data-block bound must be checked
  // without forming it, in both directions of the wire.
  McCache c(64 * kMiB);
  ByteBuf req;
  req.put_raw("set k 0 0 18446744073709551614\r\nabc\r\n");
  auto resp = handle_request(c, std::move(req), 0);
  EXPECT_EQ(to_string(resp.buffer()), "ERROR\r\n");
  EXPECT_EQ(c.item_count(), 0u);

  ByteBuf reply;
  reply.put_raw("VALUE k 0 18446744073709551614\r\nEND\r\n");
  EXPECT_EQ(parse_get_response(reply).error(), Errc::kProto);
  const std::string keys[] = {"k"};
  std::optional<Value> slot[1];
  ByteBuf again;
  again.put_raw("VALUE k 0 18446744073709551614\r\nEND\r\n");
  EXPECT_EQ(parse_get_response(again, keys, slot).error(), Errc::kProto);
  EXPECT_FALSE(slot[0].has_value());
}

TEST(Protocol, KeyCountComesFromTheSameParse) {
  McCache c(64 * kMiB);
  const auto keys_of = [&](std::string_view raw) {
    ByteBuf req;
    req.put_raw(raw);
    std::size_t keys = 0;
    (void)handle_request(c, std::move(req), 0, &keys);
    return keys;
  };
  EXPECT_EQ(keys_of("get a b  c\r\n"), 3u);  // misses count: each is hashed
  EXPECT_EQ(keys_of("gets a\r\n"), 1u);
  EXPECT_EQ(keys_of("set a 0 0 1\r\nx\r\n"), 1u);
  EXPECT_EQ(keys_of("get\r\n"), 1u);     // malformed requests count one
  EXPECT_EQ(keys_of("get a b"), 1u);       // no terminator
  EXPECT_EQ(keys_of("bogus a b\r\n"), 1u);
}

TEST(Protocol, SlotAlignedParseFollowsRequestOrder) {
  McCache c(64 * kMiB);
  (void)handle_request(c, encode_store(StoreVerb::kSet, "a", 1, 0, bytes("A")), 0);
  (void)handle_request(c, encode_store(StoreVerb::kSet, "c", 3, 0, bytes("C")), 0);
  const std::string keys[] = {"a", "b", "c"};
  auto resp = handle_request(c, encode_get(keys), 1);
  std::optional<Value> slots[3];
  EXPECT_EQ(parse_get_response(resp, keys, slots).value(), 2u);
  ASSERT_TRUE(slots[0] && slots[2]);
  EXPECT_EQ(to_string(slots[0]->data), "A");
  EXPECT_FALSE(slots[1].has_value());
  EXPECT_EQ(slots[2]->flags, 3u);

  // Out of order and repeated VALUEs: each lands in its key's slot, and the
  // first VALUE for a slot wins, as in the map form.
  ByteBuf odd;
  odd.put_raw("VALUE c 0 1\r\nX\r\nVALUE a 0 1\r\nY\r\n"
              "VALUE a 0 1\r\nZ\r\nVALUE q 0 1\r\nQ\r\nEND\r\n");
  std::optional<Value> got[3];
  EXPECT_EQ(parse_get_response(odd, keys, got).value(), 2u);
  ASSERT_TRUE(got[0] && got[2]);
  EXPECT_EQ(to_string(got[0]->data), "Y");
  EXPECT_EQ(to_string(got[2]->data), "X");
}

TEST(Protocol, FlushAllClears) {
  McCache c(64 * kMiB);
  (void)handle_request(c, encode_store(StoreVerb::kSet, "k", 0, 0, bytes("v")), 0);
  (void)handle_request(
      c, encode_store(StoreVerb::kSet, "dirty", kWbDirtyFlag, 0, bytes("d")),
      0);
  auto resp = handle_request(c, encode_flush_clean(), 1);
  EXPECT_EQ(to_string(resp.buffer()), "OK\r\n");
  // The clean flush drops every item but the write-back dirty ones.
  EXPECT_EQ(c.item_count(), 1u);
  EXPECT_FALSE(c.get("k", 2).has_value());
  EXPECT_TRUE(c.get("dirty", 2).has_value());
}

// --- daemon over the fabric ---

class McServerTest : public ::testing::Test, public net::SimContext {
 protected:
  McServerTest() {
    fabric().add_node("mcd0");
    fabric().add_node("client");
    server_ = std::make_unique<McServer>(rpc(), 0, 64 * kMiB);
    server_->start();
  }

  std::unique_ptr<McServer> server_;
};

TEST_F(McServerTest, SetGetOverFabric) {
  bool ok_flag = false;
  run([](net::RpcSystem& rpc, bool& done) -> sim::Task<void> {
    auto r1 = co_await rpc.call(
        1, 0, net::kPortMemcached,
        encode_store(StoreVerb::kSet, "k", 0, 0, to_buffer("v")));
    EXPECT_TRUE(r1.has_value());
    const std::string keys[] = {"k"};
    auto r2 = co_await rpc.call(1, 0, net::kPortMemcached, encode_get(keys));
    EXPECT_TRUE(r2.has_value());
    if (r2) {
      auto got = parse_get_response(*r2).value();
      EXPECT_EQ(to_string(got.at("k").data), "v");
    }
    done = true;
  }(rpc(), ok_flag));
  EXPECT_TRUE(ok_flag);
  EXPECT_GT(loop().now(), 0u);  // network + service time elapsed
}

TEST_F(McServerTest, StopRefusesAndDropsContents) {
  ASSERT_TRUE(server_->running());
  (void)server_->cache().set("k", 0, 0, to_buffer("v"), 0);
  server_->stop();
  EXPECT_FALSE(server_->running());
  EXPECT_EQ(server_->cache().item_count(), 0u);  // restart comes back cold
  Errc err = Errc::kOk;
  run([](net::RpcSystem& rpc, Errc& e) -> sim::Task<void> {
    const std::string keys[] = {"k"};
    auto r = co_await rpc.call(1, 0, net::kPortMemcached, encode_get(keys));
    e = r.error();
  }(rpc(), err));
  EXPECT_EQ(err, Errc::kConnRefused);
}

TEST_F(McServerTest, ServiceTimeChargedToDaemonCpu) {
  run([](net::RpcSystem& rpc) -> sim::Task<void> {
    (void)co_await rpc.call(
        1, 0, net::kPortMemcached,
        encode_store(StoreVerb::kSet, "k", 0, 0,
                     Buffer::zeros(64 * 1024)));
    co_return;
  }(rpc()));
  EXPECT_GT(fabric().node(0).cpu().total_busy(), 6 * kMicro);
}

}  // namespace
}  // namespace imca::memcache
