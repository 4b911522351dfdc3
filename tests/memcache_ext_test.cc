// Tests for the memcached 1.2 extended commands IMCa sends: cas/gets version
// control — engine semantics, wire protocol, and the client library end to
// end.
#include <gtest/gtest.h>

#include "mcclient/client.h"
#include "memcache/cache.h"
#include "memcache/protocol.h"
#include "memcache/server.h"
#include "net/sim_context.h"

namespace imca::memcache {
namespace {

Buffer bytes(std::string_view s) { return to_buffer(s); }

// --- engine: cas ---

TEST(Cas, IdsAreUniqueAndChangeOnStore) {
  McCache c(16 * kMiB);
  ASSERT_TRUE(c.set("a", 0, 0, bytes("1"), 0));
  ASSERT_TRUE(c.set("b", 0, 0, bytes("1"), 0));
  const auto ca = c.get("a", 1)->cas;
  const auto cb = c.get("b", 1)->cas;
  EXPECT_NE(ca, 0u);
  EXPECT_NE(ca, cb);
  ASSERT_TRUE(c.set("a", 0, 0, bytes("2"), 2));
  EXPECT_NE(c.get("a", 3)->cas, ca);  // new version, new id
}

TEST(Cas, SucceedsOnMatchingId) {
  McCache c(16 * kMiB);
  ASSERT_TRUE(c.set("k", 0, 0, bytes("old"), 0));
  const auto id = c.get("k", 1)->cas;
  ASSERT_TRUE(c.cas("k", 0, 0, bytes("new"), id, 2));
  EXPECT_EQ(to_string(c.get("k", 3)->data), "new");
}

TEST(Cas, FailsAfterInterveningWrite) {
  McCache c(16 * kMiB);
  ASSERT_TRUE(c.set("k", 0, 0, bytes("v1"), 0));
  const auto id = c.get("k", 1)->cas;
  ASSERT_TRUE(c.set("k", 0, 0, bytes("v2"), 2));  // someone else wrote
  EXPECT_EQ(c.cas("k", 0, 0, bytes("v3"), id, 3).error(), Errc::kBusy);
  EXPECT_EQ(to_string(c.get("k", 4)->data), "v2");  // loser changed nothing
}

TEST(Cas, NotFoundWhenAbsent) {
  McCache c(16 * kMiB);
  EXPECT_EQ(c.cas("ghost", 0, 0, bytes("x"), 1, 0).error(), Errc::kNoEnt);
}

// --- wire protocol ---

TEST(ProtocolExt, GetsCarriesCasId) {
  McCache c(16 * kMiB);
  (void)handle_request(c, encode_store(StoreVerb::kSet, "k", 7, 0, bytes("v")), 0);
  const std::string keys[] = {"k"};
  auto resp = handle_request(c, encode_gets(keys), 1);
  auto got = parse_get_response(resp).value();
  ASSERT_TRUE(got.contains("k"));
  EXPECT_NE(got.at("k").cas, 0u);
  EXPECT_EQ(got.at("k").cas, c.get("k", 2)->cas);
  // Plain get omits the cas id.
  auto resp2 = handle_request(c, encode_get(keys), 3);
  EXPECT_EQ(parse_get_response(resp2).value().at("k").cas, 0u);
}

TEST(ProtocolExt, CasRoundTrip) {
  McCache c(16 * kMiB);
  (void)handle_request(c, encode_store(StoreVerb::kSet, "k", 0, 0, bytes("a")), 0);
  const std::string keys[] = {"k"};
  auto got = parse_get_response(
                 *std::make_unique<ByteBuf>(handle_request(c, encode_gets(keys), 1)))
                 .value();
  const auto id = got.at("k").cas;

  auto r1 = handle_request(c, encode_cas("k", 0, 0, bytes("b"), id), 2);
  EXPECT_EQ(parse_cas_response(r1).value(), CasReply::kStored);
  // The same id again is now stale.
  auto r2 = handle_request(c, encode_cas("k", 0, 0, bytes("c"), id), 3);
  EXPECT_EQ(parse_cas_response(r2).value(), CasReply::kExists);
  auto r3 = handle_request(c, encode_cas("nope", 0, 0, bytes("x"), 1), 4);
  EXPECT_EQ(parse_cas_response(r3).value(), CasReply::kNotFound);
}

TEST(ProtocolExt, MalformedExtCommandsError) {
  McCache c(16 * kMiB);
  const auto expect_error = [&](std::string_view raw) {
    ByteBuf req;
    req.put_raw(raw);
    auto resp = handle_request(c, std::move(req), 0);
    EXPECT_TRUE(to_string(resp.buffer()).starts_with("ERROR")) << raw;
  };
  expect_error("cas k 0 0 1\r\nx\r\n");      // missing cas id
  expect_error("cas k 0 0 1 abc\r\nx\r\n");  // non-numeric cas id
}

// --- client library over the fabric ---

TEST(ClientExt, CasLoopImplementsAtomicUpdate) {
  net::SimContext ctx;
  ctx.fabric().add_node("mcd");
  const auto cnode = ctx.fabric().add_node("client").id();
  McServer server(ctx.rpc(), 0, 64 * kMiB);
  server.start();
  mcclient::McClient client(ctx.rpc(), cnode, {0},
                            std::make_unique<mcclient::Crc32Selector>());

  // The write-back index's update over the wire: gets_at -> modify -> cas_at
  // on a pinned daemon.
  ctx.run([](mcclient::McClient& c) -> sim::Task<void> {
    EXPECT_TRUE((co_await c.set_at(0, "doc", to_buffer("v0"))).has_value());
    auto v = co_await c.gets_at(0, "doc");
    EXPECT_TRUE(v.has_value());
    if (v) {
      auto r = co_await c.cas_at(0, "doc", to_buffer("v1"), v->cas);
      EXPECT_TRUE(r.has_value());
    }
    // A second cas with the stale id must lose.
    if (v) {
      auto r = co_await c.cas_at(0, "doc", to_buffer("v2"), v->cas);
      EXPECT_EQ(r.error(), Errc::kBusy);
    }
    // A cas on a vanished item reports kNoEnt.
    auto gone = co_await c.cas_at(0, "ghost", to_buffer("x"), 1);
    EXPECT_EQ(gone.error(), Errc::kNoEnt);
    auto final_v = co_await c.get_at(0, "doc");
    EXPECT_TRUE(final_v.has_value());
    if (final_v) { EXPECT_EQ(to_string(final_v->data), "v1"); }
  }(client));
}

}  // namespace
}  // namespace imca::memcache
