// Unit tests for src/common: error codes, Expected, CRC32, byte codecs, RNG,
// stats and the table printer.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>

#include "common/bytebuf.h"
#include "common/crc32.h"
#include "common/errc.h"
#include "common/expected.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace imca {
namespace {

// --- errc ---

TEST(Errc, NamesAreStable) {
  EXPECT_EQ(errc_name(Errc::kOk), "OK");
  EXPECT_EQ(errc_name(Errc::kNoEnt), "NOENT");
  EXPECT_EQ(errc_name(Errc::kTooBig), "TOOBIG");
  EXPECT_EQ(errc_name(Errc::kConnRefused), "CONNREFUSED");
}

TEST(Errc, OkPredicate) {
  EXPECT_TRUE(ok(Errc::kOk));
  EXPECT_FALSE(ok(Errc::kIo));
}

// --- Expected ---

TEST(Expected, HoldsValue) {
  Expected<int> e = 42;
  ASSERT_TRUE(e);
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.error(), Errc::kOk);
}

TEST(Expected, HoldsError) {
  Expected<int> e = Errc::kNoEnt;
  ASSERT_FALSE(e);
  EXPECT_EQ(e.error(), Errc::kNoEnt);
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(Expected, VoidSpecialisation) {
  Expected<void> good;
  EXPECT_TRUE(good);
  Expected<void> bad = Errc::kIo;
  EXPECT_FALSE(bad);
  EXPECT_EQ(bad.error(), Errc::kIo);
}

TEST(Expected, MoveOnlyPayload) {
  Expected<std::unique_ptr<int>> e = std::make_unique<int>(7);
  ASSERT_TRUE(e);
  auto p = std::move(e).value();
  EXPECT_EQ(*p, 7);
}

// --- CRC32 ---

TEST(Crc32, KnownVectors) {
  // Reference values from zlib's crc32().
  EXPECT_EQ(crc32(std::string_view("")), 0x00000000u);
  EXPECT_EQ(crc32(std::string_view("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(std::string_view("abc")), 0x352441C2u);
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

// The byte-at-a-time table CRC the slicing-by-8 loop replaced, kept as the
// reference: every length and start alignment must give the same value.
std::uint32_t bytewise_crc32(std::string_view s) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : s) {
    crc = table[(crc ^ static_cast<unsigned char>(c)) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

TEST(Crc32, SlicingMatchesBytewiseAtEveryLengthAndAlignment) {
  EXPECT_EQ(bytewise_crc32("123456789"), 0xCBF43926u);
  std::string data(8 + 300, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>((i * 131 + 17) ^ (i >> 3));
  }
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::string_view s(data.data() + align, len);
      ASSERT_EQ(crc32(s), bytewise_crc32(s))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32, ByteSpanMatchesStringView) {
  const std::string s = "/data/file42:stat";
  EXPECT_EQ(crc32(std::string_view(s)), crc32(std::span<const std::byte>(to_bytes(s))));
}

TEST(Crc32, LibmemcacheReduction) {
  // (crc >> 16) & 0x7fff must stay within 15 bits and match the formula.
  for (const char* key : {"a", "foo", "/some/path:0", "/some/path:stat"}) {
    const std::uint32_t h = libmemcache_hash(key);
    EXPECT_EQ(h, (crc32(std::string_view(key)) >> 16) & 0x7FFFu);
    EXPECT_LT(h, 0x8000u);
  }
}

TEST(Crc32, ReductionSpreadsKeys) {
  // Keys of the IMCa form path:offset should spread over server counts used
  // in the paper (1..6) without collapsing onto one daemon.
  for (std::size_t nservers : {2u, 4u, 6u}) {
    std::set<std::uint32_t> hit;
    for (int block = 0; block < 64; ++block) {
      std::string key = "/work/file7:" + std::to_string(block * 2048);
      hit.insert(static_cast<std::uint32_t>(libmemcache_hash(key) % nservers));
    }
    EXPECT_EQ(hit.size(), nservers) << "nservers=" << nservers;
  }
}

// --- ByteBuf ---

TEST(ByteBuf, RoundTripScalars) {
  ByteBuf b;
  b.put_u8(0xAB);
  b.put_u16(0xBEEF);
  b.put_u32(0xDEADBEEFu);
  b.put_u64(0x0123456789ABCDEFull);
  b.put_i64(-42);
  EXPECT_EQ(b.get_u8().value(), 0xAB);
  EXPECT_EQ(b.get_u16().value(), 0xBEEF);
  EXPECT_EQ(b.get_u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(b.get_u64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(b.get_i64().value(), -42);
  EXPECT_TRUE(b.exhausted());
}

TEST(ByteBuf, RoundTripStringsAndBytes) {
  ByteBuf b;
  b.put_string("hello");
  b.put_bytes(to_buffer("world"));
  b.put_raw("raw");
  EXPECT_EQ(b.get_string().value(), "hello");
  EXPECT_EQ(to_string(b.get_bytes().value()), "world");
  EXPECT_EQ(to_string(b.get_view(3).value()), "raw");
}

TEST(ByteBuf, PayloadViewsShareStorage) {
  // A payload spliced in and read back must be the same segment, not a copy.
  Buffer payload = to_buffer("payload-bytes");
  ByteBuf b;
  b.put_u32(7);
  b.put_buffer(payload);
  EXPECT_EQ(b.get_u32().value(), 7u);
  const auto& st = buffer_stats();
  const std::uint64_t copied_before = st.bytes_copied;
  Buffer view = b.get_view(payload.size()).value();
  EXPECT_EQ(st.bytes_copied, copied_before);  // slicing copies nothing
  EXPECT_TRUE(view.content_equals(payload));
  ASSERT_EQ(view.views().size(), 1u);
  EXPECT_EQ(view.views()[0].segment().bytes().data(),
            payload.views()[0].segment().bytes().data());
}

TEST(ByteBuf, UnderflowIsProtocolError) {
  ByteBuf b;
  b.put_u8(1);
  EXPECT_TRUE(b.get_u8());
  EXPECT_EQ(b.get_u32().error(), Errc::kProto);
  EXPECT_EQ(b.get_string().error(), Errc::kProto);
}

TEST(ByteBuf, TruncatedStringIsProtocolError) {
  ByteBuf b;
  b.put_u32(100);  // claims 100 bytes follow, but none do
  EXPECT_EQ(b.get_string().error(), Errc::kProto);
}

TEST(ByteBuf, SizeTracksEncodedBytes) {
  ByteBuf b;
  b.put_string("abcd");
  EXPECT_EQ(b.size(), 4u + 4u);  // u32 length prefix + payload
  b.put_u64(1);
  EXPECT_EQ(b.size(), 16u);
}

// The append tail grows in place past its first block and seals into the
// chain as one segment; the ledger counts each encoded byte once, and a copy
// taken mid-message keeps its bytes while the original writes on.
TEST(ByteBuf, TailGrowsAndSealsAsOneSegment) {
  const BufferStats before = buffer_stats();
  ByteBuf b;
  for (std::uint32_t i = 0; i < 100; ++i) b.put_u32(i);  // 400 B
  const ByteBuf copy = b;
  b.put_raw("tail");
  EXPECT_EQ(b.buffer().segment_count(), 2u);
  EXPECT_EQ(b.size(), 404u);
  EXPECT_EQ(buffer_stats().bytes_copied - before.bytes_copied, 404u);
  EXPECT_EQ(buffer_stats().segments_allocated - before.segments_allocated,
            2u);  // the 400 B the copy sealed, then the 4 B written after it
  ASSERT_EQ(copy.buffer().segment_count(), 1u);
  EXPECT_EQ(copy.size(), 400u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(b.get_u32().value(), i);
  EXPECT_EQ(to_string(b.get_view(4).value()), "tail");
  EXPECT_TRUE(copy.buffer().content_equals(b.buffer().slice(0, 400)));
}

// A trailer written after a payload lands in the spare capacity of the
// block that holds the header, past the header's view. A copy taken before
// the trailer keeps its bytes and writes its own trailer into a new block.
TEST(ByteBuf, TrailerSharesTheHeaderBlock) {
  const Buffer payload = to_buffer("0123456789");
  ByteBuf b;
  b.put_raw("set k 0 0 10\r\n");
  b.put_buffer(payload);
  const ByteBuf copy = b;
  b.put_raw("\r\n");
  ByteBuf other = copy;
  other.put_raw("!!");

  const Buffer& msg = b.buffer();
  EXPECT_EQ(to_string(msg), "set k 0 0 10\r\n0123456789\r\n");
  ASSERT_EQ(msg.segment_count(), 3u);
  const std::byte* header = msg.views()[0].bytes().data();
  EXPECT_EQ(msg.views()[2].bytes().data(), header + 14);
  EXPECT_EQ(msg.views()[1].bytes().data(),
            payload.views()[0].bytes().data());
  EXPECT_EQ(to_string(copy.buffer()), "set k 0 0 10\r\n0123456789");
  EXPECT_EQ(to_string(other.buffer()), "set k 0 0 10\r\n0123456789!!");
  EXPECT_NE(other.buffer().views()[2].bytes().data(), header + 14);
}

TEST(ByteBuf, RewindReplays) {
  ByteBuf b;
  b.put_u32(7);
  EXPECT_EQ(b.get_u32().value(), 7u);
  b.rewind();
  EXPECT_EQ(b.get_u32().value(), 7u);
}

// --- units ---

TEST(Units, TransferTimeExact) {
  // 1 MiB at 1 MiB/s is exactly one second.
  EXPECT_EQ(transfer_time(kMiB, kMiB), kSecond);
  // Zero bandwidth means "free" (used to disable a charge).
  EXPECT_EQ(transfer_time(12345, 0), 0u);
}

TEST(Units, TransferTimeRoundsUp) {
  // 1 byte at 3 bytes/s: 333333333.33..ns must round up.
  EXPECT_EQ(transfer_time(1, 3), 333333334u);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(to_micros(kMilli), 1000.0);
  EXPECT_DOUBLE_EQ(to_mib(5 * kMiB), 5.0);
}

// --- rng ---

TEST(Rng, DeterministicForSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeIsInclusive) {
  Rng r(9);
  bool lo_hit = false, hi_hit = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    lo_hit |= (v == 3);
    hi_hit |= (v == 6);
  }
  EXPECT_TRUE(lo_hit);
  EXPECT_TRUE(hi_hit);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng base(5);
  Rng a = base.fork();
  Rng b = base.fork();
  EXPECT_NE(a.next(), b.next());
}

// --- hash ---

TEST(Hash, Fnv1aKnownValue) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

TEST(Hash, SplitmixAvalanche) {
  EXPECT_NE(splitmix64(0), splitmix64(1));
  EXPECT_NE(splitmix64(1) & 0xFFFF, splitmix64(2) & 0xFFFF);
}

// --- stats ---

TEST(Stats, CounterAccumulates) {
  Counter c;
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, MeanAccum) {
  MeanAccum m;
  m.add(1.0);
  m.add(3.0);
  EXPECT_EQ(m.count(), 2u);
  EXPECT_DOUBLE_EQ(m.mean(), 2.0);
  EXPECT_DOUBLE_EQ(m.min(), 1.0);
  EXPECT_DOUBLE_EQ(m.max(), 3.0);
}

TEST(Stats, HistogramMeanAndMax) {
  LatencyHistogram h;
  h.add(1000);
  h.add(3000);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 2000.0);
  EXPECT_EQ(h.max_ns(), 3000u);
}

TEST(Stats, HistogramPercentilesOrdered) {
  LatencyHistogram h;
  for (SimDuration v = 1; v <= 100000; v += 13) h.add(v);
  const double p50 = h.percentile_ns(0.50);
  const double p90 = h.percentile_ns(0.90);
  const double p99 = h.percentile_ns(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, static_cast<double>(h.max_ns()) * 2.0);
}

TEST(Stats, FormatDurationUnits) {
  EXPECT_EQ(format_duration(500), "500ns");
  EXPECT_EQ(format_duration(1500), "1.50us");
  EXPECT_EQ(format_duration(2.5e6), "2.50ms");
  EXPECT_EQ(format_duration(3e9), "3.000s");
}

// --- table ---

TEST(Table, AlignsAndPrints) {
  Table t({"clients", "latency"});
  t.add_row({"1", Table::cell(12.345)});
  t.add_row({"64", Table::cell(std::uint64_t{99})});
  // Smoke: render into a memstream and check content.
  char* buf = nullptr;
  std::size_t len = 0;
  FILE* f = open_memstream(&buf, &len);
  t.print(f);
  std::fclose(f);
  std::string s(buf, len);
  free(buf);
  EXPECT_NE(s.find("clients"), std::string::npos);
  EXPECT_NE(s.find("12.35"), std::string::npos);
  EXPECT_NE(s.find("99"), std::string::npos);
}

TEST(Table, CsvMode) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  char* buf = nullptr;
  std::size_t len = 0;
  FILE* f = open_memstream(&buf, &len);
  t.print_csv(f);
  std::fclose(f);
  std::string s(buf, len);
  free(buf);
  EXPECT_EQ(s, "a,b\n1,2\n");
}

}  // namespace
}  // namespace imca
