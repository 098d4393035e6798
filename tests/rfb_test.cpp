// Tests for the remote framebuffer stack: damage tracking, encodings
// (including a property sweep), framing, protocol end-to-end (the
// edge-driven server's three wake edges, checked against a damage-poll
// oracle), workloads.
#include <gtest/gtest.h>

#include <memory>

#include <cstring>

#include "env/environment.hpp"
#include "net/serialize.hpp"
#include "net/stack.hpp"
#include "net/stream.hpp"
#include "phys/device.hpp"
#include "rfb/cache.hpp"
#include "rfb/encoding.hpp"
#include "rfb/framebuffer.hpp"
#include "rfb/protocol.hpp"
#include "rfb/workload.hpp"
#include "sim/profiler.hpp"
#include "sim/world.hpp"

namespace aroma::rfb {
namespace {

// --- Framebuffer -------------------------------------------------------

TEST(Framebuffer, SetAndDamage) {
  Framebuffer fb(64, 48, 0xff000000);
  EXPECT_FALSE(fb.has_damage());
  fb.set(3, 4, 0xffffffff);
  EXPECT_EQ(fb.at(3, 4), 0xffffffffu);
  ASSERT_TRUE(fb.has_damage());
  const auto d = fb.damage_bounds();
  EXPECT_EQ(d, (RectRegion{3, 4, 1, 1}));
  fb.clear_damage();
  EXPECT_FALSE(fb.has_damage());
}

TEST(Framebuffer, NoDamageOnIdenticalWrite) {
  Framebuffer fb(8, 8, 0xff123456);
  fb.set(1, 1, 0xff123456);
  fb.fill_rect({0, 0, 8, 8}, 0xff123456);
  EXPECT_FALSE(fb.has_damage());
}

TEST(Framebuffer, FillRectClipsToBounds) {
  Framebuffer fb(10, 10, 0);
  fb.fill_rect({-5, -5, 8, 8}, 0xff00ff00);
  EXPECT_EQ(fb.at(0, 0), 0xff00ff00u);
  EXPECT_EQ(fb.at(3, 3), 0u);
  const auto d = fb.damage_bounds();
  EXPECT_EQ(d, (RectRegion{0, 0, 3, 3}));
}

TEST(Framebuffer, DamageMergesIntersecting) {
  Framebuffer fb(100, 100, 0);
  fb.fill_rect({0, 0, 10, 10}, 1);
  fb.fill_rect({5, 5, 10, 10}, 2);  // overlaps -> merged
  EXPECT_EQ(fb.damage().size(), 1u);
  EXPECT_EQ(fb.damage()[0], (RectRegion{0, 0, 15, 15}));
}

TEST(Framebuffer, DamageCollapsesWhenTooFragmented) {
  Framebuffer fb(200, 200, 0);
  for (int i = 0; i < 40; ++i) {
    fb.set(i * 5, (i * 7) % 200, 0xffffffffu);
  }
  EXPECT_LE(fb.damage().size(), 17u);
}

TEST(Framebuffer, FarApartPixelDamagesStaySeparate) {
  // Regression: two 1-px damages at opposite corners must never coalesce
  // into a (near) full-frame rect.
  Framebuffer fb(1000, 1000, 0);
  fb.set(0, 0, 1);
  fb.set(999, 999, 2);
  ASSERT_EQ(fb.damage().size(), 2u);
  EXPECT_EQ(fb.damage()[0], (RectRegion{0, 0, 1, 1}));
  EXPECT_EQ(fb.damage()[1], (RectRegion{999, 999, 1, 1}));
}

TEST(Framebuffer, SparseOverflowMergesNearestNotBounding) {
  // Two far-apart clusters of >16 single-pixel damages. The old policy
  // collapsed everything into one ~full-screen bounding box; the new one
  // must keep the clusters apart and merge within them.
  Framebuffer fb(1000, 1000, 0);
  for (int i = 0; i < 20; ++i) fb.set(2 * i, 3 * (i % 4), 1);          // top-left
  for (int i = 0; i < 20; ++i) fb.set(950 + 2 * i % 50, 960 + i, 2);   // bottom-right
  ASSERT_LE(fb.damage().size(), 16u);
  ASSERT_GE(fb.damage().size(), 2u);
  for (const auto& d : fb.damage()) {
    EXPECT_LT(d.area(), 100 * 100) << d.x << "," << d.y << " " << d.w << "x"
                                   << d.h;
  }
}

TEST(Framebuffer, DenseOverflowStillCollapsesToBounding) {
  // A line of typed characters: >16 adjacent 1-px damages whose bounding
  // box is within kDenseCollapseFactor of the accumulated area still folds
  // into one cheap rect.
  Framebuffer fb(200, 200, 0);
  for (int i = 0; i < 20; ++i) fb.set(10 + i, 5, 1);
  EXPECT_LE(fb.damage().size(), 4u);
  EXPECT_EQ(fb.damage_bounds(), (RectRegion{10, 5, 20, 1}));
}

// --- Tile grid --------------------------------------------------------------

TEST(Framebuffer, TileGridDimensionsRoundUp) {
  Framebuffer fb(100, 50, 0);  // not multiples of 16
  EXPECT_EQ(fb.tiles_x(), 7);
  EXPECT_EQ(fb.tiles_y(), 4);
  EXPECT_EQ(fb.tile_rect(0, 0), (RectRegion{0, 0, 16, 16}));
  EXPECT_EQ(fb.tile_rect(6, 3), (RectRegion{96, 48, 4, 2}));  // edge clip
}

TEST(Framebuffer, SinglePixelDirtiesExactlyOneTile) {
  Framebuffer fb(100, 50, 0);
  EXPECT_EQ(fb.dirty_tile_count(), 0u);
  fb.set(17, 1, 1);
  EXPECT_EQ(fb.dirty_tile_count(), 1u);
  EXPECT_TRUE(fb.tile_dirty(1, 0));
  EXPECT_FALSE(fb.tile_dirty(0, 0));
  std::vector<TileCoord> tiles;
  fb.collect_dirty_tiles(tiles);
  ASSERT_EQ(tiles.size(), 1u);
  EXPECT_EQ(tiles[0], (TileCoord{1, 0}));
  fb.clear_damage();
  EXPECT_EQ(fb.dirty_tile_count(), 0u);
  EXPECT_FALSE(fb.tile_dirty(1, 0));
}

TEST(Framebuffer, RectDamageDirtiesSpannedTiles) {
  Framebuffer fb(100, 50, 0);
  fb.fill_rect({14, 14, 4, 4}, 1);  // straddles 4 tiles
  EXPECT_EQ(fb.dirty_tile_count(), 4u);
  std::vector<TileCoord> tiles;
  fb.collect_dirty_tiles(tiles);
  ASSERT_EQ(tiles.size(), 4u);
  EXPECT_EQ(tiles[0], (TileCoord{0, 0}));  // row-major order
  EXPECT_EQ(tiles[3], (TileCoord{1, 1}));
}

TEST(Framebuffer, HashRectIsPositionIndependent) {
  Framebuffer fb(64, 64, 0);
  fb.fill_rect({0, 0, 2, 2}, 7);
  fb.fill_rect({20, 20, 2, 2}, 7);
  EXPECT_EQ(fb.hash_rect({0, 0, 2, 2}), fb.hash_rect({20, 20, 2, 2}));
  // Same pixel count, different dims -> dims are folded into the hash.
  fb.fill_rect({40, 40, 4, 1}, 7);
  fb.fill_rect({40, 50, 1, 4}, 7);
  EXPECT_NE(fb.hash_rect({40, 40, 4, 1}), fb.hash_rect({40, 50, 1, 4}));
  EXPECT_NE(fb.hash_rect({0, 0, 2, 2}), fb.hash_rect({4, 0, 2, 2}));
}

TEST(Framebuffer, ContentHashAndEquality) {
  Framebuffer a(32, 32, 5), b(32, 32, 5);
  EXPECT_TRUE(a.same_content(b));
  EXPECT_EQ(a.content_hash(), b.content_hash());
  b.set(0, 0, 9);
  EXPECT_FALSE(a.same_content(b));
  EXPECT_NE(a.content_hash(), b.content_hash());
}

TEST(RectRegion, Basics) {
  EXPECT_TRUE((RectRegion{0, 0, 0, 5}).empty());
  EXPECT_EQ((RectRegion{1, 1, 4, 5}).area(), 20);
  EXPECT_TRUE((RectRegion{0, 0, 5, 5}).intersects({4, 4, 5, 5}));
  EXPECT_FALSE((RectRegion{0, 0, 5, 5}).intersects({5, 0, 5, 5}));
  EXPECT_EQ(bounding({0, 0, 2, 2}, {8, 8, 2, 2}), (RectRegion{0, 0, 10, 10}));
}

// --- Encodings: property sweep over content types x encodings --------------

enum class Content { kSolid, kSlides, kNoise, kGradient };

struct EncodingCase {
  Encoding enc;
  Content content;
};

class EncodingRoundTrip : public ::testing::TestWithParam<EncodingCase> {};

Framebuffer make_content(Content c, int w, int h) {
  Framebuffer fb(w, h, 0xff000000);
  sim::Rng rng(42);
  switch (c) {
    case Content::kSolid:
      fb.fill_rect(fb.bounds(), 0xff336699);
      break;
    case Content::kSlides: {
      SlideDeckWorkload deck(7);
      deck.step(fb);
      break;
    }
    case Content::kNoise:
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          fb.set(x, y, static_cast<Pixel>(rng.next_u64()));
        }
      }
      break;
    case Content::kGradient:
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          fb.set(x, y, 0xff000000u | static_cast<Pixel>(x * 2) |
                           (static_cast<Pixel>(y) << 8));
        }
      }
      break;
  }
  fb.clear_damage();
  return fb;
}

TEST_P(EncodingRoundTrip, DecodesToIdenticalPixels) {
  const auto param = GetParam();
  const Framebuffer src = make_content(param.content, 97, 61);  // odd sizes
  const RectRegion full = src.bounds();
  const auto encoded = encode_rect(src, full, param.enc);
  Framebuffer dst(97, 61, 0xffffffff);
  ASSERT_TRUE(decode_rect(dst, full, param.enc, encoded));
  EXPECT_TRUE(dst.same_content(src));
}

TEST_P(EncodingRoundTrip, PartialRectRoundTrip) {
  const auto param = GetParam();
  const Framebuffer src = make_content(param.content, 97, 61);
  const RectRegion rect{13, 7, 41, 29};
  const auto encoded = encode_rect(src, rect, param.enc);
  Framebuffer dst = make_content(Content::kSolid, 97, 61);
  ASSERT_TRUE(decode_rect(dst, rect, param.enc, encoded));
  for (int y = rect.y; y < rect.y + rect.h; ++y) {
    for (int x = rect.x; x < rect.x + rect.w; ++x) {
      ASSERT_EQ(dst.at(x, y), src.at(x, y)) << x << "," << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodingsAllContents, EncodingRoundTrip,
    ::testing::Values(
        EncodingCase{Encoding::kRaw, Content::kSolid},
        EncodingCase{Encoding::kRaw, Content::kSlides},
        EncodingCase{Encoding::kRaw, Content::kNoise},
        EncodingCase{Encoding::kRaw, Content::kGradient},
        EncodingCase{Encoding::kRle, Content::kSolid},
        EncodingCase{Encoding::kRle, Content::kSlides},
        EncodingCase{Encoding::kRle, Content::kNoise},
        EncodingCase{Encoding::kRle, Content::kGradient},
        EncodingCase{Encoding::kTiled, Content::kSolid},
        EncodingCase{Encoding::kTiled, Content::kSlides},
        EncodingCase{Encoding::kTiled, Content::kNoise},
        EncodingCase{Encoding::kTiled, Content::kGradient}),
    [](const ::testing::TestParamInfo<EncodingCase>& info) {
      std::string name = to_string(info.param.enc);
      switch (info.param.content) {
        case Content::kSolid: name += "_solid"; break;
        case Content::kSlides: name += "_slides"; break;
        case Content::kNoise: name += "_noise"; break;
        case Content::kGradient: name += "_gradient"; break;
      }
      return name;
    });

TEST(Encoding, RleCompressesSolidContent) {
  const Framebuffer solid = make_content(Content::kSolid, 128, 128);
  const auto raw = encode_rect(solid, solid.bounds(), Encoding::kRaw);
  const auto rle = encode_rect(solid, solid.bounds(), Encoding::kRle);
  const auto tiled = encode_rect(solid, solid.bounds(), Encoding::kTiled);
  EXPECT_LT(rle.size(), raw.size() / 100);
  EXPECT_LT(tiled.size(), raw.size() / 50);
}

TEST(Encoding, TiledNeverMuchWorseThanRawOnNoise) {
  const Framebuffer noise = make_content(Content::kNoise, 128, 128);
  const auto raw = encode_rect(noise, noise.bounds(), Encoding::kRaw);
  const auto tiled = encode_rect(noise, noise.bounds(), Encoding::kTiled);
  // Per-tile header overhead only.
  EXPECT_LT(tiled.size(), raw.size() + raw.size() / 10);
}

TEST(Encoding, DecodeRejectsMalformedInput) {
  Framebuffer fb(16, 16, 0);
  const RectRegion r{0, 0, 16, 16};
  EXPECT_FALSE(decode_rect(fb, r, Encoding::kRaw, std::vector<std::byte>(7)));
  EXPECT_FALSE(decode_rect(fb, r, Encoding::kRle, std::vector<std::byte>(3)));
  EXPECT_FALSE(decode_rect(fb, r, Encoding::kTiled, std::vector<std::byte>(1)));
}

TEST(Encoding, CostModelOrdersEncodings) {
  EXPECT_LT(encode_cost_per_pixel(Encoding::kRaw),
            encode_cost_per_pixel(Encoding::kRle));
  EXPECT_LT(encode_cost_per_pixel(Encoding::kRle),
            encode_cost_per_pixel(Encoding::kTiled));
  // The cached encoder's per-pixel unit is one hashing pass: cheaper than a
  // full tile encode, dearer than a raw copy.
  EXPECT_GT(encode_cost_per_pixel(Encoding::kCached),
            encode_cost_per_pixel(Encoding::kRaw));
  EXPECT_LT(encode_cost_per_pixel(Encoding::kCached),
            encode_cost_per_pixel(Encoding::kTiled));
}

// --- Zero-copy encoders vs the reference oracle -----------------------------

TEST(Encoding, ZeroCopyMatchesReferenceByteForByte) {
  for (Content c : {Content::kSolid, Content::kSlides, Content::kNoise,
                    Content::kGradient}) {
    const Framebuffer src = make_content(c, 97, 61);
    for (Encoding e : {Encoding::kRaw, Encoding::kRle, Encoding::kTiled}) {
      for (RectRegion r :
           {src.bounds(), RectRegion{13, 7, 41, 29}, RectRegion{96, 60, 1, 1},
            RectRegion{0, 0, 16, 16}}) {
        const auto zero_copy = encode_rect(src, r, e);
        const auto reference = encode_rect_reference(src, r, e);
        ASSERT_EQ(zero_copy, reference)
            << to_string(e) << " content " << static_cast<int>(c) << " rect "
            << r.x << "," << r.y << " " << r.w << "x" << r.h;
      }
    }
  }
}

// --- SIMD inner loops vs their scalar oracles (sim/simd.hpp) ----------------

// Random rects over every content class, deliberately including widths that
// are not multiples of the 4/8/16-pixel SIMD strides and offsets that force
// the phase-alignment prefix: the vectorized paths must be bit-identical to
// the per-pixel oracles everywhere, tails included.
TEST(Framebuffer, HashRectMatchesReferenceOnRandomRects) {
  sim::Rng rng(555);
  for (Content c : {Content::kSolid, Content::kSlides, Content::kNoise,
                    Content::kGradient}) {
    const Framebuffer fb = make_content(c, 93, 57);  // odd dims on purpose
    ASSERT_EQ(fb.hash_rect(fb.bounds()), fb.hash_rect_reference(fb.bounds()));
    for (int n = 0; n < 200; ++n) {
      const int x = static_cast<int>(rng.uniform_int(0, 92));
      const int y = static_cast<int>(rng.uniform_int(0, 56));
      const RectRegion r{x, y, 1 + static_cast<int>(rng.uniform_int(0, 92 - x)),
                         1 + static_cast<int>(rng.uniform_int(0, 56 - y))};
      ASSERT_EQ(fb.hash_rect(r), fb.hash_rect_reference(r))
          << "content " << static_cast<int>(c) << " rect " << r.x << ","
          << r.y << " " << r.w << "x" << r.h;
    }
  }
}

TEST(Encoding, SolidAndRunScannersMatchOracles) {
  sim::Rng rng(556);
  for (Content c : {Content::kSolid, Content::kSlides, Content::kNoise,
                    Content::kGradient}) {
    const Framebuffer fb = make_content(c, 93, 57);
    for (int n = 0; n < 150; ++n) {
      const int x = static_cast<int>(rng.uniform_int(0, 92));
      const int y = static_cast<int>(rng.uniform_int(0, 56));
      const RectRegion r{x, y, 1 + static_cast<int>(rng.uniform_int(0, 92 - x)),
                         1 + static_cast<int>(rng.uniform_int(0, 56 - y))};

      Pixel prod_color = 0, ref_color = 0;
      const bool prod_solid = detail::solid_tile(fb, r, prod_color);
      const bool ref_solid = detail::solid_tile_reference(fb, r, ref_color);
      ASSERT_EQ(prod_solid, ref_solid)
          << "content " << static_cast<int>(c) << " rect " << r.x << ","
          << r.y << " " << r.w << "x" << r.h;
      if (ref_solid) {
        ASSERT_EQ(prod_color, ref_color);
      }

      const auto prod_runs = detail::scan_runs(fb, r);
      const auto ref_runs = detail::scan_runs_reference(fb, r);
      ASSERT_EQ(prod_runs, ref_runs)
          << "content " << static_cast<int>(c) << " rect " << r.x << ","
          << r.y << " " << r.w << "x" << r.h;
      // Sanity: the runs tile the rect exactly.
      std::uint64_t covered = 0;
      for (const auto& [len, px] : ref_runs) covered += len;
      ASSERT_EQ(covered, static_cast<std::uint64_t>(r.w) *
                             static_cast<std::uint64_t>(r.h));
    }
  }
}

TEST(Encoding, EncodeScratchReusesCapacity) {
  const Framebuffer src = make_content(Content::kSlides, 97, 61);
  sim::Arena arena;
  EncodeScratch scratch(arena);
  encode_rect_into(src, src.bounds(), Encoding::kTiled, scratch);
  const auto first = std::vector<std::byte>(scratch.out.begin(),
                                            scratch.out.end());
  // Steady state: the second encode of the same content must not need any
  // more capacity and must produce identical bytes.
  const std::size_t cap = scratch.out.capacity();
  encode_rect_into(src, src.bounds(), Encoding::kTiled, scratch);
  EXPECT_EQ(scratch.out.capacity(), cap);
  EXPECT_TRUE(std::equal(scratch.out.begin(), scratch.out.end(),
                         first.begin(), first.end()));
}

// --- RLE decoder hardening ---------------------------------------------------

TEST(Encoding, RleDecodeRejectsTrailingBytes) {
  const Framebuffer src = make_content(Content::kSolid, 16, 16);
  auto encoded = encode_rect(src, src.bounds(), Encoding::kRle);
  Framebuffer dst(16, 16, 0);
  ASSERT_TRUE(decode_rect(dst, dst.bounds(), Encoding::kRle, encoded));
  // A complete stream followed by extra bytes is malformed, not ignored.
  encoded.insert(encoded.end(), 8, std::byte{0x5a});
  EXPECT_FALSE(decode_rect(dst, dst.bounds(), Encoding::kRle, encoded));
}

TEST(Encoding, RleDecodeRejectsZeroRunAndOverflow) {
  std::vector<std::byte> in(8, std::byte{0});  // run = 0, pixel = 0
  EncodeScratch::PixelBuf px;
  EXPECT_FALSE(detail::decode_rle(in, 256, px));
  // run = 300 overflows a 256-pixel tile.
  std::uint32_t run = 300;
  std::memcpy(in.data(), &run, 4);
  EXPECT_FALSE(detail::decode_rle(in, 256, px));
  // Truncated record: run promises more than the input holds.
  run = 256;
  std::memcpy(in.data(), &run, 4);
  EXPECT_TRUE(detail::decode_rle(in, 256, px));
  in.pop_back();
  EXPECT_FALSE(detail::decode_rle(in, 256, px));
}

// --- Cached (CopyRect-style) encoding ----------------------------------------

std::vector<TileCoord> all_tiles(const Framebuffer& fb) {
  std::vector<TileCoord> out;
  for (int ty = 0; ty < fb.tiles_y(); ++ty) {
    for (int tx = 0; tx < fb.tiles_x(); ++tx) out.push_back({tx, ty});
  }
  return out;
}

/// Server mirror + client cache pair driven in lockstep, as the protocol
/// does over the reliable stream.
struct CachedSession {
  explicit CachedSession(std::size_t capacity = TileCache::kDefaultCapacity)
      : server(capacity), client(capacity) {}

  CachedEncodeStats sync(const Framebuffer& src, Framebuffer& dst,
                         std::span<const TileCoord> tiles) {
    if (last_sent.empty()) {
      last_sent.assign(static_cast<std::size_t>(src.tiles_x()) *
                           static_cast<std::size_t>(src.tiles_y()),
                       0);
    }
    const auto stats =
        encode_tiles_cached(src, tiles, server, last_sent, scratch);
    EXPECT_TRUE(decode_tiles_cached(
        dst, client,
        std::span<const std::byte>(scratch.out.data(), scratch.out.size()),
        dec_scratch));
    return stats;
  }

  TileCache server, client;
  std::vector<std::uint64_t> last_sent;
  EncodeScratch scratch, dec_scratch;
};

TEST(CachedEncoding, ColdCacheFullFrameRoundTrip) {
  for (auto [w, h] : {std::pair{97, 61}, {16, 16}, {1, 1}, {320, 240}}) {
    const Framebuffer src = make_content(Content::kSlides, w, h);
    Framebuffer dst(w, h, 0xffffffff);
    CachedSession s;
    const auto tiles = all_tiles(src);
    const auto stats = s.sync(src, dst, tiles);
    EXPECT_TRUE(dst.same_content(src)) << w << "x" << h;
    EXPECT_EQ(stats.cache_refs + stats.tiles_sent + stats.tiles_skipped,
              tiles.size());
  }
}

TEST(CachedEncoding, RevisitedContentIsSentAsReferences) {
  Framebuffer src = make_content(Content::kNoise, 160, 120);
  Framebuffer dst(160, 120, 0);
  CachedSession s;
  const auto tiles = all_tiles(src);
  const auto first = s.sync(src, dst, tiles);
  EXPECT_GT(first.tiles_sent, 0u);
  const std::size_t first_bytes = s.scratch.out.size();
  const std::vector<Pixel> snapshot = src.pixels();

  src.fill_rect(src.bounds(), 0xff111111);  // slide B
  s.sync(src, dst, all_tiles(src));
  ASSERT_TRUE(dst.same_content(src));

  src.write_block(src.bounds(), snapshot.data());  // back to slide A
  const auto third = s.sync(src, dst, tiles);
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(third.tiles_sent, 0u);  // everything served from the cache
  EXPECT_EQ(third.cache_refs, tiles.size());
  EXPECT_LT(s.scratch.out.size(), first_bytes / 5);
}

TEST(CachedEncoding, UnchangedDamagedTilesAreSkipped) {
  Framebuffer src = make_content(Content::kSlides, 64, 64);
  Framebuffer dst(64, 64, 0);
  CachedSession s;
  s.sync(src, dst, all_tiles(src));
  // Re-damage without changing content: nothing should go on the wire.
  const auto again = s.sync(src, dst, all_tiles(src));
  EXPECT_EQ(again.tiles_sent + again.cache_refs, 0u);
  EXPECT_EQ(again.tiles_skipped, all_tiles(src).size());
  EXPECT_TRUE(dst.same_content(src));
}

TEST(CachedEncoding, EvictionFallsBackToLiteralsAndStaysInSync) {
  // A cache far smaller than the working set: the mirror keeps server and
  // client evictions in lockstep, so references always resolve and evicted
  // content is simply re-sent literally.
  Framebuffer a = make_content(Content::kNoise, 160, 120);
  const std::vector<Pixel> slide_a = a.pixels();
  Framebuffer b = make_content(Content::kGradient, 160, 120);
  const std::vector<Pixel> slide_b = b.pixels();

  Framebuffer src(160, 120, 0);
  Framebuffer dst(160, 120, 0);
  CachedSession s(/*capacity=*/8);
  const auto tiles = all_tiles(src);
  for (int flip = 0; flip < 6; ++flip) {
    src.write_block(src.bounds(),
                    (flip % 2 == 0 ? slide_a : slide_b).data());
    const auto stats = s.sync(src, dst, tiles);
    ASSERT_TRUE(dst.same_content(src)) << "flip " << flip;
    if (flip > 0) {
      EXPECT_GT(stats.tiles_sent, 0u);  // evicted -> literal
    }
  }
  EXPECT_GT(s.server.evictions(), 0u);
  EXPECT_EQ(s.server.evictions(), s.client.evictions());
}

TEST(CachedEncoding, DecodeRejectsUnknownReferenceAndMalformedInput) {
  Framebuffer fb(64, 64, 0);
  TileCache cache;
  EncodeScratch scratch;
  const auto decode = [&](std::span<const std::byte> in) {
    return decode_tiles_cached(fb, cache, in, scratch);
  };
  EXPECT_FALSE(decode(std::vector<std::byte>(3)));  // truncated count
  // One tile referencing a hash nobody ever sent.
  std::vector<std::byte> in(4 + 2 + 2 + 1 + 8, std::byte{0});
  std::uint32_t ntiles = 1;
  std::memcpy(in.data(), &ntiles, 4);
  in[8] = std::byte{3};  // mode = reference
  const std::uint64_t hash = 0xdeadbeefcafef00dULL;
  std::memcpy(in.data() + 9, &hash, 8);
  EXPECT_FALSE(decode(in));
  // Out-of-range tile coordinate.
  const std::uint16_t tx = 99;
  std::memcpy(in.data() + 4, &tx, 2);
  EXPECT_FALSE(decode(in));
  // Trailing garbage after a complete (empty) tile set.
  std::vector<std::byte> empty(4, std::byte{0});
  EXPECT_TRUE(decode(empty));
  empty.push_back(std::byte{7});
  EXPECT_FALSE(decode(empty));
}

// --- Property sweep: random damage keeps the replica identical --------------

/// Random mutation: mostly solid fills (compressible), sometimes noise.
void fb_mutate(Framebuffer& fb, RectRegion r, sim::Rng& rng) {
  if (rng.next_u64() % 3 == 0) {
    for (int y = r.y; y < r.y + r.h; ++y) {
      for (int x = r.x; x < r.x + r.w; ++x) {
        fb.set(x, y, static_cast<Pixel>(rng.next_u64()));
      }
    }
  } else {
    fb.fill_rect(r, static_cast<Pixel>(rng.next_u64()) | 0xff000000u);
  }
}

TEST(Encoding, PropertyRandomDamageKeepsReplicaInSyncAllEncodings) {
  for (Encoding e : {Encoding::kRaw, Encoding::kRle, Encoding::kTiled,
                     Encoding::kCached}) {
    sim::Rng rng(0xfeedULL + static_cast<std::uint64_t>(e));
    Framebuffer src(113, 89, 0xff101010);  // odd dims exercise edge tiles
    Framebuffer dst(113, 89, 0xff101010);
    CachedSession session(/*capacity=*/32);  // small: exercises eviction
    std::vector<TileCoord> tiles;
    for (int step = 0; step < 60; ++step) {
      const int nmut = 1 + static_cast<int>(rng.next_u64() % 4);
      for (int m = 0; m < nmut; ++m) {
        const RectRegion r{static_cast<int>(rng.next_u64() % 113),
                           static_cast<int>(rng.next_u64() % 89),
                           1 + static_cast<int>(rng.next_u64() % 40),
                           1 + static_cast<int>(rng.next_u64() % 40)};
        fb_mutate(src, r, rng);
      }
      if (e == Encoding::kCached) {
        src.collect_dirty_tiles(tiles);
        session.sync(src, dst, tiles);
      } else {
        for (const RectRegion& r : src.damage()) {
          const auto payload = encode_rect(src, r, e);
          ASSERT_TRUE(decode_rect(dst, r, e, payload));
        }
      }
      src.clear_damage();
      ASSERT_TRUE(dst.same_content(src))
          << to_string(e) << " diverged at step " << step;
    }
  }
}

// --- MessageFramer ----------------------------------------------------------

TEST(MessageFramer, ReassemblesFromArbitraryChunks) {
  MessageFramer framer;
  std::vector<std::vector<std::byte>> messages;
  framer.set_handler([&](std::span<const std::byte> m) {
    messages.emplace_back(m.begin(), m.end());
  });
  std::vector<std::byte> wire;
  for (int i = 0; i < 5; ++i) {
    std::vector<std::byte> payload(static_cast<std::size_t>(10 + i * 7));
    for (std::size_t k = 0; k < payload.size(); ++k) {
      payload[k] = static_cast<std::byte>(i);
    }
    const auto framed = MessageFramer::frame(payload);
    wire.insert(wire.end(), framed.begin(), framed.end());
  }
  // Feed in awkward chunk sizes.
  std::size_t pos = 0;
  const std::size_t chunks[] = {1, 3, 9, 2, 31, 7, 100, 1000};
  std::size_t ci = 0;
  while (pos < wire.size()) {
    const std::size_t n = std::min(chunks[ci++ % 8], wire.size() - pos);
    framer.on_bytes(std::span<const std::byte>(wire.data() + pos, n));
    pos += n;
  }
  ASSERT_EQ(messages.size(), 5u);
  EXPECT_EQ(messages[0].size(), 10u);
  EXPECT_EQ(messages[4].size(), 38u);
  EXPECT_EQ(messages[3][0], std::byte{3});
}

// --- Protocol end-to-end -----------------------------------------------

struct RfbWorld {
  /// `poll` adds the oracle: a 10 ms timer that calls notify_changed(), the
  /// damage poll the server once ran on itself.
  explicit RfbWorld(bool poll = false)
      : poll(poll), world(5), environment(world) {
    server_dev = std::make_unique<phys::Device>(
        world, environment, 1, phys::profiles::laptop(),
        std::make_unique<env::StaticMobility>(env::Vec2{0, 0}));
    client_dev = std::make_unique<phys::Device>(
        world, environment, 2, phys::profiles::aroma_adapter(),
        std::make_unique<env::StaticMobility>(env::Vec2{6, 0}));
    server_stack = std::make_unique<net::NetStack>(world, server_dev->mac());
    client_stack = std::make_unique<net::NetStack>(world, client_dev->mac());
    server_streams =
        std::make_unique<net::StreamManager>(world, *server_stack, 5900);
    client_streams =
        std::make_unique<net::StreamManager>(world, *client_stack, 5900);
  }

  void connect(RfbServer::Params params = {}) {
    server_streams->listen(
        [&, params](const std::shared_ptr<net::StreamConnection>& c) {
          server_conn = c;
          server = std::make_unique<RfbServer>(world, screen, c, params);
          if (poll) {
            poller = std::make_unique<sim::PeriodicTimer>(
                world.sim(), sim::Time::ms(10),
                [this] { server->notify_changed(); });
            poller->set_category(sim::EventCategory::kRfb);
            poller->start();
          }
        });
    conn = client_streams->connect(1);
    viewer = std::make_unique<RfbClient>(world, conn);
    viewer->start();
  }

  /// Executes events one at a time until `changed()` holds; returns the
  /// instant of the event that made it hold.
  template <class F>
  sim::Time step_until(F changed) {
    while (!changed()) {
      if (!world.sim().step()) {
        ADD_FAILURE() << "event queue drained first";
        break;
      }
    }
    return world.now();
  }

  std::uint64_t sent() const { return server->stats().updates_sent; }

  bool poll;
  sim::World world;
  env::Environment environment;
  Framebuffer screen{160, 120, 0xff202020};
  std::unique_ptr<phys::Device> server_dev, client_dev;
  std::unique_ptr<net::NetStack> server_stack, client_stack;
  std::unique_ptr<net::StreamManager> server_streams, client_streams;
  std::shared_ptr<net::StreamConnection> conn, server_conn;
  std::unique_ptr<RfbServer> server;
  std::unique_ptr<sim::PeriodicTimer> poller;
  std::unique_ptr<RfbClient> viewer;
};

// A static slide, synced by the initial full update.
void slide_deck_world(RfbWorld& rw) {
  SlideDeckWorkload deck(3);
  deck.step(rw.screen);
  rw.connect();
  rw.world.sim().run_until(sim::Time::sec(30));
}

// A 20 Hz animation for 20 s, then 20 s to converge.
void animation_world(RfbWorld& rw, Encoding encoding, int sprite,
                     sim::Time animate, sim::Time end) {
  AnimationWorkload anim(9, sprite);
  RfbServer::Params params;
  params.encoding = encoding;
  rw.connect(params);
  sim::PeriodicTimer ticker(rw.world.sim(), sim::Time::ms(50), [&] {
    anim.step(rw.screen);
    if (rw.server) rw.server->notify_changed();
  });
  ticker.start();
  rw.world.sim().run_until(animate);
  ticker.stop();
  rw.world.sim().run_until(end);
}

// Uncompressed, as the paper's era VNC.
void raw_animation_world(RfbWorld& rw) {
  animation_world(rw, Encoding::kRaw, 96, sim::Time::sec(20),
                  sim::Time::sec(40));
}

void cached_animation_world(RfbWorld& rw) {
  animation_world(rw, Encoding::kCached, 48, sim::Time::sec(15),
                  sim::Time::sec(30));
}

TEST(RfbProtocol, InitialFullUpdateSyncsReplica) {
  RfbWorld rw;
  slide_deck_world(rw);
  ASSERT_TRUE(rw.viewer->initialized());
  EXPECT_TRUE(rw.viewer->replica().same_content(rw.screen));
  EXPECT_GE(rw.viewer->stats().updates_received, 1u);
  EXPECT_EQ(rw.viewer->stats().decode_errors, 0u);
}

TEST(RfbProtocol, IncrementalUpdatesTrackChanges) {
  RfbWorld rw;
  rw.connect();
  rw.world.sim().run_until(sim::Time::sec(10));
  ASSERT_TRUE(rw.viewer->initialized());
  // Mutate after sync; server pushes the damage on the pending request.
  rw.screen.fill_rect({10, 10, 40, 30}, 0xffaa5500);
  rw.server->notify_changed();
  rw.world.sim().run_until(sim::Time::sec(20));
  EXPECT_TRUE(rw.viewer->replica().same_content(rw.screen));
  EXPECT_GE(rw.viewer->stats().updates_received, 2u);
}

TEST(RfbProtocol, AnimationThrottledByLinkNotLost) {
  RfbWorld rw;
  raw_animation_world(rw);
  ASSERT_TRUE(rw.viewer->initialized());
  // Converges to the final frame even though many frames were skipped.
  EXPECT_TRUE(rw.viewer->replica().same_content(rw.screen));
  const double fps = rw.viewer->stats().fps(sim::Time::sec(20));
  EXPECT_GT(fps, 0.5);
  EXPECT_LT(fps, 15.0);  // the 2 Mb/s link cannot carry the full 20 Hz
}

TEST(RfbProtocol, CachedEncodingSyncsAndHitsCacheOnRevisit) {
  RfbWorld rw;
  SlideDeckWorkload deck(3);
  deck.step(rw.screen);
  RfbServer::Params params;
  params.encoding = Encoding::kCached;
  rw.connect(params);
  rw.world.sim().run_until(sim::Time::sec(15));
  ASSERT_TRUE(rw.viewer->initialized());
  ASSERT_TRUE(rw.viewer->replica().same_content(rw.screen));
  const std::vector<Pixel> slide_a = rw.screen.pixels();
  EXPECT_GT(rw.server->stats().tiles_encoded, 0u);

  deck.step(rw.screen);  // slide B
  rw.server->notify_changed();
  rw.world.sim().run_until(sim::Time::sec(30));
  ASSERT_TRUE(rw.viewer->replica().same_content(rw.screen));

  // Back to slide A.
  rw.screen.write_block(rw.screen.bounds(), slide_a.data());
  rw.server->notify_changed();
  rw.world.sim().run_until(sim::Time::sec(45));
  EXPECT_TRUE(rw.viewer->replica().same_content(rw.screen));
  EXPECT_GT(rw.server->stats().cache_hits, 0u);
  EXPECT_EQ(rw.viewer->stats().decode_errors, 0u);
}

TEST(RfbProtocol, CachedAnimationConvergesWithSkips) {
  RfbWorld rw;
  cached_animation_world(rw);
  ASSERT_TRUE(rw.viewer->initialized());
  EXPECT_TRUE(rw.viewer->replica().same_content(rw.screen));
  EXPECT_EQ(rw.viewer->stats().decode_errors, 0u);
  // A bouncing sprite re-exposes background it previously covered: the
  // cache serves those tiles as references.
  EXPECT_GT(rw.server->stats().cache_hits, 0u);
}

// The server wakes only on a request, an encode completion or
// notify_changed(). A 10 ms poll of notify_changed() can only add a send
// for damage nobody notified; every world here notifies, so the polled run
// must equal the edge-driven one in every observable.
TEST(RfbProtocol, DamagePollOracleChangesNothing) {
  const std::pair<const char*, void (*)(RfbWorld&)> worlds[] = {
      {"slide deck", slide_deck_world},
      {"raw animation", raw_animation_world},
      {"cached animation", cached_animation_world},
  };
  for (const auto& [name, run] : worlds) {
    SCOPED_TRACE(name);
    RfbWorld edge;
    run(edge);
    RfbWorld polled(/*poll=*/true);
    run(polled);
    ASSERT_TRUE(edge.viewer->initialized());
    ASSERT_TRUE(polled.viewer->initialized());
    EXPECT_GT(polled.world.sim().executed(), edge.world.sim().executed())
        << "the oracle's poll never ran";

    const RfbClientStats& a = edge.viewer->stats();
    const RfbClientStats& b = polled.viewer->stats();
    EXPECT_EQ(a.updates_received, b.updates_received);
    EXPECT_EQ(a.bytes_received, b.bytes_received);
    EXPECT_EQ(a.first_update.count(), b.first_update.count());
    EXPECT_EQ(a.last_update.count(), b.last_update.count());
    EXPECT_EQ(a.update_interval_s.count(), b.update_interval_s.count());
    EXPECT_EQ(a.update_interval_s.mean(), b.update_interval_s.mean());
    EXPECT_EQ(a.update_interval_s.m2(), b.update_interval_s.m2());
    EXPECT_EQ(a.update_interval_s.min(), b.update_interval_s.min());
    EXPECT_EQ(a.update_interval_s.max(), b.update_interval_s.max());

    const RfbServerStats& sa = edge.server->stats();
    const RfbServerStats& sb = polled.server->stats();
    EXPECT_EQ(sa.updates_sent, sb.updates_sent);
    EXPECT_EQ(sa.rects_sent, sb.rects_sent);
    EXPECT_EQ(sa.bytes_sent, sb.bytes_sent);
    EXPECT_EQ(sa.pixels_encoded, sb.pixels_encoded);
    EXPECT_EQ(sa.encode_seconds, sb.encode_seconds);
    EXPECT_EQ(sa.tiles_encoded, sb.tiles_encoded);
    EXPECT_EQ(sa.cache_hits, sb.cache_hits);
    EXPECT_EQ(sa.tiles_skipped, sb.tiles_skipped);

    EXPECT_EQ(edge.viewer->replica().content_hash(),
              polled.viewer->replica().content_hash());
    EXPECT_EQ(edge.environment.medium().behaviour_digest(),
              polled.environment.medium().behaviour_digest());
  }
}

TEST(RfbProtocol, IdleServerSchedulesNothing) {
  RfbWorld rw;
  rw.connect();
  rw.world.sim().run_until(sim::Time::sec(10));
  ASSERT_TRUE(rw.viewer->initialized());
  ASSERT_TRUE(rw.viewer->replica().same_content(rw.screen));
  // The viewer re-requested after its last update, so a request is pending.
  sim::KernelProfiler prof;
  rw.world.sim().set_profiler(&prof);
  const std::uint64_t sent = rw.sent();
  rw.world.sim().run_until(sim::Time::sec(20));
  rw.world.sim().set_profiler(nullptr);
  EXPECT_EQ(prof.stats(sim::EventCategory::kRfb).executed, 0u);
  EXPECT_EQ(rw.sent(), sent);
}

// Edge 1: damage that arrives while an update is encoding goes out at that
// encode's completion, provided a request is waiting by then.
TEST(RfbProtocol, DamageDuringEncodeGoesOutAtEncodeCompletion) {
  RfbWorld rw;
  RfbServer::Params params;
  params.encoding = Encoding::kRaw;
  params.cpu_mips = 0.05;  // a slow encoder: 160x60 raw pixels take 0.384 s
  rw.connect(params);
  rw.world.sim().run_until(sim::Time::sec(30));
  ASSERT_TRUE(rw.viewer->replica().same_content(rw.screen));

  const RfbServerStats before = rw.server->stats();
  rw.screen.fill_rect({0, 0, 160, 60}, 0xffaa5500);
  rw.server->notify_changed();
  ASSERT_EQ(rw.sent(), before.updates_sent + 1);
  const std::uint64_t pixels =
      rw.server->stats().pixels_encoded - before.pixels_encoded;
  const double encode_s = static_cast<double>(pixels) *
                          encode_cost_per_pixel(Encoding::kRaw) /
                          (params.cpu_mips * 1e6);
  const sim::Time done = rw.world.now() + sim::Time::sec(encode_s);

  // A second outstanding request (RFB lets a viewer pipeline them) reaches
  // the server while it is still encoding.
  const std::uint64_t delivered = rw.server_conn->stats().bytes_delivered;
  net::ByteWriter req;
  req.u8(static_cast<std::uint8_t>(RfbMsg::kUpdateRequest));
  req.u8(1);
  rw.conn->send(MessageFramer::frame(req.data()));
  rw.world.sim().run_until(rw.world.now() + sim::Time::sec(encode_s / 2));
  ASSERT_GT(rw.server_conn->stats().bytes_delivered, delivered);

  rw.screen.fill_rect({20, 80, 40, 30}, 0xff00aa55);
  rw.server->notify_changed();
  EXPECT_EQ(rw.sent(), before.updates_sent + 1) << "sent mid-encode";
  const sim::Time sent_at = rw.step_until(
      [&] { return rw.sent() != before.updates_sent + 1; });
  EXPECT_EQ(sent_at.count(), done.count());
  EXPECT_EQ(rw.sent(), before.updates_sent + 2);

  rw.world.sim().run_until(rw.world.now() + sim::Time::sec(30));
  EXPECT_TRUE(rw.viewer->replica().same_content(rw.screen));
}

// Edge 2: damage notified while no request is pending goes out when the
// viewer's next request arrives, in the event that delivers it.
TEST(RfbProtocol, DamageWithoutRequestGoesOutAtNextRequestArrival) {
  RfbWorld rw;
  rw.connect();
  rw.world.sim().run_until(sim::Time::sec(10));
  ASSERT_TRUE(rw.viewer->replica().same_content(rw.screen));

  const std::uint64_t sent = rw.sent();
  rw.screen.fill_rect({0, 0, 16, 16}, 0xffaa5500);
  rw.server->notify_changed();  // answers the pending request
  ASSERT_EQ(rw.sent(), sent + 1);
  rw.screen.fill_rect({120, 90, 16, 16}, 0xff00aa55);
  rw.server->notify_changed();  // no request pending now: waits
  EXPECT_EQ(rw.sent(), sent + 1);

  const std::uint64_t delivered = rw.server_conn->stats().bytes_delivered;
  const sim::Time sent_at = rw.step_until([&] {
    return rw.sent() != sent + 1 ||
           rw.server_conn->stats().bytes_delivered != delivered;
  });
  EXPECT_GT(rw.server_conn->stats().bytes_delivered, delivered)
      << "sent before the request arrived";
  EXPECT_EQ(rw.sent(), sent + 2) << "request arrived at " << sent_at.count()
                                 << " ns but nothing went out";

  rw.world.sim().run_until(rw.world.now() + sim::Time::sec(10));
  EXPECT_TRUE(rw.viewer->replica().same_content(rw.screen));
}

// Edge 3: damage notified while a request is pending goes out at once.
TEST(RfbProtocol, DamageWithRequestPendingGoesOutAtOnce) {
  RfbWorld rw;
  rw.connect();
  rw.world.sim().run_until(sim::Time::sec(10));
  ASSERT_TRUE(rw.viewer->replica().same_content(rw.screen));

  const std::uint64_t sent = rw.sent();
  const sim::Time at = sim::Time::sec(12);
  rw.world.sim().schedule_at(at, [&] {
    rw.screen.fill_rect({10, 10, 40, 30}, 0xffaa5500);
    rw.server->notify_changed();
  });
  const sim::Time sent_at = rw.step_until([&] { return rw.sent() != sent; });
  EXPECT_EQ(sent_at.count(), at.count());

  rw.world.sim().run_until(sim::Time::sec(20));
  EXPECT_TRUE(rw.viewer->replica().same_content(rw.screen));
}

// --- Workloads -----------------------------------------------------------

TEST(Workloads, SlideDeckChangesWholeScreenDeterministically) {
  Framebuffer a(64, 48, 0), b(64, 48, 0);
  SlideDeckWorkload da(11), db(11);
  da.step(a);
  db.step(b);
  EXPECT_TRUE(a.same_content(b));
  EXPECT_EQ(da.slide_number(), 1);
  const auto hash1 = a.content_hash();
  da.step(a);
  EXPECT_NE(a.content_hash(), hash1);  // new slide differs
}

TEST(Workloads, AnimationDamagesSmallRegionAfterFirstFrame) {
  Framebuffer fb(200, 150, 0);
  AnimationWorkload anim(5, 20);
  anim.step(fb);   // draws background + sprite
  fb.clear_damage();
  anim.step(fb);
  ASSERT_TRUE(fb.has_damage());
  const auto d = fb.damage_bounds();
  EXPECT_LT(d.area(), 200 * 150 / 4);  // localized, not full screen
}

TEST(Workloads, TypingProducesSmallDamage) {
  Framebuffer fb(200, 150, 0);
  TypingWorkload typing(5);
  typing.step(fb);  // first: background + one char
  fb.clear_damage();
  typing.step(fb);
  ASSERT_TRUE(fb.has_damage());
  EXPECT_LT(fb.damage_bounds().area(), 400);
}

}  // namespace
}  // namespace aroma::rfb
