#include "src/geometry/wkt.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/util/rng.h"
#include "tests/test_support.h"

namespace stj {
namespace {

TEST(Wkt, PointRoundTrip) {
  const Point p{1.5, -2.25};
  const auto parsed = ParseWktPoint(ToWkt(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, p);
}

TEST(Wkt, PolygonRoundTripPreservesEverything) {
  const Polygon poly = test::SquareWithHole(0, 0, 4, 4, 1);
  const auto parsed = ParseWktPolygon(ToWkt(poly));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Outer(), poly.Outer());
  ASSERT_EQ(parsed->Holes().size(), 1u);
  EXPECT_EQ(parsed->Holes()[0], poly.Holes()[0]);
}

TEST(Wkt, RoundTripIsExactForRandomCoordinates) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Polygon blob =
        test::RandomBlob(&rng, Point{rng.Uniform(-100, 100),
                                     rng.Uniform(-100, 100)},
                         rng.LogUniform(0.001, 100.0), 24);
    const auto parsed = ParseWktPolygon(ToWkt(blob));
    ASSERT_TRUE(parsed.has_value());
    // %.17g printing is lossless for doubles.
    EXPECT_EQ(parsed->Outer(), blob.Outer());
  }
}

TEST(Wkt, ParsesUnclosedAndClosedRings) {
  const auto closed =
      ParseWktPolygon("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))");
  const auto unclosed = ParseWktPolygon("POLYGON ((0 0, 1 0, 1 1, 0 1))");
  ASSERT_TRUE(closed.has_value());
  ASSERT_TRUE(unclosed.has_value());
  EXPECT_EQ(closed->Outer(), unclosed->Outer());
  EXPECT_EQ(closed->Outer().Size(), 4u);
}

// The flat parse applies Ring's and Polygon's constructor rules once:
// the result equals building the polygon from the raw vertex lists, also
// where re-applying the winding rule would flip the ring again.
TEST(Wkt, ParseMatchesTheNormalisingConstructors) {
  struct Case {
    const char* wkt;
    std::vector<Point> outer;
    std::vector<std::vector<Point>> holes;
  };
  const std::vector<Case> cases = {
      {"POLYGON ((0 0, 0 1, 1 1, 1 0))",  // clockwise outer
       {{0, 0}, {0, 1}, {1, 1}, {1, 0}}, {}},
      {"POLYGON ((0 0, 4 0, 4 4, 0 4), (1 1, 2 1, 2 2, 1 2))",  // CCW hole
       {{0, 0}, {4, 0}, {4, 4}, {0, 4}}, {{{1, 1}, {2, 1}, {2, 2}, {1, 2}}}},
      {"POLYGON ((0 0, 1 1, 2 2))",  // zero area: reversed exactly once
       {{0, 0}, {1, 1}, {2, 2}}, {}},
      {"POLYGON ((5 5, 6 6, 5 5, 5 5))",  // closing vertex dropped once
       {{5, 5}, {6, 6}, {5, 5}, {5, 5}}, {}},
      {"POLYGON ((3 3), (1 2, 1 2))",  // one- and two-vertex rings
       {{3, 3}}, {{{1, 2}, {1, 2}}}},
  };
  for (const Case& c : cases) {
    std::vector<Ring> holes;
    for (const std::vector<Point>& hole : c.holes) holes.emplace_back(hole);
    const Polygon want(Ring(c.outer), std::move(holes));
    const auto got = ParseWktPolygon(c.wkt);
    ASSERT_TRUE(got.has_value()) << c.wkt;
    EXPECT_EQ(got->Outer(), want.Outer()) << c.wkt;
    EXPECT_EQ(got->Outer().Bounds(), want.Outer().Bounds()) << c.wkt;
    ASSERT_EQ(got->Holes().size(), want.Holes().size()) << c.wkt;
    for (size_t h = 0; h < want.Holes().size(); ++h) {
      EXPECT_EQ(got->Holes()[h], want.Holes()[h]) << c.wkt;
      EXPECT_EQ(got->Holes()[h].Bounds(), want.Holes()[h].Bounds()) << c.wkt;
    }
  }
}

TEST(Wkt, ParsedRingsAreExactlySized) {
  Rng rng(5);
  const Polygon blob = test::RandomBlob(&rng, Point{0, 0}, 10.0, 1000, 1.0);
  const auto parsed = ParseWktPolygon(ToWkt(blob));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Outer().Vertices().capacity(), parsed->Outer().Size());
  for (const Ring& hole : parsed->Holes()) {
    EXPECT_EQ(hole.Vertices().capacity(), hole.Size());
  }
  EXPECT_EQ(parsed->Holes().capacity(), parsed->Holes().size());
}

TEST(Wkt, FailedBufferParseLeavesTheBufferAsItWas) {
  PolygonBuffer buffer;
  ASSERT_TRUE(ParseWktPolygon("POLYGON ((0 0, 1 0, 1 1))", &buffer).ok());
  const PolygonBuffer::Cursor end = buffer.End();
  const Status st = ParseWktPolygon("POLYGON ((0 0, 1 0, 1 1), (2 2, x))",
                                    &buffer);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.has_offset());
  EXPECT_EQ(buffer.End().polygon, end.polygon);
  EXPECT_EQ(buffer.End().ring, end.ring);
  EXPECT_EQ(buffer.End().vertex, end.vertex);
  ASSERT_TRUE(ParseWktPolygon("POLYGON EMPTY", &buffer).ok());
  ASSERT_EQ(buffer.Size(), 2u);
  PolygonBuffer::Cursor at;
  EXPECT_EQ(buffer.Extract(&at).Outer().Size(), 3u);
  EXPECT_TRUE(buffer.Extract(&at).Empty());
}

TEST(Wkt, CaseInsensitiveKeywordAndWhitespace) {
  EXPECT_TRUE(ParseWktPolygon("polygon((0 0,1 0,1 1))").has_value());
  EXPECT_TRUE(ParseWktPolygon("  PoLyGoN ( ( 0 0 , 1 0 , 1 1 ) ) ").has_value());
  EXPECT_TRUE(ParseWktPoint("point(3 4)").has_value());
}

TEST(Wkt, PolygonEmpty) {
  const auto empty = ParseWktPolygon("POLYGON EMPTY");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->Empty());
  EXPECT_EQ(ToWkt(Polygon{}), "POLYGON EMPTY");
}

TEST(Wkt, RejectsMalformedInput) {
  EXPECT_FALSE(ParseWktPolygon("POLYGON ((0 0, 1 0, 1 1)").has_value());
  EXPECT_FALSE(ParseWktPolygon("POLYGON (0 0, 1 0, 1 1)").has_value());
  EXPECT_FALSE(ParseWktPolygon("POLYGON ((0 zero, 1 0, 1 1))").has_value());
  EXPECT_FALSE(ParseWktPolygon("LINESTRING (0 0, 1 1)").has_value());
  EXPECT_FALSE(ParseWktPolygon("POLYGON ((0 0, 1 0, 1 1)) extra").has_value());
  EXPECT_FALSE(ParseWktPoint("POINT ()").has_value());
}

}  // namespace
}  // namespace stj
