#include "src/de9im/boundary_arrangement.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "src/de9im/relate_engine.h"
#include "src/geometry/point_in_polygon.h"
#include "src/geometry/prepared_polygon.h"
#include "tests/test_support.h"

namespace stj::de9im {
namespace {

using test::Square;
using test::Triangle;

TEST(BoundaryArrangement, DisjointPolygonsKeepWholeEdges) {
  const Polygon a = Square(0, 0, 1, 1);
  const Polygon b = Square(5, 5, 6, 6);
  const Arrangement arr = ComputeArrangement(a, b);
  EXPECT_FALSE(arr.boundaries_touch);
  EXPECT_FALSE(arr.r.has_shared_piece);
  EXPECT_FALSE(arr.s.has_shared_piece);
  // One midpoint per edge, no splits (whole edges missing the other MBR are
  // counted as far edges instead).
  EXPECT_EQ(arr.r.midpoints.size() + arr.r.far_edges, 4u);
  EXPECT_EQ(arr.s.midpoints.size() + arr.s.far_edges, 4u);
}

TEST(BoundaryArrangement, ProperCrossingSplitsEdges) {
  // Overlapping squares: each boundary crosses the other twice.
  const Polygon a = Square(0, 0, 2, 2);
  const Polygon b = Square(1, 1, 3, 3);
  const Arrangement arr = ComputeArrangement(a, b);
  EXPECT_TRUE(arr.boundaries_touch);
  EXPECT_FALSE(arr.r.has_shared_piece);
  // Two of a's edges split once each: 4 + 2 midpoints.
  EXPECT_EQ(arr.r.midpoints.size() + arr.r.far_edges, 6u);
  EXPECT_EQ(arr.s.midpoints.size() + arr.s.far_edges, 6u);
}

TEST(BoundaryArrangement, SharedEdgeIsDetectedCombinatorially) {
  const Polygon a = Square(0, 0, 1, 1);
  const Polygon b = Square(1, 0, 2, 1);  // shares the x=1 edge
  const Arrangement arr = ComputeArrangement(a, b);
  EXPECT_TRUE(arr.boundaries_touch);
  EXPECT_TRUE(arr.r.has_shared_piece);
  EXPECT_TRUE(arr.s.has_shared_piece);
  // The shared edge produces no midpoint (it is classified as boundary
  // directly); the other 3 edges of each square produce one midpoint each.
  EXPECT_EQ(arr.r.midpoints.size() + arr.r.far_edges, 3u);
  EXPECT_EQ(arr.s.midpoints.size() + arr.s.far_edges, 3u);
}

TEST(BoundaryArrangement, PartialEdgeOverlapSplitsAroundSharedPiece) {
  // a's right edge [x=2, y in 0..2]; b's left edge [x=2, y in 1..3]:
  // shared piece y in [1,2].
  const Polygon a = Square(0, 0, 2, 2);
  const Polygon b = Square(2, 1, 4, 3);
  const Arrangement arr = ComputeArrangement(a, b);
  EXPECT_TRUE(arr.r.has_shared_piece);
  EXPECT_TRUE(arr.s.has_shared_piece);
  // a: 3 whole edges + right edge splits into [0,1) shared-free piece.
  EXPECT_EQ(arr.r.midpoints.size() + arr.r.far_edges, 4u);
  EXPECT_EQ(arr.s.midpoints.size() + arr.s.far_edges, 4u);
  // All midpoints must be off the other polygon's boundary in exact terms.
  for (const Point& mid : arr.r.midpoints) {
    EXPECT_NE(Locate(mid, b), Location::kBoundary);
  }
}

TEST(BoundaryArrangement, IdenticalPolygonsHaveOnlySharedPieces) {
  const Polygon square = Square(0, 0, 3, 3);
  const Arrangement arr = ComputeArrangement(square, square);
  EXPECT_TRUE(arr.boundaries_touch);
  EXPECT_TRUE(arr.r.has_shared_piece);
  EXPECT_TRUE(arr.s.has_shared_piece);
  EXPECT_TRUE(arr.r.midpoints.empty());
  EXPECT_TRUE(arr.s.midpoints.empty());
}

TEST(BoundaryArrangement, VertexTouchRecordsNoSplitInteriorToEdges) {
  // Triangles sharing a single vertex.
  const Polygon a = Triangle(Point{0, 0}, Point{2, 0}, Point{1, 1});
  const Polygon b = Triangle(Point{1, 1}, Point{0, 2}, Point{2, 2});
  const Arrangement arr = ComputeArrangement(a, b);
  EXPECT_TRUE(arr.boundaries_touch);
  EXPECT_FALSE(arr.r.has_shared_piece);
  // The touch is at existing vertices: edges stay whole.
  EXPECT_EQ(arr.r.midpoints.size() + arr.r.far_edges, 3u);
  EXPECT_EQ(arr.s.midpoints.size() + arr.s.far_edges, 3u);
}

TEST(BoundaryArrangement, TJunctionSplitsTheThroughEdge) {
  // b's corner (1,0) lies in the middle of a's bottom edge.
  const Polygon a = Square(0, 0, 2, 2);
  const Polygon b = Triangle(Point{1, 0}, Point{3, -2}, Point{3, 0});
  const Arrangement arr = ComputeArrangement(a, b);
  EXPECT_TRUE(arr.boundaries_touch);
  // a's bottom edge splits at x=1... but (2,0)-(3,0) of b also overlaps? No:
  // b's top edge runs from (3,0) to (1,0): collinear with a's bottom edge
  // y=0 for x in [1,2] -> shared piece!
  EXPECT_TRUE(arr.r.has_shared_piece);
  EXPECT_TRUE(arr.s.has_shared_piece);
}

TEST(BoundaryArrangement, MidpointsClassifyCleanly) {
  // Every reported midpoint must locate strictly interior or exterior to
  // the other polygon (the invariant the relate engine depends on).
  const Polygon shapes[] = {
      Square(0, 0, 2, 2), Square(1, 1, 3, 3), Square(1, 0, 2, 2),
      test::SquareWithHole(0, 0, 6, 6, 2),
      Triangle(Point{0, 0}, Point{6, 0}, Point{3, 5})};
  for (const Polygon& a : shapes) {
    for (const Polygon& b : shapes) {
      const Arrangement arr = ComputeArrangement(a, b);
      for (const Point& mid : arr.r.midpoints) {
        EXPECT_NE(Locate(mid, b), Location::kBoundary);
      }
      for (const Point& mid : arr.s.midpoints) {
        EXPECT_NE(Locate(mid, a), Location::kBoundary);
      }
    }
  }
}

// A regular polygon with many vertices, centred on the origin.
Polygon RegularPolygon(size_t n, double radius) {
  std::vector<Point> vertices;
  for (size_t i = 0; i < n; ++i) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(i) /
                         static_cast<double>(n);
    vertices.push_back(Point{radius * std::cos(angle),
                             radius * std::sin(angle)});
  }
  return Polygon(Ring(std::move(vertices)));
}

TEST(BoundaryArrangement, SmallAgainstLargeCountsFarEdges) {
  // Small squares against a 256-gon of radius 100: nearly every edge of the
  // large polygon misses the small one's MBR, so it is counted, not split
  // and located. The matrices are the ones the geometry dictates, and the
  // cached-prepared path agrees with the one-shot relate.
  const Polygon large = RegularPolygon(256, 100.0);
  const PreparedPolygon prepared_large(large);
  prepared_large.Warm();
  struct Case {
    Polygon small;
    const char* matrix;
    size_t small_far_edges;
  };
  const Case cases[] = {
      {Square(-1, -1, 1, 1), "2FF1FF212", 0},    // deep inside: within
      {Square(95, -5, 105, 5), "212101212", 1},  // straddles the boundary;
                                                 // its x = 105 side is far
      {Square(80, 80, 82, 82), "FF2FF1212", 0},  // inside the MBR, outside
  };
  for (const Case& c : cases) {
    const PreparedPolygon prepared_small(c.small);
    const Arrangement arr = ComputeArrangement(prepared_small, prepared_large);
    EXPECT_GT(arr.s.far_edges, 200u) << c.matrix;
    EXPECT_EQ(arr.r.far_edges, c.small_far_edges) << c.matrix;
    EXPECT_LE(arr.s.midpoints.size(), 8u) << c.matrix;
    const Matrix prepared =
        RelateEngine::Relate(prepared_small, prepared_large);
    EXPECT_EQ(prepared.ToString(), c.matrix);
    EXPECT_EQ(RelateEngine::Relate(c.small, large).ToString(), c.matrix);
    // Transposed roles: the far edges are now on the r side.
    const Arrangement flipped =
        ComputeArrangement(prepared_large, prepared_small);
    EXPECT_EQ(flipped.r.far_edges, arr.s.far_edges) << c.matrix;
    EXPECT_EQ(RelateEngine::Relate(prepared_large, prepared_small),
              prepared.Transposed())
        << c.matrix;
  }
  // Deep inside, no edge of the large polygon is near: every one is far.
  const Arrangement inside =
      ComputeArrangement(PreparedPolygon(cases[0].small), prepared_large);
  EXPECT_EQ(inside.s.far_edges, 256u);
  EXPECT_TRUE(inside.s.midpoints.empty());
  EXPECT_EQ(inside.r.midpoints.size(), 4u);
}

}  // namespace
}  // namespace stj::de9im
