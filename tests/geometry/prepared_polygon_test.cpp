#include "src/geometry/prepared_polygon.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/geometry/point_in_polygon.h"
#include "src/geometry/point_on_surface.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

// The representative interior point of a PreparedPolygon: the O(n)
// centre-cut candidate when the locator certifies it, PointOnSurface
// otherwise. Either way the point must be exactly interior — that is the
// only property the relate engine relies on.

namespace stj {
namespace {

// Asserts InteriorPoint() is exactly interior by both the prepared locator
// and the plain O(n) scan; returns whether the centre-cut fast path served
// it (i.e. the fallback did not run).
bool ExpectCertifiedInterior(const Polygon& poly, const std::string& label) {
  const PreparedPolygon prepared(poly);
  const Point* p = prepared.InteriorPoint();
  EXPECT_NE(p, nullptr) << label;
  if (p == nullptr) return false;
  EXPECT_EQ(prepared.Locator().Locate(*p), Location::kInterior) << label;
  EXPECT_EQ(Locate(*p, poly), Location::kInterior) << label;
  EXPECT_EQ(prepared.InteriorPoint(), p) << label << ": not memoized";
  Point fast;
  const bool fast_ok = CentreCutInteriorPoint(poly, prepared.Locator(), &fast);
  if (fast_ok) {
    EXPECT_EQ(fast.x, p->x) << label;
    EXPECT_EQ(fast.y, p->y) << label;
  }
  return fast_ok;
}

TEST(PreparedInteriorPoint, PointOnSurfaceFixtures) {
  EXPECT_TRUE(ExpectCertifiedInterior(test::UnitSquare(), "unit square"));
  // The naive centroid falls inside the hole.
  EXPECT_TRUE(ExpectCertifiedInterior(test::SquareWithHole(0, 0, 4, 4, 1.5),
                                      "central hole"));
  // The bounding-box centre falls in the notch (exterior).
  const Polygon u_shape{Ring({Point{0, 0}, Point{5, 0}, Point{5, 4},
                              Point{4, 4}, Point{4, 1}, Point{1, 1},
                              Point{1, 4}, Point{0, 4}})};
  EXPECT_TRUE(ExpectCertifiedInterior(u_shape, "U shape"));
  EXPECT_TRUE(ExpectCertifiedInterior(
      test::Triangle(Point{0, 0}, Point{10, 1e-7}, Point{20, 0}),
      "thin sliver"));
}

TEST(PreparedInteriorPoint, RandomBlobsAlwaysInterior) {
  Rng rng(31);
  int fast = 0;
  constexpr int kBlobs = 200;
  for (int i = 0; i < kBlobs; ++i) {
    const Polygon blob = test::RandomBlob(
        &rng, Point{rng.Uniform(0, 10), rng.Uniform(0, 10)},
        rng.LogUniform(0.01, 5.0), static_cast<size_t>(rng.UniformInt(4, 200)),
        /*hole_probability=*/0.4);
    fast += ExpectCertifiedInterior(blob, "blob " + std::to_string(i)) ? 1 : 0;
  }
  // The fast path is the rule, the fallback the exception.
  EXPECT_GE(fast, kBlobs * 9 / 10);
}

TEST(PreparedInteriorPoint, LatticeDegenerateShapes) {
  // Integer-lattice shapes whose bounding-box centre sits exactly on a
  // vertex level, a horizontal edge, or a hole boundary.
  const Polygon l_shape{Ring({Point{0, 0}, Point{4, 0}, Point{4, 2},
                              Point{2, 2}, Point{2, 4}, Point{0, 4}})};
  const Polygon comb{Ring({Point{0, 0}, Point{7, 0}, Point{7, 4}, Point{6, 4},
                           Point{6, 1}, Point{5, 1}, Point{5, 4}, Point{4, 4},
                           Point{4, 1}, Point{3, 1}, Point{3, 4}, Point{2, 4},
                           Point{2, 1}, Point{1, 1}, Point{1, 4},
                           Point{0, 4}})};
  // Hole whose bottom edge lies on the centre level y = 3.
  const Polygon hole_on_centre(
      Ring({Point{0, 0}, Point{6, 0}, Point{6, 6}, Point{0, 6}}),
      {Ring({Point{1, 3}, Point{1, 5}, Point{5, 5}, Point{5, 3}})});
  // Diamond: the centre level passes through two vertices.
  const Polygon diamond{
      Ring({Point{2, 0}, Point{4, 2}, Point{2, 4}, Point{0, 2}})};
  // Staircase with collinear lattice vertices on every edge.
  const Polygon stairs{Ring({Point{0, 0}, Point{1, 0}, Point{2, 0},
                             Point{2, 1}, Point{2, 2}, Point{1, 2},
                             Point{1, 3}, Point{1, 4}, Point{0, 4},
                             Point{0, 2}})};
  const Polygon* shapes[] = {&l_shape, &comb, &hole_on_centre, &diamond,
                             &stairs};
  for (size_t i = 0; i < std::size(shapes); ++i) {
    EXPECT_TRUE(ExpectCertifiedInterior(*shapes[i],
                                        "lattice shape " + std::to_string(i)));
  }
}

TEST(PreparedInteriorPoint, FallsBackWhenNoLevelSeparatesTheCentre) {
  // The two vertex levels straddling the centre (y = 1 and the next double
  // above it) have no double strictly between them, so the centre cut has
  // no proper level and the fast path must decline; PointOnSurface then
  // supplies the point.
  const double y1 = 1.0;
  const double y2 = std::nextafter(1.0, 2.0);
  const Polygon poly{Ring({Point{0, 0}, Point{4, 0}, Point{4, y1},
                           Point{4, y2}, Point{4, 2}, Point{0, 2},
                           Point{0, y2}, Point{0, y1}})};
  const PreparedPolygon prepared(poly);
  Point fast;
  EXPECT_FALSE(CentreCutInteriorPoint(poly, prepared.Locator(), &fast));

  const Point* p = prepared.InteriorPoint();
  ASSERT_NE(p, nullptr);
  Point fallback;
  ASSERT_TRUE(PointOnSurface(poly, &fallback));
  EXPECT_EQ(p->x, fallback.x);
  EXPECT_EQ(p->y, fallback.y);
  EXPECT_EQ(prepared.Locator().Locate(*p), Location::kInterior);
  EXPECT_FALSE(ExpectCertifiedInterior(poly, "no separating level"));
}

TEST(PreparedInteriorPoint, DegenerateInputHasNoPoint) {
  const Polygon flat{Ring({Point{0, 1}, Point{4, 1}, Point{9, 1}})};
  const PreparedPolygon prepared(flat);
  EXPECT_EQ(prepared.InteriorPoint(), nullptr);
  const Polygon empty;
  const PreparedPolygon prepared_empty(empty);
  EXPECT_EQ(prepared_empty.InteriorPoint(), nullptr);
}

}  // namespace
}  // namespace stj
