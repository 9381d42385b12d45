// The CSR slab indexes (PolygonLocator, EdgeSlabIndex) against brute-force
// scans: Locate must agree with the plain O(n) point-in-polygon scan, and
// EdgeSlabIndex::Probe must report every edge whose y-span meets the probe
// range exactly once, in the order a per-slab bucket build visits them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/geometry/edge_slab_index.h"
#include "src/geometry/locator.h"
#include "src/geometry/point_in_polygon.h"
#include "src/geometry/prepared_polygon.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace stj {
namespace {

// The visit order of Probe under the slab rule the index documents (~4
// edges per slab over the owner's y-extent), built the direct way: one
// bucket per slab, edges appended in index order, buckets walked low to
// high with repeats dropped.
std::vector<uint32_t> ReferenceProbe(const std::vector<Segment>& edges,
                                     const Box& bounds, double ylo,
                                     double yhi) {
  size_t slabs = std::max<size_t>(1, edges.size() / 4);
  const double height = bounds.Height();
  const double inv = (height > 0.0 && slabs > 1)
                         ? static_cast<double>(slabs) / height
                         : 0.0;
  if (inv == 0.0) slabs = 1;
  const auto slab_of = [&](double y) -> size_t {
    if (slabs == 1) return 0;
    const double t = (y - bounds.min.y) * inv;
    if (t <= 0.0) return 0;
    return std::min(static_cast<size_t>(t), slabs - 1);
  };
  std::vector<std::vector<uint32_t>> buckets(slabs);
  for (size_t i = 0; i < edges.size(); ++i) {
    const Segment& e = edges[i];
    for (size_t s = slab_of(std::min(e.a.y, e.b.y));
         s <= slab_of(std::max(e.a.y, e.b.y)); ++s) {
      buckets[s].push_back(static_cast<uint32_t>(i));
    }
  }
  std::vector<uint32_t> out;
  std::vector<bool> seen(edges.size(), false);
  for (size_t s = slab_of(ylo); s <= slab_of(yhi); ++s) {
    for (const uint32_t i : buckets[s]) {
      if (seen[i]) continue;
      seen[i] = true;
      out.push_back(i);
    }
  }
  return out;
}

// Probes `poly`'s edge index over a sweep of y-ranges and checks each
// against the brute-force overlap set and the reference visit order.
void CheckProbes(const Polygon& poly, Rng* rng, const std::string& label) {
  const PreparedPolygon prepared(poly);
  const std::vector<Segment>& edges = prepared.Edges();
  const EdgeSlabIndex& index = prepared.EdgeIndex();
  const Box bounds = poly.Bounds();
  const double pad = 0.25 * std::max(bounds.Height(), 1.0);
  for (int q = 0; q < 60; ++q) {
    double ylo = rng->Uniform(bounds.min.y - pad, bounds.max.y + pad);
    double yhi = rng->Uniform(bounds.min.y - pad, bounds.max.y + pad);
    if (q % 5 == 0) yhi = ylo;  // point probes
    if (q % 7 == 0) ylo = edges[static_cast<size_t>(q) % edges.size()].a.y;
    if (ylo > yhi) std::swap(ylo, yhi);
    std::vector<uint32_t> got;
    index.Probe(ylo, yhi, [&](uint32_t i) { got.push_back(i); });
    ASSERT_EQ(got, ReferenceProbe(edges, bounds, ylo, yhi))
        << label << " probe " << q;
    std::vector<uint32_t> sorted = got;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << label << ": edge reported twice";
    for (size_t i = 0; i < edges.size(); ++i) {
      const double lo = std::min(edges[i].a.y, edges[i].b.y);
      const double hi = std::max(edges[i].a.y, edges[i].b.y);
      if (lo <= yhi && hi >= ylo) {
        ASSERT_TRUE(std::binary_search(sorted.begin(), sorted.end(),
                                       static_cast<uint32_t>(i)))
            << label << " probe " << q << " missed edge " << i;
      }
    }
  }
}

// Locates probe points (random, vertices, edge midpoints) through the CSR
// locator and the plain scan.
void CheckLocate(const Polygon& poly, Rng* rng, const std::string& label) {
  const PolygonLocator locator(poly);
  const Box area = poly.Bounds().Inflated(0.5);
  std::vector<Point> probes;
  for (int i = 0; i < 200; ++i) {
    probes.push_back(Point{rng->Uniform(area.min.x, area.max.x),
                           rng->Uniform(area.min.y, area.max.y)});
  }
  poly.ForEachEdge([&probes](const Segment& e) {
    probes.push_back(e.a);
    probes.push_back(e.Mid());
  });
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(locator.Locate(probes[i]), Locate(probes[i], poly))
        << label << " probe " << i << " (" << probes[i].x << ", "
        << probes[i].y << ")";
  }
}

// Tall thin teeth: every tooth side spans most of the slabs.
Polygon Comb(int teeth) {
  std::vector<Point> v{Point{0, 0}, Point{2.0 * teeth, 0}};
  for (int t = teeth - 1; t >= 0; --t) {
    v.push_back(Point{2.0 * t + 1.5, 100});
    v.push_back(Point{2.0 * t + 1.0, 1});
    v.push_back(Point{2.0 * t + 0.5, 1});
    v.push_back(Point{2.0 * t, 100});
  }
  return Polygon(Ring(std::move(v)));
}

TEST(SlabIndexCsr, EdgesSpanningManySlabs) {
  Rng rng(5);
  const Polygon comb = Comb(12);
  CheckProbes(comb, &rng, "comb");
  CheckLocate(comb, &rng, "comb");
}

TEST(SlabIndexCsr, ZeroHeightPolygonUsesOneSlab) {
  Rng rng(6);
  const Polygon flat{Ring({Point{0, 2}, Point{3, 2}, Point{5, 2}, Point{9, 2},
                           Point{12, 2}, Point{4, 2}, Point{1, 2},
                           Point{0.5, 2}, Point{0.25, 2}})};
  CheckProbes(flat, &rng, "flat");
  CheckLocate(flat, &rng, "flat");
}

TEST(SlabIndexCsr, PolygonsWithHoles) {
  Rng rng(7);
  CheckProbes(test::SquareWithHole(0, 0, 8, 8, 2), &rng, "square with hole");
  CheckLocate(test::SquareWithHole(0, 0, 8, 8, 2), &rng, "square with hole");
  for (int i = 0; i < 20; ++i) {
    const Polygon blob = test::RandomBlob(
        &rng, Point{rng.Uniform(0, 10), rng.Uniform(0, 10)},
        rng.LogUniform(0.5, 3.0), static_cast<size_t>(rng.UniformInt(8, 300)),
        /*hole_probability=*/1.0);
    CheckProbes(blob, &rng, "holed blob " + std::to_string(i));
    CheckLocate(blob, &rng, "holed blob " + std::to_string(i));
  }
}

TEST(SlabIndexCsr, VertexCountsNotDivisibleByFour) {
  Rng rng(8);
  for (size_t n = 3; n <= 23; ++n) {
    const Polygon blob = test::RandomBlob(&rng, Point{5, 5}, 2.0, n);
    CheckProbes(blob, &rng, "blob n=" + std::to_string(n));
    CheckLocate(blob, &rng, "blob n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace stj
