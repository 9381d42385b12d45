#pragma once

#include <string>
#include <string_view>

#include "src/geometry/point.h"
#include "src/geometry/polygon.h"
#include "src/util/status.h"

namespace stj {

/// Serialises \p p as "POINT (x y)".
std::string ToWkt(const Point& p);

/// Serialises \p poly as "POLYGON ((x y, ...), (hole...), ...)" with rings
/// explicitly closed (first vertex repeated last), as OGC WKT requires.
std::string ToWkt(const Polygon& poly);

/// Parses a WKT POINT. On malformed input the Status pinpoints the problem
/// with a message and the 0-based byte offset into \p wkt.
Result<Point> ParseWktPoint(std::string_view wkt);

/// Parses a WKT POLYGON (outer ring plus optional holes) and appends it to
/// \p out. Accepts both closed and unclosed rings. On malformed input \p out
/// is left as it was and the Status pinpoints the problem with a message and
/// the 0-based byte offset into \p wkt. The one POLYGON grammar: the overload
/// below wraps it.
Status ParseWktPolygon(std::string_view wkt, PolygonBuffer* out);

/// ParseWktPolygon into a Polygon whose rings are allocated at their exact
/// size.
Result<Polygon> ParseWktPolygon(std::string_view wkt);

}  // namespace stj
