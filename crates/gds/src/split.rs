//! Vertex-count splitter for the GDS XY record limit.
//!
//! A BOUNDARY XY record holds at most 8191 points including the explicit
//! closing point, so a polygon may carry 8190 distinct vertices. Spline
//! sampling at high densities can exceed that; oversized polygons are
//! bisected with a Sutherland–Hodgman half-plane clip along the longer
//! bounding-box axis until every piece fits. Pieces share the cut line
//! exactly (both sides interpolate the same crossing points), so the
//! union of the written pieces covers the original region.
//!
//! Sutherland–Hodgman joins disjoint pieces of a concave polygon with
//! zero-width bridges along the cut line; for the smooth, mostly convex
//! contours the OPC engine emits these do not occur in practice, and a
//! bridge is area-neutral when they do.

use std::borrow::Cow;

use cardopc_geometry::{Point, Polygon};

use crate::error::GdsError;

/// Splits `poly` into pieces of at most `max_vertices` distinct vertices.
/// A polygon that already fits comes back borrowed, not copied.
///
/// # Errors
///
/// [`GdsError::TooManyVertices`] if bisection stops making progress
/// (pathological input) before every piece fits.
pub fn split_polygon(
    poly: &Polygon,
    max_vertices: usize,
) -> Result<Vec<Cow<'_, Polygon>>, GdsError> {
    let mut out = Vec::new();
    split_into(Cow::Borrowed(poly), max_vertices.max(3), 0, &mut out)?;
    Ok(out)
}

fn split_into<'a>(
    poly: Cow<'a, Polygon>,
    max_vertices: usize,
    depth: usize,
    out: &mut Vec<Cow<'a, Polygon>>,
) -> Result<(), GdsError> {
    if poly.len() <= max_vertices {
        if poly.len() >= 3 {
            out.push(poly);
        }
        return Ok(());
    }
    // Each level halves the area; 48 levels is far past any real contour.
    if depth > 48 {
        return Err(GdsError::TooManyVertices(poly.len()));
    }
    let bbox = poly.bbox();
    let vertical_cut = bbox.width() >= bbox.height();
    let mid = if vertical_cut {
        (bbox.min.x + bbox.max.x) / 2.0
    } else {
        (bbox.min.y + bbox.max.y) / 2.0
    };
    let coord = |p: Point| if vertical_cut { p.x } else { p.y };
    let low = clip_halfplane(poly.vertices(), |p| coord(p) - mid);
    let high = clip_halfplane(poly.vertices(), |p| mid - coord(p));
    // A cut through the bbox midpoint must strictly shrink both halves;
    // if it doesn't, the polygon is degenerate beyond repair.
    if low.len() >= poly.len() + 2 && high.len() >= poly.len() + 2 {
        return Err(GdsError::TooManyVertices(poly.len()));
    }
    split_into(Cow::Owned(Polygon::new(low)), max_vertices, depth + 1, out)?;
    split_into(Cow::Owned(Polygon::new(high)), max_vertices, depth + 1, out)
}

/// Keeps the region where `f(p) <= 0`, interpolating edge crossings.
fn clip_halfplane(vertices: &[Point], f: impl Fn(Point) -> f64) -> Vec<Point> {
    let mut out = Vec::with_capacity(vertices.len() + 2);
    for i in 0..vertices.len() {
        let a = vertices[i];
        let b = vertices[(i + 1) % vertices.len()];
        let (fa, fb) = (f(a), f(b));
        if fa <= 0.0 {
            out.push(a);
        }
        if (fa < 0.0 && fb > 0.0) || (fa > 0.0 && fb < 0.0) {
            let t = fa / (fa - fb);
            out.push(a.lerp(b, t));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circle(n: usize, r: f64) -> Polygon {
        Polygon::new(
            (0..n)
                .map(|i| {
                    let a = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                    Point::new(r * a.cos(), r * a.sin())
                })
                .collect(),
        )
    }

    #[test]
    fn small_polygons_pass_through() {
        let p = circle(64, 1000.0);
        let pieces = split_polygon(&p, 8190).unwrap();
        assert_eq!(pieces.len(), 1);
        assert!(matches!(&pieces[0], Cow::Borrowed(q) if std::ptr::eq(*q, &p)));
    }

    #[test]
    fn oversized_polygons_split_and_conserve_area() {
        let p = circle(10_000, 1000.0);
        let pieces = split_polygon(&p, 8190).unwrap();
        assert!(pieces.len() >= 2);
        for piece in &pieces {
            assert!(piece.len() <= 8190, "piece with {} vertices", piece.len());
            assert!(piece.len() >= 3);
        }
        let total: f64 = pieces.iter().map(|p| p.area()).sum();
        assert!(
            (total - p.area()).abs() < p.area() * 1e-9,
            "area {total} vs {}",
            p.area()
        );
    }

    #[test]
    fn tiny_limit_still_terminates() {
        let p = circle(500, 100.0);
        let pieces = split_polygon(&p, 16).unwrap();
        let total: f64 = pieces.iter().map(|p| p.area()).sum();
        assert!((total - p.area()).abs() < p.area() * 1e-6);
        for piece in &pieces {
            assert!(piece.len() <= 16);
        }
    }

    #[test]
    fn rectangles_split_along_the_long_axis() {
        // A long thin rect forced to split cuts in x, not y.
        let p = Polygon::new(
            (0..100)
                .map(|i| Point::new(i as f64 * 10.0, 0.0))
                .chain((0..100).map(|i| Point::new(990.0 - i as f64 * 10.0, 50.0)))
                .collect(),
        );
        let pieces = split_polygon(&p, 64).unwrap();
        for piece in &pieces {
            assert!(piece.bbox().width() <= 500.0 + 1e-9);
        }
    }
}
