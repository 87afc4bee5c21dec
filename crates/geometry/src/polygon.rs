//! Simple polygons: area, containment, orientation, edge iteration.

use crate::{BBox, Point, Segment, EPS};
use std::fmt;

/// Winding orientation of a closed polygon boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// Counter-clockwise (positive signed area).
    CounterClockwise,
    /// Clockwise (negative signed area).
    Clockwise,
    /// Degenerate (zero signed area).
    Degenerate,
}

/// A simple closed polygon given by its vertex ring (implicitly closed: the
/// last vertex connects back to the first).
///
/// Mask shapes — both the Manhattan input patterns and the dense polylines
/// sampled from cardinal splines — are represented as `Polygon`s. Area is
/// computed with the shoelace formula exactly as the paper's area-rule check
/// does.
///
/// ```
/// use cardopc_geometry::{Point, Polygon};
///
/// let tri = Polygon::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(4.0, 0.0),
///     Point::new(0.0, 3.0),
/// ]);
/// assert_eq!(tri.area(), 6.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from its vertex ring.
    ///
    /// Consecutive duplicate vertices (within [`EPS`]) are removed, as is
    /// the trailing run of vertices within [`EPS`] of the first (a closing
    /// vertex), so the ring it builds is one it leaves unchanged.
    pub fn new(mut vertices: Vec<Point>) -> Self {
        vertices.dedup_by(|a, b| a.distance_sq(*b) <= EPS * EPS);
        while vertices.len() > 1
            && vertices[vertices.len() - 1].distance_sq(vertices[0]) <= EPS * EPS
        {
            vertices.pop();
        }
        Polygon { vertices }
    }

    /// Axis-aligned rectangle from two opposite corners.
    pub fn rect(a: Point, b: Point) -> Self {
        let lo = a.min(b);
        let hi = a.max(b);
        Polygon {
            vertices: vec![lo, Point::new(hi.x, lo.y), hi, Point::new(lo.x, hi.y)],
        }
    }

    /// The vertex ring.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Mutable access to the vertex ring.
    #[inline]
    pub fn vertices_mut(&mut self) -> &mut [Point] {
        &mut self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` when the polygon has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Iterator over the boundary edges, including the closing edge.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Signed area by the shoelace formula: positive for counter-clockwise
    /// rings, negative for clockwise rings.
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        if n < 3 {
            return 0.0;
        }
        let mut twice = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            twice += p.cross(q);
        }
        0.5 * twice
    }

    /// Absolute area (the quantity checked by the MRC area rule).
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Total boundary length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Winding orientation of the ring.
    pub fn orientation(&self) -> Orientation {
        let a = self.signed_area();
        if a > EPS {
            Orientation::CounterClockwise
        } else if a < -EPS {
            Orientation::Clockwise
        } else {
            Orientation::Degenerate
        }
    }

    /// Reverses the ring in place, flipping the orientation.
    pub fn reverse(&mut self) {
        self.vertices.reverse();
    }

    /// Returns the polygon with counter-clockwise orientation.
    pub fn into_ccw(mut self) -> Self {
        if self.orientation() == Orientation::Clockwise {
            self.reverse();
        }
        self
    }

    /// Bounding box of the vertices.
    pub fn bbox(&self) -> BBox {
        BBox::from_points(self.vertices.iter().copied())
    }

    /// Centroid of the polygon region (vertex average for degenerate rings).
    pub fn centroid(&self) -> Point {
        let a = self.signed_area();
        let n = self.vertices.len();
        if n == 0 {
            return Point::ZERO;
        }
        if a.abs() <= EPS {
            let sum = self.vertices.iter().fold(Point::ZERO, |acc, &p| acc + p);
            return sum / n as f64;
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Point::new(cx / (6.0 * a), cy / (6.0 * a))
    }

    /// Even-odd (crossing-number) point containment test.
    ///
    /// Points exactly on the boundary are reported as contained.
    pub fn contains(&self, p: Point) -> bool {
        let n = self.vertices.len();
        if n < 3 {
            return false;
        }
        // Boundary counts as inside.
        for e in self.edges() {
            if e.distance_to_point(p) <= EPS {
                return true;
            }
        }
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let pi = self.vertices[i];
            let pj = self.vertices[j];
            if (pi.y > p.y) != (pj.y > p.y) {
                let x_cross = pj.x + (p.y - pj.y) / (pi.y - pj.y) * (pi.x - pj.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// `true` when every edge is axis-parallel (a Manhattan polygon).
    pub fn is_rectilinear(&self) -> bool {
        self.edges()
            .all(|e| (e.a.x - e.b.x).abs() <= EPS || (e.a.y - e.b.y).abs() <= EPS)
    }

    /// Translates every vertex by `delta`.
    pub fn translate(&mut self, delta: Point) {
        for v in &mut self.vertices {
            *v += delta;
        }
    }

    /// Returns a translated copy.
    pub fn translated(&self, delta: Point) -> Self {
        let mut p = self.clone();
        p.translate(delta);
        p
    }

    /// Minimum distance from the polygon boundary to a point (zero on the
    /// boundary; interior points report their distance to the boundary, not
    /// zero — use [`Polygon::contains`] for containment).
    pub fn boundary_distance(&self, p: Point) -> f64 {
        self.edges()
            .map(|e| e.distance_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polygon[{} vertices]", self.vertices.len())
    }
}

impl FromIterator<Point> for Polygon {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        Polygon::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square10() -> Polygon {
        Polygon::rect(Point::new(0.0, 0.0), Point::new(10.0, 10.0))
    }

    #[test]
    fn rect_area_perimeter() {
        let r = Polygon::rect(Point::new(0.0, 0.0), Point::new(10.0, 4.0));
        assert_eq!(r.area(), 40.0);
        assert_eq!(r.perimeter(), 28.0);
        assert_eq!(r.orientation(), Orientation::CounterClockwise);
    }

    #[test]
    fn signed_area_flips_with_orientation() {
        let mut r = square10();
        let a = r.signed_area();
        r.reverse();
        assert_eq!(r.signed_area(), -a);
        assert_eq!(r.orientation(), Orientation::Clockwise);
        assert_eq!(r.into_ccw().orientation(), Orientation::CounterClockwise);
    }

    #[test]
    fn closing_vertex_removed() {
        let p = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
        ]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn closing_run_removed_whole() {
        // Two closing vertices within EPS of the first but 1.4e-9 apart:
        // both go, so rebuilding the polygon leaves it unchanged.
        let ring = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
            Point::new(-0.5e-9, 0.0),
            Point::new(0.9e-9, 0.0),
        ];
        let p = Polygon::new(ring);
        assert_eq!(p.len(), 3);
        assert_eq!(Polygon::new(p.vertices().to_vec()), p);
        // A run back to the first vertex leaves the first alone.
        let p = Polygon::new(vec![
            Point::ZERO,
            Point::new(0.9e-9, 0.0),
            Point::new(-0.5e-9, 0.0),
        ]);
        assert_eq!(p.vertices(), &[Point::ZERO]);
    }

    #[test]
    fn duplicate_vertices_removed() {
        let p = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
        ]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn containment_inside_outside_boundary() {
        let s = square10();
        assert!(s.contains(Point::new(5.0, 5.0)));
        assert!(!s.contains(Point::new(15.0, 5.0)));
        assert!(s.contains(Point::new(0.0, 5.0))); // on boundary
        assert!(s.contains(Point::new(10.0, 10.0))); // corner
    }

    #[test]
    fn containment_concave() {
        // L-shape.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 4.0),
            Point::new(4.0, 4.0),
            Point::new(4.0, 10.0),
            Point::new(0.0, 10.0),
        ]);
        assert!(l.contains(Point::new(2.0, 8.0)));
        assert!(l.contains(Point::new(8.0, 2.0)));
        assert!(!l.contains(Point::new(8.0, 8.0))); // the notch
        assert_eq!(l.area(), 64.0);
    }

    #[test]
    fn centroid_of_rect() {
        let r = Polygon::rect(Point::new(0.0, 0.0), Point::new(4.0, 2.0));
        assert_eq!(r.centroid(), Point::new(2.0, 1.0));
        // Orientation must not change the centroid.
        let mut rr = r.clone();
        rr.reverse();
        assert_eq!(rr.centroid(), Point::new(2.0, 1.0));
    }

    #[test]
    fn rectilinear_detection() {
        assert!(square10().is_rectilinear());
        let tri = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 3.0),
        ]);
        assert!(!tri.is_rectilinear());
    }

    #[test]
    fn translate_shifts_bbox() {
        let t = square10().translated(Point::new(5.0, -2.0));
        assert_eq!(t.bbox().min, Point::new(5.0, -2.0));
        assert_eq!(t.bbox().max, Point::new(15.0, 8.0));
        assert_eq!(t.area(), 100.0);
    }

    #[test]
    fn edges_count_and_closure() {
        let s = square10();
        let edges: Vec<_> = s.edges().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[3].b, s.vertices()[0]);
    }

    #[test]
    fn boundary_distance() {
        let s = square10();
        assert_eq!(s.boundary_distance(Point::new(5.0, 5.0)), 5.0);
        assert_eq!(s.boundary_distance(Point::new(12.0, 5.0)), 2.0);
        assert_eq!(s.boundary_distance(Point::new(10.0, 5.0)), 0.0);
    }

    #[test]
    fn degenerate_polygons() {
        let empty = Polygon::new(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.area(), 0.0);
        let line = Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
        assert_eq!(line.area(), 0.0);
        assert_eq!(line.orientation(), Orientation::Degenerate);
        assert!(!line.contains(Point::new(0.5, 0.0)));
    }
}
