//! Property-based tests for the geometry kernel.

use cardopc_geometry::{trace_contours, BBox, Grid, Point, Polygon, RTree, Segment, SplitMix64};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-1e4..1e4f64, -1e4..1e4f64).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (arb_point(), arb_point()).prop_map(|(a, b)| BBox::new(a, b))
}

proptest! {
    #[test]
    fn point_add_sub_roundtrip(a in arb_point(), b in arb_point()) {
        let c = a + b - b;
        prop_assert!((c - a).norm() <= 1e-9 * (1.0 + a.norm()));
    }

    #[test]
    fn cross_antisymmetry(a in arb_point(), b in arb_point()) {
        prop_assert_eq!(a.cross(b), -b.cross(a));
    }

    #[test]
    fn normalized_has_unit_length(a in arb_point()) {
        if let Some(u) = a.normalized() {
            prop_assert!((u.norm() - 1.0).abs() < 1e-12);
            // Same direction as the original.
            prop_assert!(u.cross(a).abs() < 1e-6 * a.norm());
        }
    }

    #[test]
    fn rotation_preserves_norm(a in arb_point(), angle in -10.0..10.0f64) {
        let r = a.rotated(angle);
        prop_assert!((r.norm() - a.norm()).abs() < 1e-9 * (1.0 + a.norm()));
    }

    #[test]
    fn bbox_union_commutative_and_covering(a in arb_bbox(), b in arb_bbox()) {
        let u = a.union(b);
        prop_assert_eq!(u, b.union(a));
        prop_assert!(u.contains_bbox(&a));
        prop_assert!(u.contains_bbox(&b));
    }

    #[test]
    fn bbox_intersects_symmetric(a in arb_bbox(), b in arb_bbox()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn segment_intersects_symmetric(a in arb_point(), b in arb_point(),
                                    c in arb_point(), d in arb_point()) {
        let s = Segment::new(a, b);
        let t = Segment::new(c, d);
        prop_assert_eq!(s.intersects(&t), t.intersects(&s));
    }

    #[test]
    fn segment_distance_zero_iff_intersecting(a in arb_point(), b in arb_point(),
                                              c in arb_point(), d in arb_point()) {
        let s = Segment::new(a, b);
        let t = Segment::new(c, d);
        let dist = s.distance_to_segment(&t);
        if s.intersects(&t) {
            prop_assert_eq!(dist, 0.0);
        } else {
            prop_assert!(dist > 0.0);
        }
    }

    #[test]
    fn closest_point_is_on_segment_and_optimal(a in arb_point(), b in arb_point(), p in arb_point()) {
        let s = Segment::new(a, b);
        let cp = s.closest_point(p);
        // cp lies on the segment.
        prop_assert!(s.distance_to_point(cp) < 1e-6);
        // No sampled point on the segment is closer.
        for k in 0..=10 {
            let q = s.at(k as f64 / 10.0);
            prop_assert!(cp.distance(p) <= q.distance(p) + 1e-9 * (1.0 + p.norm()));
        }
    }

    /// Shoelace area of a random star-shaped polygon equals the sum of its
    /// triangle fan areas.
    #[test]
    fn shoelace_matches_triangle_fan(seed in 0u64..1000, n in 3usize..20) {
        let mut rng = SplitMix64::new(seed);
        let center = Point::new(rng.range_f64(-100.0, 100.0), rng.range_f64(-100.0, 100.0));
        // Star-shaped: sorted angles around the centre guarantee simplicity.
        let mut pts: Vec<Point> = (0..n)
            .map(|i| {
                let theta = 2.0 * std::f64::consts::PI * (i as f64 + rng.next_f64() * 0.8) / n as f64;
                let r = rng.range_f64(1.0, 50.0);
                center + Point::new(theta.cos(), theta.sin()) * r
            })
            .collect();
        pts.sort_by(|a, b| {
            let ta = (a.y - center.y).atan2(a.x - center.x);
            let tb = (b.y - center.y).atan2(b.x - center.x);
            ta.total_cmp(&tb)
        });
        let poly = Polygon::new(pts.clone());
        prop_assume!(poly.len() >= 3);
        let fan: f64 = (1..poly.len() - 1)
            .map(|i| {
                let v = poly.vertices();
                0.5 * (v[i] - v[0]).cross(v[i + 1] - v[0])
            })
            .sum();
        prop_assert!((poly.signed_area() - fan).abs() < 1e-6 * (1.0 + fan.abs()));
    }

    #[test]
    fn polygon_translation_preserves_area(seed in 0u64..500, dx in -100.0..100.0f64, dy in -100.0..100.0f64) {
        let mut rng = SplitMix64::new(seed);
        let w = rng.range_f64(1.0, 100.0);
        let h = rng.range_f64(1.0, 100.0);
        let poly = Polygon::rect(Point::ZERO, Point::new(w, h));
        let moved = poly.translated(Point::new(dx, dy));
        prop_assert!((moved.area() - poly.area()).abs() < 1e-9 * poly.area());
    }

    #[test]
    fn polygon_centroid_is_inside_rect(x0 in -100.0..100.0f64, y0 in -100.0..100.0f64,
                                        w in 1.0..100.0f64, h in 1.0..100.0f64) {
        let poly = Polygon::rect(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
        prop_assert!(poly.contains(poly.centroid()));
    }

    /// R-tree query results always match a brute-force scan, and the
    /// visitor form on a reused caller-owned stack is the same walk as
    /// `query_indices`.
    #[test]
    fn rtree_matches_linear_scan(seed in 0u64..200, n in 1usize..200) {
        let mut rng = SplitMix64::new(seed);
        let items: Vec<(BBox, usize)> = (0..n)
            .map(|i| {
                let x = rng.range_f64(0.0, 500.0);
                let y = rng.range_f64(0.0, 500.0);
                let b = BBox::new(
                    Point::new(x, y),
                    Point::new(x + rng.range_f64(0.0, 30.0), y + rng.range_f64(0.0, 30.0)),
                );
                (b, i)
            })
            .collect();
        let tree = RTree::bulk_load(items.clone());
        let mut stack = vec![usize::MAX; 3];
        for _ in 0..5 {
            let x = rng.range_f64(-50.0, 500.0);
            let y = rng.range_f64(-50.0, 500.0);
            let q = BBox::new(Point::new(x, y), Point::new(x + 100.0, y + 100.0));
            let mut got: Vec<usize> = tree.query(&q).copied().collect();
            got.sort_unstable();
            let mut want: Vec<usize> = items
                .iter()
                .filter(|(b, _)| b.intersects(&q))
                .map(|&(_, i)| i)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(&got, &want);
            let mut visited = Vec::new();
            tree.for_each_in(&q, &mut stack, |i| visited.push(i));
            prop_assert_eq!(&visited, &tree.query_indices(&q));
            visited.sort_unstable();
            prop_assert_eq!(visited, want);
        }
    }

    /// Contours of random rectangular blocks are closed, correctly oriented
    /// and have area close to the block area.
    #[test]
    fn contour_of_random_block(x0 in 1usize..10, y0 in 1usize..10,
                               w in 2usize..8, h in 2usize..8) {
        let mut g = Grid::zeros(20, 20, 1.0);
        for iy in y0..y0 + h {
            for ix in x0..x0 + w {
                g[(ix, iy)] = 1.0;
            }
        }
        let cs = trace_contours(&g, 0.5);
        prop_assert_eq!(cs.len(), 1);
        let c = &cs[0];
        prop_assert!(c.signed_area() > 0.0);
        let expected = (w * h) as f64;
        prop_assert!((c.area() - expected).abs() < 0.30 * expected + 1.0,
                     "area {} vs expected {}", c.area(), expected);
        for e in c.edges() {
            prop_assert!(e.length() < 2.0, "contour has a gap: edge length {}", e.length());
        }
    }

    /// Every contour vertex sits exactly on the iso-level when bilinearly
    /// sampled (within interpolation tolerance).
    #[test]
    fn contour_vertices_near_iso_level(seed in 0u64..100) {
        let mut rng = SplitMix64::new(seed);
        let mut g = Grid::zeros(16, 16, 1.0);
        // Smooth random bump field.
        for _ in 0..3 {
            let cx = rng.range_f64(3.0, 13.0);
            let cy = rng.range_f64(3.0, 13.0);
            let s = rng.range_f64(1.5, 4.0);
            for iy in 0..16 {
                for ix in 0..16 {
                    let dx = (ix as f64 + 0.5 - cx) / s;
                    let dy = (iy as f64 + 0.5 - cy) / s;
                    g[(ix, iy)] += (-0.5 * (dx * dx + dy * dy)).exp();
                }
            }
        }
        for c in trace_contours(&g, 0.5) {
            for v in c.vertices() {
                // Skip vertices produced by the virtual border padding.
                if v.x < 1.0 || v.y < 1.0 || v.x > 15.0 || v.y > 15.0 {
                    continue;
                }
                let val = g.sample(v.x, v.y);
                prop_assert!((val - 0.5).abs() < 0.2,
                             "vertex {v} has field value {val}, far from iso 0.5");
            }
        }
    }
}
