//! The EPE-feedback correction step (§III-E).
//!
//! With the diagonal-Jacobian approximation of Eq. (5)–(6), each control
//! point moves against its own EPE: `Δd_i = −clamp(e_i, ±step)`. The move
//! *direction* is the outward spline normal at the control point (Eq. 8),
//! and the applied move vectors are blended over neighbouring control
//! points of the same shape with binomial weights (Eq. 7), which mimics a
//! multi-segment solver and keeps the boundary smooth.

use crate::control::OpcShape;
use cardopc_geometry::{Grid, Point};
use cardopc_litho::{epe_at, CachePadded, WorkerPool};

/// Parameters of one correction sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorrectionStep {
    /// Maximum move distance this iteration, nm.
    pub step_limit: f64,
    /// Half-width `W` of the neighbour-averaging window.
    pub smooth_window: usize,
    /// EPE search range along the normal, nm.
    pub epe_search: f64,
    /// Move along the current spline normal (`true`, Eq. 8 — required for
    /// any-angle edges) or along the frozen target-anchor normal (`false`
    /// — keeps moves purely perpendicular on Manhattan targets, damping
    /// edge ripple).
    pub spline_normals: bool,
}

/// Reusable per-worker scratch for [`correct_shapes_recording`]: after the
/// first sweep the correction loop performs no per-shape allocations.
#[derive(Clone, Debug, Default)]
pub struct CorrectScratch {
    /// Holds the per-anchor EPEs, then (in place) the clamped raw moves.
    moves: Vec<f64>,
    /// Outward unit move directions.
    outward: Vec<Point>,
    /// Binomially blended move distances.
    blended: Vec<f64>,
}

/// Applies one correction sweep to every non-SRAF shape; returns the sum
/// of |EPE| over all anchors (the convergence signal), and records each
/// shape's |EPE| sum for this sweep into `per_shape` (resized to
/// `shapes.len()`; SRAF entries stay `0.0`). The returned total is the
/// sum of `per_shape` in shape order. Tiled runtimes use the per-shape
/// totals to aggregate convergence signals over owner-tile shapes only.
///
/// Each shape's correction only reads the (shared) aerial image and writes
/// its own control points, so shapes are statically chunked across the
/// global [`WorkerPool`]'s task slots, each slot reusing one
/// [`CorrectScratch`]. Per-shape totals land in the slot-independent,
/// shape-indexed `per_shape` and are reduced in shape order afterwards,
/// so the returned total and every control point are **bit-identical for
/// any worker count** (the same guarantee the litho engine gives for
/// `aerial_image`).
pub fn correct_shapes_recording(
    shapes: &mut [OpcShape],
    aerial: &Grid,
    threshold: f64,
    step: &CorrectionStep,
    per_shape: &mut Vec<f64>,
) -> f64 {
    per_shape.clear();
    per_shape.resize(shapes.len(), 0.0);
    correct_into(
        shapes,
        aerial,
        threshold,
        step,
        WorkerPool::global(),
        per_shape,
    )
}

/// The shared sweep body: writes per-shape |EPE| totals into the
/// caller-provided shape-indexed buffer (`totals.len() == shapes.len()`)
/// and returns their sum in shape order.
fn correct_into(
    shapes: &mut [OpcShape],
    aerial: &Grid,
    threshold: f64,
    step: &CorrectionStep,
    pool: &WorkerPool,
    totals: &mut [f64],
) -> f64 {
    let n = shapes.len();
    debug_assert_eq!(totals.len(), n);
    if n == 0 {
        return 0.0;
    }
    let weights = binomial_weights(step.smooth_window);
    let tasks = pool.parallelism().clamp(1, n);
    let chunk = n.div_ceil(tasks);

    // Padded: each slot's scratch is refilled for every shape it corrects.
    struct Slot<'a> {
        work: Vec<(&'a mut OpcShape, &'a mut f64)>,
        scratch: CorrectScratch,
    }
    let mut slots: Vec<CachePadded<Slot>> = (0..tasks)
        .map(|_| {
            CachePadded(Slot {
                work: Vec::new(),
                scratch: CorrectScratch::default(),
            })
        })
        .collect();
    for t in totals.iter_mut() {
        *t = 0.0;
    }
    for (i, pair) in shapes.iter_mut().zip(totals.iter_mut()).enumerate() {
        slots[i / chunk].0.work.push(pair);
    }

    pool.run_with_slots(&mut slots, |_t, CachePadded(slot)| {
        for (shape, total) in slot.work.iter_mut() {
            if shape.is_sraf {
                continue;
            }
            **total = correct_one(shape, aerial, threshold, step, &weights, &mut slot.scratch);
        }
    });

    totals.iter().sum()
}

fn correct_one(
    shape: &mut OpcShape,
    aerial: &Grid,
    threshold: f64,
    step: &CorrectionStep,
    weights: &[f64],
    scratch: &mut CorrectScratch,
) -> f64 {
    let n = shape.spline.control_points().len();
    debug_assert_eq!(shape.anchors.len(), n, "anchor/control point mismatch");

    // 1. EPE at each (frozen) anchor.
    scratch.moves.clear();
    scratch.moves.extend(
        shape
            .anchors
            .iter()
            .map(|a| epe_at(aerial, threshold, a, step.epe_search)),
    );
    let total: f64 = scratch.moves.iter().map(|e| e.abs()).sum();

    // 2. Outward move directions: the current spline normals (Eq. 8) or
    //    the frozen anchor normals.
    if step.spline_normals {
        outward_normals_into(shape, &mut scratch.outward);
    } else {
        scratch.outward.clear();
        scratch
            .outward
            .extend(shape.anchors.iter().map(|a| a.normal));
    }

    // 3. Raw signed move distances (in place over the EPEs): positive EPE
    //    (over-print) pulls inward (negative distance along the outward
    //    direction).
    for e in &mut scratch.moves {
        *e = (-*e).clamp(-step.step_limit, step.step_limit);
    }

    // 4. Binomial neighbour blending of the move *distances* (Eq. 7).
    //    Each point then moves along its own normal — blending the full
    //    vectors instead would leak tangential components at corners,
    //    letting control points drift along the boundary unchecked (the
    //    anchors are frozen, so tangential drift is never corrected).
    let w = step.smooth_window as isize;
    scratch.blended.clear();
    scratch.blended.extend((0..n as isize).map(|i| {
        let mut acc = 0.0;
        for (j, &wk) in weights.iter().enumerate() {
            let k = i + (j as isize - w);
            acc += scratch.moves[k.rem_euclid(n as isize) as usize] * wk;
        }
        acc
    }));

    // 5. Apply along the move directions.
    for (i, cp) in shape.spline.control_points_mut().iter_mut().enumerate() {
        *cp += scratch.outward[i] * scratch.blended[i];
    }

    total
}

/// Applies one pass of position-space Laplacian relaxation to a shape's
/// control points: each point moves `strength` of the way toward its
/// neighbours' midpoint. Interleaved with correction sweeps this keeps the
/// boundary smooth (no spikes/necks for MRC to flag) while the EPE
/// feedback re-corrects any fidelity the relaxation costs.
pub fn relax_shape(shape: &mut OpcShape, strength: f64) {
    let cps = shape.spline.control_points_mut();
    let n = cps.len();
    if n < 3 {
        return;
    }
    // Rolling neighbours instead of snapshotting the whole loop: `prev`
    // carries the pre-relaxation value of cps[i-1] and `first` the original
    // cps[0] for the final wrap-around.
    let first = cps[0];
    let mut prev = cps[n - 1];
    for i in 0..n {
        let next = if i + 1 == n { first } else { cps[i + 1] };
        let cur = cps[i];
        let mid = (next + prev) * 0.5;
        cps[i] += (mid - cur) * strength;
        prev = cur;
    }
}

/// Unit outward normals at every control point of a shape, robust at
/// degenerate spline tangents (falls back to control polygon chords).
pub fn outward_normals(shape: &OpcShape) -> Vec<Point> {
    let mut out = Vec::new();
    outward_normals_into(shape, &mut out);
    out
}

/// [`outward_normals`] into a reused buffer (cleared first).
fn outward_normals_into(shape: &OpcShape, out: &mut Vec<Point>) {
    let cps = shape.spline.control_points();
    let n = cps.len();
    // Shoelace orientation directly on the control points (no polygon
    // clone): twice the signed area.
    let mut twice = 0.0;
    for i in 0..n {
        twice += cps[i].cross(cps[(i + 1) % n]);
    }
    let flip = if twice > 0.0 { -1.0 } else { 1.0 };
    out.clear();
    out.extend((0..n).map(|i| {
        let normal = shape
            .spline
            .normal(i, 0.0)
            .or_else(|| {
                let chord = cps[(i + 1) % n] - cps[(i + n - 1) % n];
                chord.normalized().map(Point::perp)
            })
            .unwrap_or(Point::new(1.0, 0.0));
        normal * flip
    }));
}

/// Normalised binomial weights `C(2W, W+k) / 4^W` for `k ∈ [−W, W]`.
fn binomial_weights(w: usize) -> Vec<f64> {
    let m = 2 * w;
    let mut row = vec![1.0f64];
    for _ in 0..m {
        let mut next = vec![1.0];
        for k in 1..row.len() {
            next.push(row[k - 1] + row[k]);
        }
        next.push(1.0);
        row = next;
    }
    let total: f64 = row.iter().sum();
    row.into_iter().map(|v| v / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dissect_polygon, OpcShape as Shape};
    use cardopc_geometry::Polygon as Poly;

    /// One sweep on the global pool, discarding the per-shape totals.
    fn sweep(shapes: &mut [Shape], aerial: &Grid, threshold: f64, step: &CorrectionStep) -> f64 {
        correct_shapes_recording(shapes, aerial, threshold, step, &mut Vec::new())
    }

    /// One sweep on an explicit pool.
    fn correct_shapes_with_pool(
        shapes: &mut [Shape],
        aerial: &Grid,
        threshold: f64,
        step: &CorrectionStep,
        pool: &WorkerPool,
    ) -> f64 {
        let mut totals = vec![0.0f64; shapes.len()];
        correct_into(shapes, aerial, threshold, step, pool, &mut totals)
    }

    /// A synthetic aerial image printing a disc of radius `r`: level-0.3
    /// contour at the circle.
    fn disc_field(w: usize, h: usize, pitch: f64, c: Point, r: f64) -> Grid {
        let mut g = Grid::zeros(w, h, pitch);
        for iy in 0..h {
            for ix in 0..w {
                let p = Point::new((ix as f64 + 0.5) * pitch, (iy as f64 + 0.5) * pitch);
                g[(ix, iy)] = 0.3 - (p.distance(c) - r) * 0.01;
            }
        }
        g
    }

    fn square_shape(x0: f64, w: f64) -> Shape {
        let poly = Poly::rect(Point::new(x0, x0), Point::new(x0 + w, x0 + w));
        let segs = dissect_polygon(&poly, 20.0, 30.0);
        Shape::from_dissection(&segs, 0.6).unwrap()
    }

    #[test]
    fn binomial_weights_normalised_and_symmetric() {
        for w in 0..4 {
            let ws = binomial_weights(w);
            assert_eq!(ws.len(), 2 * w + 1);
            let sum: f64 = ws.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            for k in 0..ws.len() {
                assert_eq!(ws[k], ws[ws.len() - 1 - k]);
            }
        }
        assert_eq!(binomial_weights(1), vec![0.25, 0.5, 0.25]);
    }

    #[test]
    fn outward_normals_point_outward() {
        let shape = square_shape(100.0, 100.0);
        let c = Point::new(150.0, 150.0);
        for (i, n) in outward_normals(&shape).iter().enumerate() {
            let p = shape.spline.control_points()[i];
            assert!(
                (p + *n * 1.0).distance(c) > p.distance(c),
                "normal {i} not outward"
            );
        }
    }

    #[test]
    fn overprint_pulls_boundary_inward() {
        // Printed disc much larger than the 100 nm target square: every
        // anchor sees positive EPE, so the correction shrinks the shape.
        let mut shape = square_shape(100.0, 100.0);
        let before = shape.spline.to_polygon(8).area();
        let aerial = disc_field(128, 128, 2.0, Point::new(150.0, 150.0), 90.0);
        let step = CorrectionStep {
            step_limit: 2.0,
            smooth_window: 1,
            epe_search: 40.0,
            spline_normals: true,
        };
        let total = sweep(std::slice::from_mut(&mut shape), &aerial, 0.3, &step);
        assert!(total > 0.0);
        let after = shape.spline.to_polygon(8).area();
        assert!(after < before, "area {before} -> {after} should shrink");
    }

    #[test]
    fn underprint_pushes_boundary_outward() {
        let mut shape = square_shape(100.0, 100.0);
        let before = shape.spline.to_polygon(8).area();
        // Printed disc smaller than the target.
        let aerial = disc_field(128, 128, 2.0, Point::new(150.0, 150.0), 30.0);
        let step = CorrectionStep {
            step_limit: 2.0,
            smooth_window: 1,
            epe_search: 40.0,
            spline_normals: true,
        };
        sweep(std::slice::from_mut(&mut shape), &aerial, 0.3, &step);
        let after = shape.spline.to_polygon(8).area();
        assert!(after > before, "area {before} -> {after} should grow");
    }

    #[test]
    fn moves_bounded_by_step_limit() {
        let mut shape = square_shape(100.0, 100.0);
        let before: Vec<Point> = shape.spline.control_points().to_vec();
        let aerial = disc_field(128, 128, 2.0, Point::new(150.0, 150.0), 90.0);
        let step = CorrectionStep {
            step_limit: 2.0,
            smooth_window: 1,
            epe_search: 40.0,
            spline_normals: true,
        };
        sweep(std::slice::from_mut(&mut shape), &aerial, 0.3, &step);
        for (b, a) in before.iter().zip(shape.spline.control_points()) {
            assert!(b.distance(*a) <= 2.0 + 1e-9, "move exceeded step limit");
        }
    }

    #[test]
    fn relax_pulls_spike_toward_neighbors() {
        let mut shape = square_shape(100.0, 100.0);
        // Inject a spike.
        let spike_idx = 0;
        let orig = shape.spline.control_points()[spike_idx];
        shape.spline.control_points_mut()[spike_idx] = orig + Point::new(-30.0, -30.0);
        let spiked = shape.spline.control_points()[spike_idx];
        relax_shape(&mut shape, 0.5);
        let relaxed = shape.spline.control_points()[spike_idx];
        // The spike moved back toward the loop.
        assert!(relaxed.distance(orig) < spiked.distance(orig));
    }

    #[test]
    fn relax_strength_zero_is_identity() {
        let mut shape = square_shape(100.0, 100.0);
        let before = shape.spline.control_points().to_vec();
        relax_shape(&mut shape, 0.0);
        assert_eq!(shape.spline.control_points(), &before[..]);
    }

    #[test]
    fn relax_shrinks_convex_loops_slightly() {
        // Laplacian relaxation contracts convex loops; the correction
        // feedback is what balances it in the full flow.
        let mut shape = square_shape(100.0, 100.0);
        let before = shape.spline.to_polygon(8).area();
        relax_shape(&mut shape, 0.3);
        let after = shape.spline.to_polygon(8).area();
        assert!(after < before);
        assert!(after > 0.7 * before, "one pass should shrink gently");
    }

    #[test]
    fn anchor_normal_mode_moves_along_anchor_directions() {
        let mut shape = square_shape(100.0, 100.0);
        let anchors = shape.anchors.clone();
        let before = shape.spline.control_points().to_vec();
        let aerial = disc_field(128, 128, 2.0, Point::new(150.0, 150.0), 30.0);
        let step = CorrectionStep {
            step_limit: 2.0,
            smooth_window: 0,
            epe_search: 40.0,
            spline_normals: false,
        };
        sweep(std::slice::from_mut(&mut shape), &aerial, 0.3, &step);
        for ((b, a), anchor) in before
            .iter()
            .zip(shape.spline.control_points())
            .zip(&anchors)
        {
            let delta = *a - *b;
            if delta.norm() > 1e-9 {
                // Movement is collinear with the anchor normal.
                assert!(
                    delta.normalized().unwrap().cross(anchor.normal).abs() < 1e-9,
                    "move {delta} not along anchor normal {}",
                    anchor.normal
                );
            }
        }
    }

    #[test]
    fn correct_shapes_bit_identical_across_worker_counts() {
        // The same guarantee PR 1 established for aerial_image: any worker
        // count yields bit-identical control points and |EPE| total.
        let aerial = disc_field(128, 128, 2.0, Point::new(130.0, 130.0), 70.0);
        let step = CorrectionStep {
            step_limit: 2.0,
            smooth_window: 1,
            epe_search: 40.0,
            spline_normals: true,
        };
        let make_shapes = || -> Vec<Shape> {
            let mut v = vec![
                square_shape(60.0, 80.0),
                square_shape(150.0, 60.0),
                square_shape(40.0, 140.0),
            ];
            v.push(
                Shape::sraf(
                    vec![
                        Point::new(10.0, 10.0),
                        Point::new(50.0, 10.0),
                        Point::new(50.0, 30.0),
                        Point::new(10.0, 30.0),
                    ],
                    0.6,
                )
                .unwrap(),
            );
            v
        };
        let mut reference = make_shapes();
        let serial_pool = WorkerPool::new(1);
        let ref_total = correct_shapes_with_pool(&mut reference, &aerial, 0.3, &step, &serial_pool);
        for workers in [2usize, 3, 8] {
            let pool = WorkerPool::new(workers);
            let mut shapes = make_shapes();
            let total = correct_shapes_with_pool(&mut shapes, &aerial, 0.3, &step, &pool);
            assert_eq!(total, ref_total, "total differs at {workers} workers");
            for (s, r) in shapes.iter().zip(&reference) {
                assert_eq!(
                    s.spline.control_points(),
                    r.spline.control_points(),
                    "control points differ at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn srafs_are_not_moved() {
        let mut sraf = Shape::sraf(
            vec![
                Point::new(0.0, 0.0),
                Point::new(40.0, 0.0),
                Point::new(40.0, 20.0),
                Point::new(0.0, 20.0),
            ],
            0.6,
        )
        .unwrap();
        let before = sraf.spline.control_points().to_vec();
        let aerial = disc_field(64, 64, 2.0, Point::new(20.0, 10.0), 50.0);
        let step = CorrectionStep {
            step_limit: 2.0,
            smooth_window: 1,
            epe_search: 40.0,
            spline_normals: true,
        };
        let total = sweep(std::slice::from_mut(&mut sraf), &aerial, 0.3, &step);
        assert_eq!(total, 0.0);
        assert_eq!(sraf.spline.control_points(), &before[..]);
    }

    #[test]
    fn converges_on_synthetic_field() {
        // Repeated correction against a fixed-contour field drives the
        // boundary to the contour (the EPE at anchors is field-determined,
        // but the *mask* matches when the mask boundary reaches where the
        // anchors' EPE reports zero; here the field contour is a disc of
        // the target's inscribed size, so EPE is constant and moves stop
        // once clamped steps shrink).
        let mut shape = square_shape(100.0, 100.0);
        let aerial = disc_field(128, 128, 2.0, Point::new(150.0, 150.0), 50.0);
        let step = CorrectionStep {
            step_limit: 2.0,
            smooth_window: 1,
            epe_search: 40.0,
            spline_normals: true,
        };
        let e0 = sweep(std::slice::from_mut(&mut shape), &aerial, 0.3, &step);
        // EPE at frozen anchors doesn't change (field is fixed), but the
        // mask keeps moving; just verify the sweep is deterministic and
        // finite.
        assert!(e0.is_finite());
        for p in shape.spline.control_points() {
            assert!(p.is_finite());
        }
    }
}
