//! MRC violation resolving (§III-F and Fig. 5(b)–(d)).
//!
//! Violations are addressed by trial moves of the control points nearest to
//! each violation site:
//!
//! * **spacing** — move the control point *against* its outward normal
//!   (inward), enlarging the gap (Fig. 5(b)),
//! * **width** — move *along* the outward normal, fattening the shape,
//! * **curvature** — try both directions (Fig. 5(c)/(d)),
//! * **area** — cancel moves that would shrink a shape below `C_area`; for
//!   shapes that *start* below the limit (typical after ILT fitting of
//!   non-printable specks) optionally remove the shape.
//!
//! The move distance escalates "from small to large" over retry rounds, as
//! the paper describes; violations usually clear within a few trials.

use crate::check::{MrcWorld, ShapeCache};
use crate::{MrcChecker, MrcRules, Violation, ViolationKind};
use cardopc_geometry::Point;
use cardopc_spline::CardinalSpline;
use std::collections::BTreeMap;

/// What to do with shapes whose *area* violates the rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AreaPolicy {
    /// Keep the shape (OPC flow: moves that would create an area violation
    /// are cancelled instead).
    Keep,
    /// Remove the shape entirely (ILT-fitting flow: sub-area shapes are
    /// non-printable specks).
    RemoveShape,
}

/// Configuration of the resolver.
#[derive(Clone, Debug)]
pub struct ResolveConfig {
    /// Escalating trial move distances in nanometres.
    pub step_schedule: Vec<f64>,
    /// Maximum check-and-fix rounds.
    pub max_rounds: usize,
    /// Handling of area violations.
    pub area_policy: AreaPolicy,
    /// Sampling density handed to the internal checker.
    pub samples_per_segment: usize,
    /// Under [`AreaPolicy::RemoveShape`]: after the final round, shapes
    /// that *still* violate rules and whose area is below this threshold
    /// are dropped as non-printable specks (the paper removes such shapes
    /// after ILT fitting). `None` disables the sweep.
    pub remove_stubborn_below: Option<f64>,
}

impl Default for ResolveConfig {
    fn default() -> Self {
        ResolveConfig {
            step_schedule: vec![1.0, 2.0, 4.0, 8.0],
            max_rounds: 12,
            area_policy: AreaPolicy::Keep,
            samples_per_segment: 8,
            remove_stubborn_below: None,
        }
    }
}

/// Outcome of a resolve run.
#[derive(Clone, Debug)]
pub struct ResolveReport {
    /// Violations found before any fixing.
    pub initial_violations: usize,
    /// Violations remaining after the final round.
    pub remaining: Vec<Violation>,
    /// Rounds executed.
    pub rounds: usize,
    /// Control point moves applied (including later-cancelled ones).
    pub moves_applied: usize,
    /// Shapes removed under [`AreaPolicy::RemoveShape`].
    pub shapes_removed: usize,
    /// Violations left at the end of each executed round (after that
    /// round's reverts). A tail that stops falling while `rounds` runs to
    /// the limit is a stall: the same trials are applied and undone.
    pub violations_per_round: Vec<usize>,
    /// Checks that launched a spacing probe from every shape: the initial
    /// one and one after every removal of shapes.
    pub full_probes: usize,
    /// Shapes that launched a spacing probe in all other checks, i.e. the
    /// ones a trial round or a revert bent plus the neighbours that face
    /// the bend within probe reach.
    pub incremental_probes: usize,
    /// Width probes launched by all checks together. A trial costs the
    /// samples of the segments it bent and the probes that can see them,
    /// not the shape: on a logic tile the total stays below two
    /// whole-tile checks.
    pub width_samples_probed: usize,
    /// Spacing probes launched by all checks together.
    pub spacing_samples_probed: usize,
}

impl ResolveReport {
    /// `true` when the mask ended fully clean.
    pub fn is_clean(&self) -> bool {
        self.remaining.is_empty()
    }
}

/// The MRC violation resolver.
///
/// ```
/// use cardopc_geometry::Point;
/// use cardopc_mrc::{AreaPolicy, MrcResolver, MrcRules, ResolveConfig};
/// use cardopc_spline::CardinalSpline;
///
/// // Two squares only 10 nm apart: a spacing violation under the default
/// // 25 nm rule, fixable by pulling facing edges inward.
/// let mk = |x0: f64| CardinalSpline::closed(vec![
///     Point::new(x0, 0.0), Point::new(x0 + 150.0, 0.0),
///     Point::new(x0 + 150.0, 150.0), Point::new(x0, 150.0),
/// ], 0.0).expect("valid loop");
/// let mut shapes = vec![mk(0.0), mk(160.0)];
///
/// let resolver = MrcResolver::new(MrcRules::default(), ResolveConfig::default());
/// let report = resolver.resolve(&mut shapes);
/// assert!(report.initial_violations > 0);
/// assert!(report.is_clean());
/// ```
#[derive(Clone, Debug)]
pub struct MrcResolver {
    rules: MrcRules,
    config: ResolveConfig,
}

impl MrcResolver {
    /// Creates a resolver.
    ///
    /// # Panics
    ///
    /// Panics when the rules are invalid, the step schedule is empty, or
    /// `max_rounds == 0`.
    pub fn new(rules: MrcRules, config: ResolveConfig) -> Self {
        rules.assert_valid();
        assert!(!config.step_schedule.is_empty(), "empty step schedule");
        assert!(config.max_rounds > 0, "need at least one round");
        MrcResolver { rules, config }
    }

    /// The rule set.
    pub fn rules(&self) -> &MrcRules {
        &self.rules
    }

    /// Resolves violations in place. Shapes may be removed (only under
    /// [`AreaPolicy::RemoveShape`]).
    pub fn resolve(&self, shapes: &mut Vec<CardinalSpline>) -> ResolveReport {
        let checker = MrcChecker::with_sampling(self.rules, self.config.samples_per_segment);
        let mut report = ResolveReport {
            initial_violations: 0,
            remaining: Vec::new(),
            rounds: 0,
            moves_applied: 0,
            shapes_removed: 0,
            violations_per_round: Vec::new(),
            full_probes: 0,
            incremental_probes: 0,
            width_samples_probed: 0,
            spacing_samples_probed: 0,
        };

        // Sample and index every shape once; afterwards only shapes that
        // actually move pay for re-sampling, and only the samples that
        // changed or can see a changed edge are probed again.
        let mut world = MrcWorld::build(shapes, self.config.samples_per_segment);

        // Remove / accept sub-area shapes up front so the loop works on
        // fixable violations.
        if self.config.area_policy == AreaPolicy::RemoveShape {
            let before = shapes.len();
            let mut i = 0;
            while i < shapes.len() {
                if world.area(i) < self.rules.min_area {
                    shapes.remove(i);
                    world.remove(i);
                } else {
                    i += 1;
                }
            }
            report.shapes_removed = before - shapes.len();
        }

        let mut violations = recheck(&checker, shapes, &mut world);
        report.initial_violations = violations.len() + report.shapes_removed;

        for round in 0..self.config.max_rounds {
            if violations.is_empty() {
                break;
            }
            report.rounds = round + 1;
            let step = self.config.step_schedule[round.min(self.config.step_schedule.len() - 1)];

            // One move per (shape, control point) per round; aggregate the
            // requested directions so opposing requests cancel. Keyed in
            // (shape, control point) order, so trials, the changed set and
            // reverts are processed shape by shape.
            let mut moves: BTreeMap<(usize, usize), Point> = BTreeMap::new();
            for v in &violations {
                if v.kind == ViolationKind::Area {
                    continue; // handled by policy / cancellation
                }
                let outward = match v.normal.normalized() {
                    Some(n) => n,
                    None => continue,
                };
                let Some(cp) = nearest_control_point(&shapes[v.shape], v.location) else {
                    continue;
                };
                let dir = match v.kind {
                    ViolationKind::Spacing => -outward,
                    ViolationKind::Width => outward,
                    // Fig. 5(c)/(d): curvature violations move in or out.
                    // A convex bulge flattens by moving inward, a concave
                    // dent by moving outward. Extreme spikes (cusps, far
                    // beyond the limit) are pulled straight toward the
                    // neighbouring control points' midpoint, which removes
                    // the kink regardless of its orientation.
                    ViolationKind::Curvature => {
                        if v.value > 1.5 * v.limit {
                            let cps = shapes[v.shape].control_points();
                            let n = cps.len();
                            let mid = (cps[(cp + 1) % n] + cps[(cp + n - 1) % n]) * 0.5;
                            match (mid - cps[cp]).normalized() {
                                Some(d) => d,
                                None => continue,
                            }
                        } else if is_convex_at(
                            &shapes[v.shape],
                            v.segment,
                            self.config.samples_per_segment,
                            world.ccw(v.shape),
                        ) {
                            -outward
                        } else {
                            outward
                        }
                    }
                    ViolationKind::Area => unreachable!(),
                };
                // Spacing/width pulls spread to the neighbouring control
                // points so fixes stay smooth instead of growing spikes;
                // curvature fixes act on the offending point alone (a
                // spread would translate the kink, not flatten it).
                *moves.entry((v.shape, cp)).or_insert(Point::ZERO) += dir;
                if v.kind != ViolationKind::Curvature {
                    let n_cp = shapes[v.shape].control_points().len();
                    *moves
                        .entry((v.shape, (cp + 1) % n_cp))
                        .or_insert(Point::ZERO) += dir * 0.5;
                    *moves
                        .entry((v.shape, (cp + n_cp - 1) % n_cp))
                        .or_insert(Point::ZERO) += dir * 0.5;
                }
            }

            // Violation count per shape before this round's moves, used to
            // keep the resolver monotone.
            let before_counts = per_shape_counts(&violations, shapes.len());

            // Apply per-shape, with snapshot + cancel on new area violation.
            let mut to_remove: Vec<usize> = Vec::new();
            // Undo records of the trial moves that stand so far: the shape
            // and its world cache as they were before the round.
            let mut trials: Vec<(usize, CardinalSpline, ShapeCache)> = Vec::new();
            let mut moves = moves
                .into_iter()
                .filter_map(|((shape, cp), dir)| Some((shape, cp, dir.normalized()? * step)))
                .peekable();
            while let Some(&(shape_idx, ..)) = moves.peek() {
                let snapshot = shapes[shape_idx].clone();
                let area_before = world.area(shape_idx);
                while let Some((_, cp, delta)) = moves.next_if(|m| m.0 == shape_idx) {
                    shapes[shape_idx].control_points_mut()[cp] += delta;
                    report.moves_applied += 1;
                }
                let cache_before = world.refresh(shape_idx, &shapes[shape_idx]);
                let area_after = world.area(shape_idx);
                if area_after < self.rules.min_area && area_before >= self.rules.min_area {
                    match self.config.area_policy {
                        // The move created an area violation: cancel it.
                        AreaPolicy::Keep => {
                            shapes[shape_idx] = snapshot;
                            world.replace(shape_idx, cache_before);
                        }
                        // ILT-fitting flow: a shape that must shrink below
                        // the area limit to satisfy the other rules is a
                        // non-printable speck — drop it.
                        AreaPolicy::RemoveShape => to_remove.push(shape_idx),
                    }
                    continue;
                }
                trials.push((shape_idx, snapshot, cache_before));
            }
            if !to_remove.is_empty() {
                for idx in to_remove.into_iter().rev() {
                    shapes.remove(idx);
                    world.remove(idx);
                    report.shapes_removed += 1;
                }
                // Undo-record indices after a removal no longer line up;
                // drop them for this round (reverts resume next round).
                trials.clear();
            }

            violations = recheck(&checker, shapes, &mut world);

            // Monotonicity guard: a trial move that left its shape with
            // *more* violations than before is undone (the escalating step
            // schedule retries from the snapshot at a different distance
            // next round).
            if !trials.is_empty() {
                let after_counts = per_shape_counts(&violations, shapes.len());
                let mut reverted = false;
                for (idx, snapshot, cache_before) in trials {
                    if after_counts[idx] > before_counts[idx] {
                        shapes[idx] = snapshot;
                        world.replace(idx, cache_before);
                        reverted = true;
                    }
                }
                if reverted {
                    violations = recheck(&checker, shapes, &mut world);
                }
            }
            report.violations_per_round.push(violations.len());
        }

        // Final sweep: stubborn small violators are non-printable specks.
        if self.config.area_policy == AreaPolicy::RemoveShape {
            if let Some(limit) = self.config.remove_stubborn_below {
                let mut guilty: Vec<usize> = violations.iter().map(|v| v.shape).collect();
                guilty.sort_unstable();
                guilty.dedup();
                guilty.retain(|&i| world.area(i) < limit);
                if !guilty.is_empty() {
                    for idx in guilty.into_iter().rev() {
                        shapes.remove(idx);
                        world.remove(idx);
                        report.shapes_removed += 1;
                    }
                    violations = recheck(&checker, shapes, &mut world);
                }
            }
        }

        report.remaining = violations;
        report.full_probes = world.full_probes;
        report.incremental_probes = world.incremental_probes;
        report.width_samples_probed = world.width_probes;
        report.spacing_samples_probed = world.spacing_probes;
        report
    }
}

/// The resolver's check: brings `world`'s violation lists up to date
/// after a round's moves or reverts. In this crate's own tests every call
/// doubles as a differential oracle against a from-scratch check.
fn recheck(
    checker: &MrcChecker,
    shapes: &[CardinalSpline],
    world: &mut MrcWorld,
) -> Vec<Violation> {
    let violations = checker.recheck(shapes, world);
    #[cfg(test)]
    assert_eq!(
        violations,
        checker.check(shapes),
        "incremental recheck diverged from a full check"
    );
    violations
}

/// Number of violations located on each of `n` shapes.
fn per_shape_counts(violations: &[Violation], n: usize) -> Vec<usize> {
    let mut counts = vec![0; n];
    for v in violations {
        counts[v.shape] += 1;
    }
    counts
}

/// `true` when the strongest-curvature point of `segment` is convex (the
/// boundary bulges outward there). Convex bulges flatten by moving the
/// control point inward, concave dents by moving outward. The loop
/// orientation `ccw` comes from the caller's [`MrcWorld`] cache.
fn is_convex_at(spline: &CardinalSpline, segment: usize, per_segment: usize, ccw: bool) -> bool {
    let mut kappa = 0.0f64;
    for k in 0..per_segment.max(1) {
        let t = k as f64 / per_segment.max(1) as f64;
        let c = spline.curvature(segment, t);
        if c.abs() > kappa.abs() {
            kappa = c;
        }
    }
    // Positive curvature means "curving left". On a CCW loop that is a
    // convex bulge; on a CW loop, a concave dent.
    if ccw {
        kappa > 0.0
    } else {
        kappa < 0.0
    }
}

/// The control point of `spline` nearest to `location`.
fn nearest_control_point(spline: &CardinalSpline, location: Point) -> Option<usize> {
    let cps = spline.control_points();
    if cps.is_empty() {
        return None;
    }
    let (mut best, mut best_d) = (0usize, f64::INFINITY);
    for (i, &p) in cps.iter().enumerate() {
        let d = p.distance_sq(location);
        if d < best_d {
            best = i;
            best_d = d;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MrcChecker;
    use cardopc_geometry::Polygon;

    fn square(x0: f64, y0: f64, w: f64, h: f64) -> CardinalSpline {
        CardinalSpline::closed(
            vec![
                Point::new(x0, y0),
                Point::new(x0 + w, y0),
                Point::new(x0 + w, y0 + h),
                Point::new(x0, y0 + h),
            ],
            0.0,
        )
        .unwrap()
    }

    fn dense_square(x0: f64, y0: f64, w: f64, h: f64, per_side: usize) -> CardinalSpline {
        // A square with several control points per side so local fixes can
        // move an edge region without collapsing the shape.
        let mut pts = Vec::new();
        let corners = [
            Point::new(x0, y0),
            Point::new(x0 + w, y0),
            Point::new(x0 + w, y0 + h),
            Point::new(x0, y0 + h),
        ];
        for i in 0..4 {
            let a = corners[i];
            let b = corners[(i + 1) % 4];
            for k in 0..per_side {
                pts.push(a.lerp(b, k as f64 / per_side as f64));
            }
        }
        CardinalSpline::closed(pts, 0.0).unwrap()
    }

    #[test]
    fn clean_input_is_untouched() {
        let mut shapes = vec![square(0.0, 0.0, 200.0, 200.0)];
        let orig = shapes.clone();
        let resolver = MrcResolver::new(MrcRules::default(), ResolveConfig::default());
        let report = resolver.resolve(&mut shapes);
        assert_eq!(report.initial_violations, 0);
        assert_eq!(report.rounds, 0);
        assert!(report.is_clean());
        assert_eq!(shapes, orig);
    }

    #[test]
    fn spacing_violation_resolved() {
        let mut shapes = vec![
            dense_square(0.0, 0.0, 150.0, 150.0, 4),
            dense_square(160.0, 0.0, 150.0, 150.0, 4),
        ];
        let resolver = MrcResolver::new(MrcRules::default(), ResolveConfig::default());
        let report = resolver.resolve(&mut shapes);
        assert!(report.initial_violations > 0);
        assert!(
            report.is_clean(),
            "remaining: {:?}",
            &report.remaining[..report.remaining.len().min(3)]
        );
        assert!(report.moves_applied > 0);
        assert_eq!(shapes.len(), 2);
    }

    #[test]
    fn width_violation_resolved() {
        // 30 nm-thin bar under a 40 nm width rule.
        let mut shapes = vec![dense_square(0.0, 0.0, 400.0, 30.0, 6)];
        let resolver = MrcResolver::new(MrcRules::default(), ResolveConfig::default());
        let report = resolver.resolve(&mut shapes);
        assert!(report.initial_violations > 0);
        assert!(
            report.is_clean(),
            "remaining: {:?}",
            &report.remaining[..report.remaining.len().min(3)]
        );
        // The bar fattened rather than vanished.
        let area = Polygon::new(shapes[0].sample(8)).area();
        assert!(area > 400.0 * 30.0);
    }

    #[test]
    fn area_policy_remove_drops_specks() {
        let mut shapes = vec![
            square(0.0, 0.0, 200.0, 200.0),
            square(500.0, 500.0, 20.0, 20.0), // 400 nm² speck
        ];
        let resolver = MrcResolver::new(
            MrcRules::default(),
            ResolveConfig {
                area_policy: AreaPolicy::RemoveShape,
                ..ResolveConfig::default()
            },
        );
        let report = resolver.resolve(&mut shapes);
        assert_eq!(report.shapes_removed, 1);
        assert_eq!(shapes.len(), 1);
        assert!(report.is_clean());
    }

    #[test]
    fn area_policy_keep_retains_speck() {
        let mut shapes = vec![square(500.0, 500.0, 20.0, 20.0)];
        let resolver = MrcResolver::new(MrcRules::default(), ResolveConfig::default());
        let report = resolver.resolve(&mut shapes);
        // Keep policy never deletes shapes. The speck's width violations
        // pull its boundary outward; if the resolver reports clean, the
        // shape must have grown past both the width and area limits.
        assert_eq!(shapes.len(), 1);
        assert!(report.initial_violations > 0);
        if report.is_clean() {
            let area = Polygon::new(shapes[0].sample(8)).area();
            assert!(area >= resolver.rules().min_area);
        } else {
            assert!(!report.remaining.is_empty());
        }
    }

    #[test]
    fn resolved_mask_passes_independent_check() {
        let mut shapes = vec![
            dense_square(0.0, 0.0, 150.0, 150.0, 4),
            dense_square(162.0, 0.0, 150.0, 150.0, 4),
        ];
        let resolver = MrcResolver::new(MrcRules::default(), ResolveConfig::default());
        let report = resolver.resolve(&mut shapes);
        assert!(report.is_clean());
        let checker = MrcChecker::new(MrcRules::default());
        assert!(checker.check(&shapes).is_empty());
    }

    #[test]
    fn every_recheck_matches_a_full_check_on_random_layouts() {
        // `recheck` compares each incremental result with a from-scratch
        // check in this crate's tests, so running the resolver *is* the
        // differential oracle: after every apply, every revert and every
        // removal, of every round, under both area policies.
        use cardopc_geometry::SplitMix64;
        let (mut stalled_rounds, mut removed_mid_run) = (0, 0);
        for seed in 0..10 {
            let mut rng = SplitMix64::new(seed);
            // Crowded on purpose: neighbours 5-30 nm apart (spacing), thin
            // bars (width), tight corners (curvature) and ~40 nm squares
            // that a spacing pull shrinks below the area limit.
            let mut layout = Vec::new();
            for gy in 0..4 {
                for gx in 0..4 {
                    let (w, h) = if rng.chance(0.3) {
                        (rng.range_f64(39.0, 46.0), rng.range_f64(39.0, 46.0))
                    } else {
                        (rng.range_f64(25.0, 150.0), rng.range_f64(25.0, 150.0))
                    };
                    let x = gx as f64 * 170.0 + rng.range_f64(0.0, 165.0 - w).max(0.0);
                    let y = gy as f64 * 170.0 + rng.range_f64(0.0, 165.0 - h).max(0.0);
                    layout.push(dense_square(x, y, w, h, rng.range_usize(1, 5)));
                }
            }
            for policy in [AreaPolicy::Keep, AreaPolicy::RemoveShape] {
                let mut shapes = layout.clone();
                let resolver = MrcResolver::new(
                    MrcRules::default(),
                    ResolveConfig {
                        area_policy: policy,
                        remove_stubborn_below: Some(2500.0),
                        ..ResolveConfig::default()
                    },
                );
                let checker = MrcChecker::new(MrcRules::default());
                let specks = checker
                    .check(&shapes)
                    .iter()
                    .filter(|v| v.kind == ViolationKind::Area)
                    .count();
                let report = resolver.resolve(&mut shapes);
                assert!(report.initial_violations > 0, "seed {seed}");
                assert_eq!(report.remaining, checker.check(&shapes), "seed {seed}");
                assert_eq!(report.violations_per_round.len(), report.rounds);
                assert!(report.full_probes >= 1);
                if policy == AreaPolicy::Keep {
                    assert_eq!(report.shapes_removed, 0);
                    assert_eq!(shapes.len(), layout.len());
                    assert_eq!(
                        report.violations_per_round.last(),
                        Some(&report.remaining.len())
                    );
                    // One check per round, two when it reverts.
                    let probes = report.incremental_probes;
                    assert!(probes <= 2 * report.rounds * layout.len());
                    let per_round = &report.violations_per_round;
                    stalled_rounds += per_round.windows(2).filter(|w| w[1] >= w[0]).count();
                } else {
                    removed_mid_run += report.shapes_removed - specks;
                }
            }
        }
        // The seeds must actually reach the hard cases.
        assert!(stalled_rounds > 0, "every round made progress");
        assert!(removed_mid_run > 0, "no shape was removed after round 0");
    }

    #[test]
    #[should_panic(expected = "empty step schedule")]
    fn empty_schedule_panics() {
        let _ = MrcResolver::new(
            MrcRules::default(),
            ResolveConfig {
                step_schedule: vec![],
                ..ResolveConfig::default()
            },
        );
    }
}
