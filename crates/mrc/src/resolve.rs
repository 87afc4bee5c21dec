//! MRC violation resolving (§III-F and Fig. 5(b)–(d)).
//!
//! Each round solves for the control-point move instead of trying one.
//! Every violation becomes one linear inequality on the moves `Δ` of a few
//! control points of its shape:
//!
//! * **spacing** — a boundary sample is a fixed blend of four control
//!   points (Eq. 2), so its move along its normal is linear in their `Δ`;
//!   it must move *inward* by half the deficit, the facing shape reports
//!   the other half (Fig. 5(b)),
//! * **width** — the sample must move *outward* by half the deficit; the
//!   opposite side of the shape reports the other half,
//! * **curvature** — the nearest control point must move toward its
//!   neighbours' midpoint, relative to them, by the share of that bend
//!   that brings the curvature under the limit (Fig. 5(c)/(d)). A width
//!   violation where the control polygon folds back on itself (a line end
//!   turned inside out) takes the same move: no push along a folded
//!   normal widens it.
//!
//! Per shape, the smallest `Δ` that meets every inequality comes from
//! cyclic projection onto them (Hildreth's method: a few Kaczmarz sweeps
//! that keep one multiplier per inequality, so the result is the min-norm
//! point and not just a feasible one). No control point moves further
//! than twice the gap to its nearer neighbour in one round, and a shape
//! whose move would take it below `C_area` keeps its old points. After
//! each round only the shapes that moved and those within probe reach of
//! them are checked again.

use crate::check::MrcWorld;
use crate::{MrcChecker, MrcRules, Violation, ViolationKind};
use cardopc_geometry::{BBox, Point};
use cardopc_spline::CardinalSpline;
use std::collections::BTreeMap;

/// Projection rounds per resolve: each one linearises at the current mask.
const ROUNDS: usize = 3;
/// Cyclic sweeps over a shape's constraints per round.
const SWEEPS: usize = 16;
/// How far past the limit a space or width rule aims, nm: a sample moved
/// to exactly the limit is still touched by its probe.
const CLEARANCE: f64 = 0.5;
/// The curvature a straightened bend aims at, as a share of the limit.
const CURVATURE_AIM: f64 = 0.9;
/// The largest share of a bend one round straightens: a cusp far over the
/// limit is taken in steps, so its neighbours can follow.
const MAX_BEND_SHARE: f64 = 0.5;
/// The longest move of a control point in one round, in gaps to its nearer
/// neighbour: a longer one folds a thin, densely fitted outline over
/// itself, and the next round's normals then push the wrong way.
const MAX_MOVE_GAPS: f64 = 2.0;

/// What to do with shapes whose *area* violates the rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AreaPolicy {
    /// Keep every shape; a move that would shrink a shape below `C_area`
    /// is not made.
    Keep,
}

/// Configuration of the resolver.
#[derive(Clone, Debug)]
pub struct ResolveConfig {
    /// Handling of area violations.
    pub area_policy: AreaPolicy,
    /// Sampling density handed to the internal checker.
    pub samples_per_segment: usize,
}

impl Default for ResolveConfig {
    fn default() -> Self {
        ResolveConfig {
            area_policy: AreaPolicy::Keep,
            samples_per_segment: 8,
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
    /// Violations left at the end of each executed round.
    pub violations_per_round: Vec<usize>,
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
/// use cardopc_mrc::{MrcResolver, MrcRules, ResolveConfig};
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

/// One linearised rule on a shape: `Σ coef·(dir·Δ) ≥ target` over the
/// moves `Δ` of up to four control points.
struct Constraint {
    cps: [usize; 4],
    coef: [f64; 4],
    dir: Point,
    target: f64,
}

impl MrcResolver {
    /// Creates a resolver.
    ///
    /// # Panics
    ///
    /// Panics when the rules are invalid or `samples_per_segment == 0`.
    pub fn new(rules: MrcRules, config: ResolveConfig) -> Self {
        rules.assert_valid();
        assert!(
            config.samples_per_segment > 0,
            "need at least one sample per segment"
        );
        MrcResolver { rules, config }
    }

    /// The rule set.
    pub fn rules(&self) -> &MrcRules {
        &self.rules
    }

    /// Resolves violations in place. Every shape is kept; a violation-free
    /// mask is left untouched.
    pub fn resolve(&self, shapes: &mut [CardinalSpline]) -> ResolveReport {
        let checker = MrcChecker::with_sampling(self.rules, self.config.samples_per_segment);
        let mut world = MrcWorld::build(shapes, self.config.samples_per_segment);
        let every: Vec<_> = (0..shapes.len()).map(|i| (i, BBox::EMPTY)).collect();
        let mut violations = recheck(&checker, shapes, &mut world, &every);
        let mut report = ResolveReport {
            initial_violations: violations.len(),
            remaining: Vec::new(),
            rounds: 0,
            violations_per_round: Vec::new(),
        };
        while report.rounds < ROUNDS && !violations.is_empty() {
            report.rounds += 1;
            let mut moved = Vec::new();
            for (si, constraints) in self.plan(shapes, &world, &violations) {
                let mut spline = shapes[si].clone();
                let cps = spline.control_points_mut();
                let delta = solve(&constraints, cps.len());
                let caps: Vec<f64> = (0..cps.len()).map(|k| nearest_gap(cps, k)).collect();
                for ((p, d), gap) in cps.iter_mut().zip(delta).zip(caps) {
                    *p += d * (MAX_MOVE_GAPS * gap / d.norm()).min(1.0);
                }
                let cache = world.sample(&spline);
                let area_before = world.shape(si).area();
                if cache.area() < self.rules.min_area && area_before >= self.rules.min_area {
                    continue;
                }
                shapes[si] = spline;
                moved.push((si, world.set(si, cache)));
            }
            violations = recheck(&checker, shapes, &mut world, &moved);
            report.violations_per_round.push(violations.len());
        }
        report.remaining = violations;
        report
    }

    /// Turns the violations into per-shape linearised rules.
    fn plan(
        &self,
        shapes: &[CardinalSpline],
        world: &MrcWorld,
        violations: &[Violation],
    ) -> BTreeMap<usize, Vec<Constraint>> {
        let per_segment = self.config.samples_per_segment;
        let mut plans: BTreeMap<usize, Vec<Constraint>> = BTreeMap::new();
        for v in violations {
            let spline = &shapes[v.shape];
            let cps = spline.control_points();
            let n = cps.len();
            let k = nearest_control_point(cps, v.location);
            let share = match v.kind {
                ViolationKind::Area => continue,
                ViolationKind::Curvature => 1.0 - CURVATURE_AIM * v.limit / v.value,
                ViolationKind::Width if folds(cps, k) => MAX_BEND_SHARE,
                _ => 0.0,
            };
            let c = if share > 0.0 {
                // Straighten the bend at `k`: the point moves toward its
                // neighbours' midpoint, relative to them, by `share` of
                // the way (the fourth slot is unused).
                let (prev, next) = ((k + n - 1) % n, (k + 1) % n);
                let bend = (cps[prev] + cps[next]) * 0.5 - cps[k];
                let Some(dir) = bend.normalized() else {
                    continue;
                };
                Constraint {
                    cps: [prev, k, next, k],
                    coef: [-0.5, 1.0, -0.5, 0.0],
                    dir,
                    target: share.min(MAX_BEND_SHARE) * bend.norm(),
                }
            } else {
                // The sample's index within its segment: its position, bit
                // for bit.
                let cache = world.shape(v.shape);
                let first = v.segment * per_segment;
                let Some(j) = (0..per_segment).find(|&j| cache.position(first + j) == v.location)
                else {
                    continue;
                };
                let t = j as f64 / per_segment as f64;
                // Spacing moves the sample inward, width outward.
                let sign = if v.kind == ViolationKind::Spacing {
                    -1.0
                } else {
                    1.0
                };
                let mut c = Constraint {
                    cps: [0; 4],
                    coef: [0.0; 4],
                    dir: v.normal * sign,
                    target: 0.5 * (v.limit - v.value) + CLEARANCE,
                };
                let weights = CardinalSpline::basis_weights(spline.tension(), t);
                for (d, w) in weights.into_iter().enumerate() {
                    let cp = (v.segment + n - 1 + d) % n;
                    // Fewer than four control points repeat one: merge it.
                    let slot = c.cps[..d].iter().position(|&q| q == cp).unwrap_or(d);
                    c.cps[slot] = cp;
                    c.coef[slot] += w;
                }
                c
            };
            if c.coef.iter().map(|a| a * a).sum::<f64>() > 1e-12 {
                plans.entry(v.shape).or_default().push(c);
            }
        }
        plans
    }
}

/// The min-norm moves `Δ` of `n` control points with every constraint met
/// (Hildreth's cyclic projection: each visit projects onto one
/// constraint's half-space, and a multiplier per constraint lets a later
/// visit take back what an earlier one over-did).
fn solve(constraints: &[Constraint], n: usize) -> Vec<Point> {
    let mut delta = vec![Point::ZERO; n];
    let mut multiplier = vec![0.0; constraints.len()];
    for _ in 0..SWEEPS {
        for (c, l) in constraints.iter().zip(&mut multiplier) {
            let norm: f64 = c.coef.iter().map(|a| a * a).sum();
            let dot: f64 = (0..4).map(|i| c.coef[i] * c.dir.dot(delta[c.cps[i]])).sum();
            let step = ((c.target - dot) / norm).max(-*l);
            *l += step;
            for i in 0..4 {
                delta[c.cps[i]] += c.dir * (step * c.coef[i]);
            }
        }
    }
    delta
}

/// The resolver's check: brings `world`'s violation lists up to date after
/// a round's moves. In this crate's own tests every call doubles as a
/// differential oracle against a from-scratch check.
fn recheck(
    checker: &MrcChecker,
    shapes: &[CardinalSpline],
    world: &mut MrcWorld,
    moved: &[(usize, BBox)],
) -> Vec<Violation> {
    let violations = checker.recheck(shapes, world, moved);
    #[cfg(test)]
    assert_eq!(
        violations,
        checker.check(shapes),
        "shape-level recheck diverged from a full check"
    );
    violations
}

/// Distance from control point `k` to the nearer of its neighbours.
fn nearest_gap(cps: &[Point], k: usize) -> f64 {
    let n = cps.len();
    cps[k]
        .distance(cps[(k + 1) % n])
        .min(cps[k].distance(cps[(k + n - 1) % n]))
}

/// `true` when the control polygon turns by more than 90° at `k`.
fn folds(cps: &[Point], k: usize) -> bool {
    let n = cps.len();
    (cps[k] - cps[(k + n - 1) % n]).dot(cps[(k + 1) % n] - cps[k]) < 0.0
}

/// The control point nearest to `location`.
fn nearest_control_point(cps: &[Point], location: Point) -> usize {
    let mut best = (0, f64::INFINITY);
    for (i, &p) in cps.iter().enumerate() {
        let d = p.distance_sq(location);
        if d < best.1 {
            best = (i, d);
        }
    }
    best.0
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
            &report.remaining[..report.remaining.len().min(30)]
        );
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
            &report.remaining[..report.remaining.len().min(30)]
        );
        // The bar fattened rather than vanished.
        let area = Polygon::new(shapes[0].sample(8)).area();
        assert!(area > 400.0 * 30.0);
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
        // `recheck` compares each shape-level result with a from-scratch
        // check in this crate's tests, so running the resolver *is* the
        // differential oracle: after every round, on crowded layouts.
        use cardopc_geometry::SplitMix64;
        let mut unresolved = 0;
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
            let mut shapes = layout.clone();
            let resolver = MrcResolver::new(MrcRules::default(), ResolveConfig::default());
            let checker = MrcChecker::new(MrcRules::default());
            let report = resolver.resolve(&mut shapes);
            assert!(report.initial_violations > 0, "seed {seed}");
            assert_eq!(report.remaining, checker.check(&shapes), "seed {seed}");
            assert_eq!(report.violations_per_round.len(), report.rounds);
            assert_eq!(
                report.violations_per_round.last(),
                Some(&report.remaining.len())
            );
            assert_eq!(shapes.len(), layout.len());
            unresolved += usize::from(!report.is_clean());
        }
        // The seeds must actually reach the round limit.
        assert!(unresolved > 0, "every layout resolved");
    }
}
