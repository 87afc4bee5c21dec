//! Fitting cardinal splines to contours (Algorithm 1 of the paper).
//!
//! The ILT-OPC hybrid flow extracts the boundary `P_i` of every shape in an
//! ILT-optimised mask image, samples a control point set `Q` (ratio `r_Q`)
//! and a denser reference point set `R` (ratio `r_R`) from it, and
//! minimises `‖F(Q) − R‖²`, where `F` interpolates the closed cardinal
//! spline through `Q` at `|R|` evenly spaced parameters.
//!
//! `F` is *linear* in `Q`: each interpolated point is a fixed 4-weight
//! combination of neighbouring control points (see
//! [`CardinalSpline::basis_weights`]), so `F(Q) = B·Q` and the minimiser
//! solves the normal equations `BᵀB·Q = BᵀR`, one right-hand side per
//! coordinate. The paper reaches the same minimum by gradient descent; one
//! linear solve gets there exactly. On a closed loop `BᵀB` is symmetric,
//! positive definite and nonzero only where the cyclic index distance is
//! ≤ 3, so its Cholesky factor keeps to the band plus the three wrap-around
//! rows and the whole fit is O(|Q| + |R|).

use crate::{CardinalSpline, SplineError};
use cardopc_geometry::{Point, Polygon};

/// Configuration of the contour fit.
#[derive(Clone, Debug, PartialEq)]
pub struct FitConfig {
    /// Fraction `r_Q` of boundary points promoted to control points.
    pub control_ratio: f64,
    /// Fraction `r_R` of boundary points used as fitting references.
    pub reference_ratio: f64,
    /// Cardinal tension `s` of the fitted spline.
    pub tension: f64,
    /// Lower bound on the number of control points, so tiny shapes still
    /// get a workable spline.
    pub min_control_points: usize,
}

impl Default for FitConfig {
    /// Paper-flavoured defaults: `r_Q = 1/8`, `r_R = 1/2`, `s = 0.6`.
    fn default() -> Self {
        FitConfig {
            control_ratio: 0.125,
            reference_ratio: 0.5,
            tension: 0.6,
            min_control_points: 4,
        }
    }
}

/// Outcome of [`fit_contour`].
#[derive(Clone, Debug)]
pub struct FitResult {
    /// The fitted closed spline.
    pub spline: CardinalSpline,
    /// Mean squared distance from the fitted spline to the references (nm²).
    pub final_loss: f64,
}

/// Resamples a closed polyline to `n` points evenly spaced by arc length,
/// starting at the first vertex.
///
/// Used to derive the reference set `R` from a traced contour. Both the
/// arc-length targets and the segment starts advance monotonically, so one
/// merge-walk over the loop's segments finds every sample.
///
/// # Panics
///
/// Panics when `points` is empty or `n == 0`.
pub fn resample_closed(points: &[Point], n: usize) -> Vec<Point> {
    assert!(!points.is_empty(), "cannot resample an empty polyline");
    assert!(n > 0, "need at least one sample");
    let m = points.len();
    let mut total = 0.0;
    for i in 0..m {
        total += points[i].distance(points[(i + 1) % m]);
    }
    if total <= 0.0 {
        return vec![points[0]; n];
    }
    let mut out = Vec::with_capacity(n);
    // Walk state: segment `seg` spans [start, end) in cumulative arc length.
    let mut seg = 0usize;
    let mut start = 0.0;
    let mut end = points[0].distance(points[1 % m]);
    for k in 0..n {
        let target = total * k as f64 / n as f64;
        while seg + 1 < m && end < target {
            seg += 1;
            start = end;
            end += points[seg].distance(points[(seg + 1) % m]);
        }
        let seg_len = end - start;
        let t = if seg_len <= 0.0 {
            0.0
        } else {
            (target - start) / seg_len
        };
        out.push(points[seg].lerp(points[(seg + 1) % m], t));
    }
    out
}

/// Fits a closed cardinal spline to a traced contour (Algorithm 1): the
/// control points that minimise the mean squared distance to the
/// references, found by one Cholesky solve of the normal equations.
///
/// # Errors
///
/// * [`SplineError::InvalidRatio`] when a ratio is outside `(0, 1]`,
/// * [`SplineError::InvalidTension`] when the tension is not finite,
/// * [`SplineError::TooFewPoints`] when the contour has fewer than 3
///   vertices,
/// * [`SplineError::SingularFit`] when the normal matrix has a pivot that
///   is not positive,
/// * [`SplineError::NonFinitePoint`] when the contour has a non-finite
///   coordinate.
///
/// ```
/// use cardopc_geometry::{Point, Polygon};
/// use cardopc_spline::{fit_contour, FitConfig};
///
/// // A dense circle standing in for a traced ILT contour.
/// let contour: Polygon = (0..64)
///     .map(|i| {
///         let th = std::f64::consts::TAU * i as f64 / 64.0;
///         Point::new(50.0 + 20.0 * th.cos(), 50.0 + 20.0 * th.sin())
///     })
///     .collect();
/// let fit = fit_contour(&contour, &FitConfig::default())?;
/// assert_eq!(fit.spline.control_points().len(), 8);
/// assert!(fit.final_loss < 0.01);
/// # Ok::<(), cardopc_spline::SplineError>(())
/// ```
pub fn fit_contour(contour: &Polygon, config: &FitConfig) -> Result<FitResult, SplineError> {
    let ratio_ok = |r: f64| r > 0.0 && r <= 1.0;
    if !ratio_ok(config.control_ratio) || !ratio_ok(config.reference_ratio) {
        return Err(SplineError::InvalidRatio);
    }
    if !config.tension.is_finite() {
        return Err(SplineError::InvalidTension);
    }
    let boundary = contour.vertices();
    if boundary.len() < 3 {
        return Err(SplineError::TooFewPoints {
            got: boundary.len(),
            need: 3,
        });
    }
    let (n_q, n_r) = sizes(boundary.len(), config);
    let r = resample_closed(boundary, n_r);

    // Accumulate BᵀB (lower triangle) and BᵀR row by row of B.
    let mut normal = CyclicBand::zeros(n_q);
    let mut rhs = vec![Point::ZERO; n_q];
    for (k, &rk) in r.iter().enumerate() {
        let (cols, w) = reference_row(k, n_q, n_r, config.tension);
        for a in 0..4 {
            rhs[cols[a]] += rk * w[a];
            for b in 0..4 {
                if cols[b] <= cols[a] {
                    *normal.get_mut(cols[a], cols[b]) += w[a] * w[b];
                }
            }
        }
    }
    normal.factor()?;
    let q = normal.solve(rhs);

    let final_loss = loss(&q, &r, config.tension);
    let spline = CardinalSpline::closed(q, config.tension)?;
    Ok(FitResult { spline, final_loss })
}

/// Control and reference counts `(n_q, n_r)` for a contour of `m` vertices.
fn sizes(m: usize, config: &FitConfig) -> (usize, usize) {
    let n_q =
        ((m as f64 * config.control_ratio).round() as usize).max(config.min_control_points.max(3));
    let n_r = ((m as f64 * config.reference_ratio).round() as usize).max(n_q);
    (n_q, n_r)
}

/// Row `k` of `B`: reference `k` sits at spline parameter
/// `u_k = k · n_q / n_r` of the closed domain `[0, n_q)` (`Q[0]` and `R[0]`
/// both sit at arc length 0, so the pairing is aligned). Returns the four
/// control point indices `[seg − 1, seg, seg + 1, seg + 2]` (wrapped) of
/// its segment and their Eq. 2 weights.
fn reference_row(k: usize, n_q: usize, n_r: usize, tension: f64) -> ([usize; 4], [f64; 4]) {
    let u = k as f64 * n_q as f64 / n_r as f64;
    let seg = (u.floor() as usize).min(n_q - 1);
    let t = u - seg as f64;
    let cols = [0, 1, 2, 3].map(|j| (seg + n_q + j - 1) % n_q);
    (cols, CardinalSpline::basis_weights(tension, t))
}

/// Mean squared distance between `B·q` and the references `r`.
fn loss(q: &[Point], r: &[Point], tension: f64) -> f64 {
    let mut acc = 0.0;
    for (k, &rk) in r.iter().enumerate() {
        let (cols, w) = reference_row(k, q.len(), r.len(), tension);
        let p = q[cols[0]] * w[0] + q[cols[1]] * w[1] + q[cols[2]] * w[2] + q[cols[3]] * w[3];
        acc += p.distance_sq(rk);
    }
    acc / r.len() as f64
}

/// The lower triangle of a symmetric `n × n` matrix that is nonzero only
/// where the cyclic index distance is ≤ 3, stored row by row from each
/// row's first nonzero column: `i − 3`, except in the last three rows,
/// whose wrap-around entries start at column 0. A Cholesky factor has no
/// entry left of its row's first nonzero, so [`factor`](Self::factor)
/// overwrites the matrix with `L` in place.
struct CyclicBand {
    /// Offset of row `i` in `values`; `n + 1` entries.
    rows: Vec<usize>,
    values: Vec<f64>,
}

impl CyclicBand {
    fn zeros(n: usize) -> CyclicBand {
        let mut rows = vec![0];
        for i in 0..n {
            rows.push(rows[i] + i + 1 - first(i, n));
        }
        let values = vec![0.0; rows[n]];
        CyclicBand { rows, values }
    }

    fn n(&self) -> usize {
        self.rows.len() - 1
    }

    /// Index of entry `(i, j)`, `first(i) ≤ j ≤ i`, in `values`.
    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        self.rows[i] + j - first(i, self.n())
    }

    fn get_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        let at = self.index(i, j);
        &mut self.values[at]
    }

    /// Row `i`'s stored entries in columns `from..to`.
    #[inline]
    fn span(&self, i: usize, from: usize, to: usize) -> &[f64] {
        &self.values[self.index(i, from)..self.index(i, to)]
    }

    /// Cholesky `A = L·Lᵀ` in place. Every inner product starts at the
    /// later of the two rows' first columns, so all but the three
    /// wrap-around rows cost O(1) each.
    fn factor(&mut self) -> Result<(), SplineError> {
        let n = self.n();
        for i in 0..n {
            for j in first(i, n)..=i {
                let lo = first(i, n).max(first(j, n));
                let at = self.index(i, j);
                let mut s = self.values[at];
                for (a, b) in self.span(i, lo, j).iter().zip(self.span(j, lo, j)) {
                    s -= a * b;
                }
                if j < i {
                    self.values[at] = s / self.values[self.index(j, j)];
                } else if s > 0.0 {
                    self.values[at] = s.sqrt();
                } else {
                    return Err(SplineError::SingularFit);
                }
            }
        }
        Ok(())
    }

    /// Solves `L·Lᵀ·x = b` with the factor from [`factor`](Self::factor).
    fn solve(&self, mut b: Vec<Point>) -> Vec<Point> {
        let n = self.n();
        let lo = |i: usize| first(i, n);
        for i in 0..n {
            let mut s = b[i];
            for (k, &l) in (lo(i)..i).zip(self.span(i, lo(i), i)) {
                s -= b[k] * l;
            }
            b[i] = s / self.values[self.index(i, i)];
        }
        // Lᵀ column by column from the bottom: once x_i is known, remove
        // its share from the rows above.
        for i in (0..n).rev() {
            b[i] = b[i] / self.values[self.index(i, i)];
            let x = b[i];
            for (k, &l) in (lo(i)..i).zip(self.span(i, lo(i), i)) {
                b[k] -= x * l;
            }
        }
        b
    }
}

/// First nonzero column of row `i` of an `n × n` [`CyclicBand`].
#[inline]
fn first(i: usize, n: usize) -> usize {
    if i + 3 >= n {
        0
    } else {
        i.saturating_sub(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardopc_geometry::SplitMix64;
    use proptest::prelude::*;

    fn circle(n: usize, r: f64) -> Polygon {
        (0..n)
            .map(|i| {
                let th = std::f64::consts::TAU * i as f64 / n as f64;
                Point::new(100.0 + r * th.cos(), 100.0 + r * th.sin())
            })
            .collect()
    }

    /// A seeded star-shaped contour of `n` vertices: one random radius per
    /// angular step, the way a traced ILT blob wobbles.
    fn star_contour(seed: u64, n: usize) -> Polygon {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let th = std::f64::consts::TAU * i as f64 / n as f64;
                let r = rng.range_f64(30.0, 60.0);
                Point::new(100.0 + r * th.cos(), 100.0 + r * th.sin())
            })
            .collect()
    }

    /// Algorithm 1 as the paper runs it, the reference the exact solve must
    /// match or beat: `steps` Adam steps (β₁ = 0.9, β₂ = 0.999, ε = 1e-8,
    /// learning rate 0.5) on the same objective from the resampled control
    /// points. Returns the final loss.
    fn adam_loss(contour: &Polygon, config: &FitConfig, steps: usize) -> f64 {
        let boundary = contour.vertices();
        let (n_q, n_r) = sizes(boundary.len(), config);
        let mut q = resample_closed(boundary, n_q);
        let r = resample_closed(boundary, n_r);
        let (beta1, beta2, eps, rate) = (0.9f64, 0.999f64, 1e-8, 0.5);
        let mut m = vec![Point::ZERO; n_q];
        let mut v = vec![0.0; n_q];
        for step in 1..=steps as i32 {
            let mut grad = vec![Point::ZERO; n_q];
            for (k, &rk) in r.iter().enumerate() {
                let (cols, w) = reference_row(k, n_q, n_r, config.tension);
                let p = (0..4).fold(Point::ZERO, |p, j| p + q[cols[j]] * w[j]);
                let residual = (p - rk) * (2.0 / n_r as f64);
                for j in 0..4 {
                    grad[cols[j]] += residual * w[j];
                }
            }
            for i in 0..n_q {
                m[i] = m[i] * beta1 + grad[i] * (1.0 - beta1);
                v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i].norm_sq();
                let m_hat = m[i] / (1.0 - beta1.powi(step));
                let v_hat = v[i] / (1.0 - beta2.powi(step));
                q[i] -= m_hat * (rate / (v_hat.sqrt() + eps));
            }
        }
        loss(&q, &r, config.tension)
    }

    #[test]
    fn resample_preserves_count_and_location() {
        let c = circle(100, 50.0);
        let s = resample_closed(c.vertices(), 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], c.vertices()[0]);
        // All samples on the circle (radius within polyline chord error).
        for p in &s {
            let r = p.distance(Point::new(100.0, 100.0));
            assert!((r - 50.0).abs() < 0.5, "sample radius {r}");
        }
    }

    #[test]
    fn resample_even_spacing() {
        let sq = Polygon::rect(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let s = resample_closed(sq.vertices(), 8);
        // Perimeter 40, so consecutive samples are 5 apart along the walk.
        for w in s.windows(2) {
            let d = w[0].distance(w[1]);
            assert!(d <= 5.0 + 1e-9, "spacing {d}");
        }
    }

    #[test]
    fn resample_degenerate_loop() {
        let pts = vec![Point::new(1.0, 1.0); 5];
        let s = resample_closed(&pts, 4);
        assert_eq!(s, vec![Point::new(1.0, 1.0); 4]);
    }

    #[test]
    fn invalid_ratios_rejected() {
        let c = circle(64, 20.0);
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let cfg = FitConfig {
                control_ratio: bad,
                ..FitConfig::default()
            };
            assert!(matches!(
                fit_contour(&c, &cfg),
                Err(SplineError::InvalidRatio)
            ));
            let cfg = FitConfig {
                reference_ratio: bad,
                ..FitConfig::default()
            };
            assert!(matches!(
                fit_contour(&c, &cfg),
                Err(SplineError::InvalidRatio)
            ));
        }
    }

    #[test]
    fn non_finite_tension_rejected() {
        // At the default ratios 64 vertices give n_r = 4·n_q and 60 give a
        // non-multiple; both must be an error, not a panic.
        for n in [64, 60] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let cfg = FitConfig {
                    tension: bad,
                    ..FitConfig::default()
                };
                assert_eq!(
                    fit_contour(&circle(n, 20.0), &cfg).map(|f| f.final_loss),
                    Err(SplineError::InvalidTension),
                    "{n} vertices, tension {bad}"
                );
            }
        }
    }

    #[test]
    fn fit_circle_converges() {
        let c = circle(128, 40.0);
        let cfg = FitConfig::default();
        let fit = fit_contour(&c, &cfg).unwrap();
        assert!(
            fit.final_loss < 0.05,
            "expected sub-0.05 nm^2 MSE on a circle, got {}",
            fit.final_loss
        );
        // The fitted spline stays close to the circle.
        let poly = fit.spline.to_polygon(8);
        for p in poly.vertices() {
            let r = p.distance(Point::new(100.0, 100.0));
            assert!((r - 40.0).abs() < 1.0, "fitted point radius {r}");
        }
    }

    #[test]
    fn fit_square_recovers_area() {
        // Square contour, 200 boundary points.
        let sq = Polygon::rect(Point::new(20.0, 20.0), Point::new(120.0, 120.0));
        let dense = resample_closed(sq.vertices(), 200);
        let dense_poly = Polygon::new(dense);
        let fit = fit_contour(&dense_poly, &FitConfig::default()).unwrap();
        let fitted = fit.spline.to_polygon(8);
        let area = fitted.area();
        assert!(
            (area - 10_000.0).abs() < 0.05 * 10_000.0,
            "fitted area {area}"
        );
    }

    #[test]
    fn too_few_contour_points() {
        let tiny: Polygon = [Point::ZERO, Point::new(1.0, 0.0)].into_iter().collect();
        assert!(matches!(
            fit_contour(&tiny, &FitConfig::default()),
            Err(SplineError::TooFewPoints { .. })
        ));
    }

    #[test]
    fn min_control_points_respected() {
        let c = circle(12, 10.0);
        let cfg = FitConfig {
            control_ratio: 0.01, // would give 0 control points
            min_control_points: 6,
            ..FitConfig::default()
        };
        let fit = fit_contour(&c, &cfg).unwrap();
        assert_eq!(fit.spline.control_points().len(), 6);
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        // More Adam steps never raise the loss, and no number of them gets
        // below the exact solve.
        let c = circle(96, 30.0);
        let cfg = FitConfig::default();
        let short = adam_loss(&c, &cfg, 10);
        let long = adam_loss(&c, &cfg, 400);
        assert!(long <= short + 1e-9, "400 steps {long} > 10 steps {short}");
        let exact = fit_contour(&c, &cfg).unwrap().final_loss;
        assert!(
            exact <= long + 1e-9,
            "exact {exact} > 400 Adam steps {long}"
        );
    }

    proptest! {
        /// The fit is Algorithm 1's exact minimiser. Its gradient
        /// `Bᵀ(B·Q − R)`, with `B·Q` evaluated through the returned spline,
        /// vanishes to rounding; its loss is no larger than 200 Adam steps
        /// reach from the resampled points (up to 1e-12 relative, for
        /// rounding); and with one reference per control point (`B = I`)
        /// it returns the resampled contour itself. `kind` picks `n_r` = `n_q`,
        /// `n_q + 1`, `3·n_q` (the uniform-grid case) or `2·n_q + 1`.
        #[test]
        fn fit_is_the_exact_least_squares_minimiser(
            seed in 0u64..u64::MAX,
            m in 24usize..160,
            s in -1.0..2.0f64,
            n_q_draw in 0.0..1.0f64,
            kind in 0usize..4,
        ) {
            let contour = star_contour(seed, m);
            let n_q = 3 + (n_q_draw * (m / 4 - 3) as f64) as usize;
            let n_r = [n_q, n_q + 1, 3 * n_q, 2 * n_q + 1][kind];
            let config = FitConfig {
                control_ratio: n_q as f64 / m as f64,
                reference_ratio: n_r as f64 / m as f64,
                tension: s,
                min_control_points: 3,
            };
            prop_assert_eq!(sizes(m, &config), (n_q, n_r));
            let fit = fit_contour(&contour, &config).unwrap();
            let r = resample_closed(contour.vertices(), n_r);

            let mut grad = vec![Point::ZERO; n_q];
            let mut scale = vec![Point::ZERO; n_q];
            for (k, &rk) in r.iter().enumerate() {
                let u = k as f64 * n_q as f64 / n_r as f64;
                let seg = (u.floor() as usize).min(n_q - 1);
                let e = fit.spline.point(seg, u - seg as f64) - rk;
                let (cols, w) = reference_row(k, n_q, n_r, s);
                for j in 0..4 {
                    grad[cols[j]] += e * w[j];
                    scale[cols[j]] += rk * w[j];
                }
            }
            let worst = grad.iter().map(|g| g.norm()).fold(0.0, f64::max);
            let size = scale.iter().map(|b| b.norm()).fold(0.0, f64::max);
            prop_assert!(worst <= 1e-9 * size, "residual {} vs ‖BᵀR‖ {}", worst, size);

            let adam = adam_loss(&contour, &config, 200);
            prop_assert!(fit.final_loss <= adam * (1.0 + 1e-12),
                         "exact {} > Adam {}", fit.final_loss, adam);

            if n_r == n_q {
                prop_assert_eq!(fit.spline.control_points(), &r[..]);
                prop_assert_eq!(fit.final_loss, 0.0);
            }
        }
    }
}
