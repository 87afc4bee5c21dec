//! Precomputed uniform-grid sampling plans.
//!
//! Sampling a cardinal spline with `per_segment` points per segment always
//! evaluates Eq. (2) at the same local parameters `t = k / per_segment`, and
//! the basis weights of Eq. (2) depend only on `(t, tension)` — not on the
//! control points. A [`SamplingPlan`] precomputes those weights once per
//! `(per_segment, tension)` pair and shares them process-wide through the
//! same `OnceLock` registry idiom as the litho crate's FFT plans, so the OPC
//! loop's per-iteration "connect" step reduces to four multiply-adds per
//! sample with zero per-point polynomial work.
//!
//! The weights are kept by column, padded with zeros to whole
//! [`SAMPLE_BLOCK`]s, so a block of a segment's samples is four
//! element-wise multiply-adds over fixed-length arrays — a loop the
//! compiler vectorises at the baseline instruction set
//! ([`CardinalSpline::sample_closed_blocks`], the one sampling loop).

use crate::CardinalSpline;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Precomputed Eq. (2) basis weights for uniform sampling at
/// `t = k / per_segment`, `k = 0..per_segment`, for one tension value.
///
/// Obtain shared instances through [`SamplingPlan::get`]; plans are built
/// once per `(per_segment, tension)` pair and cached process-wide.
#[derive(Debug)]
pub struct SamplingPlan {
    per_segment: usize,
    tension: f64,
    /// `columns[j][k]` is weight `j` of
    /// `CardinalSpline::basis_weights(tension, k / per_segment)`, zero past
    /// `per_segment` up to a whole number of [`SAMPLE_BLOCK`]s.
    columns: [Vec<f64>; 4],
}

/// Samples per block of [`CardinalSpline::sample_closed_blocks`].
pub const SAMPLE_BLOCK: usize = 8;

/// Registry key: `per_segment` plus the exact bit pattern of the tension
/// (tensions are configuration constants, so bit-exact matching is right —
/// no epsilon bucketing needed).
type PlanKey = (usize, u64);

static REGISTRY: OnceLock<RwLock<HashMap<PlanKey, Arc<SamplingPlan>>>> = OnceLock::new();

impl SamplingPlan {
    /// Returns the shared plan for `(per_segment, tension)`, building it on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics when `per_segment == 0` or `tension` is non-finite.
    pub fn get(per_segment: usize, tension: f64) -> Arc<SamplingPlan> {
        assert!(per_segment > 0, "need at least one sample per segment");
        assert!(tension.is_finite(), "tension must be finite");
        let key: PlanKey = (per_segment, tension.to_bits());
        let registry = REGISTRY.get_or_init(|| RwLock::new(HashMap::new()));
        // Poisoning only happens when a panicking thread held the lock; the
        // map contents are still valid (plans are write-once), so recover.
        if let Some(plan) = registry.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(SamplingPlan::build(per_segment, tension));
        let mut map = registry.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(key).or_insert(plan))
    }

    fn build(per_segment: usize, tension: f64) -> SamplingPlan {
        let weights: Vec<[f64; 4]> = (0..per_segment)
            .map(|k| CardinalSpline::basis_weights(tension, k as f64 / per_segment as f64))
            .collect();
        let padded = per_segment.next_multiple_of(SAMPLE_BLOCK);
        let columns = std::array::from_fn(|j| {
            let column = weights.iter().map(|w| w[j]);
            column.chain(std::iter::repeat(0.0)).take(padded).collect()
        });
        SamplingPlan {
            per_segment,
            tension,
            columns,
        }
    }

    /// Column `j` of the weights, in blocks: `blocks(j)[b][l]` is weight
    /// `j` of sample `b·SAMPLE_BLOCK + l`, zero past `per_segment`.
    #[inline]
    pub(crate) fn blocks(&self, j: usize) -> &[[f64; SAMPLE_BLOCK]] {
        let (blocks, rest) = self.columns[j].as_chunks::<SAMPLE_BLOCK>();
        debug_assert!(rest.is_empty());
        blocks
    }

    /// Samples per segment this plan was built for.
    #[inline]
    pub fn per_segment(&self) -> usize {
        self.per_segment
    }

    /// Tension this plan was built for.
    #[inline]
    pub fn tension(&self) -> f64 {
        self.tension
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_weights_match_basis_weights() {
        let plan = SamplingPlan::get(8, 0.6);
        assert_eq!(plan.per_segment(), 8);
        assert_eq!(plan.tension(), 0.6);
        for per_segment in [1, 7, 8, 9, 16, 20] {
            let plan = SamplingPlan::get(per_segment, 0.5);
            for j in 0..4 {
                let blocks = plan.blocks(j);
                assert_eq!(blocks.len(), per_segment.div_ceil(SAMPLE_BLOCK));
                for (k, w) in blocks.iter().flatten().enumerate() {
                    let t = k as f64 / per_segment as f64;
                    let want = match k < per_segment {
                        true => CardinalSpline::basis_weights(0.5, t)[j],
                        false => 0.0,
                    };
                    assert_eq!(w.to_bits(), want.to_bits(), "{per_segment}: {j} {k}");
                }
            }
        }
    }

    #[test]
    fn registry_shares_plans() {
        let a = SamplingPlan::get(16, 0.5);
        let b = SamplingPlan::get(16, 0.5);
        assert!(Arc::ptr_eq(&a, &b));
        let c = SamplingPlan::get(16, 0.6);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_per_segment_panics() {
        let _ = SamplingPlan::get(0, 0.6);
    }
}
