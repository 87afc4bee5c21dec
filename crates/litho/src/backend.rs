//! The [`LithoBackend`] seam: simulation precision as a runtime choice.
//!
//! [`LithoEngine`](crate::LithoEngine) always *synthesises* its SOCS kernel
//! stacks in `f64` — kernel synthesis is cheap, runs once, and keeping a
//! single reference stack means every backend is derived from the same
//! physics. What varies per run is the arithmetic the convolution hot loop
//! executes: the default [`CpuBackend<f64>`] runs the reference
//! double-precision path (4-lane AVX2), while [`CpuBackend<f32>`] narrows
//! the kernel patches (a few hundred KB, never a full-grid field) once at
//! construction and runs the same algorithms in single precision (8-lane
//! AVX2) for roughly double the SIMD throughput and half the memory
//! traffic.
//!
//! Masks enter and intensities leave every backend as `f64`: only the
//! simulation interior downcasts. Geometry, MRC and spline fitting never
//! see reduced precision. Within one backend, outputs remain byte-identical
//! across worker counts (the workspace's per-kernel strip reduction pins
//! the summation tree); across backends the accuracy contract is relative —
//! see the f32-vs-f64 tolerance tests.

use crate::optics::SocsStacks;
use crate::pool::WorkerPool;
use crate::scalar::{Precision, Scalar};
use crate::workspace::LithoWorkspace;
use std::sync::{Arc, Mutex, TryLockError};

/// Precision-erased simulation backend: turns `f64` mask rasters into `f64`
/// aerial intensities using an implementation-chosen interior arithmetic.
///
/// Implementations must be safe to call from several threads at once
/// (engines are shared across tile-correction workers).
pub trait LithoBackend: std::fmt::Debug + Send + Sync {
    /// The interior arithmetic this backend runs.
    fn precision(&self) -> Precision;

    /// One SOCS intensity per entry of `states` (`true` = defocused kernel
    /// stack) from a single forward mask FFT, into the matching entry of
    /// `outputs` (`width*height` samples each, overwritten). `cols`
    /// restricts the computed pixel columns; the others are zeroed (see
    /// [`LithoWorkspace::images`]).
    fn images(
        &self,
        mask: &[f64],
        states: &[bool],
        cols: Option<&[usize]>,
        pool: &WorkerPool,
        parallelism: usize,
        outputs: &mut [&mut [f64]],
    );

    /// Clones the backend (kernel stacks are shared; scratch is not).
    fn clone_box(&self) -> Box<dyn LithoBackend>;
}

/// CPU SOCS backend generic over the interior [`Scalar`].
///
/// Holds the kernel patches at its own precision (`f64` backends share the
/// engine's reference stacks by `Arc`; `f32` backends hold a one-time
/// narrowed copy) plus a reusable [`LithoWorkspace`] so repeat calls are
/// allocation-free. Concurrent callers fall back to a transient workspace
/// rather than serialising on the lock.
#[derive(Debug)]
pub struct CpuBackend<T: Scalar = f64> {
    stacks: Arc<SocsStacks<T>>,
    workspace: Mutex<LithoWorkspace<T>>,
}

impl<T: Scalar> CpuBackend<T> {
    /// Builds a backend over kernel stacks at its own precision.
    pub fn new(stacks: Arc<SocsStacks<T>>) -> CpuBackend<T> {
        CpuBackend {
            stacks,
            workspace: Mutex::new(LithoWorkspace::new()),
        }
    }
}

impl<T: Scalar> LithoBackend for CpuBackend<T> {
    fn precision(&self) -> Precision {
        T::PRECISION
    }

    fn images(
        &self,
        mask: &[f64],
        states: &[bool],
        cols: Option<&[usize]>,
        pool: &WorkerPool,
        parallelism: usize,
        outputs: &mut [&mut [f64]],
    ) {
        let mut run = |ws: &mut LithoWorkspace<T>| {
            ws.images(&self.stacks, mask, states, cols, pool, parallelism, outputs)
        };
        match self.workspace.try_lock() {
            Ok(mut ws) => run(&mut ws),
            Err(TryLockError::Poisoned(poisoned)) => run(&mut poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => run(&mut LithoWorkspace::new()),
        }
    }

    fn clone_box(&self) -> Box<dyn LithoBackend> {
        Box::new(CpuBackend::new(Arc::clone(&self.stacks)))
    }
}

/// Builds the backend for a precision from the `f64` reference stacks:
/// `F64` shares them by `Arc`, `F32` narrows the patches once.
pub(crate) fn make_backend(
    precision: Precision,
    stacks: &Arc<SocsStacks>,
) -> Box<dyn LithoBackend> {
    match precision {
        Precision::F64 => Box::new(CpuBackend::new(Arc::clone(stacks))),
        Precision::F32 => Box::new(CpuBackend::new(Arc::new(stacks.to_precision::<f32>()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optics::OpticsConfig;

    fn stacks() -> Arc<SocsStacks> {
        let cfg = OpticsConfig {
            source_rings: 1,
            points_per_ring: 4,
            ..OpticsConfig::default()
        };
        Arc::new(SocsStacks::build(&cfg, 64, 64, 8.0).unwrap())
    }

    #[test]
    fn backends_report_their_precision() {
        let stacks = stacks();
        let b64 = make_backend(Precision::F64, &stacks);
        let b32 = make_backend(Precision::F32, &stacks);
        assert_eq!(b64.precision(), Precision::F64);
        assert_eq!(b32.precision(), Precision::F32);
        assert_eq!(b64.clone_box().precision(), Precision::F64);
        assert_eq!(b32.clone_box().precision(), Precision::F32);
    }

    #[test]
    fn f64_backend_shares_reference_stacks() {
        let stacks = stacks();
        let _backend = make_backend(Precision::F64, &stacks);
        // One count for the local Arc, one inside the backend.
        assert_eq!(Arc::strong_count(&stacks), 2);
    }

    #[test]
    fn f32_backend_tracks_f64_on_both_focus_states() {
        let stacks = stacks();
        let b64 = make_backend(Precision::F64, &stacks);
        let b32 = make_backend(Precision::F32, &stacks);
        let mut rng = cardopc_geometry::SplitMix64::new(11);
        let mask: Vec<f64> = (0..64 * 64).map(|_| rng.range_f64(0.0, 1.0)).collect();
        let pool = WorkerPool::new(2);
        for defocus in [false, true] {
            let mut a = vec![0.0; 64 * 64];
            let mut b = vec![0.0; 64 * 64];
            b64.images(&mask, &[defocus], None, &pool, 2, &mut [&mut a]);
            b32.images(&mask, &[defocus], None, &pool, 2, &mut [&mut b]);
            let peak = a.iter().cloned().fold(0.0f64, f64::max);
            for (i, (&x, &y)) in b.iter().zip(&a).enumerate() {
                assert!(
                    (x - y).abs() < 2e-4 * peak,
                    "defocus {defocus}, pixel {i}: f32 {x} vs f64 {y}"
                );
            }
        }
    }
}
