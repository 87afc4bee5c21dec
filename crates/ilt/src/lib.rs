//! # cardopc-ilt
//!
//! Inverse lithography substrate and the ILT-OPC hybrid flow of §III-G.
//!
//! * [`pixel_ilt`] — a sigmoid-relaxed gradient ILT in the OpenILT/MOSAIC
//!   family, with analytic backprop through the Hopkins model (the
//!   fidelity upper-bound comparator in Fig. 7),
//! * [`run_hybrid`] — ILT → contour tracing → cardinal spline fitting
//!   (Algorithm 1) → MRC violation resolving, producing masks with ILT-like
//!   fidelity and zero mask rule violations.
//!
//! ```no_run
//! use cardopc_geometry::{Point, Polygon};
//! use cardopc_ilt::{run_hybrid, HybridConfig};
//! use cardopc_litho::{LithoEngine, OpticsConfig};
//!
//! let mut engine = LithoEngine::new(OpticsConfig::default(), 512, 512, 4.0)?;
//! engine.calibrate_threshold();
//! let targets = vec![Polygon::rect(Point::new(800.0, 800.0), Point::new(1200.0, 1200.0))];
//! let out = run_hybrid(&engine, &targets, &HybridConfig::default())
//!     .expect("hybrid flow");
//! assert!(out.violations_after <= out.violations_before);
//! # Ok::<(), cardopc_litho::LithoError>(())
//! ```

#![warn(missing_docs)]

pub mod cleanup;
mod hybrid;
mod pixel;

pub use hybrid::{fit_mask_shapes, run_hybrid, HybridConfig, HybridOutcome};
pub use pixel::{pixel_ilt, IltConfig, IltOutcome};
