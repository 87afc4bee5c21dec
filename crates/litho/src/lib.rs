//! # cardopc-litho
//!
//! Lithography simulation substrate for the CardOPC framework.
//!
//! The paper's experiments run on the ICCAD-13 contest simulator (Hopkins
//! diffraction model, Eq. 1) and on Calibre; neither is redistributable, so
//! this crate implements the full imaging chain from scratch:
//!
//! * [`fft`] / [`plan`] / [`simd`] — an in-repo split-complex FFT core
//!   (mixed-radix Stockham on 5-smooth sizes, the only grids the engine
//!   accepts; no FFT crate is on the approved dependency list) whose
//!   kernels are each written once and compiled plain and under AVX2/FMA,
//!   picked at runtime; the two compilations round identically, so
//!   outputs do not depend on the host,
//! * [`OpticsConfig`] / SOCS kernel synthesis — an annular partially
//!   coherent source discretised by Abbe's method into a kernel stack with
//!   exactly the Hopkins structure `I = Σ w_k |M ⊗ h_k|²`, stored as
//!   compact frequency-domain patches ([`SocsStacks`]),
//! * [`LithoEngine`] — aerial images at nominal/defocused conditions
//!   (every kernel convolved on the smallest grid that holds the pupil,
//!   the intensity Fourier-upsampled once: [`LithoWorkspace`]), the exact
//!   adjoint of the nominal image ([`LithoEngine::vjp`], the gradient pixel
//!   ILT descends), threshold resist, dose scaling, process corners,
//! * [`Precision`] — the per-run simulation precision
//!   ([`LithoEngine::with_precision`]): kernels are always synthesised in
//!   `f64`, and the convolution hot loop runs the `f64` reference path or
//!   the same kernels instantiated at `f32`; masks and intensities stay
//!   `f64` at the API boundary,
//! * [`rasterize`] — anti-aliased polygon rasterisation bridging the
//!   geometric OPC world and image-space simulation,
//! * [`metrics`] — EPE (per-site, signed), L2 and PV-band, with the paper's
//!   measure point conventions for via and metal layers.
//!
//! ```no_run
//! use cardopc_geometry::{Point, Polygon};
//! use cardopc_litho::{rasterize, LithoEngine, OpticsConfig, ProcessCondition};
//!
//! let mut engine = LithoEngine::new(OpticsConfig::default(), 256, 256, 4.0)?;
//! engine.calibrate_threshold();
//!
//! let mask = vec![Polygon::rect(Point::new(400.0, 400.0), Point::new(600.0, 600.0))];
//! let raster = rasterize(&mask, 256, 256, 4.0);
//! let printed = engine.print(&raster, ProcessCondition::NOMINAL)?;
//! assert_eq!(printed.width(), 256);
//! # Ok::<(), cardopc_litho::LithoError>(())
//! ```

#![warn(missing_docs)]

mod engine;
mod error;
pub mod fft;
pub mod metrics;
mod optics;
pub mod plan;
pub mod pool;
mod raster;
mod scalar;
pub mod simd;
pub mod span;
mod workspace;

pub use engine::{LithoEngine, ProcessCondition};
pub use error::LithoError;
pub use fft::{next_five_smooth, FftScratch, Field};
pub use metrics::{
    epe_at, epe_footprint, measure_epe, metal_measure_points, thresholded_xor_area,
    via_measure_points, EpeReport, MeasurePoint,
};
pub use optics::{OpticsConfig, SocsStacks};
pub use plan::FftPlan;
pub use pool::{CachePadded, WorkerPool};
pub use raster::{rasterize, try_rasterize, MaskRef, RasterCache};
pub use scalar::{Precision, Scalar};
pub use simd::SimdMode;
pub use workspace::LithoWorkspace;
