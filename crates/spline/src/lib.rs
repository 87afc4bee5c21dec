//! # cardopc-spline
//!
//! Spline mathematics for the CardOPC curvilinear OPC framework.
//!
//! The paper represents every mask shape as a closed loop of control points
//! connected by **cardinal splines** (Eq. 2). This crate provides:
//!
//! * [`CardinalSpline`] — evaluation `p(t)`, first and second derivatives
//!   (Eq. 8a, Eq. 10), unit tangents/normals (Eq. 8b–8c) and analytic
//!   curvature (Eq. 9) of a closed loop of control points (every mask
//!   shape is one),
//! * [`BezierChain`] — the cubic Bézier baseline of Zhang et al. (Fig. 4 and
//!   the §IV-D ablation), which must *generate* two inner handle points per
//!   connected pair before it can interpolate,
//! * [`fit`] — Algorithm 1: the control points whose spline best fits a
//!   sampled reference contour in the least-squares sense, found by one
//!   banded Cholesky solve — the heart of the ILT-OPC hybrid flow.
//!
//! ```
//! use cardopc_geometry::Point;
//! use cardopc_spline::CardinalSpline;
//!
//! let square = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(10.0, 0.0),
//!     Point::new(10.0, 10.0),
//!     Point::new(0.0, 10.0),
//! ];
//! let spline = CardinalSpline::closed(square, 0.6)?;
//! // The interpolating spline passes through each control point.
//! assert_eq!(spline.point(1, 0.0), Point::new(10.0, 0.0));
//! # Ok::<(), cardopc_spline::SplineError>(())
//! ```

#![warn(missing_docs)]

mod bezier;
mod cardinal;
mod error;
pub mod fit;
mod plan;

pub use bezier::BezierChain;
pub use cardinal::CardinalSpline;
pub use error::SplineError;
pub use fit::{fit_contour, resample_closed, FitConfig, FitResult};
pub use plan::{SamplingPlan, SAMPLE_BLOCK};
