//! # cardopc-mrc
//!
//! Curvilinear mask rule checking and violation resolving — the component
//! the paper argues gives spline-based OPC its manufacturability edge over
//! pixel ILT (§III-F).
//!
//! * [`MrcRules`] — the four curvilinear rules: spacing, width, area,
//!   curvature (after Bork et al., *MRC for curvilinear mask shapes*),
//! * [`MrcChecker`] — probe-segment spacing/width checks over the sampled
//!   mask edges (an R-tree over the shapes, a loop-order box hierarchy over
//!   each shape's edges), shoelace area checks, and fully analytic spline
//!   curvature checks,
//! * [`MrcResolver`] — violation resolving by projection (Fig. 5): each of
//!   a few rounds solves for the smallest control-point move that meets
//!   the linearised space, width and curvature rules, then re-checks only
//!   the shapes a move can reach.
//!
//! ```
//! use cardopc_geometry::Point;
//! use cardopc_mrc::{MrcChecker, MrcRules};
//! use cardopc_spline::CardinalSpline;
//!
//! let shape = CardinalSpline::closed(
//!     vec![
//!         Point::new(0.0, 0.0),
//!         Point::new(120.0, 0.0),
//!         Point::new(120.0, 120.0),
//!         Point::new(0.0, 120.0),
//!     ],
//!     0.6,
//! )?;
//! let checker = MrcChecker::new(MrcRules::default());
//! assert!(checker.check(&[shape]).is_empty());
//! # Ok::<(), cardopc_spline::SplineError>(())
//! ```

#![warn(missing_docs)]

mod check;
mod resolve;
mod rules;

pub use check::MrcChecker;
pub use resolve::{AreaPolicy, MrcResolver, ResolveConfig, ResolveReport};
pub use rules::{MrcRules, Violation, ViolationKind};
