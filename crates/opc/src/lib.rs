//! # cardopc-opc
//!
//! The CardOPC curvilinear OPC flow — the paper's primary contribution —
//! plus the rectilinear baselines it is compared against.
//!
//! The pipeline follows Fig. 2 of the paper:
//!
//! 1. **Initialisation** (§III-B): rule-based [SRAF insertion](insert_srafs)
//!    (Fig. 3(a)), [corner-aware edge dissection](dissect_polygon)
//!    (Fig. 3(b)), and control point generation with corner interpolation
//!    ([`OpcShape::from_dissection`], Fig. 3(c)).
//! 2. **Optimisation** (§III-C/E): control points connected by cardinal
//!    splines, lithography simulation, EPE feedback with normal-vector
//!    moves (Eq. 6–8) and neighbour-blended move vectors (Eq. 7), with the
//!    paper's step-decay schedule.
//! 3. **MRC** (§III-F): mask rule checking and violation resolving via
//!    `cardopc-mrc`.
//!
//! Baselines ([`RectOpc`]): a Calibre-like rectilinear OPC and the
//! SimpleOPC configuration of \[45\].
//!
//! ```no_run
//! use cardopc_layout::via_clips;
//! use cardopc_opc::{CardOpc, OpcConfig};
//!
//! let outcome = CardOpc::new(OpcConfig::via()).run(&via_clips()[0])?;
//! println!(
//!     "EPE {:.1} nm, PVB {:.0} nm², {} MRC violations remaining",
//!     outcome.evaluation.epe_sum_nm,
//!     outcome.evaluation.pvb_nm2,
//!     outcome.mrc_remaining,
//! );
//! # Ok::<(), cardopc_opc::OpcError>(())
//! ```

#![warn(missing_docs)]

mod baseline;
mod config;
mod control;
mod correct;
mod dissect;
mod error;
mod eval;
mod flow;
mod sraf;

pub use baseline::{RectOpc, RectOpcConfig, RectOutcome};
pub use config::{FieldVisitor, OpcConfig, Rule, SrafConfig, Value};
pub use control::OpcShape;
pub use correct::{
    correct_shapes_recording, outward_normals, relax_shape, CorrectScratch, CorrectionStep,
};
pub use dissect::{dissect_polygon, DissectedSegment};
pub use error::OpcError;
pub use eval::{
    engine_for_extent, engine_for_extent_at, evaluate_mask, evaluate_mask_grid, raster_for_engine,
    score_mask_grid, Evaluation, MeasureConvention, Score, EPE_TOLERANCE,
};
pub use flow::{CardOpc, OpcOutcome, OptimizedShapes};
pub use sraf::insert_srafs;
