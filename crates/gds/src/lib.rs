//! # cardopc-gds
//!
//! Dependency-free binary GDSII stream reader and writer — the
//! interchange boundary between the CardOPC correction engine and
//! standard layout tools. Follows the same no-external-deps discipline
//! as `cardopc-json`.
//!
//! Reading pipeline:
//!
//! 1. [`record::RecordIter`] tokenizes the byte stream into bounded
//!    records, turning torn files into typed [`GdsError::Truncated`]
//!    errors at exact byte offsets — hostile bytes can never panic.
//! 2. [`read::parse_lib`] applies the stream grammar and builds a
//!    [`GdsLib`] structure table with raw DBU coordinates.
//! 3. [`flatten::flatten`] resolves SREF/AREF references cycle-safely
//!    (exact 90°-multiple rotations, arbitrary angles via `f64`,
//!    magnification, mirror), filters by layer/datatype, and converts to
//!    CCW-normalised `cardopc-geometry` polygons in nanometres with
//!    overflow-checked DBU scaling.
//!
//! Writing: [`write::GdsWriter`] emits byte-stable libraries (fixed
//! zero timestamps) of BOUNDARY records, splitting polygons that exceed
//! the 8191-point XY record limit via [`split::split_polygon`]. Its one
//! BOUNDARY encoder, [`write::RingEncoder`], also encodes elements apart
//! from the library ([`write::put_boundary`]), so a large library can be
//! encoded in parallel and streamed out in order ([`GdsWriter::drain`]).
//!
//! ```
//! use cardopc_gds::{flatten, parse_lib, FlattenLimits, GdsWriter, LayerFilter};
//! use cardopc_geometry::{Point, Polygon};
//!
//! let mut w = GdsWriter::new("DEMO", 1.0).unwrap();
//! w.begin_struct("TOP");
//! w.boundary(1, 0, &Polygon::rect(Point::new(0.0, 0.0), Point::new(90.0, 60.0))).unwrap();
//! w.end_struct();
//! let bytes = w.finish();
//!
//! let lib = parse_lib(&bytes).unwrap();
//! let shapes = flatten(&lib, "TOP", LayerFilter::All, FlattenLimits::default()).unwrap();
//! assert_eq!(shapes[0].polygon.area(), 5400.0);
//! ```

#![warn(missing_docs)]

mod error;
pub mod flatten;
pub mod model;
pub mod read;
pub mod real;
pub mod record;
pub mod split;
pub mod write;

pub use error::GdsError;
pub use flatten::{flatten, FlatShape, FlattenLimits, Trans};
pub use model::{GdsElement, GdsLib, GdsRef, GdsStruct, LayerFilter, Strans};
pub use read::parse_lib;
pub use real::{decode_real8, encode_real8};
pub use split::split_polygon;
pub use write::{put_boundary, GdsWriter, RingEncoder};

/// Reads and parses a GDSII file from disk.
///
/// # Errors
///
/// [`GdsError::Io`] on filesystem failures, any parse error otherwise.
pub fn read_file(path: &std::path::Path) -> Result<GdsLib, GdsError> {
    let bytes = std::fs::read(path)?;
    parse_lib(&bytes)
}

/// Writes a finished GDSII byte stream to disk.
///
/// # Errors
///
/// [`GdsError::Io`] on filesystem failures.
pub fn write_file(path: &std::path::Path, bytes: &[u8]) -> Result<(), GdsError> {
    std::fs::write(path, bytes)?;
    Ok(())
}
