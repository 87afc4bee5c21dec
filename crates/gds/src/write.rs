//! Deterministic, byte-stable GDSII library writer.
//!
//! Timestamps are fixed at zero so the same geometry always serialises
//! to the same bytes — the round-trip determinism tests `cmp` whole
//! files across worker counts and cache states. Coordinates are given in
//! nanometres and quantised to the library's database unit as
//! `(nm / dbu).round()` (ties away from zero, the deterministic IEEE
//! mode) — computed as `nm · (1/dbu)` wherever that provably rounds
//! alike, by the division elsewhere; anything outside `i32` after
//! quantisation is a typed overflow error.
//! Polygons beyond the 8191-point XY record limit are bisected by
//! [`crate::split::split_polygon`] before encoding.

use std::borrow::Cow;

use cardopc_geometry::{Point, Polygon};

use crate::error::GdsError;
use crate::record::{
    dtype, header, put_ascii, put_empty, put_i16s, put_real8s, rtype, MAX_XY_POINTS,
};
use crate::split::split_polygon;

/// Streaming writer for one GDSII library.
#[derive(Debug)]
pub struct GdsWriter {
    nm_per_dbu: f64,
    out: Vec<u8>,
    in_struct: bool,
    finished: bool,
}

impl GdsWriter {
    /// Starts a library called `lib_name` with a grid of `nm_per_dbu`
    /// nanometres per database unit (`1.0` for target layouts, `0.01`
    /// for curvilinear masks). The user unit is fixed at 1 µm.
    ///
    /// # Errors
    ///
    /// [`GdsError::RealOutOfRange`] for a non-positive or non-finite
    /// grid.
    pub fn new(lib_name: &str, nm_per_dbu: f64) -> Result<GdsWriter, GdsError> {
        if !(nm_per_dbu.is_finite() && nm_per_dbu > 0.0) {
            return Err(GdsError::RealOutOfRange(format!(
                "nm-per-dbu {nm_per_dbu} must be a positive finite real"
            )));
        }
        let mut out = Vec::new();
        put_i16s(&mut out, rtype::HEADER, &[600]);
        // Fixed zero timestamps: byte-stable output by construction.
        put_i16s(&mut out, rtype::BGNLIB, &[0; 12]);
        put_ascii(&mut out, rtype::LIBNAME, lib_name);
        put_real8s(
            &mut out,
            rtype::UNITS,
            &[nm_per_dbu * 1e-3, nm_per_dbu * 1e-9],
        )?;
        Ok(GdsWriter {
            nm_per_dbu,
            out,
            in_struct: false,
            finished: false,
        })
    }

    /// Nanometres per database unit this writer quantises to.
    pub fn nm_per_dbu(&self) -> f64 {
        self.nm_per_dbu
    }

    /// Opens a structure.
    ///
    /// # Panics
    ///
    /// Panics when a structure is already open (writer misuse, not a
    /// data condition).
    pub fn begin_struct(&mut self, name: &str) {
        assert!(!self.in_struct && !self.finished, "structure already open");
        put_i16s(&mut self.out, rtype::BGNSTR, &[0; 12]);
        put_ascii(&mut self.out, rtype::STRNAME, name);
        self.in_struct = true;
    }

    /// Closes the open structure.
    ///
    /// # Panics
    ///
    /// Panics when no structure is open.
    pub fn end_struct(&mut self) {
        assert!(self.in_struct, "no structure open");
        put_empty(&mut self.out, rtype::ENDSTR);
        self.in_struct = false;
    }

    /// Writes a polygon (vertices in nm) as one or more BOUNDARY
    /// elements on `layer:datatype`, splitting to honour the XY record
    /// limit.
    ///
    /// # Errors
    ///
    /// [`GdsError::CoordinateOverflow`] when a quantised coordinate
    /// leaves `i32`, [`GdsError::TooManyVertices`] if splitting cannot
    /// converge, [`GdsError::Grammar`] for a degenerate polygon.
    ///
    /// # Panics
    ///
    /// Panics when no structure is open.
    pub fn boundary(
        &mut self,
        layer: i16,
        datatype: i16,
        polygon: &Polygon,
    ) -> Result<(), GdsError> {
        assert!(self.in_struct, "no structure open");
        put_boundary(&mut self.out, self.nm_per_dbu, layer, datatype, polygon)
    }

    /// Takes the bytes encoded so far, leaving the writer's state (open
    /// structure) as it was: a library too large to hold whole is written
    /// out piece by piece, in order, with elements encoded elsewhere by
    /// [`put_boundary`] in between.
    pub fn drain(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Terminates the library and returns the finished byte stream.
    ///
    /// # Panics
    ///
    /// Panics when a structure is still open.
    pub fn finish(mut self) -> Vec<u8> {
        assert!(!self.in_struct, "structure still open");
        put_empty(&mut self.out, rtype::ENDLIB);
        self.finished = true;
        self.out
    }
}

/// Appends `polygon` (vertices in nm) to `out` as one or more BOUNDARY
/// elements on `layer:datatype` at `nm_per_dbu`, splitting to honour the
/// XY record limit — the one BOUNDARY encoder, behind
/// [`GdsWriter::boundary`] and any writer that encodes elements apart
/// from the library (the parallel mask export). On error nothing is
/// appended.
///
/// # Errors
///
/// [`GdsError::CoordinateOverflow`] when a quantised coordinate leaves
/// `i32`, [`GdsError::TooManyVertices`] if splitting cannot converge,
/// [`GdsError::Grammar`] (offset: `out.len()`) for a degenerate polygon.
pub fn put_boundary(
    out: &mut Vec<u8>,
    nm_per_dbu: f64,
    layer: i16,
    datatype: i16,
    polygon: &Polygon,
) -> Result<(), GdsError> {
    if polygon.len() < 3 {
        return Err(GdsError::Grammar {
            offset: out.len(),
            reason: format!("polygon with {} vertices cannot be written", polygon.len()),
        });
    }
    let start = out.len();
    let element =
        |out: &mut Vec<u8>, ring: &[Point]| put_element(out, nm_per_dbu, layer, datatype, ring);
    // The closing point is written explicitly, so a record fits
    // MAX_XY_POINTS - 1 distinct vertices.
    let encoded = match polygon.len() < MAX_XY_POINTS {
        true => element(out, polygon.vertices()),
        false => split_polygon(polygon, MAX_XY_POINTS - 1).and_then(|pieces| {
            let put = |piece: &Cow<'_, Polygon>| element(out, piece.vertices());
            pieces.iter().try_for_each(put)
        }),
    };
    if encoded.is_err() {
        out.truncate(start);
    }
    encoded
}

/// Bytes of the records of one BOUNDARY element other than its XY payload:
/// BOUNDARY, LAYER, DATATYPE, the XY header and ENDEL.
const ELEMENT_FRAME: usize = 4 + 6 + 6 + 4 + 4;

/// One BOUNDARY element whose ring fits one XY record, written into one
/// pre-sized slice at the end of `out` (the caller truncates on error).
fn put_element(
    out: &mut Vec<u8>,
    nm_per_dbu: f64,
    layer: i16,
    datatype: i16,
    ring: &[Point],
) -> Result<(), GdsError> {
    // XY: every vertex, then the first again to close the ring.
    let payload = (ring.len() + 1) * 8;
    let start = out.len();
    out.resize(start + ELEMENT_FRAME + payload, 0);
    let bytes = &mut out[start..];
    bytes[0..4].copy_from_slice(&header(rtype::BOUNDARY, dtype::NONE, 0));
    bytes[4..8].copy_from_slice(&header(rtype::LAYER, dtype::I16, 2));
    bytes[8..10].copy_from_slice(&layer.to_be_bytes());
    bytes[10..14].copy_from_slice(&header(rtype::DATATYPE, dtype::I16, 2));
    bytes[14..16].copy_from_slice(&datatype.to_be_bytes());
    bytes[16..20].copy_from_slice(&header(rtype::XY, dtype::I32, payload));
    let (xy, end) = bytes[20..].split_at_mut(payload);
    let per_dbu = 1.0 / nm_per_dbu;
    let (points, close) = xy.split_at_mut(payload - 8);
    for (v, at) in ring.iter().zip(points.chunks_exact_mut(8)) {
        let x = quantise_scaled(v.x, nm_per_dbu, per_dbu)?;
        let y = quantise_scaled(v.y, nm_per_dbu, per_dbu)?;
        at[..4].copy_from_slice(&x.to_be_bytes());
        at[4..].copy_from_slice(&y.to_be_bytes());
    }
    close.copy_from_slice(&points[..8]);
    end.copy_from_slice(&header(rtype::ENDEL, dtype::NONE, 0));
    Ok(())
}

/// Largest |nm / nm_per_dbu| the multiply path takes: below 2^30 the
/// product and the quotient differ by at most 3·2^-53 relative, under
/// 4e-7 dbu — far inside [`HALF_MARGIN`].
const SCALED_LIMIT: f64 = (1u32 << 30) as f64;

/// How far from a half the product must lie for its rounding to be the
/// quotient's: `nm · (1/dbu)` and `nm / dbu` lie within it of each other,
/// so they round alike unless the product sits within it of a half.
/// There, and for large or non-finite values, [`quantise_scaled`] falls
/// back to the exact division ([`quantise`]).
const HALF_MARGIN: f64 = 1e-6;

/// [`quantise`] by multiplying with `per_dbu` (`1 / nm_per_dbu`): the
/// product's rounding, or the exact division where that is not to be
/// trusted. Spline samples at `t = 0` are the control points, which often
/// sit on a binary grid whose halves are exact ties, so the fallback is
/// per coordinate.
#[inline]
fn quantise_scaled(nm: f64, nm_per_dbu: f64, per_dbu: f64) -> Result<i32, GdsError> {
    match round_scaled(nm * per_dbu) {
        (dbu, false) => Ok(dbu),
        (_, true) => quantise(nm, nm_per_dbu),
    }
}

/// Rounds the product `q` to the nearest integer, and says whether that
/// cannot be trusted to be the quotient's rounding (then the value is
/// meaningless): `q` is not finite, not below [`SCALED_LIMIT`], or within
/// [`HALF_MARGIN`] of a half — the only place where "nearest" has to be
/// told apart from `f64::round`'s half away from zero, and where the
/// product and the quotient may round apart. Branch-free, so a ring's
/// loop stays tight.
#[inline]
fn round_scaled(q: f64) -> (i32, bool) {
    // Adding 1.5·2^52 leaves ulp 1: the sum is `q` rounded to the nearest
    // integer, whose low 32 bits hold that integer (two's complement) for
    // |q| < 2^31. Subtracting it back is exact, and so is `q - nearest`.
    const ROUNDER: f64 = 6_755_399_441_055_744.0;
    let sum = q + ROUNDER;
    let nearest = sum - ROUNDER;
    let trusted = (q.abs() < SCALED_LIMIT) & ((q - nearest).abs() < 0.5 - HALF_MARGIN);
    (sum.to_bits() as u32 as i32, !trusted)
}

fn quantise(nm: f64, nm_per_dbu: f64) -> Result<i32, GdsError> {
    let q = nm / nm_per_dbu;
    // `f64::round` (half away from zero) without its libm call: truncate,
    // then step away from zero on a fractional part of at least one half.
    // The fraction is exact: a multiple of `q`'s ulp below 1 in magnitude.
    if q.abs() < i32::MAX as f64 {
        let t = q as i64;
        let frac = q - t as f64;
        return Ok((t + (frac >= 0.5) as i64 - (frac <= -0.5) as i64) as i32);
    }
    // Out of range, or NaN: the checked path and its error.
    let dbu = q.round();
    if !dbu.is_finite() || dbu < i32::MIN as f64 || dbu > i32::MAX as f64 {
        return Err(GdsError::CoordinateOverflow(format!(
            "{nm} nm does not fit a 32-bit database unit at {nm_per_dbu} nm/dbu"
        )));
    }
    Ok(dbu as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::{flatten, FlattenLimits};
    use crate::model::LayerFilter;
    use crate::read::parse_lib;
    use cardopc_geometry::Point;
    use proptest::prelude::*;

    #[test]
    fn written_library_reparses_identically() {
        let mut w = GdsWriter::new("MASK", 1.0).unwrap();
        w.begin_struct("TOP");
        let square = Polygon::rect(Point::new(0.0, 0.0), Point::new(100.0, 50.0));
        w.boundary(7, 2, &square).unwrap();
        w.end_struct();
        let bytes = w.finish();

        let lib = parse_lib(&bytes).unwrap();
        assert_eq!(lib.name, "MASK");
        assert_eq!(lib.nm_per_dbu(), 1.0);
        let shapes = flatten(&lib, "TOP", LayerFilter::All, FlattenLimits::default()).unwrap();
        assert_eq!(shapes.len(), 1);
        assert_eq!((shapes[0].layer, shapes[0].datatype), (7, 2));
        assert_eq!(shapes[0].polygon.area(), 5000.0);
    }

    #[test]
    fn output_is_byte_stable() {
        let build = || {
            let mut w = GdsWriter::new("MASK", 0.01).unwrap();
            w.begin_struct("TOP");
            let poly = Polygon::new(
                (0..128)
                    .map(|i| {
                        let a = 2.0 * std::f64::consts::PI * i as f64 / 128.0;
                        Point::new(70.0 * a.cos() + 100.0, 70.0 * a.sin() + 100.0)
                    })
                    .collect(),
            );
            w.boundary(1, 0, &poly).unwrap();
            w.end_struct();
            w.finish()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn subnanometre_grid_preserves_curvature() {
        let mut w = GdsWriter::new("MASK", 0.01).unwrap();
        w.begin_struct("TOP");
        // A vertex at a 0.25 nm offset survives a 0.01 nm grid exactly.
        let poly = Polygon::new(vec![
            Point::new(0.25, 0.0),
            Point::new(100.07, 0.0),
            Point::new(100.07, 55.31),
            Point::new(0.25, 55.31),
        ]);
        w.boundary(1, 0, &poly).unwrap();
        w.end_struct();
        let lib = parse_lib(&w.finish()).unwrap();
        let shapes = flatten(&lib, "TOP", LayerFilter::All, FlattenLimits::default()).unwrap();
        let bbox = shapes[0].polygon.bbox();
        assert!((bbox.min.x - 0.25).abs() < 1e-9);
        assert!((bbox.max.y - 55.31).abs() < 1e-9);
    }

    #[test]
    fn oversized_polygons_split_on_write() {
        let mut w = GdsWriter::new("MASK", 1.0).unwrap();
        w.begin_struct("TOP");
        let big = Polygon::new(
            (0..10_000)
                .map(|i| {
                    let a = 2.0 * std::f64::consts::PI * i as f64 / 10_000.0;
                    Point::new(5000.0 * a.cos(), 5000.0 * a.sin())
                })
                .collect(),
        );
        w.boundary(1, 0, &big).unwrap();
        w.end_struct();
        let lib = parse_lib(&w.finish()).unwrap();
        let shapes = flatten(&lib, "TOP", LayerFilter::All, FlattenLimits::default()).unwrap();
        assert!(shapes.len() >= 2);
        let total: f64 = shapes.iter().map(|s| s.polygon.area()).sum();
        assert!((total - big.area()).abs() / big.area() < 1e-3);
    }

    #[test]
    fn drained_library_with_elements_encoded_apart_is_the_same_stream() {
        let polys: Vec<Polygon> = (0..3)
            .map(|i| {
                let x = i as f64 * 100.0;
                Polygon::rect(Point::new(x, 0.25), Point::new(x + 50.5, 40.0))
            })
            .collect();
        let mut whole = GdsWriter::new("MASK", 0.01).unwrap();
        whole.begin_struct("TOP");
        for p in &polys {
            whole.boundary(2, 0, p).unwrap();
        }
        whole.end_struct();

        let mut lib = GdsWriter::new("MASK", 0.01).unwrap();
        lib.begin_struct("TOP");
        let mut streamed = lib.drain();
        let mut elements = Vec::new();
        for p in &polys {
            put_boundary(&mut elements, lib.nm_per_dbu(), 2, 0, p).unwrap();
        }
        streamed.extend_from_slice(&elements);
        lib.end_struct();
        streamed.extend_from_slice(&lib.finish());
        assert_eq!(streamed, whole.finish());

        // A failed element appends nothing.
        let far = Polygon::rect(Point::new(1e12, 0.0), Point::new(1e12 + 10.0, 10.0));
        let before = elements.clone();
        assert!(put_boundary(&mut elements, 0.01, 2, 0, &far).is_err());
        assert_eq!(elements, before);
    }

    #[test]
    fn overflow_and_degenerate_inputs_are_typed_errors() {
        let mut w = GdsWriter::new("MASK", 0.01).unwrap();
        w.begin_struct("TOP");
        let far = Polygon::rect(Point::new(1e12, 0.0), Point::new(1e12 + 10.0, 10.0));
        assert!(matches!(
            w.boundary(1, 0, &far),
            Err(GdsError::CoordinateOverflow(_))
        ));
        let line = Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
        assert!(w.boundary(1, 0, &line).is_err());
        assert!(GdsWriter::new("X", 0.0).is_err());
        assert!(GdsWriter::new("X", f64::NAN).is_err());
    }

    /// The reference: `f64::round`, then the range check.
    fn quantise_by_round(nm: f64, nm_per_dbu: f64) -> Option<i32> {
        let dbu = (nm / nm_per_dbu).round();
        (dbu.is_finite() && dbu >= i32::MIN as f64 && dbu <= i32::MAX as f64).then_some(dbu as i32)
    }

    fn check_quantise(nm: f64, nm_per_dbu: f64) {
        assert_eq!(
            quantise(nm, nm_per_dbu).ok(),
            quantise_by_round(nm, nm_per_dbu),
            "{nm:e} nm at {nm_per_dbu} nm/dbu"
        );
    }

    #[test]
    fn quantise_rounds_exactly_as_f64_round() {
        let limit = 2f64.powi(31);
        let mut values = vec![0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for k in [
            0.0,
            1.0,
            2.0,
            7.0,
            1e6,
            4503599627370495.0,
            limit - 2.0,
            limit - 1.0,
        ] {
            for v in [
                k + 0.5,
                k + 0.49999999999999994,
                (k + 0.5).next_up(),
                (k + 0.5).next_down(),
            ] {
                values.extend([v, -v]);
            }
        }
        for edge in [limit - 1.0, limit, limit + 1.0, limit - 0.5, limit - 1.5] {
            for v in [edge, edge.next_up(), edge.next_down()] {
                values.extend([v, -v]);
            }
        }
        for v in values {
            check_quantise(v, 1.0);
        }
    }

    /// The multiply path against the division it stands for.
    fn check_scaled(nm: f64, nm_per_dbu: f64) {
        assert_eq!(
            quantise_scaled(nm, nm_per_dbu, 1.0 / nm_per_dbu).ok(),
            quantise(nm, nm_per_dbu).ok(),
            "{nm:e} nm ({:#x}) at {nm_per_dbu} nm/dbu",
            nm.to_bits()
        );
    }

    /// Grids the exactness tests sweep: the mask's, the target layout's
    /// and a few that are not powers of ten.
    const GRIDS: [f64; 7] = [MASK_GRID, 1.0, 0.25, 0.001, 3.0, 0.1, 0.3];
    const MASK_GRID: f64 = 0.01;

    #[test]
    fn scaled_quantise_is_the_division_at_exact_halves() {
        for nm_per_dbu in GRIDS {
            for k in [
                0i64,
                1,
                2,
                7,
                123_456,
                1 << 20,
                (1 << 29) + 3,
                (1 << 30) - 1,
                1 << 30,
            ] {
                for sign in [1.0, -1.0] {
                    let half = sign * (k as f64 + 0.5) * nm_per_dbu;
                    let (mut up, mut down) = (half, half);
                    for _ in 0..8 {
                        check_scaled(up, nm_per_dbu);
                        check_scaled(down, nm_per_dbu);
                        (up, down) = (up.next_up(), down.next_down());
                    }
                    check_scaled(sign * k as f64 * nm_per_dbu, nm_per_dbu);
                }
            }
        }
        for v in [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e12,
            -1e12,
        ] {
            check_scaled(v, MASK_GRID);
        }
    }

    /// The element encoder the direct writer replaced: one record helper
    /// per record, every coordinate divided.
    fn element_by_records(
        out: &mut Vec<u8>,
        nm_per_dbu: f64,
        layer: i16,
        ring: &[Point],
    ) -> Result<(), GdsError> {
        use crate::record::{put_header, put_i32s};
        put_empty(out, rtype::BOUNDARY);
        put_i16s(out, rtype::LAYER, &[layer]);
        put_i16s(out, rtype::DATATYPE, &[0]);
        let mut xy = Vec::new();
        for v in ring.iter().chain(&ring[..1]) {
            xy.extend([quantise(v.x, nm_per_dbu)?, quantise(v.y, nm_per_dbu)?]);
        }
        put_i32s(out, rtype::XY, &xy);
        put_header(out, rtype::ENDEL, dtype::NONE, 0);
        Ok(())
    }

    proptest! {
        /// Whole elements: rings of random, near-half and far-out vertices
        /// encode to the record-by-record, divide-every-coordinate bytes,
        /// and fail (appending nothing) exactly when those fail.
        #[test]
        fn direct_element_writer_is_the_record_writer(
            seed in 0u64..u64::MAX,
            pick in 0usize..7,
        ) {
            let mut rng = cardopc_geometry::SplitMix64::new(seed);
            let nm_per_dbu = GRIDS[pick];
            let ring: Vec<Point> = (0..rng.range_usize(3, 40))
                .map(|_| {
                    let mut coordinate = || match rng.range_usize(0, 4) {
                        0 => rng.range_f64(-5e5, 5e5),
                        1 => {
                            let k = rng.range_f64(-1e6, 1e6).round();
                            let mut v = (k + 0.5) * nm_per_dbu;
                            for _ in 0..rng.range_usize(0, 4) {
                                v = if rng.chance(0.5) { v.next_up() } else { v.next_down() };
                            }
                            v
                        }
                        2 => rng.range_f64(-1e4, 1e4).round() * nm_per_dbu,
                        _ if rng.chance(0.1) => 1e12,
                        _ => rng.range_f64(-1.0, 1.0),
                    };
                    Point::new(coordinate(), coordinate())
                })
                .collect();
            let polygon = Polygon::new(ring);
            prop_assume!(polygon.len() >= 3);
            let mut want = vec![7u8];
            let expected = element_by_records(&mut want, nm_per_dbu, 2, polygon.vertices());
            let mut got = vec![7u8];
            let result = put_boundary(&mut got, nm_per_dbu, 2, 0, &polygon);
            prop_assert_eq!(result.is_ok(), expected.is_ok());
            if expected.is_ok() {
                prop_assert_eq!(got, want);
            } else {
                prop_assert_eq!(got, vec![7u8]);
            }
        }

        #[test]
        fn scaled_quantise_is_the_division_on_random_values(
            bits in 0u64..u64::MAX,
            nm in -3.0e7f64..3.0e7,
            k in -(1i64 << 31)..(1i64 << 31),
            ulps in 0usize..6,
            pick in 0usize..7,
        ) {
            let nm_per_dbu = GRIDS[pick];
            check_scaled(f64::from_bits(bits), nm_per_dbu);
            check_scaled(nm, nm_per_dbu);
            // Large (past the multiply path's range) and near-half values.
            check_scaled(nm * 1e3, nm_per_dbu);
            let mut half = (k as f64 + 0.5) * nm_per_dbu;
            let mut other = half;
            for _ in 0..ulps {
                (half, other) = (half.next_up(), other.next_down());
            }
            check_scaled(half, nm_per_dbu);
            check_scaled(other, nm_per_dbu);
        }

        #[test]
        fn quantise_matches_f64_round_on_random_doubles(
            bits in 0u64..u64::MAX,
            scaled in -3.0e9f64..3.0e9,
            pick in 0usize..4,
        ) {
            let pitch = [1.0, 0.25, 0.001, 3.0][pick];
            check_quantise(f64::from_bits(bits), 1.0);
            check_quantise(scaled, 1.0);
            check_quantise(scaled * pitch, pitch);
        }
    }
}
