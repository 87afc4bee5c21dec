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

use cardopc_geometry::{Point, Polygon, EPS};

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
/// XY record limit: each piece through the one element encoder,
/// [`RingEncoder`], behind [`GdsWriter::boundary`] and the parallel mask
/// export. The encoder deduplicates by [`Polygon::new`]'s rule, which
/// leaves every polygon that constructor built unchanged, so it writes
/// exactly `polygon.len()` vertices per unsplit polygon. On error nothing
/// is appended.
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
    let start = out.len();
    let element = |out: &mut Vec<u8>, ring: &[Point]| {
        let mut encoder = RingEncoder::begin(out, nm_per_dbu, layer, datatype);
        for block in ring.chunks(8) {
            let (mut xs, mut ys) = ([0.0; 8], [0.0; 8]);
            for (l, v) in block.iter().enumerate() {
                (xs[l], ys[l]) = (v.x, v.y);
            }
            encoder.push(&xs, &ys, block.len());
        }
        encoder.finish()
    };
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

/// The BOUNDARY, LAYER and DATATYPE records that open an element.
fn element_head(layer: i16, datatype: i16) -> [u8; 16] {
    let mut head = [0; 16];
    head[0..4].copy_from_slice(&header(rtype::BOUNDARY, dtype::NONE, 0));
    head[4..8].copy_from_slice(&header(rtype::LAYER, dtype::I16, 2));
    head[8..10].copy_from_slice(&layer.to_be_bytes());
    head[10..14].copy_from_slice(&header(rtype::DATATYPE, dtype::I16, 2));
    head[14..16].copy_from_slice(&datatype.to_be_bytes());
    head
}

/// One BOUNDARY element written while its ring is still being produced,
/// block by block, straight into the caller's buffer — the one BOUNDARY
/// element encoder: [`put_boundary`] feeds it each (split) polygon, the
/// mask export each spline's samples.
///
/// Each block is deduplicated as [`Polygon::new`] does it (a vertex within
/// [`EPS`] of the last kept one is dropped; so is the ring's trailing run
/// of vertices within [`EPS`] of its first), quantised by the
/// multiply-and-round test with the exact division where that test cannot
/// be trusted, and written as big-endian pairs. Both tests run over the
/// whole block without branches: a block whose every x moves by more than
/// 2·[`EPS`] holds no duplicate, and only a block where one does not, or
/// with an untrusted coordinate, takes a per-vertex path.
///
/// [`RingEncoder::finish`] completes the element or says why it cannot;
/// then — and when the encoder is dropped unfinished — the buffer is back
/// to where it was.
pub struct RingEncoder<'o> {
    out: &'o mut Vec<u8>,
    start: usize,
    nm_per_dbu: f64,
    per_dbu: f64,
    /// Vertices kept so far; written while one record can hold the ring.
    count: usize,
    /// Those the ring keeps if it ends here: through the last one apart
    /// from the first, so the closing run goes ([`Polygon::new`]'s rule).
    kept: usize,
    first: Point,
    last: Point,
    /// The first coordinate found not to fit the grid.
    overflow: Option<GdsError>,
    finished: bool,
}

impl<'o> RingEncoder<'o> {
    /// Opens an element on `layer:datatype` at the end of `out`.
    pub fn begin(out: &'o mut Vec<u8>, nm_per_dbu: f64, layer: i16, datatype: i16) -> Self {
        let start = out.len();
        out.extend_from_slice(&element_head(layer, datatype));
        // The XY header, written once the vertex count is known.
        out.extend_from_slice(&[0; 4]);
        RingEncoder {
            out,
            start,
            nm_per_dbu,
            per_dbu: 1.0 / nm_per_dbu,
            count: 0,
            kept: 0,
            first: Point::ZERO,
            last: Point::ZERO,
            overflow: None,
            finished: false,
        }
    }

    /// Appends the ring's next `n` vertices, lanes `..n` of `xs` and `ys`
    /// (nm).
    #[inline]
    pub fn push<const B: usize>(&mut self, xs: &[f64; B], ys: &[f64; B], n: usize) {
        if n < B {
            // The per-vertex path reads no padding lane.
            return self.push_kept_of(xs, ys, n);
        }
        // A vertex within EPS of its predecessor (the last kept vertex for
        // lane 0; none, infinitely far, for the ring's first) has |dx| ≤
        // EPS, so a block whose every x moves by more than twice that has
        // no duplicate whatever the rounding of the squared distance. Any
        // other block takes the exact test.
        let before = match self.count {
            0 => f64::NEG_INFINITY,
            _ => self.last.x,
        };
        let mut apart = true;
        for l in 0..B {
            let dx = xs[l] - if l == 0 { before } else { xs[l - 1] };
            apart &= dx.abs() > 2.0 * EPS;
        }
        if !apart {
            self.push_kept_of(xs, ys, B);
        } else {
            self.push_kept(xs, ys, B);
        }
    }

    /// The per-vertex path of [`RingEncoder::push`]: keeps the vertices of
    /// lanes `..n` not within [`EPS`] of the last kept one, then writes
    /// those.
    #[cold]
    fn push_kept_of<const B: usize>(&mut self, xs: &[f64; B], ys: &[f64; B], n: usize) {
        let (mut kx, mut ky, mut k) = ([0.0; B], [0.0; B], 0);
        let mut last = (self.count > 0).then_some(self.last);
        for l in 0..n {
            let v = Point::new(xs[l], ys[l]);
            if last.is_none_or(|last| !same_vertex(v, last)) {
                (kx[k], ky[k], k) = (v.x, v.y, k + 1);
                last = Some(v);
            }
        }
        self.push_kept(&kx, &ky, k);
    }

    /// Counts lanes `..k` of `xs` and `ys`, all kept, and writes them
    /// while one record holds the ring; lanes past `k` are zeros. Inlined
    /// into the mask export's sampling loop, it cost the export ≈ 15 %.
    #[inline(never)]
    fn push_kept<const B: usize>(&mut self, xs: &[f64; B], ys: &[f64; B], k: usize) {
        if k == 0 {
            return;
        }
        if self.count == 0 {
            (self.first, self.kept) = (Point::new(xs[0], ys[0]), 1);
        }
        self.last = Point::new(xs[k - 1], ys[k - 1]);
        // Through the block's last vertex apart from the first: one test
        // unless the block ends near it.
        let first = self.first;
        let apart = |l: &usize| !same_vertex(Point::new(xs[*l], ys[*l]), first);
        if let Some(l) = (0..k).rev().find(apart) {
            self.kept = self.count + l + 1;
        }
        self.count += k;
        if self.kept >= MAX_XY_POINTS {
            // Past what one record holds however the ring closes.
            return;
        }
        let (mut x, x_untrusted) = round_block(xs, self.per_dbu);
        let (mut y, y_untrusted) = round_block(ys, self.per_dbu);
        let fits = (!x_untrusted || self.divide(xs, k, &mut x))
            && (!y_untrusted || self.divide(ys, k, &mut y));
        if !fits {
            self.overflowed(xs, ys, k);
        }
        let mut pairs = [[0u8; 8]; B];
        for l in 0..B {
            pairs[l] = be_pair(x[l], y[l]);
        }
        // The whole block (a fixed-size copy), less its padding.
        self.out.extend_from_slice(pairs.as_flattened());
        self.out.truncate(self.out.len() - (B - k) * 8);
    }

    /// Replaces each of lanes `..k` of `dbu` whose product rounding
    /// [`round_scaled`] does not trust by the exact division's
    /// ([`divided`]); `false` when a coordinate does not fit.
    #[cold]
    fn divide<const B: usize>(&self, vs: &[f64; B], k: usize, dbu: &mut [i32; B]) -> bool {
        for l in 0..k {
            if round_scaled(vs[l] * self.per_dbu).1 {
                match divided(vs[l], self.nm_per_dbu) {
                    Some(exact) => dbu[l] = exact,
                    None => return false,
                }
            }
        }
        true
    }

    /// Notes the block's first coordinate, in vertex order, that does not
    /// fit the grid, unless an earlier block had one.
    #[cold]
    fn overflowed<const B: usize>(&mut self, xs: &[f64; B], ys: &[f64; B], k: usize) {
        let (nm_per_dbu, per_dbu) = (self.nm_per_dbu, self.per_dbu);
        let fits = |nm: f64| !round_scaled(nm * per_dbu).1 || divided(nm, nm_per_dbu).is_some();
        let first = (0..k).flat_map(|l| [xs[l], ys[l]]).find(|&nm| !fits(nm));
        self.overflow = self.overflow.take().or(first.map(|nm| {
            GdsError::CoordinateOverflow(format!(
                "{nm} nm does not fit a 32-bit database unit at {nm_per_dbu} nm/dbu"
            ))
        }));
    }

    /// Closes the ring and completes the element.
    ///
    /// # Errors
    ///
    /// Nothing is appended, and the error is, in this order:
    /// [`GdsError::Grammar`] (offset: where the element began) when fewer
    /// than 3 vertices remain after deduplication,
    /// [`GdsError::TooManyVertices`] when more remain than one XY record
    /// holds (8 190; [`put_boundary`] splits such a ring), and
    /// [`GdsError::CoordinateOverflow`] when a coordinate does not fit the
    /// grid.
    pub fn finish(mut self) -> Result<(), GdsError> {
        if self.kept < 3 {
            return Err(GdsError::Grammar {
                offset: self.start,
                reason: format!("polygon with {} vertices cannot be written", self.kept),
            });
        }
        if self.kept >= MAX_XY_POINTS {
            return Err(GdsError::TooManyVertices(self.kept));
        }
        if let Some(overflow) = self.overflow.take() {
            return Err(overflow);
        }
        let xy = self.start + 16;
        self.out.truncate(xy + 4 + self.kept * 8);
        let closing: [u8; 8] = self.out[xy + 4..xy + 12]
            .try_into()
            .expect("a first vertex");
        self.out.extend_from_slice(&closing);
        self.out
            .extend_from_slice(&header(rtype::ENDEL, dtype::NONE, 0));
        let payload = (self.kept + 1) * 8;
        self.out[xy..xy + 4].copy_from_slice(&header(rtype::XY, dtype::I32, payload));
        self.finished = true;
        Ok(())
    }
}

/// [`round_scaled`] of every `v · per_dbu` of a block, and whether any of
/// them cannot be trusted.
#[inline]
fn round_block<const B: usize>(vs: &[f64; B], per_dbu: f64) -> ([i32; B], bool) {
    let mut dbu = [0; B];
    let mut untrusted = false;
    for l in 0..B {
        let (rounded, bad) = round_scaled(vs[l] * per_dbu);
        dbu[l] = rounded;
        untrusted |= bad;
    }
    (dbu, untrusted)
}

/// A vertex's XY bytes: `x` then `y`, big-endian.
#[inline]
fn be_pair(x: i32, y: i32) -> [u8; 8] {
    ((x as u32 as u64) << 32 | y as u32 as u64).to_be_bytes()
}

/// [`Polygon::new`]'s duplicate test: `v` within [`EPS`] of `kept`.
fn same_vertex(v: Point, kept: Point) -> bool {
    v.distance_sq(kept) <= EPS * EPS
}

impl Drop for RingEncoder<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.out.truncate(self.start);
        }
    }
}

/// Largest |nm / nm_per_dbu| the multiply path takes: below 2^30 the
/// product and the quotient differ by at most 3·2^-53 relative, under
/// 4e-7 dbu — far inside [`HALF_MARGIN`].
const SCALED_LIMIT: f64 = (1u32 << 30) as f64;

/// How far from a half the product must lie for its rounding to be the
/// quotient's: `nm · (1/dbu)` and `nm / dbu` lie within it of each other,
/// so they round alike unless the product sits within it of a half.
/// There, and for large or non-finite values, the encoder falls back to
/// the exact division ([`divided`]) — per coordinate: spline samples at
/// `t = 0` are the control points, which often sit on a binary grid whose
/// halves are exact ties.
const HALF_MARGIN: f64 = 1e-6;

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

/// `(nm / nm_per_dbu).round()` (half away from zero) as an `i32`, `None`
/// where it does not fit.
#[inline]
fn divided(nm: f64, nm_per_dbu: f64) -> Option<i32> {
    let q = nm / nm_per_dbu;
    // `f64::round` (half away from zero) without its libm call: truncate,
    // then step away from zero on a fractional part of at least one half.
    // The fraction is exact: a multiple of `q`'s ulp below 1 in magnitude.
    if q.abs() < i32::MAX as f64 {
        let t = q as i64;
        let frac = q - t as f64;
        return Some((t + (frac >= 0.5) as i64 - (frac <= -0.5) as i64) as i32);
    }
    // Out of range, or NaN: the checked path.
    let dbu = q.round();
    (dbu.is_finite() && dbu >= i32::MIN as f64 && dbu <= i32::MAX as f64).then_some(dbu as i32)
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

    /// The exact division with its error: the encoder's rule for a
    /// coordinate [`round_scaled`] does not trust.
    fn quantise(nm: f64, nm_per_dbu: f64) -> Result<i32, GdsError> {
        divided(nm, nm_per_dbu).ok_or_else(|| {
            GdsError::CoordinateOverflow(format!(
                "{nm} nm does not fit a 32-bit database unit at {nm_per_dbu} nm/dbu"
            ))
        })
    }

    /// The encoder's rule for one coordinate: the product's rounding, or
    /// the exact division where [`round_scaled`] does not trust it.
    fn quantise_scaled(nm: f64, nm_per_dbu: f64, per_dbu: f64) -> Result<i32, GdsError> {
        match round_scaled(nm * per_dbu) {
            (dbu, false) => Ok(dbu),
            (_, true) => quantise(nm, nm_per_dbu),
        }
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

    /// `ring` through a [`RingEncoder`] in blocks of `B` (the last one
    /// partial, `n`s of `sizes` cycled), against [`put_boundary`] on
    /// `Polygon::new(ring)`: the bytes the polygon path writes, or its
    /// error and no byte; a ring past one record is declined whole.
    fn check_ring<const B: usize>(ring: &[Point], nm_per_dbu: f64, sizes: &[usize]) {
        let mut want = vec![1u8, 2];
        let expected = put_boundary(&mut want, nm_per_dbu, 5, 0, &Polygon::new(ring.to_vec()));
        let mut got = vec![1u8, 2];
        let mut encoder = RingEncoder::begin(&mut got, nm_per_dbu, 5, 0);
        let (mut at, mut size) = (0, sizes.iter().cycle());
        while at < ring.len() {
            let n = (*size.next().unwrap()).min(B).min(ring.len() - at).max(1);
            let (mut xs, mut ys) = ([f64::NAN; B], [-7.0; B]);
            for (l, v) in ring[at..at + n].iter().enumerate() {
                (xs[l], ys[l]) = (v.x, v.y);
            }
            encoder.push(&xs, &ys, n);
            at += n;
        }
        match encoder.finish() {
            Ok(()) => {
                assert!(expected.is_ok(), "{} vertices", ring.len());
                assert!(got == want, "{} vertices: bytes differ", ring.len());
            }
            Err(GdsError::TooManyVertices(n)) => {
                assert_eq!(got, vec![1u8, 2], "a declined ring left bytes");
                assert_eq!(n, Polygon::new(ring.to_vec()).len());
                assert!(n >= MAX_XY_POINTS, "declined a ring one element holds");
            }
            Err(e) => {
                assert_eq!(got, vec![1u8, 2], "a failed ring left bytes");
                assert_eq!(Err(e), expected, "{} vertices", ring.len());
            }
        }
    }

    #[test]
    fn ring_encoder_is_put_boundary_of_the_deduplicated_ring() {
        let mut rng = cardopc_geometry::SplitMix64::new(45);
        let circle = |n: usize, r: f64| -> Vec<Point> {
            (0..n)
                .map(|k| {
                    let a = std::f64::consts::TAU * k as f64 / n as f64;
                    Point::new(r * a.cos() + 7.125, r * a.sin() - 3.875)
                })
                .collect()
        };
        // Around the one-record limit, with and without a closing
        // duplicate (which brings 8 191 vertices down to 8 190) or run.
        for n in [
            MAX_XY_POINTS - 2,
            MAX_XY_POINTS - 1,
            MAX_XY_POINTS,
            MAX_XY_POINTS + 1,
        ] {
            let mut ring = circle(n, 40_000.0);
            check_ring::<8>(&ring, 0.01, &[8]);
            ring.push(ring[0] + Point::new(1e-10, 0.0));
            check_ring::<8>(&ring, 0.01, &[8, 3]);
            // A three-vertex closing run, each within EPS of the first but
            // apart from its neighbours: 8 193 vertices down to 8 190.
            ring.pop();
            ring.extend(
                [(-0.5e-9, 0.0), (0.9e-9, 0.0), (-0.5e-9, 0.6e-9)]
                    .map(|(x, y)| ring[0] + Point::new(x, y)),
            );
            check_ring::<8>(&ring, 0.01, &[8, 3]);
        }
        for _ in 0..400 {
            let grid = GRIDS[rng.range_usize(0, GRIDS.len())];
            let mut ring = circle(rng.range_usize(1, 60), rng.range_f64(0.01, 5e4));
            // Repeats (exact and within EPS), near-halves of the grid,
            // values past the grid, NaN.
            for _ in 0..rng.range_usize(0, 6) {
                let at = rng.range_usize(0, ring.len());
                let v = ring[at];
                let moved = match rng.range_usize(0, 6) {
                    0 => v,
                    1 => v + Point::new(4e-10, -3e-10),
                    2 => Point::new((v.x / grid).round() * grid + 0.5 * grid, v.y),
                    3 => Point::new(v.x, 1e12),
                    4 if rng.chance(0.2) => Point::new(f64::NAN, v.y),
                    _ => v + Point::new(3e-9, 0.0),
                };
                ring.insert(at, moved);
            }
            if rng.chance(0.3) {
                ring.push(ring[0]);
            }
            check_ring::<8>(&ring, grid, &[8]);
            check_ring::<8>(
                &ring,
                grid,
                &[rng.range_usize(1, 9), 8, rng.range_usize(1, 9)],
            );
            check_ring::<4>(&ring, grid, &[4, 1]);
        }
        // Every vertex the same, or two: fewer than 3 after the duplicates.
        for ring in [
            vec![Point::new(1.0, 2.0); 17],
            vec![Point::ZERO, Point::new(1.0, 0.0)],
        ] {
            check_ring::<8>(&ring, 0.01, &[8]);
        }
    }

    /// [`Polygon::new`]'s closing rule: the whole trailing run within
    /// [`EPS`] of the first vertex goes. On a ring whose two closing
    /// vertices are apart, and one with a three-vertex run: rebuilding
    /// the polygon leaves it unchanged, `put_boundary` writes exactly its
    /// vertices (plus the explicit closing point), and the encoder fed
    /// the raw ring writes the same bytes.
    #[test]
    fn ring_encoder_drops_the_whole_closing_run() {
        let o = Point::new(250.0, -40.0);
        let near = [
            Point::new(-0.5e-9, 0.0),
            Point::new(0.9e-9, 0.0),
            Point::new(-0.5e-9, 0.6e-9),
        ];
        let found = vec![
            Point::ZERO,
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
            near[0],
            near[1],
        ];
        let mut run = vec![
            o,
            o + Point::new(300.0, 0.0),
            o + Point::new(300.0, 200.0),
            o + Point::new(0.0, 200.0),
        ];
        run.extend(near.map(|d| o + d));
        for (ring, len) in [(found, 3), (run, 4)] {
            let p = Polygon::new(ring.clone());
            assert_eq!(p.len(), len);
            assert_eq!(Polygon::new(p.vertices().to_vec()), p);
            let mut out = Vec::new();
            put_boundary(&mut out, 0.001, 1, 0, &p).unwrap();
            let xy = u16::from_be_bytes([out[16], out[17]]) as usize;
            assert_eq!(
                xy,
                4 + (p.len() + 1) * 8,
                "XY record of {} vertices",
                p.len()
            );
            check_ring::<8>(&ring, 0.001, &[8]);
            check_ring::<4>(&ring, 0.001, &[1, 4]);
        }
    }

    #[test]
    fn ring_encoder_finish_errors_are_typed_and_put_boundary_splits() {
        let encode = |ring: &[Point]| {
            let mut out = vec![9u8];
            let mut encoder = RingEncoder::begin(&mut out, 0.01, 1, 0);
            for v in ring {
                encoder.push(&[v.x], &[v.y], 1);
            }
            let result = encoder.finish();
            assert!(result.is_ok() || out == [9], "a failed ring left bytes");
            result
        };
        let circle = |n: usize| -> Vec<Point> {
            (0..n)
                .map(|k| {
                    let a = std::f64::consts::TAU * k as f64 / n as f64;
                    Point::new(40_000.0 * a.cos(), 40_000.0 * a.sin())
                })
                .collect()
        };
        let (a, b) = (Point::new(1.0, 2.0), Point::new(5.0, 2.0));
        let far = Point::new(1e12, 0.0);
        // Fewer than 3 vertices after the duplicates (and the closing one)
        // go; before an overflow.
        let short = [a, a + Point::new(1e-10, 0.0), b, b, a];
        let grammar = |n: usize| GdsError::Grammar {
            offset: 1,
            reason: format!("polygon with {n} vertices cannot be written"),
        };
        assert_eq!(encode(&short), Err(grammar(2)));
        assert_eq!(encode(&[a, far, a]), Err(grammar(2)));
        // A coordinate past the grid, the first one in vertex order.
        let overflow = encode(&[a, Point::new(3.0, -1e12), far, b]);
        assert!(
            matches!(&overflow, Err(GdsError::CoordinateOverflow(m)) if m.starts_with("-1000000000000 nm")),
            "{overflow:?}"
        );
        // Longer than one record, counted after deduplication and before
        // an overflow.
        let mut long = circle(MAX_XY_POINTS + 1);
        long.push(long[0]);
        assert_eq!(
            encode(&long),
            Err(GdsError::TooManyVertices(MAX_XY_POINTS + 1))
        );
        let mut long = circle(9000);
        long[4] = far;
        assert_eq!(encode(&long), Err(GdsError::TooManyVertices(9000)));
        assert_eq!(
            encode(&circle(MAX_XY_POINTS)),
            Err(GdsError::TooManyVertices(MAX_XY_POINTS))
        );
        assert!(encode(&circle(MAX_XY_POINTS - 1)).is_ok());
        // put_boundary splits such a ring into elements that each fit.
        let mut out = Vec::new();
        put_boundary(&mut out, 0.01, 1, 0, &Polygon::new(circle(9000))).unwrap();
        let (mut elements, mut at) = (0, 0);
        while at < out.len() {
            let len = u16::from_be_bytes([out[at], out[at + 1]]) as usize;
            elements += usize::from(out[at + 2] == rtype::BOUNDARY);
            at += len;
        }
        assert!(elements >= 2, "{elements} elements");
        assert!(matches!(
            put_boundary(&mut out, 0.01, 1, 0, &Polygon::new(long)),
            Err(GdsError::CoordinateOverflow(_))
        ));
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
