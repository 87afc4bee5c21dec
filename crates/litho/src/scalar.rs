//! The sealed scalar abstraction behind the mixed-precision simulation
//! backends.
//!
//! Everything downstream of the mask raster — [`crate::fft::Field`], the
//! FFT plans and twiddles, and the SOCS accumulate kernels — is generic
//! over [`Scalar`], which is implemented for exactly `f64` and `f32`.
//! The trait is *sealed*: the kernels (one generic body each, see
//! [`crate::simd`]), plan registries, and tolerance contracts are written
//! against these two types only, and a third implementation outside this
//! crate could not uphold them.
//!
//! Two invariants keep the genericization honest:
//!
//! * **`f64` is the reference.** All derived constants (twiddle factors,
//!   butterfly constants, normalisations) are computed in `f64`
//!   and narrowed through [`Scalar::from_f64`] — for `T = f64` that is
//!   the identity, so the double-precision path stays bit-identical to
//!   the pre-generic implementation.
//! * **Only simulation downcasts.** Geometry, MRC, and spline fitting
//!   stay `f64`; masks enter as `&[f64]` and intensities leave as
//!   `&mut [f64]` regardless of the simulation precision. [`Precision`]
//!   names the per-run choice on the engine/config/wire surface.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The floating-point precision a run simulates in.
///
/// Selected per run (CLI `--precision`, wire field `opc.precision`) and
/// threaded through the engine, tile scheduling, the content-addressed
/// tile cache key, and the fleet work-spec. Only the *simulation* core
/// (FFT + SOCS convolution) changes width; geometry, MRC, and fitting
/// are always double precision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Double-precision simulation (the reference path).
    #[default]
    F64,
    /// Single-precision simulation: half the memory bandwidth and twice
    /// the SIMD lanes, within the documented tolerance of the `f64`
    /// reference (see `DESIGN.md` §12).
    F32,
}

impl Precision {
    /// Strictly parses the canonical names `"f64"` and `"f32"`.
    ///
    /// Anything else — including case variants and aliases like
    /// `"double"` — returns `None`, so every config surface fails loudly
    /// instead of silently defaulting.
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f64" => Some(Precision::F64),
            "f32" => Some(Precision::F32),
            _ => None,
        }
    }

    /// The canonical lowercase name (`"f64"` / `"f32"`), the exact form
    /// [`Precision::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }

    /// A stable one-byte discriminant for content hashes (the tile cache
    /// key must never alias an `f32` result with an `f64` one).
    pub fn tag(self) -> u8 {
        match self {
            Precision::F64 => 0,
            Precision::F32 => 1,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

mod private {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// The scalar element type of the simulation pipeline (sealed; exactly
/// `f64` and `f32`).
///
/// Bounds cover everything the generic FFT/SOCS code needs: plain
/// arithmetic and conversions to and from the `f64` reference domain.
pub trait Scalar:
    private::Sealed
    + Copy
    + Default
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// One half (the Hermitian-split and radix-3 butterfly constant).
    const HALF: Self;

    /// Narrowing (for `f32`) or identity (for `f64`) conversion from the
    /// `f64` reference domain. All derived constants funnel through this
    /// so the `f64` path is bitwise unchanged by the genericization.
    fn from_f64(v: f64) -> Self;

    /// Widening (for `f32`) or identity (for `f64`) conversion back to
    /// the `f64` output domain.
    fn to_f64(self) -> f64;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const HALF: Self = 0.5;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const HALF: Self = 0.5;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_is_strict() {
        assert_eq!(Precision::parse("f64"), Some(Precision::F64));
        assert_eq!(Precision::parse("f32"), Some(Precision::F32));
        for bad in ["F64", "f16", "double", "single", "32", "", " f32"] {
            assert_eq!(Precision::parse(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn names_round_trip_and_tags_differ() {
        for p in [Precision::F64, Precision::F32] {
            assert_eq!(Precision::parse(p.name()), Some(p));
            assert_eq!(format!("{p}"), p.name());
        }
        assert_ne!(Precision::F64.tag(), Precision::F32.tag());
        assert_eq!(Precision::default(), Precision::F64);
    }

    #[test]
    fn conversions_are_identity_for_f64_and_narrow_for_f32() {
        let v = 0.123_456_789_012_345_6_f64;
        assert_eq!(f64::from_f64(v).to_bits(), v.to_bits());
        assert_eq!(f32::from_f64(v), v as f32);
        assert_eq!(<f32 as Scalar>::to_f64(0.5f32), 0.5f64);
    }
}
