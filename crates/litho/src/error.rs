//! Error type for the lithography engine.

use crate::fft::next_five_smooth;
use std::error::Error;
use std::fmt;

/// Errors returned by lithography engine construction and simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LithoError {
    /// Both simulation grid dimensions must be 5-smooth (`2^a·3^b·5^c`,
    /// nonzero): the only lengths the FFT transforms.
    InvalidGrid {
        /// Offending width.
        width: usize,
        /// Offending height.
        height: usize,
    },
    /// A physical parameter (wavelength, NA, pitch, …) is out of range.
    InvalidOptics(&'static str),
    /// The mask grid does not match the engine's grid.
    GridMismatch {
        /// Expected (width, height).
        expected: (usize, usize),
        /// Provided (width, height).
        got: (usize, usize),
    },
    /// A rasterisation parameter (pitch, grid extent) is unusable.
    InvalidRaster(&'static str),
    /// A worker thread could not be spawned.
    WorkerSpawn(String),
}

impl fmt::Display for LithoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LithoError::InvalidGrid { width, height } => write!(
                f,
                "simulation grid must be 5-smooth (2^a·3^b·5^c) on both axes, got \
                 {width}x{height}; the next 5-smooth grid is {}x{}",
                next_five_smooth(*width),
                next_five_smooth(*height)
            ),
            LithoError::InvalidOptics(what) => write!(f, "invalid optics parameter: {what}"),
            LithoError::GridMismatch { expected, got } => write!(
                f,
                "mask grid is {}x{} but engine expects {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            LithoError::InvalidRaster(what) => write!(f, "invalid raster parameter: {what}"),
            LithoError::WorkerSpawn(what) => write!(f, "failed to spawn litho worker: {what}"),
        }
    }
}

impl Error for LithoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_nonempty() {
        let e = LithoError::InvalidGrid {
            width: 13,
            height: 0,
        };
        assert!(e
            .to_string()
            .contains("got 13x0; the next 5-smooth grid is 15x1"));
        assert!(!LithoError::InvalidOptics("na").to_string().is_empty());
        let g = LithoError::GridMismatch {
            expected: (64, 64),
            got: (32, 32),
        };
        assert!(g.to_string().contains("32x32"));
    }
}
