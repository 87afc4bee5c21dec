//! Dense 2-D rasters shared by the lithography engine and contour tracing.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major 2-D raster of `f64` samples with a physical pixel pitch.
///
/// The grid covers the region `[0, width·pitch] × [0, height·pitch]` in
/// nanometres; sample `(ix, iy)` is located at the pixel *centre*
/// `((ix + 0.5)·pitch, (iy + 0.5)·pitch)`. Mask rasterisation, aerial images
/// and ILT mask parameters all live on this type.
///
/// ```
/// use cardopc_geometry::Grid;
///
/// let mut g = Grid::zeros(4, 3, 1.0);
/// g[(1, 2)] = 0.5;
/// assert_eq!(g[(1, 2)], 0.5);
/// assert_eq!(g.sum(), 0.5);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Grid {
    width: usize,
    height: usize,
    pitch: f64,
    data: Vec<f64>,
}

impl Grid {
    /// Creates a zero-filled grid.
    ///
    /// # Panics
    ///
    /// Panics when `pitch` is not strictly positive.
    pub fn zeros(width: usize, height: usize, pitch: f64) -> Self {
        assert!(pitch > 0.0, "pixel pitch must be positive");
        Grid {
            width,
            height,
            pitch,
            data: vec![0.0; width * height],
        }
    }

    /// Creates a grid filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics when `pitch` is not strictly positive.
    pub fn filled(width: usize, height: usize, pitch: f64, value: f64) -> Self {
        let mut g = Grid::zeros(width, height, pitch);
        g.data.fill(value);
        g
    }

    /// Creates a grid from raw row-major data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != width * height` or `pitch <= 0`.
    pub fn from_data(width: usize, height: usize, pitch: f64, data: Vec<f64>) -> Self {
        assert!(pitch > 0.0, "pixel pitch must be positive");
        assert_eq!(data.len(), width * height, "data length mismatch");
        Grid {
            width,
            height,
            pitch,
            data,
        }
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Physical size of one pixel in nanometres.
    #[inline]
    pub fn pitch(&self) -> f64 {
        self.pitch
    }

    /// Total number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the grid has zero samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major sample slice.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major sample slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sample at `(ix, iy)`, or `None` when out of bounds.
    #[inline]
    pub fn get(&self, ix: usize, iy: usize) -> Option<f64> {
        if ix < self.width && iy < self.height {
            Some(self.data[iy * self.width + ix])
        } else {
            None
        }
    }

    /// Sample at `(ix, iy)` clamped to the grid border.
    ///
    /// Useful for finite-difference stencils near the edge.
    #[inline]
    pub fn get_clamped(&self, ix: isize, iy: isize) -> f64 {
        let ix = ix.clamp(0, self.width as isize - 1) as usize;
        let iy = iy.clamp(0, self.height as isize - 1) as usize;
        self.data[iy * self.width + ix]
    }

    /// Bilinearly interpolated sample at physical coordinates `(x, y)`
    /// nanometres; clamps to the border outside the grid.
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        let ([i00, i10, i01, i11], tx, ty) =
            Grid::sample_cell(self.width, self.height, self.pitch, x, y);
        let (v00, v10) = (self.data[i00], self.data[i10]);
        let (v01, v11) = (self.data[i01], self.data[i11]);
        let top = v00 + (v10 - v00) * tx;
        let bot = v01 + (v11 - v01) * tx;
        top + (bot - top) * ty
    }

    /// The samples [`Grid::sample`] blends at `(x, y)` on a `width×height`
    /// grid of `pitch` nm pixels: the row-major indices of its 2×2 cell
    /// (`(ix, iy)`, `(ix + 1, iy)`, `(ix, iy + 1)`, `(ix + 1, iy + 1)`,
    /// each clamped to the border) and the weights along x and y.
    #[inline]
    pub fn sample_cell(
        width: usize,
        height: usize,
        pitch: f64,
        x: f64,
        y: f64,
    ) -> ([usize; 4], f64, f64) {
        let fx = x / pitch - 0.5;
        let fy = y / pitch - 0.5;
        let ix = fx.floor();
        let iy = fy.floor();
        let (tx, ty) = (fx - ix, fy - iy);
        let (ix, iy) = (ix as isize, iy as isize);
        let cx = |i: isize| i.clamp(0, width as isize - 1) as usize;
        let row = |i: isize| i.clamp(0, height as isize - 1) as usize * width;
        let (x0, x1, y0, y1) = (cx(ix), cx(ix + 1), row(iy), row(iy + 1));
        ([y0 + x0, y0 + x1, y1 + x0, y1 + x1], tx, ty)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum sample value (`-inf` for an empty grid).
    pub fn max_value(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum sample value (`+inf` for an empty grid).
    pub fn min_value(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Applies `f` to every sample in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Number of samples for which `pred` holds.
    pub fn count(&self, mut pred: impl FnMut(f64) -> bool) -> usize {
        self.data.iter().filter(|&&v| pred(v)).count()
    }

    /// Returns the binarised grid: `1.0` where the sample is `>= threshold`,
    /// `0.0` elsewhere.
    pub fn binarize(&self, threshold: f64) -> Grid {
        let data = self
            .data
            .iter()
            .map(|&v| if v >= threshold { 1.0 } else { 0.0 })
            .collect();
        Grid::from_data(self.width, self.height, self.pitch, data)
    }

    /// Writes the grid as a binary 8-bit PGM image scaled to `[min, max]`.
    ///
    /// Used by the example binaries to reproduce the qualitative plots of
    /// Fig. 6.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer. A mutable reference to any
    /// writer can be passed (`&mut file`).
    pub fn write_pgm<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        let lo = self.min_value();
        let hi = self.max_value();
        let span = if (hi - lo).abs() < 1e-300 {
            1.0
        } else {
            hi - lo
        };
        writeln!(w, "P5\n{} {}\n255", self.width, self.height)?;
        let bytes: Vec<u8> = self
            .data
            .iter()
            .map(|&v| (255.0 * (v - lo) / span).round().clamp(0.0, 255.0) as u8)
            .collect();
        w.write_all(&bytes)
    }
}

impl Index<(usize, usize)> for Grid {
    type Output = f64;
    /// Row-major indexing by `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    #[inline]
    fn index(&self, (ix, iy): (usize, usize)) -> &f64 {
        assert!(
            ix < self.width && iy < self.height,
            "grid index out of bounds"
        );
        &self.data[iy * self.width + ix]
    }
}

impl IndexMut<(usize, usize)> for Grid {
    #[inline]
    fn index_mut(&mut self, (ix, iy): (usize, usize)) -> &mut f64 {
        assert!(
            ix < self.width && iy < self.height,
            "grid index out of bounds"
        );
        &mut self.data[iy * self.width + ix]
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Grid[{}x{} @ {} nm/px]",
            self.width, self.height, self.pitch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut g = Grid::zeros(3, 2, 1.0);
        assert_eq!(g.len(), 6);
        g[(2, 1)] = 7.0;
        assert_eq!(g[(2, 1)], 7.0);
        assert_eq!(g.get(2, 1), Some(7.0));
        assert_eq!(g.get(3, 0), None);
        assert_eq!(g.get(0, 2), None);
    }

    #[test]
    #[should_panic(expected = "grid index out of bounds")]
    fn index_out_of_bounds_panics() {
        let g = Grid::zeros(3, 2, 1.0);
        let _ = g[(0, 2)];
    }

    #[test]
    #[should_panic(expected = "pixel pitch must be positive")]
    fn zero_pitch_panics() {
        let _ = Grid::zeros(1, 1, 0.0);
    }

    #[test]
    fn filled_and_stats() {
        let g = Grid::filled(4, 4, 2.0, 0.25);
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.max_value(), 0.25);
        assert_eq!(g.min_value(), 0.25);
        assert_eq!(g.count(|v| v > 0.0), 16);
    }

    #[test]
    fn clamped_access() {
        let g = Grid::from_data(2, 2, 1.0, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(g.get_clamped(-5, -5), 1.0);
        assert_eq!(g.get_clamped(9, 0), 2.0);
        assert_eq!(g.get_clamped(0, 9), 3.0);
        assert_eq!(g.get_clamped(9, 9), 4.0);
    }

    #[test]
    fn bilinear_sampling() {
        // 2x1 grid with values 0 and 1: pixel centres at x=0.5 and x=1.5.
        let g = Grid::from_data(2, 1, 1.0, vec![0.0, 1.0]);
        assert!((g.sample(0.5, 0.5) - 0.0).abs() < 1e-12);
        assert!((g.sample(1.5, 0.5) - 1.0).abs() < 1e-12);
        assert!((g.sample(1.0, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn binarize_threshold() {
        let g = Grid::from_data(2, 2, 1.0, vec![0.1, 0.5, 0.6, 0.9]);
        let b = g.binarize(0.5);
        assert_eq!(b.data(), &[0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn map_inplace() {
        let mut g = Grid::filled(2, 2, 1.0, 2.0);
        g.map_inplace(|v| v * v);
        assert_eq!(g.sum(), 16.0);
    }

    #[test]
    fn pgm_header() {
        let g = Grid::from_data(2, 2, 1.0, vec![0.0, 1.0, 0.5, 0.25]);
        let mut buf = Vec::new();
        g.write_pgm(&mut buf).unwrap();
        let header = String::from_utf8_lossy(&buf[..11]);
        assert!(header.starts_with("P5\n2 2\n255"));
        assert_eq!(buf.len(), 11 + 4);
    }
}
