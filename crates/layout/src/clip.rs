//! Layout clips: named windows of target patterns.

use cardopc_geometry::{BBox, Point, Polygon};
use std::fmt;

/// A rectangular layout window with its target (design-intent) patterns.
///
/// Clips are the unit of OPC work in the paper's experiments: a via or
/// metal testcase is one clip; a large-scale design is a set of 30×30 µm
/// tile clips.
#[derive(Clone, Debug, PartialEq)]
pub struct Clip {
    name: String,
    width: f64,
    height: f64,
    targets: Vec<Polygon>,
}

impl Clip {
    /// Creates a clip. `width`/`height` are in nanometres.
    ///
    /// # Panics
    ///
    /// Panics when the dimensions are not strictly positive.
    pub fn new(name: impl Into<String>, width: f64, height: f64, targets: Vec<Polygon>) -> Self {
        assert!(
            width > 0.0 && height > 0.0,
            "clip dimensions must be positive"
        );
        Clip {
            name: name.into(),
            width,
            height,
            targets,
        }
    }

    /// The clip name (e.g. `"V3"`, `"M7"`, `"gcd[0]"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Window width in nanometres.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Window height in nanometres.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// The target patterns.
    pub fn targets(&self) -> &[Polygon] {
        &self.targets
    }

    /// The window as a bounding box anchored at the origin.
    pub fn bbox(&self) -> BBox {
        BBox::new(Point::ZERO, Point::new(self.width, self.height))
    }

    /// Total drawn area of the targets, nm².
    pub fn drawn_area(&self) -> f64 {
        self.targets.iter().map(Polygon::area).sum()
    }

    /// `true` when every target lies inside the window.
    pub fn targets_in_window(&self) -> bool {
        let window = self.bbox();
        self.targets.iter().all(|t| window.contains_bbox(&t.bbox()))
    }

    /// Crops a sub-window: keeps the shapes entirely inside the window
    /// `[origin, origin + (width, height)]`, translated so the new clip is
    /// anchored at the origin. Shapes straddling the window boundary are
    /// dropped (tile-interior OPC convention).
    ///
    /// # Panics
    ///
    /// Panics when the requested dimensions are not strictly positive.
    pub fn crop(&self, origin: Point, width: f64, height: f64, name: impl Into<String>) -> Clip {
        let window = BBox::new(origin, origin + Point::new(width, height));
        let targets = self
            .targets
            .iter()
            .filter(|t| window.contains_bbox(&t.bbox()))
            .map(|t| t.translated(-origin))
            .collect();
        Clip::new(name, width, height, targets)
    }

    /// Crops a sub-window like [`Clip::crop`], but keeps every shape whose
    /// bounding box *intersects* the window — shapes straddling the
    /// boundary are kept whole (and may extend outside the new clip's
    /// window). This is the halo-tile convention: a tiled runtime needs
    /// boundary shapes present for optical context even though another
    /// tile owns them.
    ///
    /// # Panics
    ///
    /// Panics when the requested dimensions are not strictly positive.
    pub fn crop_intersecting(
        &self,
        origin: Point,
        width: f64,
        height: f64,
        name: impl Into<String>,
    ) -> Clip {
        let window = BBox::new(origin, origin + Point::new(width, height));
        let targets = self
            .targets
            .iter()
            .filter(|t| window.intersects(&t.bbox()))
            .map(|t| t.translated(-origin))
            .collect();
        Clip::new(name, width, height, targets)
    }
}

impl fmt::Display for Clip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}x{} nm, {} shapes)",
            self.name,
            self.width,
            self.height,
            self.targets.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let sq = Polygon::rect(Point::new(10.0, 10.0), Point::new(20.0, 20.0));
        let clip = Clip::new("T", 100.0, 50.0, vec![sq]);
        assert_eq!(clip.name(), "T");
        assert_eq!(clip.width(), 100.0);
        assert_eq!(clip.height(), 50.0);
        assert_eq!(clip.targets().len(), 1);
        assert_eq!(clip.drawn_area(), 100.0);
        assert!(clip.targets_in_window());
        assert!(clip.to_string().contains("1 shapes"));
    }

    #[test]
    fn crop_intersecting_keeps_straddlers() {
        let inside = Polygon::rect(Point::new(10.0, 10.0), Point::new(20.0, 20.0));
        let straddling = Polygon::rect(Point::new(45.0, 10.0), Point::new(70.0, 20.0));
        let outside = Polygon::rect(Point::new(80.0, 10.0), Point::new(90.0, 20.0));
        let clip = Clip::new("T", 100.0, 50.0, vec![inside, straddling, outside]);
        let origin = Point::new(0.0, 0.0);
        assert_eq!(clip.crop(origin, 50.0, 50.0, "strict").targets().len(), 1);
        let halo = clip.crop_intersecting(origin, 50.0, 50.0, "halo");
        assert_eq!(halo.targets().len(), 2);
        // Straddler kept whole, untranslated (origin at zero).
        assert_eq!(halo.targets()[1].bbox().max.x, 70.0);
    }

    #[test]
    fn out_of_window_detected() {
        let sq = Polygon::rect(Point::new(90.0, 10.0), Point::new(120.0, 20.0));
        let clip = Clip::new("T", 100.0, 50.0, vec![sq]);
        assert!(!clip.targets_in_window());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_panics() {
        let _ = Clip::new("bad", 0.0, 10.0, vec![]);
    }
}
