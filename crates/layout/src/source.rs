//! The design-source seam: one enum that runtime, serve, fleet, and the
//! CLI all build their input [`Clip`] through, whether the design is a
//! synthetic generator recipe or a real GDSII file.
//!
//! ## GDS clip convention
//!
//! A clip is more than its shapes — it has a named window. When a clip
//! is exported with [`write_clip_gds`], the window is recorded as a
//! rectangle on the reserved marker layer [`WINDOW_LAYER`]`:0` inside a
//! structure named after the clip. [`read_gds_clip`] looks for that
//! marker: when present, the clip window, origin, and name are restored
//! exactly (so a generated design exported to GDS and re-ingested
//! produces a byte-identical correction manifest); when absent — a file
//! from a foreign tool — the window falls back to the bounding box of
//! the selected shapes, translated to the origin. Marker-layer shapes
//! are never targets: the reader excludes [`WINDOW_LAYER`] from every
//! selection.

use std::path::{Path, PathBuf};

use cardopc_gds::{flatten, FlattenLimits, GdsWriter, LayerFilter};
use cardopc_geometry::{BBox, Point};

use crate::clip::Clip;
use crate::largescale::{design_tiles, DesignKind};

/// Reserved GDS layer marking the clip window (never a target layer).
pub const WINDOW_LAYER: i16 = 255;

/// Default layer:datatype for exported target shapes.
pub const TARGET_LAYER: i16 = 1;

/// Where a correction input clip comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum DesignSource {
    /// A synthetic generator recipe (deterministic in its fields).
    Generated {
        /// Which paper design to instantiate.
        kind: DesignKind,
        /// Number of design tiles laid side by side.
        tiles: usize,
        /// Optional centred square crop, nm.
        crop: Option<f64>,
    },
    /// A GDSII file on disk.
    Gds {
        /// Path to the `.gds` file.
        path: PathBuf,
        /// Which `layer[:datatype]` carries the target shapes.
        layer: LayerFilter,
        /// Optional centred square crop, nm.
        crop: Option<f64>,
    },
}

impl DesignSource {
    /// Builds the input clip. Generated sources are infallible by
    /// construction; GDS sources surface read/flatten failures as
    /// human-readable messages (serve forwards them in 400 bodies).
    ///
    /// # Errors
    ///
    /// A message describing the I/O, parse, or flatten failure.
    pub fn build_clip(&self) -> Result<Clip, String> {
        match self {
            DesignSource::Generated { kind, tiles, crop } => {
                Ok(generated_clip(*kind, *tiles, *crop))
            }
            DesignSource::Gds { path, layer, crop } => read_gds_clip(path, *layer, *crop),
        }
    }
}

/// Builds the synthetic input clip: `count` design tiles side by side,
/// optionally cropped to a centred window. Shared by the CLI, the
/// service, and the fleet so every expansion of the same recipe sees the
/// same input.
pub fn generated_clip(kind: DesignKind, count: usize, crop: Option<f64>) -> Clip {
    let tiles: Vec<Clip> = design_tiles(kind, count.max(1)).collect();
    let tile_w = tiles[0].width();
    let tile_h = tiles[0].height();
    let mut shapes = Vec::new();
    for (i, tile) in tiles.iter().enumerate() {
        let dx = Point::new(i as f64 * tile_w, 0.0);
        shapes.extend(tile.targets().iter().map(|t| t.translated(dx)));
    }
    let clip = Clip::new(
        format!("{}x{}", kind.name(), count.max(1)),
        tile_w * count.max(1) as f64,
        tile_h,
        shapes,
    );
    apply_crop(clip, crop)
}

/// Crops `clip` to a centred `size`×`size` window, clamped to the design
/// on each axis: a window no smaller than the design is the whole design,
/// so a huge crop never makes a window (and a tile grid) of empty space.
fn apply_crop(clip: Clip, crop: Option<f64>) -> Clip {
    match crop {
        Some(size) if size < clip.width() || size < clip.height() => {
            let (w, h) = (size.min(clip.width()), size.min(clip.height()));
            let origin = Point::new((clip.width() - w) * 0.5, (clip.height() - h) * 0.5);
            let name = format!("{}@{}", clip.name(), size);
            clip.crop_intersecting(origin, w, h, name)
        }
        _ => clip,
    }
}

/// Serialises a clip to GDSII bytes at 1 nm/dbu: targets on
/// `layer:datatype`, the clip window on [`WINDOW_LAYER`]`:0`, structure
/// named after the clip.
///
/// # Errors
///
/// A message when a target polygon cannot be encoded (coordinate
/// overflow — generated designs never trip this).
pub fn write_clip_gds(clip: &Clip, layer: i16, datatype: i16) -> Result<Vec<u8>, String> {
    let mut w = GdsWriter::new("CARDOPC", 1.0).map_err(|e| e.to_string())?;
    // GDS structure names are conservative ASCII; clip names stay within
    // [A-Za-z0-9_@.\[\]x-], all printable ASCII, which our reader accepts.
    w.begin_struct(clip.name());
    let window = cardopc_geometry::Polygon::rect(
        Point::new(0.0, 0.0),
        Point::new(clip.width(), clip.height()),
    );
    w.boundary(WINDOW_LAYER, 0, &window)
        .map_err(|e| format!("window rectangle: {e}"))?;
    for (i, target) in clip.targets().iter().enumerate() {
        w.boundary(layer, datatype, target)
            .map_err(|e| format!("target {i}: {e}"))?;
    }
    w.end_struct();
    Ok(w.finish())
}

/// Reads a clip from a GDSII file: flattens the first top-level
/// structure, selects target shapes through `layer` (the
/// [`WINDOW_LAYER`] marker is always excluded), and restores the clip
/// window from the marker rectangle when present — else from the shape
/// bounding box.
///
/// # Errors
///
/// A message for I/O, parse, flatten, or empty-selection failures.
pub fn read_gds_clip(path: &Path, layer: LayerFilter, crop: Option<f64>) -> Result<Clip, String> {
    let lib = cardopc_gds::read_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    clip_from_lib(&lib, layer, crop).map_err(|e| format!("{}: {e}", path.display()))
}

/// [`read_gds_clip`] on an already-parsed library (used by the serve
/// fuzz tests and anywhere the bytes never touch disk).
///
/// # Errors
///
/// A message for flatten or empty-selection failures.
pub fn clip_from_lib(
    lib: &cardopc_gds::GdsLib,
    layer: LayerFilter,
    crop: Option<f64>,
) -> Result<Clip, String> {
    let top = lib
        .top_structs()
        .first()
        .map(|s| s.to_string())
        .ok_or("library holds no structures")?;
    let shapes = flatten(lib, &top, LayerFilter::All, FlattenLimits::default())
        .map_err(|e| e.to_string())?;

    let window: Option<BBox> = shapes
        .iter()
        .find(|s| s.layer == WINDOW_LAYER && s.datatype == 0)
        .map(|s| s.polygon.bbox());

    let mut targets: Vec<cardopc_geometry::Polygon> = shapes
        .into_iter()
        .filter(|s| s.layer != WINDOW_LAYER && layer.matches(s.layer, s.datatype))
        .map(|s| s.polygon)
        .collect();
    if targets.is_empty() {
        return Err(format!(
            "structure '{top}' has no shapes on layer {layer} (window marker excluded)"
        ));
    }

    let window = window.unwrap_or_else(|| {
        targets
            .iter()
            .fold(BBox::EMPTY, |acc, t| acc.union(t.bbox()))
    });
    if !(window.width() > 0.0 && window.height() > 0.0) {
        return Err("clip window is degenerate".into());
    }

    // A corrupt file can place shapes light-years from the window. Shapes
    // that miss it entirely can never be corrected (the partitioner only
    // visits the window), so they are dropped; a shape that *intersects*
    // the window but dwarfs it would stall every tile it touches, so the
    // clip is refused outright.
    targets.retain(|t| t.bbox().intersects(&window));
    if targets.is_empty() {
        return Err(format!(
            "structure '{top}' has no layer-{layer} shapes inside the clip window"
        ));
    }
    // Cropped clips legitimately keep whole shapes poking past the
    // window, so the bound is generous — 16 windows of slack on every
    // side — while still rejecting the ~1e9 nm coordinates a flipped
    // byte produces. The slack scales with the window's *smaller*
    // dimension: a corrupted marker that stretches one axis must not
    // loosen the bound with it.
    let margin = 16.0 * window.width().min(window.height());
    let keep = window.expanded(margin);
    if let Some(huge) = targets.iter().find(|t| !keep.contains_bbox(&t.bbox())) {
        let b = huge.bbox();
        return Err(format!(
            "a shape spans ({:.0}, {:.0})..({:.0}, {:.0}) nm — far beyond the \
             {:.0}x{:.0} nm clip window; refusing a likely-corrupt file",
            b.min.x,
            b.min.y,
            b.max.x,
            b.max.y,
            window.width(),
            window.height()
        ));
    }
    let origin = window.min;
    let targets = targets.into_iter().map(|t| t.translated(-origin)).collect();
    let clip = Clip::new(top, window.width(), window.height(), targets);
    Ok(apply_crop(clip, crop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardopc_geometry::Polygon;

    #[test]
    fn generated_clip_tiles_side_by_side() {
        let one = generated_clip(DesignKind::Gcd, 1, None);
        let two = generated_clip(DesignKind::Gcd, 2, None);
        assert_eq!(one.name(), "gcdx1");
        assert_eq!(two.width(), one.width() * 2.0);
        // Tile 0's shapes appear verbatim; tile 1 is seeded differently.
        assert_eq!(&two.targets()[..one.targets().len()], one.targets());
        assert!(two.targets().len() > one.targets().len());
        let cropped = generated_clip(DesignKind::Gcd, 1, Some(2048.0));
        assert_eq!(cropped.name(), "gcdx1@2048");
        assert_eq!(cropped.width(), 2048.0);
    }

    #[test]
    fn a_crop_no_smaller_than_the_design_is_the_whole_design() {
        let one = generated_clip(DesignKind::Gcd, 1, None);
        for crop in [one.width(), 40_000.0, 1e12, 1e30, f64::MAX] {
            assert_eq!(
                generated_clip(DesignKind::Gcd, 1, Some(crop)),
                one,
                "{crop}"
            );
        }
        // Wider than one axis only: clamped on that axis, centred on the other.
        let two = generated_clip(DesignKind::Gcd, 2, None);
        let band = generated_clip(DesignKind::Gcd, 2, Some(40_000.0));
        assert_eq!((band.width(), band.height()), (40_000.0, two.height()));
        assert_eq!(band.name(), "gcdx2@40000");
    }

    #[test]
    fn gds_roundtrip_restores_the_exact_clip() {
        let clip = generated_clip(DesignKind::Gcd, 1, Some(4096.0));
        let bytes = write_clip_gds(&clip, TARGET_LAYER, 0).unwrap();
        let lib = cardopc_gds::parse_lib(&bytes).unwrap();
        let back = clip_from_lib(&lib, LayerFilter::Layer(TARGET_LAYER), None).unwrap();
        // Exact equality: name, window, every vertex. Generated designs
        // are integer-nm, so the 1 nm/dbu quantisation is lossless.
        assert_eq!(clip, back);
    }

    #[test]
    fn design_source_seam_builds_both_kinds() {
        let generated = DesignSource::Generated {
            kind: DesignKind::Gcd,
            tiles: 1,
            crop: Some(2048.0),
        };
        let clip = generated.build_clip().unwrap();
        assert_eq!(clip.name(), "gcdx1@2048");

        let dir = std::env::temp_dir().join("cardopc-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.gds");
        let bytes = write_clip_gds(&clip, TARGET_LAYER, 0).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let gds = DesignSource::Gds {
            path: path.clone(),
            layer: LayerFilter::Layer(TARGET_LAYER),
            crop: None,
        };
        assert_eq!(gds.build_clip().unwrap(), clip);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_files_fall_back_to_shape_bbox() {
        // No window marker: clip window = shape bbox anchored at origin.
        let mut w = GdsWriter::new("FOREIGN", 1.0).unwrap();
        w.begin_struct("CHIP");
        w.boundary(
            5,
            0,
            &Polygon::rect(Point::new(100.0, 200.0), Point::new(300.0, 400.0)),
        )
        .unwrap();
        w.boundary(
            5,
            0,
            &Polygon::rect(Point::new(500.0, 200.0), Point::new(600.0, 500.0)),
        )
        .unwrap();
        w.end_struct();
        let lib = cardopc_gds::parse_lib(&w.finish()).unwrap();
        let clip = clip_from_lib(&lib, LayerFilter::Layer(5), None).unwrap();
        assert_eq!(clip.name(), "CHIP");
        assert_eq!((clip.width(), clip.height()), (500.0, 300.0));
        assert_eq!(clip.targets()[0].bbox().min, Point::new(0.0, 0.0));
        assert!(clip.targets_in_window());
    }

    #[test]
    fn far_away_shapes_are_dropped_and_colossal_ones_refused() {
        // A 1000×1000 window with one good shape, one shape a metre away
        // (dropped), and — in the second file — one shape that overlaps
        // the window but extends a metre past it (refused).
        let window = Polygon::rect(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let good = Polygon::rect(Point::new(100.0, 100.0), Point::new(300.0, 200.0));
        let far = Polygon::rect(
            Point::new(1.0e9, 1.0e9),
            Point::new(1.0e9 + 100.0, 1.0e9 + 100.0),
        );
        let mut w = GdsWriter::new("T", 1.0).unwrap();
        w.begin_struct("TOP");
        w.boundary(WINDOW_LAYER, 0, &window).unwrap();
        w.boundary(TARGET_LAYER, 0, &good).unwrap();
        w.boundary(TARGET_LAYER, 0, &far).unwrap();
        w.end_struct();
        let lib = cardopc_gds::parse_lib(&w.finish()).unwrap();
        let clip = clip_from_lib(&lib, LayerFilter::Layer(TARGET_LAYER), None).unwrap();
        assert_eq!(clip.targets().len(), 1, "far-away shape dropped");

        let colossal = Polygon::rect(Point::new(500.0, 500.0), Point::new(1.0e9, 600.0));
        let mut w = GdsWriter::new("T", 1.0).unwrap();
        w.begin_struct("TOP");
        w.boundary(WINDOW_LAYER, 0, &window).unwrap();
        w.boundary(TARGET_LAYER, 0, &colossal).unwrap();
        w.end_struct();
        let lib = cardopc_gds::parse_lib(&w.finish()).unwrap();
        let err = clip_from_lib(&lib, LayerFilter::Layer(TARGET_LAYER), None).unwrap_err();
        assert!(err.contains("far beyond"), "{err}");
    }

    #[test]
    fn wrong_layer_selection_is_an_error_not_empty() {
        let clip = generated_clip(DesignKind::Gcd, 1, Some(2048.0));
        let bytes = write_clip_gds(&clip, TARGET_LAYER, 0).unwrap();
        let lib = cardopc_gds::parse_lib(&bytes).unwrap();
        let err = clip_from_lib(&lib, LayerFilter::Layer(42), None).unwrap_err();
        assert!(err.contains("no shapes on layer 42"), "{err}");
        // The window marker alone never counts as a target.
        let err = clip_from_lib(&lib, LayerFilter::Layer(WINDOW_LAYER), None).unwrap_err();
        assert!(err.contains("no shapes"), "{err}");
    }
}
