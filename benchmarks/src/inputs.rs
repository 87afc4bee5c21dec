//! Seed-driven input generators. Nothing is checked in but this code: the
//! program under test only ever sees the files written here.
//!
//! Two families, chosen because they put the work in opposite layers:
//!
//! * **logic** — an irregular metal clip (every tile unique, so the tile
//!   cache never hits and litho + MRC do all the work);
//! * **array** — a hierarchical GDS whose `TOP` arrays one small cell
//!   (nine unique tile patterns however large the array, so litho does
//!   almost nothing and ingest, hashing, replay, checkpoint I/O, stitch
//!   and export do the work).
//!
//! The seed changes the *file*, never the geometry: it shuffles the order
//! shapes are written in (logic) or how the array is split into AREFs
//! (array). Target ids, hash inputs, R-tree build order and the reader's
//! hierarchy walk all change with it; the amount of work and the expected
//! mask do not. Moving shapes instead — even by whole pixels — swings the
//! job's remaining MRC violations by ±30 % and its EPE sum by ±3 %, and
//! a benchmark whose spread is set by its input lottery cannot resolve a
//! 1 % quality regression or a 10 % slowdown.

use cardopc::gds::record::{put_ascii, put_empty, put_i16s, put_i32s, put_real8s, rtype};
use cardopc::geometry::{Point, SplitMix64};
use cardopc::layout::{large_tile, write_clip_gds, Clip, DesignKind, TARGET_LAYER, WINDOW_LAYER};

/// AREF step and core tile edge of the array workloads, nm. Equal, so
/// every interior tile window sees the same geometry.
pub const ARRAY_STEP: i32 = 1024;

/// The logic clip: tile 0 of the synthetic `gcd` design, centre-cropped to
/// `crop` nm exactly as `cardopc --design gcd --crop <crop>` crops it, with
/// the target list shuffled by the seed. Seed 0 keeps the generator's
/// order, so it reproduces the CLI's default job shape for shape.
pub fn logic_clip(seed: u64, crop: f64) -> Clip {
    let tile = large_tile(DesignKind::Gcd, 0);
    let origin = Point::new(
        ((tile.width() - crop) * 0.5).max(0.0),
        ((tile.height() - crop) * 0.5).max(0.0),
    );
    let cropped = tile.crop_intersecting(origin, crop, crop, "logic");
    if seed == 0 {
        return cropped;
    }
    let mut targets = cropped.targets().to_vec();
    SplitMix64::new(seed).shuffle(&mut targets);
    Clip::new("logic", crop, crop, targets)
}

/// [`logic_clip`] as GDSII bytes (1 nm/dbu, window marker included).
pub fn logic_gds(seed: u64, crop: f64) -> Result<Vec<u8>, String> {
    write_clip_gds(&logic_clip(seed, crop), TARGET_LAYER, 0)
}

/// Number of targets in an `n`×`n` array.
pub fn array_targets(n: u16) -> usize {
    2 * n as usize * n as usize
}

/// The array design: `TOP` holds the clip window marker and one `n`×`n`
/// AREF (step [`ARRAY_STEP`]) of `CELL`, two horizontal 70 nm wires. The
/// seed places the whole design at another GDS origin (up to ±1 mm; the
/// reader translates the window back to zero) and picks which wire `CELL`
/// lists first. Assembled from raw records — the repository's writer
/// emits flat BOUNDARYs only, and the point of this input is the reader's
/// hierarchy path.
pub fn array_gds(seed: u64, n: u16) -> Vec<u8> {
    let cols = i16::try_from(n).expect("array edge fits the GDS COLROW field");
    let extent = i32::from(n) * ARRAY_STEP;
    let (mut ox, mut oy, mut swap) = (0, 0, false);
    if seed != 0 {
        let mut rng = SplitMix64::new(seed);
        let mut offset = || (rng.next_u64() % 2001) as i32 * 1000 - 1_000_000;
        (ox, oy) = (offset(), offset());
        swap = rng.next_u64() & 1 == 1;
    }
    let mut wires = [(160, 256, 864, 326), (160, 640, 640, 710)];
    if swap {
        wires.swap(0, 1);
    }

    let mut out = Vec::new();
    put_i16s(&mut out, rtype::HEADER, &[600]);
    put_i16s(&mut out, rtype::BGNLIB, &[0; 12]);
    put_ascii(&mut out, rtype::LIBNAME, "BENCH");
    put_real8s(&mut out, rtype::UNITS, &[1e-3, 1e-9]).expect("1 nm/dbu encodes");

    put_i16s(&mut out, rtype::BGNSTR, &[0; 12]);
    put_ascii(&mut out, rtype::STRNAME, "CELL");
    for (x0, y0, x1, y1) in wires {
        put_rect(&mut out, TARGET_LAYER, x0, y0, x1, y1);
    }
    put_empty(&mut out, rtype::ENDSTR);

    put_i16s(&mut out, rtype::BGNSTR, &[0; 12]);
    put_ascii(&mut out, rtype::STRNAME, "TOP");
    put_rect(&mut out, WINDOW_LAYER, ox, oy, ox + extent, oy + extent);
    put_empty(&mut out, rtype::AREF);
    put_ascii(&mut out, rtype::SNAME, "CELL");
    put_i16s(&mut out, rtype::COLROW, &[cols, cols]);
    // Origin, then the column and row reference points (origin + n·step).
    put_i32s(
        &mut out,
        rtype::XY,
        &[ox, oy, ox + extent, oy, ox, oy + extent],
    );
    put_empty(&mut out, rtype::ENDEL);
    put_empty(&mut out, rtype::ENDSTR);
    put_empty(&mut out, rtype::ENDLIB);
    out
}

fn put_rect(out: &mut Vec<u8>, layer: i16, x0: i32, y0: i32, x1: i32, y1: i32) {
    put_empty(out, rtype::BOUNDARY);
    put_i16s(out, rtype::LAYER, &[layer]);
    put_i16s(out, rtype::DATATYPE, &[0]);
    put_i32s(out, rtype::XY, &[x0, y0, x1, y0, x1, y1, x0, y1, x0, y0]);
    put_empty(out, rtype::ENDEL);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardopc::gds::{parse_lib, LayerFilter};
    use cardopc::layout::{clip_from_lib, generated_clip};

    #[test]
    fn seed_zero_is_the_cli_default_geometry() {
        let ours = logic_clip(0, 8192.0);
        let cli = generated_clip(DesignKind::Gcd, 1, Some(8192.0));
        assert_eq!(ours.targets(), cli.targets());
        assert_eq!((ours.width(), ours.height()), (cli.width(), cli.height()));
    }

    /// The shapes of a clip, order removed.
    fn shape_set(clip: &Clip) -> Vec<String> {
        let mut boxes: Vec<String> = clip
            .targets()
            .iter()
            .map(|t| format!("{:?}", t.bbox()))
            .collect();
        boxes.sort();
        boxes
    }

    #[test]
    fn logic_seeds_reorder_shapes_without_moving_any() {
        let a = logic_clip(0, 2048.0);
        let b = logic_clip(7, 2048.0);
        assert_ne!(a.targets(), b.targets());
        assert_eq!(shape_set(&a), shape_set(&b));
        assert_eq!(logic_clip(7, 2048.0), b, "same seed, same clip");
    }

    #[test]
    fn logic_gds_round_trips_through_the_reader() {
        let bytes = logic_gds(3, 2048.0).unwrap();
        let lib = parse_lib(&bytes).unwrap();
        let back = clip_from_lib(&lib, LayerFilter::Layer(TARGET_LAYER), None).unwrap();
        assert_eq!(back, logic_clip(3, 2048.0));
    }

    #[test]
    fn array_flattens_to_two_wires_per_cell_inside_the_window() {
        let read = |bytes: &[u8]| {
            let lib = parse_lib(bytes).unwrap();
            clip_from_lib(&lib, LayerFilter::Layer(TARGET_LAYER), None).unwrap()
        };
        let plain = read(&array_gds(0, 4));
        assert_eq!(plain.name(), "TOP");
        assert_eq!((plain.width(), plain.height()), (4096.0, 4096.0));
        assert_eq!(plain.targets().len(), array_targets(4));
        assert!(plain.targets_in_window());

        // Another seed is another file — moved origin, maybe swapped wires —
        // that reads back as the same shapes in the same window.
        assert_eq!(array_gds(5, 4), array_gds(5, 4), "same seed, same bytes");
        let mut moved = 0;
        for seed in 1..6 {
            let bytes = array_gds(seed, 4);
            moved += usize::from(bytes != array_gds(0, 4));
            let clip = read(&bytes);
            assert_eq!((clip.width(), clip.height()), (4096.0, 4096.0));
            assert_eq!(shape_set(&clip), shape_set(&plain), "seed {seed}");
        }
        assert_eq!(moved, 5);
    }
}
