//! Exporting a stitched full-chip mask as a GDSII stream.
//!
//! The corrected mask is curvilinear: every shape is a closed cardinal
//! spline. GDS BOUNDARY records only hold polygons, so each spline is
//! sampled at the OPC flow's `samples_per_segment` density and written at
//! a 0.01 nm/dbu grid — two orders finer than the 1 nm/dbu target-layout
//! grid, so the sub-nanometre contour moves the optimiser converged on
//! survive the round trip. Mains and SRAFs go to separate layers
//! (foundry convention), both configurable.
//!
//! The export streams ([`stream_mask_gds`]): shapes go out in fixed-size
//! chunks, each sampled from its borrowed control points and
//! encoded on the global [`WorkerPool`], one wave of chunks at a time, and
//! the chunks are written in mask order. A full-chip mask is never held
//! whole — only one wave of encoded bytes is — and the CLI streams it into
//! a temporary that is renamed into place ([`crate::write_file_atomic`]).
//!
//! The writer is deterministic: same stitched mask → same bytes,
//! regardless of pool size, worker count, cache hits, or resume history —
//! the stitcher already orders shapes canonically (mains by source-clip
//! index, SRAFs in tile order), each chunk's bytes are a pure function of
//! its shapes, chunks are written in order, and
//! [`cardopc_gds::GdsWriter`] emits fixed timestamps.

use crate::checkpoint::StitchedShape;
use crate::stitch::Stitched;
use cardopc_gds::{put_boundary, GdsError, GdsWriter, RingEncoder};
use cardopc_litho::{CachePadded, WorkerPool};
use cardopc_spline::{CardinalSpline, SamplingPlan, SplineError};
use std::io::Write;
use std::sync::Arc;

/// Shapes sampled and encoded per export task (≈ 130 KB of a 64×64 array
/// mask's bytes).
const CHUNK_SHAPES: usize = 64;

/// Chunks per pool executor in one wave: enough for the pool to balance
/// uneven chunks, few enough that a wave stays well under a megabyte.
const CHUNKS_PER_EXECUTOR: usize = 2;

/// Database grid of exported masks, nm per database unit. 0.01 nm keeps
/// sub-nanometre spline geometry intact while staying far inside the
/// i32 coordinate range for chip-scale masks (±21 mm).
pub const MASK_NM_PER_DBU: f64 = 0.01;

/// Default layer for corrected main shapes.
pub const DEFAULT_MASK_LAYER: i16 = 2;

/// Default layer for sub-resolution assist features.
pub const DEFAULT_SRAF_LAYER: i16 = 3;

/// Options for [`write_mask_gds`].
#[derive(Clone, Copy, Debug)]
pub struct MaskGdsOptions {
    /// Layer receiving corrected mains (datatype 0).
    pub mask_layer: i16,
    /// Layer receiving SRAFs (datatype 0).
    pub sraf_layer: i16,
    /// Spline samples per segment; the OPC config's
    /// `samples_per_segment` keeps the export consistent with what the
    /// simulation saw.
    pub samples_per_segment: usize,
}

impl Default for MaskGdsOptions {
    fn default() -> MaskGdsOptions {
        MaskGdsOptions {
            mask_layer: DEFAULT_MASK_LAYER,
            sraf_layer: DEFAULT_SRAF_LAYER,
            samples_per_segment: 8,
        }
    }
}

/// Serialises a stitched mask to GDSII bytes in memory:
/// [`stream_mask_gds`] into a `Vec`.
///
/// # Errors
///
/// See [`stream_mask_gds`].
pub fn write_mask_gds(
    stitched: &Stitched,
    name: &str,
    options: &MaskGdsOptions,
) -> Result<Vec<u8>, GdsError> {
    let mut bytes = Vec::new();
    stream_mask_gds(stitched, name, options, &mut bytes)?;
    Ok(bytes)
}

/// Streams a stitched mask as GDSII into `out`: one structure named
/// `name`, mains on `mask_layer:0`, SRAFs on `sraf_layer:0`, all
/// coordinates on the 0.01 nm mask grid. Chunks are encoded on
/// [`WorkerPool::global`]; the bytes are the same for any pool size.
/// Returns the number of bytes written.
///
/// # Errors
///
/// [`GdsError`] when a shape's control points are not a spline (a
/// corrupted record: mask geometry is never silently dropped), a sampled
/// contour cannot be encoded (coordinate overflow past ±21 mm), or `out`
/// fails. Bytes already written stay written: stream into a temporary.
///
/// # Panics
///
/// Panics when `name` is not ASCII.
pub fn stream_mask_gds(
    stitched: &Stitched,
    name: &str,
    options: &MaskGdsOptions,
    out: &mut impl Write,
) -> Result<u64, GdsError> {
    stream_on(WorkerPool::global(), stitched, name, options, out)
}

fn stream_on(
    pool: &WorkerPool,
    stitched: &Stitched,
    name: &str,
    options: &MaskGdsOptions,
    out: &mut impl Write,
) -> Result<u64, GdsError> {
    let mut written = 0;
    let mut put = |bytes: &[u8]| -> Result<(), GdsError> {
        out.write_all(bytes)?;
        written += bytes.len() as u64;
        Ok(())
    };
    let mut lib = GdsWriter::new("CARDOPC_MASK", MASK_NM_PER_DBU)?;
    lib.begin_struct(name);
    put(&lib.drain())?;
    let chunks = stitched.len().div_ceil(CHUNK_SHAPES);
    let wave = CHUNKS_PER_EXECUTOR * pool.parallelism();
    // One buffer per chunk of a wave, reused by every wave; padded, since
    // executors append to neighbouring slots at once.
    let mut slots = Vec::new();
    for first in (0..chunks).step_by(wave) {
        slots.resize_with(wave.min(chunks - first), || {
            CachePadded((Vec::new(), Ok(())))
        });
        pool.run_with_slots(&mut slots, |k, CachePadded((bytes, result))| {
            *result = encode_chunk(stitched, first + k, options, bytes);
        });
        for CachePadded((bytes, result)) in &mut slots {
            std::mem::replace(result, Ok(()))?;
            put(bytes)?;
        }
    }
    lib.end_struct();
    put(&lib.finish())?;
    Ok(written)
}

/// Encodes chunk `chunk` of the mask (shapes in mask order: mains, then
/// SRAFs) into `out`, cleared first.
///
/// A shape is one pass: its spline's samples come a block at a time
/// ([`CardinalSpline::sample_closed_blocks`]) and go straight into the
/// chunk as one BOUNDARY element ([`RingEncoder`]: deduplicated as
/// `Polygon::new` does, quantised, written). Only a ring longer than one
/// element holds is sampled again, into a polygon that [`put_boundary`]
/// splits; every other failure is the encoder's error.
fn encode_chunk(
    stitched: &Stitched,
    chunk: usize,
    options: &MaskGdsOptions,
    out: &mut Vec<u8>,
) -> Result<(), GdsError> {
    out.clear();
    let per_segment = options.samples_per_segment.max(1);
    let mains = stitched.mains.len();
    let mut plan: Option<Arc<SamplingPlan>> = None;
    let end = ((chunk + 1) * CHUNK_SHAPES).min(stitched.len());
    for i in chunk * CHUNK_SHAPES..end {
        let (shape, layer) = match i.checked_sub(mains) {
            None => (&stitched.mains[i], options.mask_layer),
            Some(j) => (&stitched.srafs[j], options.sraf_layer),
        };
        let plan = plan_for(&mut plan, per_segment, shape)?;
        let points = &shape.control_points;
        let mut ring = RingEncoder::begin(out, MASK_NM_PER_DBU, layer, 0);
        CardinalSpline::sample_closed_blocks(points, plan, |xs, ys, n| ring.push(xs, ys, n))
            .map_err(not_a_spline)?;
        match ring.finish() {
            Err(GdsError::TooManyVertices(_)) => {
                let spline = CardinalSpline::closed(points.to_vec(), shape.tension);
                let polygon = spline.map_err(not_a_spline)?.to_polygon(per_segment);
                put_boundary(out, MASK_NM_PER_DBU, layer, 0, &polygon)?;
            }
            finished => finished?,
        }
    }
    Ok(())
}

/// The sampling plan of `shape`'s tension: `cached` when it has that
/// tension (shapes of one mask nearly always share one), else fetched.
fn plan_for<'a>(
    cached: &'a mut Option<Arc<SamplingPlan>>,
    per_segment: usize,
    shape: &StitchedShape,
) -> Result<&'a SamplingPlan, GdsError> {
    let tension = shape.tension;
    if !tension.is_finite() {
        return Err(not_a_spline(SplineError::InvalidTension));
    }
    if cached
        .as_ref()
        .is_none_or(|plan| plan.tension().to_bits() != tension.to_bits())
    {
        *cached = Some(SamplingPlan::get(per_segment, tension));
    }
    Ok(cached.as_deref().expect("set above"))
}

fn not_a_spline(e: SplineError) -> GdsError {
    GdsError::Io(format!("stitched shape is not a spline: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardopc_gds::{flatten, FlattenLimits, LayerFilter};
    use cardopc_geometry::{Point, Polygon, SplitMix64};

    fn square_shape(x0: f64, y0: f64, size: f64, is_sraf: bool) -> StitchedShape {
        StitchedShape {
            global_id: (!is_sraf).then_some(0),
            is_sraf,
            tension: 0.0,
            control_points: vec![
                Point::new(x0, y0),
                Point::new(x0 + size, y0),
                Point::new(x0 + size, y0 + size),
                Point::new(x0, y0 + size),
            ],
        }
    }

    fn sample_mask() -> Stitched {
        Stitched {
            mains: vec![square_shape(100.0, 100.0, 60.0, false)],
            srafs: vec![square_shape(200.25, 100.5, 20.0, true)],
            seam_violations: Vec::new(),
        }
    }

    #[test]
    fn mask_layers_split_mains_and_srafs() {
        let bytes = write_mask_gds(&sample_mask(), "MASK", &MaskGdsOptions::default()).unwrap();
        let lib = cardopc_gds::parse_lib(&bytes).unwrap();
        assert_eq!(lib.nm_per_dbu(), MASK_NM_PER_DBU);
        let mains = flatten(
            &lib,
            "MASK",
            LayerFilter::Layer(DEFAULT_MASK_LAYER),
            FlattenLimits::default(),
        )
        .unwrap();
        let srafs = flatten(
            &lib,
            "MASK",
            LayerFilter::Layer(DEFAULT_SRAF_LAYER),
            FlattenLimits::default(),
        )
        .unwrap();
        assert_eq!((mains.len(), srafs.len()), (1, 1));
        // Tension-0 splines through square control points bulge outward;
        // the sampled contour must stay curvilinear (more vertices than
        // the 4 control points) and centred where the shape was.
        assert!(mains[0].polygon.len() >= 16);
        let c = mains[0].polygon.centroid();
        assert!((c.x - 130.0).abs() < 1.0 && (c.y - 130.0).abs() < 1.0);
    }

    #[test]
    fn sub_nanometre_geometry_survives_the_grid() {
        let bytes = write_mask_gds(&sample_mask(), "MASK", &MaskGdsOptions::default()).unwrap();
        let lib = cardopc_gds::parse_lib(&bytes).unwrap();
        let srafs = flatten(
            &lib,
            "MASK",
            LayerFilter::Layer(DEFAULT_SRAF_LAYER),
            FlattenLimits::default(),
        )
        .unwrap();
        // Every re-read vertex lies on the 0.01 nm mask grid, and the
        // curvilinear contour actually uses it: a 1 nm/dbu export would
        // flatten these sub-nanometre coordinates away.
        let vertices = srafs[0].polygon.vertices();
        let mut off_nm_grid = 0;
        for v in vertices {
            for c in [v.x, v.y] {
                assert!((c * 100.0 - (c * 100.0).round()).abs() < 1e-6, "{c}");
                if (c - c.round()).abs() > 1e-3 {
                    off_nm_grid += 1;
                }
            }
        }
        assert!(off_nm_grid > 0, "contour collapsed to the integer grid");
    }

    #[test]
    fn export_is_deterministic() {
        let mask = sample_mask();
        let options = MaskGdsOptions::default();
        let a = write_mask_gds(&mask, "MASK", &options).unwrap();
        let b = write_mask_gds(&mask, "MASK", &options).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_control_points_error_instead_of_dropping_shapes() {
        let mut mask = sample_mask();
        mask.mains[0].control_points.truncate(2); // not a closed spline
        let err = write_mask_gds(&mask, "MASK", &MaskGdsOptions::default()).unwrap_err();
        assert!(err.to_string().contains("not a spline"), "{err}");
    }

    /// The serial export the streaming one replaced, kept as its oracle:
    /// one owned spline per shape, one library buffer.
    fn serial_oracle(stitched: &Stitched, name: &str, options: &MaskGdsOptions) -> Vec<u8> {
        let per_segment = options.samples_per_segment.max(1);
        let mut w = GdsWriter::new("CARDOPC_MASK", MASK_NM_PER_DBU).unwrap();
        w.begin_struct(name);
        for (shapes, layer) in [
            (&stitched.mains, options.mask_layer),
            (&stitched.srafs, options.sraf_layer),
        ] {
            for shape in shapes.iter() {
                let spline =
                    CardinalSpline::closed(shape.control_points.clone(), shape.tension).unwrap();
                w.boundary(layer, 0, &spline.to_polygon(per_segment))
                    .unwrap();
            }
        }
        w.end_struct();
        w.finish()
    }

    /// A closed loop of `n` control points on a circle.
    fn ring_shape(c: Point, r: f64, n: usize, tension: f64, id: Option<usize>) -> StitchedShape {
        let control_points = (0..n)
            .map(|k| {
                let a = std::f64::consts::TAU * k as f64 / n as f64;
                c + Point::new(r * a.cos(), r * a.sin())
            })
            .collect();
        StitchedShape {
            global_id: id,
            is_sraf: id.is_none(),
            tension,
            control_points,
        }
    }

    /// `mains` + `srafs` shapes on a grid, two tensions mixed; the main at
    /// index `CHUNK_SHAPES - 1` (the last of chunk 0) samples to 8 800
    /// vertices and is split into several BOUNDARY elements.
    fn grid_mask(mains: usize, srafs: usize) -> Stitched {
        let at = |i: usize| Point::new((i % 40) as f64 * 300.0, (i / 40) as f64 * 300.0);
        let tension = |i: usize| [0.6, 0.5, 0.5][i % 3];
        let mut mask = Stitched {
            mains: (0..mains)
                .map(|i| ring_shape(at(i), 60.0 + (i % 7) as f64, 12, tension(i), Some(i)))
                .collect(),
            srafs: (0..srafs)
                .map(|i| ring_shape(at(i) + Point::new(150.0, 150.0), 10.0, 6, tension(i), None))
                .collect(),
            seam_violations: Vec::new(),
        };
        mask.mains[CHUNK_SHAPES - 1] = ring_shape(at(0), 50_000.0, 1100, 0.5, Some(0));
        mask
    }

    #[test]
    fn streamed_export_is_the_serial_export_for_any_pool_size() {
        // 3 full chunks and a partial one; SRAFs start mid-chunk.
        let mask = grid_mask(2 * CHUNK_SHAPES + 9, CHUNK_SHAPES + 8);
        assert_ne!(mask.len() % CHUNK_SHAPES, 0);
        let options = MaskGdsOptions {
            mask_layer: 7,
            sraf_layer: 9,
            samples_per_segment: 8,
        };
        let oracle = serial_oracle(&mask, "MASK", &options);
        let lib = cardopc_gds::parse_lib(&oracle).unwrap();
        let elements = flatten(&lib, "MASK", LayerFilter::All, FlattenLimits::default());
        assert!(
            elements.unwrap().len() > mask.len(),
            "the long shape must split"
        );
        for threads in 1..=4 {
            let mut streamed = Vec::new();
            let pool = WorkerPool::new(threads);
            let n = stream_on(&pool, &mask, "MASK", &options, &mut streamed).unwrap();
            assert_eq!(n, streamed.len() as u64);
            assert!(streamed == oracle, "{threads} threads: bytes differ");
        }
        assert!(write_mask_gds(&mask, "MASK", &options).unwrap() == oracle);
    }

    /// Counts what it is given, keeps nothing.
    #[derive(Default)]
    struct Counting {
        total: u64,
        largest: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.total += buf.len() as u64;
            self.largest = self.largest.max(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_chip_sized_mask_streams_in_one_wave_at_a_time() {
        // The 64×64 array's mask: 8 192 shapes of 33 control points, 264
        // vertices each at 8 samples per segment — 17.6 MB.
        let mask = Stitched {
            mains: (0..8192)
                .map(|i| {
                    let c = Point::new((i % 128) as f64 * 1024.0, (i / 128) as f64 * 512.0);
                    ring_shape(c + Point::new(500.0, 250.0), 150.0, 33, 0.5, Some(i))
                })
                .collect(),
            ..Stitched::default()
        };
        // BOUNDARY 4 + LAYER 6 + DATATYPE 6 + XY 4 + 265 × 8 + ENDEL 4.
        let element = 4 + 6 + 6 + 4 + 265 * 8 + 4;
        let pool = WorkerPool::new(2);
        let mut sink = Counting::default();
        let options = MaskGdsOptions::default();
        let n = stream_on(&pool, &mask, "ARRAY", &options, &mut sink).unwrap();
        assert_eq!(n, sink.total);
        assert!(sink.total > 8192 * element as u64, "{}", sink.total);
        assert!(sink.total > 17_000_000);
        // The bound: no write is larger than one wave of chunks — in fact
        // each write is one chunk's bytes (here 64 × 2 144 B = 137 KB, the
        // wave 4 chunks = 549 KB), never the 17.6 MB mask.
        let wave = CHUNKS_PER_EXECUTOR * pool.parallelism() * CHUNK_SHAPES * element;
        assert!(sink.largest <= CHUNK_SHAPES * element, "{}", sink.largest);
        assert!(sink.largest <= wave);
    }

    #[test]
    fn a_corrupt_shape_mid_mask_leaves_nothing_under_the_destination() {
        let mut mask = grid_mask(3 * CHUNK_SHAPES, 0);
        mask.mains[2 * CHUNK_SHAPES + 5].control_points[3].x = f64::NAN;
        let dir = std::env::temp_dir().join(format!("cardopc-gdsout-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mask.gds");
        let options = MaskGdsOptions::default();
        let failed = crate::write_file_atomic(&path, |out| {
            stream_mask_gds(&mask, "MASK", &options, out).map(drop)
        });
        let err = failed.unwrap_err();
        assert!(err.to_string().contains("not a spline"), "{err}");
        assert!(!path.exists(), "a partial mask appeared");
        assert!(!dir.join("mask.gds.tmp").exists(), "temporary left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The per-shape path the one-pass writer replaced, kept as its
    /// oracle: sample into a ring, deduplicate it into a [`Polygon`], encode
    /// that with [`put_boundary`].
    fn chunk_by_polygons(
        stitched: &Stitched,
        chunk: usize,
        options: &MaskGdsOptions,
    ) -> Result<Vec<u8>, GdsError> {
        let mut out = Vec::new();
        let per_segment = options.samples_per_segment.max(1);
        let mains = stitched.mains.len();
        let end = ((chunk + 1) * CHUNK_SHAPES).min(stitched.len());
        for i in chunk * CHUNK_SHAPES..end {
            let (shape, layer) = match i.checked_sub(mains) {
                None => (&stitched.mains[i], options.mask_layer),
                Some(j) => (&stitched.srafs[j], options.sraf_layer),
            };
            if !shape.tension.is_finite() {
                return Err(not_a_spline(SplineError::InvalidTension));
            }
            let spline = CardinalSpline::closed(shape.control_points.clone(), shape.tension);
            let ring = spline.map_err(not_a_spline)?.sample(per_segment);
            put_boundary(&mut out, MASK_NM_PER_DBU, layer, 0, &Polygon::new(ring))?;
        }
        Ok(out)
    }

    /// Every chunk of `mask` through `encode_chunk` and the oracle: the same
    /// bytes, or the same error.
    fn check_chunks(mask: &Stitched, options: &MaskGdsOptions, what: &str) {
        let mut out = vec![0xa5; 3];
        for chunk in 0..mask.len().div_ceil(CHUNK_SHAPES) {
            let got = encode_chunk(mask, chunk, options, &mut out);
            match (got, chunk_by_polygons(mask, chunk, options)) {
                (Ok(()), Ok(want)) => assert!(out == want, "{what}: chunk {chunk} bytes differ"),
                (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{what}"),
                (got, want) => panic!("{what}: chunk {chunk}: {got:?} vs {:?}", want.map(drop)),
            }
        }
    }

    /// A seeded shape: a wobbly loop of `n` control points, snapped to the
    /// k/8 nm grid (exact halves of the 0.01 nm mask grid) when `snap`.
    fn seeded_shape(rng: &mut SplitMix64, n: usize, snap: bool, sraf: bool) -> StitchedShape {
        let c = Point::new(rng.range_f64(-3e4, 3e4), rng.range_f64(-3e4, 3e4));
        let r = rng.range_f64(5.0, 400.0);
        let control_points = (0..n)
            .map(|k| {
                let a = std::f64::consts::TAU * k as f64 / n as f64;
                let wobble = r * rng.range_f64(0.7, 1.3);
                let p = c + Point::new(wobble * a.cos(), 0.4 * wobble * a.sin());
                match snap {
                    true => Point::new((p.x * 8.0).round() / 8.0, (p.y * 8.0).round() / 8.0),
                    false => p,
                }
            })
            .collect();
        StitchedShape {
            global_id: (!sraf).then_some(0),
            is_sraf: sraf,
            tension: [0.0, 0.5, 0.6, rng.range_f64(0.0, 1.0)][rng.range_usize(0, 4)],
            control_points,
        }
    }

    #[test]
    fn one_pass_writer_is_the_polygon_writer() {
        let mut rng = SplitMix64::new(45);
        for round in 0..6 {
            let mut mask = Stitched::default();
            for i in 0..(CHUNK_SHAPES + 17) {
                let n = rng.range_usize(3, 40);
                mask.mains
                    .push(seeded_shape(&mut rng, n, i % 3 == 0, false));
            }
            for i in 0..CHUNK_SHAPES / 2 {
                let n = rng.range_usize(3, 9);
                mask.srafs.push(seeded_shape(&mut rng, n, i % 2 == 0, true));
            }
            // Tension-0 squares: straight edges whose samples repeat
            // coordinates exactly, corners on the k/8 nm ties.
            mask.mains[1] = square_shape(-12.125, 7.375, 60.5, false);
            mask.srafs[2] = square_shape(200.25, 100.5, 20.0, true);
            // Four equal control points across the wrap: the last segment's
            // samples collapse onto the first vertex, which closes the ring
            // (the closing duplicate), and neighbours repeat inside blocks.
            let x = Point::new(1000.375, -250.625);
            let mut wrap = vec![x, x, Point::new(1100.0, -250.0), Point::new(1100.0, -150.0)];
            wrap.extend([Point::new(1000.0, -150.0), x, x]);
            mask.mains[2].control_points = wrap;
            mask.mains[2].tension = [0.5, 0.0][round % 2];
            // Past one XY record: 1 100 segments × 8 samples, split.
            mask.mains[CHUNK_SHAPES - 1] = ring_shape(Point::ZERO, 50_000.0, 1100, 0.5, Some(0));
            for samples_per_segment in [8, 1, 5, 12] {
                let options = MaskGdsOptions {
                    mask_layer: 7,
                    sraf_layer: 9,
                    samples_per_segment,
                };
                check_chunks(
                    &mask,
                    &options,
                    &format!("round {round}, {samples_per_segment}"),
                );
            }
        }
    }

    #[test]
    fn one_pass_writer_fails_where_the_polygon_writer_fails() {
        let options = MaskGdsOptions::default();
        let mut rng = SplitMix64::new(7);
        let ok = |rng: &mut SplitMix64| seeded_shape(rng, 12, false, false);
        // A ring that dedups below 3 vertices (every control point the
        // same): a grammar error at the same offset.
        let mut mask = Stitched {
            mains: (0..5).map(|_| ok(&mut rng)).collect(),
            ..Stitched::default()
        };
        let p = Point::new(3.0, 4.0);
        mask.mains[3].control_points = vec![p; 5];
        check_chunks(&mask, &options, "collapsed ring");
        // A coordinate past the 32-bit grid.
        mask.mains[3] = ok(&mut rng);
        mask.mains[3].control_points[4].x = 3e9;
        check_chunks(&mask, &options, "overflow");
        // Not a spline: too few points, a NaN, an infinite tension.
        mask.mains[3] = ok(&mut rng);
        mask.mains[3].control_points.truncate(2);
        check_chunks(&mask, &options, "two points");
        mask.mains[3] = ok(&mut rng);
        mask.mains[3].control_points[1].y = f64::NAN;
        check_chunks(&mask, &options, "nan");
        mask.mains[3] = ok(&mut rng);
        mask.mains[3].tension = f64::INFINITY;
        check_chunks(&mask, &options, "tension");
    }
}
