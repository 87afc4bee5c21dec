//! Criterion benchmark of curvilinear mask rule checking: the R-tree probe
//! approach (paper §III-F) over growing shape counts.

use cardopc::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A field of rounded-square shapes on a grid, spacing-clean by
/// construction.
fn shape_field(n_per_side: usize) -> Vec<CardinalSpline> {
    let mut shapes = Vec::new();
    for gy in 0..n_per_side {
        for gx in 0..n_per_side {
            let x0 = 100.0 + gx as f64 * 260.0;
            let y0 = 100.0 + gy as f64 * 260.0;
            let pts = vec![
                Point::new(x0, y0),
                Point::new(x0 + 150.0, y0),
                Point::new(x0 + 150.0, y0 + 150.0),
                Point::new(x0, y0 + 150.0),
            ];
            shapes.push(CardinalSpline::closed(pts, 0.6).unwrap());
        }
    }
    shapes
}

fn bench_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("mrc_check");
    for side in [4usize, 8] {
        let shapes = shape_field(side);
        let checker = MrcChecker::new(MrcRules::default());
        group.bench_function(format!("{}_shapes", side * side), |b| {
            b.iter(|| black_box(checker.check(black_box(&shapes))))
        });
    }
    group.finish();
}

fn bench_resolve(c: &mut Criterion) {
    // Two shapes with a fixable spacing violation.
    let mk = |x0: f64| {
        let pts = vec![
            Point::new(x0, 0.0),
            Point::new(x0 + 75.0, 0.0),
            Point::new(x0 + 150.0, 0.0),
            Point::new(x0 + 150.0, 75.0),
            Point::new(x0 + 150.0, 150.0),
            Point::new(x0 + 75.0, 150.0),
            Point::new(x0, 150.0),
            Point::new(x0, 75.0),
        ];
        CardinalSpline::closed(pts, 0.0).unwrap()
    };
    let resolver = MrcResolver::new(MrcRules::default(), ResolveConfig::default());
    c.bench_function("mrc_resolve_spacing_pair", |b| {
        b.iter(|| {
            let mut shapes = vec![mk(0.0), mk(162.0)];
            black_box(resolver.resolve(&mut shapes))
        })
    });
}

/// The post-correction logic tiles, as the resolver meets them in a tiled
/// run: the four tiles of `cardopc --design gcd --crop 8192` at the CLI
/// defaults after their 10 correction iterations, MRC stage not yet run
/// (tile 0: 90 shapes, ~54 k boundary samples, 281 violations, 23 left
/// after the resolver's three projection rounds; tile 1 is the heaviest
/// with 1 215).
fn corrected_logic_tiles() -> Vec<Vec<CardinalSpline>> {
    use cardopc::layout::generated_clip;
    use cardopc::runtime::partition_clip;

    let clip = generated_clip(DesignKind::Gcd, 1, Some(8192.0));
    let tiling = TilingConfig {
        tile_size: 4096.0,
        halo: 1024.0,
    };
    let config = OpcConfig {
        mrc: None,
        ..OpcConfig::large_scale()
    };
    let correct = |tile: &cardopc::runtime::Tile| {
        let engine =
            engine_for_extent(tile.clip.width(), tile.clip.height(), config.pitch).unwrap();
        let corrected = CardOpc::new(config.clone())
            .optimize_with_engine(&tile.clip, &engine)
            .unwrap();
        corrected.shapes.into_iter().map(|s| s.spline).collect()
    };
    let tiles = partition_clip(&clip, &tiling).unwrap().tiles;
    tiles.iter().map(correct).collect()
}

fn bench_logic_tiles(c: &mut Criterion) {
    let tiles = corrected_logic_tiles();
    let rules = OpcConfig::large_scale()
        .mrc
        .expect("large_scale checks MRC");
    let checker = MrcChecker::new(rules);
    c.bench_function("mrc_check_logic_tile", |b| {
        b.iter(|| black_box(checker.check(black_box(&tiles[0]))))
    });
    // The resolver exactly as `optimize_with_engine` configures it: three
    // projection rounds, each re-checking the shapes a move can reach.
    let resolver = MrcResolver::new(rules, ResolveConfig::default());
    let names = [
        "mrc_resolve_logic_tile",
        "mrc_resolve_logic_tile_1",
        "mrc_resolve_logic_tile_2",
        "mrc_resolve_logic_tile_3",
    ];
    for (name, tile) in names.into_iter().zip(&tiles) {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut shapes = tile.clone();
                black_box(resolver.resolve(&mut shapes))
            })
        });
    }
}

/// The seam pass of the array job: a 64×64 field of the two-wire cell
/// (step 1024 nm, dissected as the large-scale flow does) under the
/// 1024 nm seam grid, `check_spacing_in_bands` only. As in the job, no
/// wire comes within reach of a seam, so no shape is indexed; the
/// `_crossing` row shifts the field 200 nm so every long wire straddles a
/// seam and is sampled, indexed and probed once.
fn bench_seam_bands(c: &mut Criterion) {
    const CELLS: usize = 64;
    const STEP: f64 = 1024.0;
    let wire =
        |x0: f64, y0: f64, x1: f64, y1: f64| Polygon::rect(Point::new(x0, y0), Point::new(x1, y1));
    let cell = Clip::new(
        "cell",
        STEP,
        STEP,
        vec![
            wire(160.0, 256.0, 864.0, 326.0),
            wire(160.0, 640.0, 640.0, 710.0),
        ],
    );
    let dissected = CardOpc::new(OpcConfig::large_scale())
        .initialize(&cell)
        .unwrap();
    let field = |shift: f64| -> Vec<CardinalSpline> {
        let mut shapes = Vec::with_capacity(2 * CELLS * CELLS);
        for gy in 0..CELLS {
            for gx in 0..CELLS {
                let by = Point::new(gx as f64 * STEP + shift, gy as f64 * STEP);
                for shape in &dissected {
                    let mut spline = shape.spline.clone();
                    spline
                        .control_points_mut()
                        .iter_mut()
                        .for_each(|p| *p += by);
                    shapes.push(spline);
                }
            }
        }
        shapes
    };
    let rules = OpcConfig::large_scale()
        .mrc
        .expect("large_scale checks MRC");
    let extent = CELLS as f64 * STEP;
    let mut bands = Vec::new();
    for k in 1..CELLS {
        let seam = k as f64 * STEP;
        let s = rules.min_space;
        bands.push(BBox::new(
            Point::new(seam - s, 0.0),
            Point::new(seam + s, extent),
        ));
        bands.push(BBox::new(
            Point::new(0.0, seam - s),
            Point::new(extent, seam + s),
        ));
    }
    let checker = MrcChecker::new(rules);
    for (name, shift) in [("mrc_seam_bands", 0.0), ("mrc_seam_bands_crossing", 200.0)] {
        let shapes = field(shift);
        c.bench_function(name, |b| {
            b.iter(|| black_box(checker.check_spacing_in_bands(black_box(&shapes), &bands)))
        });
    }
}

criterion_group!(
    benches,
    bench_check,
    bench_resolve,
    bench_logic_tiles,
    bench_seam_bands
);
criterion_main!(benches);
