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

fn bench_curvature_only(c: &mut Criterion) {
    let shapes = shape_field(8);
    let checker = MrcChecker::new(MrcRules::default());
    c.bench_function("mrc_curvature_64_shapes", |b| {
        b.iter(|| black_box(checker.check_curvature(black_box(&shapes))))
    });
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

/// A post-correction logic tile, as the resolver meets it in a tiled run:
/// tile 0 of `cardopc --design gcd --crop 8192` at the CLI defaults after
/// its 10 correction iterations, MRC stage not yet run (90 shapes, ~54 k
/// boundary samples, 281 violations).
fn corrected_logic_tile() -> Vec<CardinalSpline> {
    use cardopc::layout::generated_clip;
    use cardopc::runtime::partition_clip;

    let clip = generated_clip(DesignKind::Gcd, 1, Some(8192.0));
    let tiling = TilingConfig {
        tile_size: 4096.0,
        halo: 1024.0,
    };
    let tile = &partition_clip(&clip, &tiling).unwrap().tiles[0];
    let config = OpcConfig {
        mrc: None,
        ..OpcConfig::large_scale()
    };
    let engine = engine_for_extent(tile.clip.width(), tile.clip.height(), config.pitch).unwrap();
    let corrected = CardOpc::new(config)
        .optimize_with_engine(&tile.clip, &engine)
        .unwrap();
    corrected.shapes.into_iter().map(|s| s.spline).collect()
}

fn bench_logic_tile(c: &mut Criterion) {
    let tile = corrected_logic_tile();
    let rules = OpcConfig::large_scale()
        .mrc
        .expect("large_scale checks MRC");
    let checker = MrcChecker::new(rules);
    c.bench_function("mrc_check_logic_tile", |b| {
        b.iter(|| black_box(checker.check(black_box(&tile))))
    });
    // The resolver exactly as `optimize_with_engine` configures it.
    let resolver = MrcResolver::new(rules, ResolveConfig::default());
    c.bench_function("mrc_resolve_logic_tile", |b| {
        b.iter(|| {
            let mut shapes = tile.clone();
            black_box(resolver.resolve(&mut shapes))
        })
    });
}

criterion_group!(
    benches,
    bench_check,
    bench_curvature_only,
    bench_resolve,
    bench_logic_tile
);
criterion_main!(benches);
