//! Criterion benchmark of the lithography engine: aerial image cost vs
//! grid size (the inner loop of every OPC/ILT iteration).

use cardopc::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn mask_with_squares(edge: usize, pitch: f64) -> Grid {
    let mut g = Grid::zeros(edge, edge, pitch);
    let q = edge / 4;
    for iy in q..2 * q {
        for ix in q..2 * q {
            g[(ix, iy)] = 1.0;
        }
    }
    for iy in 2 * q + q / 2..3 * q {
        for ix in 2 * q + q / 2..3 * q {
            g[(ix, iy)] = 1.0;
        }
    }
    g
}

fn bench_aerial(c: &mut Criterion) {
    use cardopc::litho::Precision;
    for precision in [Precision::F64, Precision::F32] {
        let name = match precision {
            Precision::F64 => "aerial_image".to_string(),
            Precision::F32 => "aerial_image_f32".to_string(),
        };
        let mut group = c.benchmark_group(name);
        group.sample_size(10);
        for edge in [128usize, 256, 512] {
            let engine =
                LithoEngine::with_precision(OpticsConfig::default(), edge, edge, 8.0, precision)
                    .unwrap();
            let mask = mask_with_squares(edge, 8.0);
            group.bench_function(format!("{edge}x{edge}"), |b| {
                b.iter(|| black_box(engine.aerial_image(black_box(&mask)).unwrap()))
            });
        }
        group.finish();
    }
}

/// Via centres (pixels) of [`via_like_mask`]: two rows of three.
const VIA_CENTRES: [(usize, usize); 6] = [
    (110, 150),
    (250, 150),
    (390, 150),
    (110, 350),
    (250, 350),
    (390, 350),
];

/// A Table-I-like clip on the 500²/4 nm grid: six 72 nm vias, each with
/// four SRAF bars, in a mostly empty frame (≈ 66 % of the row pairs are all
/// zeros — what the forward pass's row skip feeds on).
fn via_like_mask() -> Grid {
    let mut g = Grid::zeros(500, 500, 4.0);
    let mut rect = |cx: usize, cy: usize, hw: usize, hh: usize| {
        for iy in cy - hh..cy + hh {
            for ix in cx - hw..cx + hw {
                g[(ix, iy)] = 1.0;
            }
        }
    };
    for (cx, cy) in VIA_CENTRES {
        rect(cx, cy, 9, 9);
        for d in [-37isize, 37] {
            rect(cx, cy.wrapping_add_signed(d), 13, 4);
            rect(cx.wrapping_add_signed(d), cy, 4, 13);
        }
    }
    g
}

/// The columns within 22 px of a via's edge: 37 % of the frame, the share
/// the correction loop's column restriction requested on the Table I clips
/// before it sampled its footprint instead.
fn via_roi_columns() -> Vec<usize> {
    (0..500)
        .filter(|x| {
            VIA_CENTRES
                .iter()
                .any(|(cx, _)| (cx - 31..cx + 31).contains(x))
        })
        .collect()
}

/// Pixels two wide along each via's axes, out to 22 px from its centre:
/// about the 0.5 % of the frame `epe_footprint` gives a Table I clip.
fn via_footprint() -> Vec<usize> {
    let mut pixels: Vec<usize> = VIA_CENTRES
        .iter()
        .flat_map(|&(cx, cy)| {
            (0..44).flat_map(move |d| {
                let (x, y) = (cx + d - 22, cy + d - 22);
                [
                    cy * 500 + x,
                    (cy + 1) * 500 + x,
                    y * 500 + cx,
                    y * 500 + cx + 1,
                ]
            })
        })
        .collect();
    pixels.sort_unstable();
    pixels.dedup();
    pixels
}

/// The two production grids (logic tile, via clip): full frame, every pixel
/// of 50 % and of 89 % of the columns (`aerial_image_cols`, the pixel
/// sampler over whole columns — dearer than the frame once dense, which is
/// why the loop picks by `pixels_pay`), the three-condition evaluation, and
/// engine construction; then the via grid under a via-like mask (mostly
/// empty rows; the old column share and the loop's footprint) beside a
/// dense random one (no empty row at all).
fn bench_socs(c: &mut Criterion) {
    use cardopc::litho::{Precision, ProcessCondition};
    let conditions = [
        ProcessCondition::NOMINAL,
        ProcessCondition::outer(0.02),
        ProcessCondition::inner(0.02),
    ];
    for (precision, tag) in [(Precision::F64, "f64"), (Precision::F32, "f32")] {
        for (edge, pitch) in [(768usize, 8.0), (500, 4.0)] {
            let mut group = c.benchmark_group(format!("socs_{tag}/{edge}x{edge}"));
            group.sample_size(10);
            let build = || {
                LithoEngine::with_precision(OpticsConfig::default(), edge, edge, pitch, precision)
                    .unwrap()
            };
            let engine = build();
            let mask = mask_with_squares(edge, pitch);
            group.bench_function("full", |b| {
                b.iter(|| black_box(engine.aerial_image(black_box(&mask)).unwrap()))
            });
            for percent in [50usize, 89] {
                let cols: Vec<usize> = (0..edge).filter(|x| x * 100 / edge < percent).collect();
                group.bench_function(format!("cols_{percent}"), |b| {
                    b.iter(|| black_box(engine.aerial_image_cols(black_box(&mask), &cols).unwrap()))
                });
            }
            group.bench_function("multi", |b| {
                b.iter(|| black_box(engine.aerial_images_multi(black_box(&mask), &conditions)))
            });
            group.bench_function("engine_build", |b| b.iter(|| black_box(build())));
            group.finish();
        }
        let engine =
            LithoEngine::with_precision(OpticsConfig::default(), 500, 500, 4.0, precision).unwrap();
        let (vias, cols) = (via_like_mask(), via_roi_columns());
        let mut group = c.benchmark_group(format!("socs_{tag}/500x500_vias"));
        group.sample_size(10);
        group.bench_function("full", |b| {
            b.iter(|| black_box(engine.aerial_image(black_box(&vias)).unwrap()))
        });
        group.bench_function("cols_37", |b| {
            b.iter(|| black_box(engine.aerial_image_cols(black_box(&vias), &cols).unwrap()))
        });
        let (footprint, mut out) = (via_footprint(), Grid::zeros(500, 500, 4.0));
        group.bench_function("footprint", |b| {
            b.iter(|| {
                let pixels = Some(&footprint[..]);
                engine
                    .aerial_image_into(black_box(&vias), pixels, &mut out)
                    .unwrap();
                black_box(out.data()[footprint[0]])
            })
        });
        group.bench_function("multi", |b| {
            b.iter(|| black_box(engine.aerial_images_multi(black_box(&vias), &conditions)))
        });
        group.finish();
        let mut rng = SplitMix64::new(19);
        let data = (0..500 * 500).map(|_| rng.range_f64(0.0, 1.0)).collect();
        let dense = Grid::from_data(500, 500, 4.0, data);
        let mut group = c.benchmark_group(format!("socs_{tag}/500x500_dense"));
        group.sample_size(10);
        group.bench_function("full", |b| {
            b.iter(|| black_box(engine.aerial_image(black_box(&dense)).unwrap()))
        });
        group.finish();
    }
}

fn bench_fft(c: &mut Criterion) {
    use cardopc::litho::fft::Field;
    let mut group = c.benchmark_group("fft2");
    for edge in [128usize, 256, 512] {
        let data: Vec<f64> = (0..edge * edge).map(|i| (i % 7) as f64).collect();
        let field: Field = Field::from_real(edge, edge, &data);
        group.bench_function(format!("{edge}x{edge}"), |b| {
            b.iter(|| {
                let mut f = field.clone();
                f.fft2_inplace(false);
                black_box(f.energy())
            })
        });
    }
    group.finish();
}

fn bench_raster(c: &mut Criterion) {
    use cardopc::litho::rasterize;
    let clips = metal_clips();
    let targets = clips[9].targets();
    c.bench_function("rasterize_m10_clip_256", |b| {
        b.iter(|| black_box(rasterize(black_box(targets), 256, 256, 6.0)))
    });
}

criterion_group!(benches, bench_aerial, bench_socs, bench_fft, bench_raster);
criterion_main!(benches);
