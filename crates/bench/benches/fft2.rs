//! Criterion benchmark of the FFT kernels in isolation: 2-D forward vs
//! inverse across 5-smooth grid sizes — pow2 edges, the mixed-radix edges
//! 192, 320 and 640, and the production edges 500 (via clips, 4·5³) and
//! 768 (logic tiles, 4⁴·3) — batched 1-D row transforms, and single 1-D
//! plan executions at the lengths the workloads run (60 and 180 are the
//! coarse kernel grids, 256, 500 and 768 the frames), so a per-size
//! regression in one Stockham stage shows, and one block of the kernel
//! stage's 60-point column pass (16 columns in `f64`, 16 and the image's
//! 32 in `f32`), single calls vs one batched call.
//!
//! ```sh
//! cargo bench -p cardopc-bench --bench fft2
//! cargo bench -p cardopc-bench --bench fft2 -- fft1_plan
//! cargo bench -p cardopc-bench --bench fft2 -- fft1_block
//! ```
//!
//! Iterations end with `black_box(&field)` rather than an `energy()`
//! Parseval sum: the serial `f64` reduction costs ~0.3 ms at 512² —
//! comparable to the transform itself — and is not part of the FFT work
//! these groups claim to measure.

use cardopc::litho::fft::{Complex, FftScratch, Field};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Pow2 edges plus the 5-smooth non-pow2 edges of interest.
const EDGES: [usize; 10] = [128, 192, 256, 320, 500, 512, 640, 768, 1024, 2048];

/// 1-D lengths the workloads transform: coarse kernel grids and frames.
const PLAN_LENGTHS: [usize; 5] = [60, 180, 256, 500, 768];

fn complex_field(edge: usize) -> Field {
    let mut f = Field::zeros(edge, edge);
    for iy in 0..edge {
        for ix in 0..edge {
            let i = iy * edge + ix;
            let z = Complex::new(((i % 13) as f64 - 6.0) / 6.0, ((i % 7) as f64 - 3.0) / 3.0);
            f.set(ix, iy, z);
        }
    }
    f
}

fn bench_forward_complex(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft2_forward_complex");
    group.sample_size(10);
    for edge in EDGES {
        let field = complex_field(edge);
        let mut scratch = FftScratch::new();
        group.bench_function(format!("{edge}x{edge}"), |b| {
            b.iter(|| {
                let mut f = field.clone();
                f.fft2_inplace_with(false, &mut scratch);
                black_box(&f);
            })
        });
    }
    group.finish();
}

fn bench_inverse_complex(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft2_inverse_complex");
    group.sample_size(10);
    for edge in EDGES {
        let field = complex_field(edge);
        let mut scratch = FftScratch::new();
        group.bench_function(format!("{edge}x{edge}"), |b| {
            b.iter(|| {
                let mut f = field.clone();
                f.fft2_inplace_with(true, &mut scratch);
                black_box(&f);
            })
        });
    }
    group.finish();
}

/// Batched 1-D transforms in isolation (no transposes, no packing): the
/// pure Stockham stage cost, the piece that should scale with SIMD width.
fn bench_fft1d_batch_t<T: cardopc::litho::Scalar>(c: &mut Criterion, name: &str) {
    use cardopc::litho::FftPlan;
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    for edge in [128usize, 512] {
        let plan = FftPlan::<T>::get(edge);
        let mut scratch: FftScratch<T> = FftScratch::new();
        let mut re: Vec<T> = (0..edge * edge)
            .map(|i| T::from_f64(((i % 13) as f64 - 6.0) / 6.0))
            .collect();
        let mut im = vec![T::ZERO; edge * edge];
        group.bench_function(format!("{edge}rows_x{edge}"), |b| {
            b.iter(|| {
                for r in 0..edge {
                    let (lo, hi) = (r * edge, (r + 1) * edge);
                    plan.execute_unscaled_split(
                        &mut re[lo..hi],
                        &mut im[lo..hi],
                        &mut scratch,
                        false,
                    );
                }
                black_box(re[0])
            })
        });
    }
    group.finish();
}

fn bench_fft1d_batch(c: &mut Criterion) {
    bench_fft1d_batch_t::<f64>(c, "fft1d_batch");
    bench_fft1d_batch_t::<f32>(c, "fft1d_batch_f32");
}

/// One unscaled forward transform of one length: every Stockham stage of
/// that size's plan, and nothing else but a copy of the input back into
/// the working lanes (so the values stay bounded across iterations).
fn bench_fft1_plan_t<T: cardopc::litho::Scalar>(c: &mut Criterion, name: &str) {
    use cardopc::litho::FftPlan;
    let mut group = c.benchmark_group(name);
    group.sample_size(20);
    for n in PLAN_LENGTHS {
        let plan = FftPlan::<T>::get(n);
        let mut scratch: FftScratch<T> = FftScratch::new();
        let re0: Vec<T> = (0..n)
            .map(|i| T::from_f64(((i % 13) as f64 - 6.0) / 6.0))
            .collect();
        let im0: Vec<T> = (0..n)
            .map(|i| T::from_f64(((i % 7) as f64 - 3.0) / 3.0))
            .collect();
        let (mut re, mut im) = (re0.clone(), im0.clone());
        group.bench_function(n.to_string(), |b| {
            b.iter(|| {
                re.copy_from_slice(&re0);
                im.copy_from_slice(&im0);
                plan.execute_unscaled_split(&mut re, &mut im, &mut scratch, false);
                black_box(re[0])
            })
        });
    }
    group.finish();
}

fn bench_fft1_plan(c: &mut Criterion) {
    bench_fft1_plan_t::<f64>(c, "fft1_plan_f64");
    bench_fft1_plan_t::<f32>(c, "fft1_plan_f32");
}

/// One block of the kernel stage's coarse column pass: `LANES` inverse
/// 60-point transforms as single calls on contiguous columns, and as one
/// batched call on the same columns stored interleaved — the same bits
/// either way. The image runs 16 lanes in `f64` and 32 in `f32`.
fn bench_fft1_block_t<T: cardopc::litho::Scalar, const LANES: usize>(
    c: &mut Criterion,
    name: &str,
) {
    use cardopc::litho::{simd, FftPlan};
    const N: usize = 60;
    let mut group = c.benchmark_group(name);
    group.sample_size(20);
    let plan = FftPlan::<T>::get(N);
    let mode = simd::active_mode();
    let re0: Vec<T> = (0..N * LANES)
        .map(|i| T::from_f64(((i % 13) as f64 - 6.0) / 6.0))
        .collect();
    let im0: Vec<T> = (0..N * LANES)
        .map(|i| T::from_f64(((i % 7) as f64 - 3.0) / 3.0))
        .collect();
    let (mut re, mut im) = (re0.clone(), im0.clone());
    let mut scratch: FftScratch<T> = FftScratch::new();
    group.bench_function(format!("{N}x{LANES}_single"), |b| {
        b.iter(|| {
            re.copy_from_slice(&re0);
            im.copy_from_slice(&im0);
            for (cr, ci) in re.chunks_exact_mut(N).zip(im.chunks_exact_mut(N)) {
                plan.execute_unscaled_split(cr, ci, &mut scratch, true);
            }
            black_box(re[0])
        })
    });
    let (mut pong_re, mut pong_im) = (Vec::new(), Vec::new());
    group.bench_function(format!("{N}x{LANES}_batched"), |b| {
        b.iter(|| {
            re.copy_from_slice(&re0);
            im.copy_from_slice(&im0);
            plan.execute_batched(
                LANES,
                mode,
                &mut re,
                &mut im,
                &mut pong_re,
                &mut pong_im,
                true,
            );
            black_box(re[0])
        })
    });
    group.finish();
}

fn bench_fft1_block(c: &mut Criterion) {
    bench_fft1_block_t::<f64, 16>(c, "fft1_block_f64");
    bench_fft1_block_t::<f32, 16>(c, "fft1_block_f32");
    bench_fft1_block_t::<f32, 32>(c, "fft1_block_f32");
}

criterion_group!(
    benches,
    bench_forward_complex,
    bench_inverse_complex,
    bench_fft1d_batch,
    bench_fft1_plan,
    bench_fft1_block
);
criterion_main!(benches);
