//! Criterion benchmark of the FFT kernels in isolation: 2-D forward vs
//! inverse across the grid sizes the OPC flows actually use — pow2 sizes
//! plus the 5-smooth sizes (192, 320, 640) the mixed-radix core runs
//! directly instead of padding to pow2 — and batched 1-D row transforms.
//!
//! ```sh
//! cargo bench -p cardopc-bench --bench fft2
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
const EDGES: [usize; 8] = [128, 192, 256, 320, 512, 640, 1024, 2048];

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

criterion_group!(
    benches,
    bench_forward_complex,
    bench_inverse_complex,
    bench_fft1d_batch
);
criterion_main!(benches);
