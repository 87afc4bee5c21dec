//! Bitwise golden of the Stockham FFT plans.
//!
//! For seeded inputs, the unscaled forward and inverse outputs of
//! [`FftPlan`] are hashed (FNV-1a over every output's bits) at lengths that
//! cover every radix and both stage-count parities: 15 = 3·5, 60 = 4·3·5,
//! 125 = 5³ (radix-5 at unit stride), 180 = 4·3·3·5, 250 = 2·5³,
//! 256 = 4⁴, 500 = 4·5³ and 768 = 4⁴·3. Any change to a floating-point
//! operation of a stage, or to the order of those operations, moves a hash.
//! Loop restructuring that keeps every operation (hoisting, unrolling,
//! vectorising) must not.
//!
//! Each precision is checked under both forced dispatch modes, since the
//! plain and the `avx2,fma` compilations must produce the same bits. The
//! tests mutate the process-global forced mode, so they serialise on one
//! mutex and restore auto-detection afterwards.

use cardopc_geometry::SplitMix64;
use cardopc_litho::fft::FftScratch;
use cardopc_litho::simd::{self, SimdMode};
use cardopc_litho::{FftPlan, Scalar};
use std::sync::Mutex;

static MODE_LOCK: Mutex<()> = Mutex::new(());

/// `(n, f64 hash, f32 hash)`: each hash covers the forward then the inverse
/// output of length `n`, both unscaled, real lanes before imaginary ones.
const GOLDEN: [(usize, u64, u64); 8] = [
    (15, 0xc7ad_0e4b_5376_cf88, 0x758c_45cb_9986_6dd2),
    (60, 0x1ef6_9b4e_a732_f82e, 0xcfbb_68bb_2a70_3286),
    (125, 0x6a80_a48b_9877_3634, 0xa282_9c40_6acc_8443),
    (180, 0xb3e2_4e80_19a2_36ab, 0x8be5_c783_4f72_2c33),
    (250, 0x0be8_1a19_3114_aa46, 0x7172_5dd3_70c2_d790),
    (256, 0x9bde_2c9c_9305_e5a0, 0x1501_8953_1d68_5b31),
    (500, 0x9eee_e816_a58b_3966, 0x1ef0_e47d_7af3_f9d2),
    (768, 0x93d2_77f9_370a_42af, 0xfee7_81a6_4fb1_973f),
];

fn fnv1a(hash: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The golden hash of length `n` at precision `T` under the current mode.
fn plan_hash<T: Scalar>(n: usize) -> u64 {
    let mut rng = SplitMix64::new(0xf17 ^ n as u64);
    let re0: Vec<T> = (0..n)
        .map(|_| T::from_f64(rng.range_f64(-1.0, 1.0)))
        .collect();
    let im0: Vec<T> = (0..n)
        .map(|_| T::from_f64(rng.range_f64(-1.0, 1.0)))
        .collect();
    let plan = FftPlan::<T>::get(n);
    let mut scratch = FftScratch::<T>::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for inverse in [false, true] {
        let (mut re, mut im) = (re0.clone(), im0.clone());
        plan.execute_unscaled_split(&mut re, &mut im, &mut scratch, inverse);
        // f32 → f64 is exact, so hashing the widened bits loses nothing.
        for v in re.iter().chain(&im) {
            fnv1a(&mut hash, v.to_f64().to_bits());
        }
    }
    hash
}

fn check_golden<T: Scalar>(column: impl Fn(&(usize, u64, u64)) -> u64, precision: &str) {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut modes = vec![SimdMode::Scalar];
    if simd::avx2_available() {
        modes.push(SimdMode::Avx2);
    }
    let mut drifted = Vec::new();
    for mode in modes {
        simd::force_mode(Some(mode));
        for row in &GOLDEN {
            let got = plan_hash::<T>(row.0);
            if got != column(row) {
                drifted.push(format!("{precision} n={} {mode:?}: {got:#018x}", row.0));
            }
        }
    }
    simd::force_mode(None);
    assert!(
        drifted.is_empty(),
        "FFT bits moved:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn fft_plan_bits_match_golden_f64() {
    check_golden::<f64>(|row| row.1, "f64");
}

#[test]
fn fft_plan_bits_match_golden_f32() {
    check_golden::<f32>(|row| row.2, "f32");
}
