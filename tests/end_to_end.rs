//! Cross-crate integration tests: the full CardOPC pipeline against the
//! rectilinear baseline on small clips (debug-build friendly sizes; the
//! paper-scale runs live in the release benchmark harness).

use cardopc::opc::{engine_for_extent, evaluate_mask};
use cardopc::prelude::*;

/// A 1 µm clip with two 120 nm squares — small enough for debug builds.
fn two_square_clip() -> Clip {
    Clip::new(
        "it2",
        1024.0,
        1024.0,
        vec![
            Polygon::rect(Point::new(250.0, 440.0), Point::new(370.0, 560.0)),
            Polygon::rect(Point::new(620.0, 440.0), Point::new(740.0, 560.0)),
        ],
    )
}

fn fast_via_config() -> OpcConfig {
    OpcConfig {
        iterations: 16,
        decay_at: 10,
        pitch: 8.0,
        sraf: None,
        mrc: None,
        ..OpcConfig::via()
    }
}

#[test]
fn cardopc_beats_no_opc_on_all_metrics_history() {
    let clip = two_square_clip();
    let engine = engine_for_extent(clip.width(), clip.height(), 8.0).unwrap();

    let uncorrected = evaluate_mask(
        &engine,
        clip.targets(),
        clip.targets(),
        MeasureConvention::ViaEdgeCenters,
        0.02,
        40.0,
    )
    .unwrap();

    let outcome = CardOpc::new(fast_via_config())
        .run_with_engine(&clip, &engine)
        .unwrap();

    assert!(
        outcome.evaluation.l2_nm2 <= uncorrected.l2_nm2,
        "CardOPC L2 {} vs uncorrected {}",
        outcome.evaluation.l2_nm2,
        uncorrected.l2_nm2
    );
    // Convergence: the anchor EPE must at least halve.
    let first = outcome.epe_history[0];
    let last = *outcome.epe_history.last().unwrap();
    assert!(last < 0.7 * first, "weak convergence: {first} -> {last}");
}

#[test]
fn cardopc_and_rect_baseline_run_on_same_engine() {
    let clip = two_square_clip();
    let engine = engine_for_extent(clip.width(), clip.height(), 8.0).unwrap();

    let card = CardOpc::new(fast_via_config())
        .run_with_engine(&clip, &engine)
        .unwrap();

    let rect_cfg = RectOpcConfig {
        iterations: 16,
        decay_at: 10,
        pitch: 8.0,
        ..RectOpcConfig::calibre_like_via()
    };
    let rect = RectOpc::new(rect_cfg)
        .run_with_engine(&clip, &engine, &[], MeasureConvention::ViaEdgeCenters)
        .unwrap();

    // Both flows must converge; the comparative claim (CardOPC <= rect on
    // EPE) is checked at paper scale in the benches, but even at this
    // reduced budget both must clearly improve over doing nothing.
    assert!(card.evaluation.epe_sum_nm.is_finite());
    assert!(rect.evaluation.epe_sum_nm.is_finite());
    assert!(*card.epe_history.last().unwrap() < card.epe_history[0]);
    assert!(*rect.epe_history.last().unwrap() < rect.epe_history[0]);
}

#[test]
fn mrc_stage_leaves_mask_clean_and_scored() {
    let clip = two_square_clip();
    let mut cfg = fast_via_config();
    cfg.mrc = Some(MrcRules::default());
    let engine = engine_for_extent(clip.width(), clip.height(), 8.0).unwrap();
    let outcome = CardOpc::new(cfg).run_with_engine(&clip, &engine).unwrap();

    // Independent re-check of the delivered mask.
    let shapes: Vec<_> = outcome.shapes.iter().map(|s| s.spline.clone()).collect();
    let checker = MrcChecker::new(MrcRules::default());
    let remaining = checker.check(&shapes);
    assert_eq!(
        remaining.len(),
        outcome.mrc_remaining,
        "flow-reported MRC state disagrees with independent checker"
    );
}

#[test]
fn via_clips_all_initialise() {
    // Initialisation (dissect + control points + SRAFs) must succeed on
    // every published-statistics testcase.
    let flow = CardOpc::new(OpcConfig::via());
    for clip in via_clips() {
        let shapes = flow.initialize(&clip).unwrap();
        assert!(
            shapes.iter().filter(|s| !s.is_sraf).count() == clip.targets().len(),
            "{}: main shape count mismatch",
            clip.name()
        );
        for s in &shapes {
            assert!(s.control_count() >= 4);
        }
    }
}

#[test]
fn metal_clips_all_initialise() {
    let flow = CardOpc::new(OpcConfig::metal());
    for clip in metal_clips() {
        let shapes = flow.initialize(&clip).unwrap();
        assert!(!shapes.is_empty(), "{}", clip.name());
    }
}

#[test]
fn large_tiles_initialise_with_large_config() {
    let flow = CardOpc::new(OpcConfig::large_scale());
    let tile = large_tile(DesignKind::Gcd, 0);
    let window = tile.crop(Point::new(12_000.0, 12_000.0), 3_000.0, 3_000.0, "w");
    let shapes = flow.initialize(&window).unwrap();
    assert_eq!(shapes.len(), window.targets().len());
}

/// (shapes, control points), (initial, remaining) violations, hash.
type GoldenTile = ((usize, usize), (usize, usize), u64);

/// Shape and control-point counts, the resolver's (initial, remaining)
/// violations and the FNV-1a hash of every control point's bits (shape
/// order) for the logic tiles of `cardopc --design gcd --crop 8192` from
/// `first` on, at the CLI defaults, through `optimize_with_engine`, once
/// under each forced SIMD dispatch mode: the two compilations round
/// identically, so both must give the same bits.
fn assert_logic_tile_goldens(first: usize, golden: &[GoldenTile]) {
    use cardopc::layout::generated_clip;
    use cardopc::litho::{simd, SimdMode};
    use cardopc::runtime::{partition_clip, TilingConfig};
    use std::sync::Mutex;

    // Both golden tests force the process-wide dispatch mode.
    static MODE_LOCK: Mutex<()> = Mutex::new(());

    let clip = generated_clip(DesignKind::Gcd, 1, Some(8192.0));
    let tiling = TilingConfig {
        tile_size: 4096.0,
        halo: 1024.0,
    };
    let all = partition_clip(&clip, &tiling).unwrap().tiles;
    assert_eq!(all.len(), 4);
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for mode in [SimdMode::Scalar, SimdMode::Avx2] {
        simd::force_mode(Some(mode));
        for (tile, &(sizes, violations, want)) in all[first..].iter().zip(golden) {
            let config = OpcConfig::large_scale();
            let engine =
                engine_for_extent(tile.clip.width(), tile.clip.height(), config.pitch).unwrap();
            let out = CardOpc::new(config)
                .optimize_with_engine(&tile.clip, &engine)
                .unwrap();
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            let mut control_points = 0usize;
            for p in out.shapes.iter().flat_map(|s| s.spline.control_points()) {
                for byte in [p.x, p.y]
                    .into_iter()
                    .flat_map(|c| c.to_bits().to_le_bytes())
                {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
                control_points += 1;
            }
            assert_eq!((out.shapes.len(), control_points), sizes, "{mode:?}");
            assert_eq!(
                (out.mrc_initial_violations, out.mrc_remaining),
                violations,
                "{mode:?}"
            );
            assert_eq!(hash, want, "{mode:?}: control points moved: {hash:#018x}");
        }
    }
    simd::force_mode(None);
}

/// Golden of the correction + MRC stages on a real logic tile: tile 0 of
/// `cardopc --design gcd --crop 8192` at the CLI defaults, through
/// `optimize_with_engine`. The shape, control-point and violation counts
/// date from the commit *before* the resolver's check became incremental
/// (PR 14); the two control-point hashes pin the post-PR-19 numerics — the
/// band-limited SOCS pipeline (PR 15) and then the Hermitian-aware image
/// passes (PR 19: half the forward columns by conjugate mirror, half the
/// upsample rows, two real columns per inverse) each moved every aerial
/// image in the last bits (~1e-16) and the counts did not move. PR 19's
/// hashes were re-pinned only after every control point of the parent
/// build had been dumped and compared: max |Δ| 2.5e-10 nm on this tile
/// (AVX2; 1.5e-10 scalar). The AVX2 compilation has since been made to
/// round like the plain one, so the plain hash is the only one left and
/// holds in both dispatch modes. The MRC resolver's move from trial moves
/// to projection rounds re-pinned the remaining count (76 → 23) and the
/// hash; the shape, control-point and initial-violation counts did not
/// move. Stages may get faster; every control point bit and both
/// violation counts must stay where they are.
#[test]
fn logic_tile_mrc_outcome_matches_pre_incremental_golden() {
    assert_logic_tile_goldens(0, &[((90, 6788), (281, 23), 0xa7b2_552c_be7f_f067)]);
}

/// The same golden for the other three tiles of the clip: the counts were
/// captured from the commit before the MRC world became sample-granular
/// (PR 18), the hashes re-pinned for PR 19's image numerics after the
/// parent comparison (max |Δ control point| 1.6e-10 / 1.4e-10 / 5.2e-11 nm
/// on tiles 1–3 under AVX2, 3.9e-10 / 2.1e-10 / 4.8e-11 nm scalar; every
/// count identical); the scalar hashes now hold in both modes. The
/// projection resolver re-pinned the remaining counts (383 → 39, 95 → 72,
/// 85 → 37) and the hashes. Tile 1 starts with 4× tile 0's violations, so
/// far more projection rounds' moves stand behind its control points.
#[test]
fn logic_tiles_1_to_3_mrc_outcome_matches_pre_sample_granular_golden() {
    assert_logic_tile_goldens(
        1,
        &[
            ((93, 6934), (1215, 39), 0x4068_523c_dc87_910b),
            ((94, 6714), (156, 72), 0x7538_07e4_665f_e8b6),
            ((90, 6532), (522, 37), 0x9cdb_f3c4_4666_8b82),
        ],
    );
}
