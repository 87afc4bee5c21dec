//! Wire format of the correction service: JSON job requests parsed into
//! runtime inputs, with *non-panicking* validation.
//!
//! The parsing/validation core (design recipe, tiling, OPC presets and
//! overrides, run-dir sanitisation) lives in [`cardopc_fleet::spec`] so
//! the HTTP job format and the fleet work-unit format can never drift
//! apart; this module re-exports it and adds the job-level envelope
//! (`run_dir`, `max_tiles`, `cache`).
//!
//! A job request looks like:
//!
//! ```json
//! {
//!   "design": {"kind": "gcd", "tiles": 1, "crop": 2048.0},
//!   "tiling": {"tile": 1024.0, "halo": 512.0},
//!   "opc": {"preset": "large_scale", "pitch": 8.0, "iterations": 4},
//!   "run_dir": "smoke",
//!   "max_tiles": 3,
//!   "cache": true
//! }
//! ```
//!
//! `design` is required; everything else defaults to the CLI's `--quick`
//! geometry-free equivalents (`large_scale` preset, 4096 nm tiles,
//! 1024 nm halo). `run_dir` is a *name*, resolved under the server's run
//! root — submitting the same name again resumes that checkpoint.
//!
//! A job may instead reference an uploaded GDSII file:
//!
//! ```json
//! {"design": {"gds": "chip.gds", "layer": "5:0", "crop": 4096.0}}
//! ```
//!
//! `design.gds` is a file *name* resolved under the same run root (the
//! same character set and confinement rules as `run_dir`), so a request
//! can never read a file outside the server's directory.

use cardopc_fleet::spec::{
    parse_design_with_root, parse_opc, parse_tiling, reject_unknown, sanitize_run_dir,
};
pub use cardopc_fleet::spec::{validate, BadRequest, MAX_DESIGN_TILES};
use cardopc_fleet::WorkSpec;
use cardopc_json::Json;
use cardopc_layout::Clip;
use cardopc_opc::OpcConfig;
use cardopc_runtime::{RunConfig, TilingConfig};
use std::path::Path;

/// Most tiles a single job's partition may hold. Generated designs are
/// bounded by `MAX_DESIGN_TILES`, but an uploaded GDS can claim any die
/// size — without a cap a corrupt file could demand a multi-metre
/// partition and stall the executor before the first tile corrects.
pub const MAX_JOB_TILES: usize = 65_536;

/// A validated job specification.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The input clip.
    pub clip: Clip,
    /// The runtime configuration (with `run_dir` already resolved under
    /// the server's run root).
    pub config: RunConfig,
    /// The `run_dir` name as submitted, if any (echoed in job status).
    pub run_dir_name: Option<String>,
    /// Whether this job may use the server's shared tile cache (default
    /// `true`; `"cache": false` opts a single job out).
    pub cache: bool,
    /// The same job as a fleet work unit, for distribution to registered
    /// workers (every HTTP job is expressible as one — the clip above is
    /// `work.build_clip()`).
    pub work: WorkSpec,
}

/// Parses and validates a `POST /v1/jobs` body.
///
/// # Errors
///
/// A human-readable message for any malformed, out-of-range, or unknown
/// field; the caller answers 400 and never constructs runtime state.
pub fn parse_job(body: &str, run_root: &Path) -> Result<JobSpec, BadRequest> {
    let json = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let Json::Obj(_) = &json else {
        return Err("request body must be a JSON object".into());
    };
    reject_unknown(
        &json,
        &["design", "tiling", "opc", "run_dir", "max_tiles", "cache"],
    )?;

    // GDS paths in the wire format are names resolved under the server's
    // run root, exactly like `run_dir` — a request can never read outside
    // it.
    let design = parse_design_with_root(
        json.get("design")
            .ok_or("missing required field 'design'")?,
        Some(run_root),
    )?;
    let clip = design.build_clip()?;

    let tiling = match json.get("tiling") {
        Some(t) => parse_tiling(t)?,
        None => TilingConfig {
            tile_size: 4096.0,
            halo: 1024.0,
        },
    };

    let tiles_x = (clip.width() / tiling.tile_size).ceil().max(1.0);
    let tiles_y = (clip.height() / tiling.tile_size).ceil().max(1.0);
    if tiles_x * tiles_y > MAX_JOB_TILES as f64 {
        return Err(format!(
            "design and tiling produce {tiles_x}x{tiles_y} tiles \
             (cap {MAX_JOB_TILES}); enlarge 'tiling.tile' or crop the design"
        ));
    }

    let opc = match json.get("opc") {
        Some(o) => parse_opc(o)?,
        None => OpcConfig::large_scale(),
    };
    validate(&opc)?;

    let run_dir_name = match json.get("run_dir") {
        None | Some(Json::Null) => None,
        Some(v) => Some(sanitize_run_dir(
            v.as_str().ok_or("'run_dir' must be a string")?,
        )?),
    };
    let max_tiles = match json.get("max_tiles") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let n = v
                .as_usize()
                .ok_or("'max_tiles' must be a non-negative integer")?;
            if n == 0 {
                return Err("'max_tiles' must be at least 1".into());
            }
            Some(n)
        }
    };
    let cache = match json.get("cache") {
        None | Some(Json::Null) => true,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err("'cache' must be a boolean".into()),
    };

    Ok(JobSpec {
        clip,
        config: RunConfig {
            opc: opc.clone(),
            tiling,
            run_dir: run_dir_name.as_ref().map(|name| run_root.join(name)),
            max_tiles,
        },
        run_dir_name,
        cache,
        work: WorkSpec {
            design,
            tiling,
            opc,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn root() -> PathBuf {
        PathBuf::from("/tmp/run-root")
    }

    #[test]
    fn minimal_job_parses_with_defaults() {
        let spec = parse_job(r#"{"design": {"kind": "gcd"}}"#, &root()).unwrap();
        assert_eq!(spec.config.tiling.tile_size, 4096.0);
        assert_eq!(spec.config.tiling.halo, 1024.0);
        assert_eq!(spec.config.opc.iterations, 10);
        assert!(spec.config.run_dir.is_none());
        assert!(spec.config.max_tiles.is_none());
        assert!(spec.cache, "cache defaults on");
        assert!(!spec.clip.targets().is_empty());
        assert_eq!(spec.work.opc, spec.config.opc, "work spec mirrors the job");
        assert_eq!(spec.work.build_clip().unwrap().name(), spec.clip.name());
    }

    #[test]
    fn a_crop_wider_than_the_design_is_the_whole_design() {
        // The whole 30 µm tile (8×8 tiles of 4096 nm), not a window of
        // empty space whose tile count is over the cap.
        let whole = parse_job(r#"{"design": {"kind": "gcd"}}"#, &root()).unwrap();
        for crop in ["40000", "1e12", "1e30"] {
            let body = format!(r#"{{"design": {{"kind": "gcd", "crop": {crop}}}}}"#);
            let spec = parse_job(&body, &root()).unwrap();
            assert_eq!(spec.clip, whole.clip, "{crop}");
        }
    }

    #[test]
    fn cache_opt_out_parses() {
        let spec = parse_job(r#"{"design": {"kind": "gcd"}, "cache": false}"#, &root()).unwrap();
        assert!(!spec.cache);
    }

    #[test]
    fn full_job_parses() {
        let body = r#"{
            "design": {"kind": "gcd", "tiles": 1, "crop": 2048.0},
            "tiling": {"tile": 1024.0, "halo": 512.0},
            "opc": {"preset": "large_scale", "pitch": 16.0, "iterations": 4},
            "run_dir": "smoke",
            "max_tiles": 3
        }"#;
        let spec = parse_job(body, &root()).unwrap();
        assert_eq!(spec.config.tiling.tile_size, 1024.0);
        assert_eq!(spec.config.opc.pitch, 16.0);
        assert_eq!(spec.config.opc.iterations, 4);
        assert_eq!(spec.config.run_dir, Some(root().join("smoke")));
        assert_eq!(spec.config.max_tiles, Some(3));
    }

    #[test]
    fn rejections_cover_every_field() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{}"#,
            r#"{"design": {"kind": "warp-core"}}"#,
            r#"{"design": {"kind": "gcd", "tiles": 0}}"#,
            r#"{"design": {"kind": "gcd", "tiles": 1000}}"#,
            r#"{"design": {"kind": "gcd", "crop": -5}}"#,
            r#"{"design": {"kind": "gcd"}, "tiling": {"tile": 0}}"#,
            r#"{"design": {"kind": "gcd"}, "tiling": {"halo": -1}}"#,
            // Uncropped gcd at 1 nm tiles → 30k×30k tiles, over the cap.
            r#"{"design": {"kind": "gcd"}, "tiling": {"tile": 1.0}}"#,
            r#"{"design": {"gds": "../escape.gds"}}"#,
            r#"{"design": {"gds": "nonexistent.gds"}}"#,
            r#"{"design": {"gds": "a.gds", "layer": "bogus"}}"#,
            r#"{"design": {"kind": "gcd"}, "opc": {"preset": "nope"}}"#,
            r#"{"design": {"kind": "gcd"}, "opc": {"pitch": 0}}"#,
            r#"{"design": {"kind": "gcd"}, "opc": {"iterations": 0}}"#,
            r#"{"design": {"kind": "gcd"}, "opc": {"mystery": 1}}"#,
            r#"{"design": {"kind": "gcd"}, "opc": {"precision": "f16"}}"#,
            r#"{"design": {"kind": "gcd"}, "opc": {"precision": 32}}"#,
            r#"{"design": {"kind": "gcd"}, "run_dir": "../escape"}"#,
            r#"{"design": {"kind": "gcd"}, "run_dir": ""}"#,
            r#"{"design": {"kind": "gcd"}, "run_dir": ".hidden"}"#,
            r#"{"design": {"kind": "gcd"}, "max_tiles": 0}"#,
            r#"{"design": {"kind": "gcd"}, "cache": "yes"}"#,
            r#"{"design": {"kind": "gcd"}, "surprise": true}"#,
        ] {
            assert!(parse_job(bad, &root()).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn precision_selects_the_simulation_backend() {
        use cardopc_litho::Precision;
        let spec = parse_job(r#"{"design": {"kind": "gcd"}}"#, &root()).unwrap();
        assert_eq!(spec.config.opc.precision, Precision::F64, "default is f64");
        let spec = parse_job(
            r#"{"design": {"kind": "gcd"}, "opc": {"precision": "f32"}}"#,
            &root(),
        )
        .unwrap();
        assert_eq!(spec.config.opc.precision, Precision::F32);
        assert_eq!(spec.work.opc.precision, Precision::F32);
        // The rejection message names the field so a 400 is actionable.
        let err = parse_job(
            r#"{"design": {"kind": "gcd"}, "opc": {"precision": "f16"}}"#,
            &root(),
        )
        .unwrap_err();
        assert!(err.contains("'opc.precision'"), "{err:?}");
    }

    #[test]
    fn run_dir_names_stay_inside_the_root() {
        let spec = parse_job(
            r#"{"design": {"kind": "gcd"}, "run_dir": "job_7.retry-2"}"#,
            &root(),
        )
        .unwrap();
        assert_eq!(spec.config.run_dir, Some(root().join("job_7.retry-2")));
    }

    #[test]
    fn validate_mirrors_assert_valid() {
        validate(&OpcConfig::via()).unwrap();
        validate(&OpcConfig::metal()).unwrap();
        validate(&OpcConfig::large_scale()).unwrap();
        let mut c = OpcConfig::via();
        c.move_step = 0.0;
        assert!(validate(&c).is_err());
        c = OpcConfig::via();
        c.pitch = f64::NAN;
        assert!(validate(&c).is_err());
    }
}
