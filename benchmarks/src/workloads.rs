//! The six end-to-end workloads: how each is prepared, run as a fresh
//! child process, and checked.
//!
//! Closed loop, one job at a time. Every timed run is a new process
//! measured from outside ([`crate::proc`]); CLI workloads spawn the real
//! release `cardopc` binary (design GDS in → `--run-dir` manifest +
//! `--out-gds` mask out), the library workload re-executes the harness.
//! Thread counts are pinned, never auto-detected.

use crate::inputs;
use crate::proc::{run_measured, ChildUsage};
use crate::util::{fnv1a, read_file, write_file};
use cardopc::gds::{parse_lib, GdsElement};
use cardopc::json::Json;
use cardopc::litho::Precision;
use cardopc::runtime::gdsout::DEFAULT_MASK_LAYER;
use cardopc::runtime::TilingConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Worker threads of every single-process workload (`--threads` and
/// `CARDOPC_THREADS`); the fleet workload runs 2 workers × 1 thread.
pub const THREADS: usize = 2;

/// Fresh children the set-up phase is timed in, at least; `setup_s` is
/// their median. Set-ups shorter than 0.2 s are probed more often (until
/// [`SETUP_PROBE_SECONDS`] have been spent, at most [`SETUP_PROBES_MAX`]
/// times): a 50 ms phase needs more samples for the same steadiness. The
/// driver form adds one probe after each timed run, up to
/// [`SETUP_PROBES_SPREAD_MAX`] in all, so the probes sample the host over
/// the whole invocation and not one second of it.
pub const SETUP_PROBES: usize = 5;
const SETUP_PROBES_MAX: usize = 15;
const SETUP_PROBE_SECONDS: f64 = 1.0;
/// Most probes one driver invocation makes, up front and after runs.
pub const SETUP_PROBES_SPREAD_MAX: usize = 30;

/// Input sizes. `QUICK` is the ~19 s smoke, never a measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sizes {
    /// Array edge in cells (and tiles).
    pub array_n: u16,
    /// Logic crop edge, nm.
    pub logic_crop: f64,
    /// How many of the 13 paper via clips run.
    pub via_clips: usize,
}

impl Sizes {
    /// The benchmark's sizes. The array edge is the issue's 96 cut to 64:
    /// at 96 one `array_fleet2` run took ~4 s, so a driver invocation got 4
    /// samples of a timing whose single runs spread 20 %, and the median of
    /// 4 was too unsteady for its bound. At 64 it gets 8.
    pub const FULL: Sizes = Sizes {
        array_n: 64,
        logic_crop: 8192.0,
        via_clips: 13,
    };
    /// The smoke-test sizes.
    pub const QUICK: Sizes = Sizes {
        array_n: 8,
        logic_crop: 2048.0,
        via_clips: 1,
    };
}

/// What a workload runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// The paper via clips through the library, in a harness child.
    Vias,
    /// The logic GDS through the CLI at its defaults.
    Logic(Precision),
    /// The array GDS, fresh run directory, in-memory tile cache.
    ArrayCold,
    /// The array GDS into an already completed run directory.
    ArrayResume,
    /// The array GDS sharded over two spawned worker processes.
    ArrayFleet2,
}

/// One workload of the benchmark.
#[derive(Debug)]
pub struct WorkloadSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
}

/// The workloads, in the order a round runs them.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "table1_vias",
        why: "Paper Table I path through the library: SRAFs, 32 iterations on 500x500 grids, \
              ROI-column aerials, evaluate_mask; the only workload where opc init/evaluate matter",
        kind: Kind::Vias,
    },
    WorkloadSpec {
        name: "logic_f64",
        why: "Irregular logic GDS at CLI defaults: 4 unique 768x768 tiles, 0 cache hits, so \
              litho, MRC resolve and engine build do the work and the runtime store does none",
        kind: Kind::Logic(Precision::F64),
    },
    WorkloadSpec {
        name: "logic_f32",
        why: "Same file with --precision f32: the same layers through the _ps kernels, so a gain \
              for one precision that costs the other shows",
        kind: Kind::Logic(Precision::F32),
    },
    WorkloadSpec {
        name: "array_cold",
        why:
            "64x64 AREF array: 4096 tiles, 9 cache misses; only those 9 are simulated (about half \
              the job), so flatten, key hashing, replay, checkpoint writes, seam MRC, manifest and \
              mask export are the rest",
        kind: Kind::ArrayCold,
    },
    WorkloadSpec {
        name: "array_resume",
        why: "Same job into a completed run dir (executed 0, no simulation): checkpoint reads, \
              per-tile hash validation, stitch and export; guards the store's read path",
        kind: Kind::ArrayResume,
    },
    WorkloadSpec {
        name: "array_fleet2",
        why: "Same job over 2 worker processes: spec/record JSON and HTTP dispatch per tile; \
              its distance to array_cold is the distribution tax",
        kind: Kind::ArrayFleet2,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Tiling of the array workloads (the CLI's `--tile 1024 --halo 512`).
pub const ARRAY_TILING: TilingConfig = TilingConfig {
    tile_size: inputs::ARRAY_STEP as f64,
    halo: 512.0,
};

/// Tiling of the logic workloads (the CLI defaults).
pub const LOGIC_TILING: TilingConfig = TilingConfig {
    tile_size: 4096.0,
    halo: 1024.0,
};

/// The binaries a session spawns.
#[derive(Clone, Debug)]
pub struct Binaries {
    /// This harness (`std::env::current_exe`).
    pub harness: PathBuf,
    /// The repository's release `cardopc` CLI.
    pub cardopc: PathBuf,
}

/// The job-level scores of one run, read from what it wrote.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scores {
    /// Σ|EPE| of the job, nm.
    pub epe_sum_nm: f64,
    /// PV-band area of the job, nm².
    pub pvb_nm2: f64,
    /// MRC violations left after resolving.
    pub mrc_remaining: f64,
}

/// One timed run that passed every check.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// What the child process tree used.
    pub usage: ChildUsage,
    /// What the job scored.
    pub scores: Scores,
}

/// Identity of a run's outputs: hashes of the timing-free manifest and of
/// the mask. Equal across every run of a workload, and across the three
/// array workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutputId {
    /// FNV-1a of `manifest.stable.json` (or the via summary).
    pub manifest: u64,
    /// FNV-1a of the mask GDS (0 for the via workload, which has none).
    pub mask: u64,
}

/// One workload being measured.
pub struct Session {
    /// The workload.
    pub spec: &'static WorkloadSpec,
    sizes: Sizes,
    bins: Binaries,
    dir: PathBuf,
    design: PathBuf,
    /// Outputs every run must reproduce: set by the first checked run (the
    /// untimed cold run, for `array_resume` / `array_fleet2`).
    pub reference: Option<OutputId>,
    /// Timed runs that passed every check.
    pub samples: Vec<Sample>,
    /// Set-up phase durations, seconds.
    pub setup_s: Vec<f64>,
    /// Timed runs attempted.
    pub attempted: usize,
    /// What went wrong, one line per failed run.
    pub failures: Vec<String>,
}

impl Session {
    /// Generates the workload's inputs from `seed` under `scratch` and
    /// does its untimed preparation (the array workloads that are compared
    /// against a cold run get that cold run here).
    pub fn prepare(
        spec: &'static WorkloadSpec,
        seed: u64,
        sizes: Sizes,
        scratch: &Path,
        bins: &Binaries,
    ) -> Result<Session, String> {
        let dir = scratch.join(spec.name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let design = dir.join("design.gds");
        match spec.kind {
            Kind::Vias => {}
            Kind::Logic(_) => write_file(&design, &inputs::logic_gds(seed, sizes.logic_crop)?)?,
            Kind::ArrayCold | Kind::ArrayResume | Kind::ArrayFleet2 => {
                write_file(&design, &inputs::array_gds(seed, sizes.array_n))?;
            }
        }
        let mut session = Session {
            spec,
            sizes,
            bins: bins.clone(),
            dir,
            design,
            reference: None,
            samples: Vec::new(),
            setup_s: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
        };
        if matches!(spec.kind, Kind::ArrayResume | Kind::ArrayFleet2) {
            let run_dir = session.dir.join("cold");
            let (_, id, _) = session
                .run_checked(Kind::ArrayCold, &run_dir)
                .map_err(|e| format!("{}: reference cold run: {e}", spec.name))?;
            session.reference = Some(id);
        }
        Ok(session)
    }

    /// Times the set-up phase in fresh harness children, up front.
    pub fn measure_setup(&mut self) -> Result<(), String> {
        while self.setup_s.len() < SETUP_PROBES
            || (self.setup_s.len() < SETUP_PROBES_MAX
                && self.setup_s.iter().sum::<f64>() < SETUP_PROBE_SECONDS)
        {
            self.probe_setup()?;
        }
        Ok(())
    }

    /// Times the set-up phase once more, in one fresh harness child.
    pub fn probe_setup(&mut self) -> Result<(), String> {
        let mut cmd = Command::new(&self.bins.harness);
        cmd.arg("child-setup").arg(self.spec.name);
        if self.spec.kind != Kind::Vias {
            cmd.arg(&self.design);
        }
        if self.spec.kind == Kind::ArrayResume {
            cmd.arg(self.dir.join("cold"));
        }
        cmd.env("CARDOPC_THREADS", THREADS.to_string());
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn child-setup: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let seconds = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success());
        self.setup_s.push(seconds.ok_or_else(|| {
            format!(
                "{}: child-setup failed ({}): {text}",
                self.spec.name, out.status
            )
        })?);
        Ok(())
    }

    /// One fresh-process run with every output check. `timed` runs count
    /// towards `attempted` and, when they pass, `samples`; an untimed run
    /// (the warm-up) is checked the same way but not recorded.
    pub fn run_once(&mut self, timed: bool) {
        if timed {
            self.attempted += 1;
        }
        let run_dir = match self.spec.kind {
            // The resume workload re-enters the completed cold directory.
            Kind::ArrayResume => self.dir.join("cold"),
            _ => self.dir.join("run"),
        };
        let outcome = self
            .run_checked(self.spec.kind, &run_dir)
            .and_then(|(usage, id, scores)| match self.reference {
                Some(reference) if reference != id => Err(format!(
                    "outputs differ from the reference run ({id:x?} vs {reference:x?})"
                )),
                _ => {
                    self.reference = Some(id);
                    Ok(Sample { usage, scores })
                }
            });
        match outcome {
            Ok(sample) if timed => self.samples.push(sample),
            Ok(_) => {}
            Err(e) => self
                .failures
                .push(format!("{} run {}: {e}", self.spec.name, self.attempted)),
        }
    }

    /// Runs `kind`'s command into `run_dir` and checks what it produced.
    fn run_checked(
        &self,
        kind: Kind,
        run_dir: &Path,
    ) -> Result<(ChildUsage, OutputId, Scores), String> {
        if kind != Kind::ArrayResume {
            // Everything but a resume starts from an empty run directory.
            match std::fs::remove_dir_all(run_dir) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("clear {}: {e}", run_dir.display())),
            }
        }
        let stdout_path = self.dir.join("stdout.txt");
        let stdout = std::fs::File::create(&stdout_path)
            .map_err(|e| format!("create {}: {e}", stdout_path.display()))?;
        let mut cmd = self.command(kind, run_dir);
        let stderr_path = self.dir.join("stderr.txt");
        let stderr = std::fs::File::create(&stderr_path)
            .map_err(|e| format!("create {}: {e}", stderr_path.display()))?;
        cmd.stdin(Stdio::null()).stdout(stdout).stderr(stderr);
        let usage = run_measured(&mut cmd).map_err(|e| format!("spawn: {e}"))?;
        if !usage.success() {
            let said = std::fs::read_to_string(&stderr_path).unwrap_or_default();
            let last = said.lines().last().unwrap_or("no stderr");
            return Err(format!("exit status {:?}: {last}", usage.exit_code));
        }
        let (id, scores) = self.check_outputs(kind, run_dir, &stdout_path)?;
        Ok((usage, id, scores))
    }

    fn command(&self, kind: Kind, run_dir: &Path) -> Command {
        if kind == Kind::Vias {
            let mut cmd = Command::new(&self.bins.harness);
            cmd.arg("child-vias")
                .arg(run_dir.join("vias.stable.json"))
                .arg(self.sizes.via_clips.to_string())
                .env("CARDOPC_THREADS", THREADS.to_string());
            return cmd;
        }
        let mut cmd = Command::new(&self.bins.cardopc);
        cmd.arg("--design")
            .arg(&self.design)
            .arg("--run-dir")
            .arg(run_dir)
            .arg("--out-gds")
            .arg(run_dir.join("mask.gds"));
        match kind {
            Kind::Vias => unreachable!("handled above"),
            Kind::Logic(precision) => {
                cmd.args(["--precision", precision.name()]);
            }
            Kind::ArrayCold | Kind::ArrayResume | Kind::ArrayFleet2 => {
                cmd.args(["--tile", &ARRAY_TILING.tile_size.to_string()]);
                cmd.args(["--halo", &ARRAY_TILING.halo.to_string()]);
            }
        }
        // The same two cores either way: 2 threads, or 2 workers x 1 thread.
        let threads = if kind == Kind::ArrayFleet2 {
            cmd.args(["--workers-local", "2"]);
            1
        } else {
            cmd.args(["--threads", &THREADS.to_string()]);
            THREADS
        };
        cmd.env("CARDOPC_THREADS", threads.to_string());
        cmd
    }

    /// Number of tiles the workload's partition has.
    fn tiles(&self, kind: Kind) -> usize {
        match kind {
            Kind::Vias => 0,
            Kind::Logic(_) => {
                let edge = (self.sizes.logic_crop / LOGIC_TILING.tile_size).ceil() as usize;
                edge * edge
            }
            _ => usize::from(self.sizes.array_n) * usize::from(self.sizes.array_n),
        }
    }

    /// The counts the CLI must print for `kind`.
    fn expected_counts(&self, kind: Kind) -> Vec<(&'static str, usize)> {
        let tiles = self.tiles(kind);
        // Corner, edge and interior windows: at most 3 classes per axis.
        let patterns = usize::from(self.sizes.array_n.min(3)).pow(2);
        let ran = [("executed", tiles), ("resumed", 0), ("remaining", 0)];
        match kind {
            Kind::Vias => Vec::new(),
            Kind::Logic(_) => [&ran[..], &[("hits", 0), ("misses", tiles)]].concat(),
            Kind::ArrayCold => [
                &ran[..],
                &[("hits", tiles - patterns), ("misses", patterns)],
            ]
            .concat(),
            Kind::ArrayResume => vec![
                ("executed", 0),
                ("resumed", tiles),
                ("remaining", 0),
                ("hits", 0),
                ("misses", 0),
            ],
            Kind::ArrayFleet2 => [
                &ran[..],
                &[
                    ("dispatched", tiles),
                    ("stolen", 0),
                    ("duplicates", 0),
                    ("redispatched", 0),
                    ("retired", 0),
                    ("recovered", 0),
                ],
            ]
            .concat(),
        }
    }

    fn check_outputs(
        &self,
        kind: Kind,
        run_dir: &Path,
        stdout_path: &Path,
    ) -> Result<(OutputId, Scores), String> {
        if kind == Kind::Vias {
            let bytes = read_file(&run_dir.join("vias.stable.json"))?;
            let (scores, _) = parse_totals(&String::from_utf8_lossy(&bytes))?;
            let id = OutputId {
                manifest: fnv1a(&bytes),
                mask: 0,
            };
            return Ok((id, scores));
        }

        let stdout = String::from_utf8_lossy(&read_file(stdout_path)?).into_owned();
        let counts = parse_cli_counts(&stdout);
        for (label, want) in self.expected_counts(kind) {
            match counts.get(label) {
                Some(&got) if got == want => {}
                got => return Err(format!("CLI printed {label} {got:?}, expected {want}")),
            }
        }

        let manifest = read_file(&run_dir.join("manifest.stable.json"))?;
        let (scores, shapes) = parse_totals(&String::from_utf8_lossy(&manifest))?;
        if !matches!(kind, Kind::Logic(_)) && shapes != inputs::array_targets(self.sizes.array_n) {
            return Err(format!("manifest owns {shapes} shapes, not the array's"));
        }
        let mask = read_file(&run_dir.join("mask.gds"))?;
        let id = OutputId {
            manifest: fnv1a(&manifest),
            mask: fnv1a(&mask),
        };
        // Re-reading the mask costs as much as a resume run; bytes that
        // hash like an already verified mask need no second parse.
        if self.reference.map(|r| r.mask) != Some(id.mask) {
            check_mask(&mask, shapes)?;
        }
        Ok((id, scores))
    }
}

/// Every `label number` pair on the CLI's summary lines (`executed 4
/// resumed 0 remaining 0`, `cache hits 0 misses 4`, `fleet dispatched …`),
/// keyed by label.
pub fn parse_cli_counts(stdout: &str) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for line in stdout.lines() {
        if !["executed ", "cache hits ", "fleet dispatched "]
            .iter()
            .any(|p| line.starts_with(p))
        {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        for pair in tokens.windows(2) {
            if let Ok(value) = pair[1].parse::<usize>() {
                counts.insert(pair[0].to_string(), value);
            }
        }
    }
    counts
}

/// Reads the job scores and the number of shapes the job owns out of a
/// timing-free manifest (or the via summary, which has the same `total`
/// object). An incomplete manifest is an error.
pub fn parse_totals(text: &str) -> Result<(Scores, usize), String> {
    let json = Json::parse(text).map_err(|e| format!("manifest is not JSON: {e}"))?;
    if json.get("complete").and_then(Json::as_bool) == Some(false) {
        return Err("manifest says the run is incomplete".into());
    }
    let total = json.get("total").ok_or("manifest has no 'total'")?;
    let number = |key: &str| {
        total
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("manifest total has no numeric '{key}'"))
    };
    let scores = Scores {
        epe_sum_nm: number("epe_sum_nm")?,
        pvb_nm2: number("pvb_nm2")?,
        mrc_remaining: number("mrc_remaining")?,
    };
    Ok((scores, number("shapes")? as usize))
}

/// The mask must re-read through the repository's own parser and hold one
/// main contour per target.
pub fn check_mask(bytes: &[u8], targets: usize) -> Result<(), String> {
    let lib = parse_lib(bytes).map_err(|e| format!("mask GDS does not parse: {e}"))?;
    let mains = lib
        .structs
        .iter()
        .flat_map(|s| &s.elements)
        .filter(|e| matches!(e, GdsElement::Boundary { layer, .. } if *layer == DEFAULT_MASK_LAYER))
        .count();
    if mains != targets {
        return Err(format!("mask GDS has {mains} mains for {targets} targets"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_summary_lines_parse_into_labelled_counts() {
        let stdout = "\
run: logic  grid 2x2  tile 4096 nm  halo 1024 nm  workers 2
    3 logic:1x1          90      53      2038.58     179         486464    85     1.53      run
  all complete                       209     11306.24     780        1834944   639     8.10
seam spacing violations: 0   wall 4.12 s   utilization 98%
executed 4 resumed 0 remaining 0
cache hits 0 misses 4
fleet dispatched 16 stolen 1 duplicates 0 redispatched 2 retired 0 recovered 3
manifest: rd1/manifest.json
";
        let counts = parse_cli_counts(stdout);
        let get = |k: &str| counts.get(k).copied();
        assert_eq!(get("executed"), Some(4));
        assert_eq!(get("resumed"), Some(0));
        assert_eq!(get("remaining"), Some(0));
        assert_eq!(get("hits"), Some(0));
        assert_eq!(get("misses"), Some(4));
        assert_eq!(get("dispatched"), Some(16));
        assert_eq!(get("stolen"), Some(1));
        assert_eq!(get("redispatched"), Some(2));
        assert_eq!(get("recovered"), Some(3));
        // Table rows and the wall-time line contribute nothing.
        assert_eq!(get("violations:"), None);
        assert_eq!(counts.len(), 11);
        assert!(parse_cli_counts("cardopc: error: boom\n").is_empty());
    }

    #[test]
    fn manifest_totals_parse_and_validate() {
        let text = r#"{"design":"logic","complete":true,"tiles":[],
            "total":{"shapes":209,"epe_sum_nm":11306.241040249837,"epe_violations":780,
            "pvb_nm2":1834944,"mrc_initial":2174,"mrc_remaining":639,"seam_violations":0}}"#;
        let (scores, shapes) = parse_totals(text).unwrap();
        assert_eq!(scores.epe_sum_nm, 11306.241040249837);
        assert_eq!(scores.pvb_nm2, 1_834_944.0);
        assert_eq!(scores.mrc_remaining, 639.0);
        assert_eq!(shapes, 209);
        assert!(parse_totals(&text.replace("true", "false"))
            .unwrap_err()
            .contains("incomplete"));
        assert!(parse_totals(&text.replace("pvb_nm2", "pvb")).is_err());
        assert!(parse_totals("{}").is_err());
        assert!(parse_totals("not json").is_err());
    }

    #[test]
    fn mask_check_counts_mains_on_the_mask_layer() {
        use cardopc::gds::GdsWriter;
        use cardopc::geometry::{Point, Polygon};
        let mut w = GdsWriter::new("M", 0.01).unwrap();
        w.begin_struct("TOP");
        let square = Polygon::rect(Point::new(0.0, 0.0), Point::new(50.0, 50.0));
        w.boundary(DEFAULT_MASK_LAYER, 0, &square).unwrap();
        w.boundary(DEFAULT_MASK_LAYER, 0, &square).unwrap();
        w.boundary(3, 0, &square).unwrap(); // an SRAF: not a main
        w.end_struct();
        let bytes = w.finish();
        assert!(check_mask(&bytes, 2).is_ok());
        assert!(check_mask(&bytes, 3).unwrap_err().contains("2 mains"));
        assert!(check_mask(&bytes[..bytes.len() / 2], 2).is_err());
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(workload(w.name).map(|f| f.kind), Some(w.kind));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!(workload("nope").is_none());
    }
}
