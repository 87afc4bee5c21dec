//! Assertions shared by the cross-mode resume tests — a run dir started by
//! one executor (the local pool, the fleet coordinator) and finished by the
//! other — in `tests/runtime.rs` and `crates/fleet/tests/fleet.rs`.
//! Included with `#[path]`; the includer names the runtime crate `rt`.

use super::rt::{RunOutcome, TileEvent};
use std::path::Path;
use std::sync::Mutex;

/// A run's progress events, in arrival order: attach
/// `&|event| log.push(event)` as `RunControl::progress`.
#[derive(Default)]
pub struct EventLog(Mutex<Vec<TileEvent>>);

impl EventLog {
    pub fn push(&self, event: &TileEvent) {
        self.0.lock().unwrap().push(event.clone());
    }
}

/// One leg's progress contract: `finished` tiles of `total` each reported
/// once, `completed` counting exactly `1..=finished`, the `resumed` ones
/// first. Empties the log for the next leg.
pub fn assert_progress(log: &EventLog, resumed: usize, finished: usize, total: usize) {
    let mut events = std::mem::take(&mut *log.0.lock().unwrap());
    events.sort_by_key(|e| e.completed);
    let completed: Vec<usize> = events.iter().map(|e| e.completed).collect();
    assert_eq!(completed, (1..=finished).collect::<Vec<_>>());
    for event in &events {
        assert_eq!(event.total, total);
        assert_eq!(event.resumed, event.completed <= resumed, "{event:?}");
    }
    let mut tiles: Vec<usize> = events.iter().map(|e| e.tile).collect();
    tiles.sort_unstable();
    tiles.dedup();
    assert_eq!(tiles.len(), finished, "a tile was reported twice");
}

/// The leg that completed a run resumed from `run_dir` must be
/// indistinguishable from the uninterrupted `reference`: the same
/// timing-free manifest (returned and on disk), the same stitched shapes —
/// with `resumed` tiles taken from the directory, `executed` corrected now,
/// and the progress contract of [`assert_progress`].
pub fn assert_finished_like(
    reference: &RunOutcome,
    finished: &RunOutcome,
    run_dir: &Path,
    (resumed, executed): (usize, usize),
    log: &EventLog,
) {
    assert!(reference.complete && finished.complete);
    let stable = reference.manifest.to_json(false);
    assert_eq!(finished.manifest.to_json(false), stable);
    let on_disk = std::fs::read_to_string(run_dir.join("manifest.stable.json")).unwrap();
    assert_eq!(on_disk, stable);
    let want = reference.stitched.as_ref().unwrap();
    let got = finished.stitched.as_ref().unwrap();
    assert_eq!(got.mains, want.mains);
    assert_eq!(got.srafs, want.srafs);
    assert_eq!(got.seam_violations.len(), want.seam_violations.len());
    let manifest = &finished.manifest;
    assert_eq!((manifest.resumed, manifest.executed), (resumed, executed));
    let total = manifest.tiles.len();
    assert_eq!(resumed + executed, total);
    assert_progress(log, resumed, total, total);
}
