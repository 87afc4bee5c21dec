//! The run frame: what every tiled run does around correcting its tiles,
//! whether the executor is the local pool ([`crate::run_clip`]) or the
//! fleet coordinator (`cardopc_fleet::run_fleet`). DESIGN.md §7 has the
//! contract table.
//!
//! 1. **open** ([`RunStore::open`]): lock the run directory, load its
//!    records (tile lines placing entry lines, [`crate::checkpoint`]),
//!    open `tiles.jsonl` for appending;
//! 2. **resume / adopt** ([`Run::resume`], [`Run::adopt`]): a record whose
//!    input hash still matches its tile stands for that tile — from the
//!    run's own checkpoints (moved in, so each is placed once); a fleet
//!    worker's harvested entry line stands for every wanted tile of its
//!    key that it places on (each re-checkpointed);
//! 3. **budget** ([`Run::start`]): resumed tiles are reported first, then
//!    at most `max_tiles` wanted tiles, lowest index first, go to the
//!    executor, which owns nothing but its claim policy;
//! 4. **commit** ([`Run::commit`]): a finished tile's line is appended
//!    (after its key's entry line, the first time), then the tile is
//!    placed, counted and reported; the first failed append stops the run
//!    ([`Run::stopped`]);
//! 5. **conclude** ([`Run::finish`], [`RunStore::conclude`]): the
//!    index-sorted [`ScheduleOutcome`], the stitched mask (a complete
//!    run's shapes move into it), the manifests.

use crate::cache::CachedTile;
use crate::checkpoint::{Appender, RunDir, TileLine, TileRecord};
use crate::handle::{RunControl, TileEvent};
use crate::hash::TileHasher;
use crate::manifest::RunManifest;
use crate::partition::{Partition, Tile};
use crate::schedule::{ScheduleOutcome, TileResult};
use crate::stitch::{stitch, Stitched};
use crate::RuntimeError;
use cardopc_litho::span::{span, tile_span};
use cardopc_litho::WorkerPool;
use cardopc_mrc::MrcRules;
use cardopc_opc::OpcConfig;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::File;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Result of a concluded run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The run manifest (written to `run_dir/manifest.json` when the run
    /// completed and a run directory was configured).
    pub manifest: RunManifest,
    /// The stitched full-chip mask; `None` when the tile budget left the
    /// run incomplete.
    pub stitched: Option<Stitched>,
    /// Per-tile results, sorted by tile index. A complete run's records
    /// hold no shapes: they moved into `stitched`.
    pub results: Vec<TileResult>,
    /// `true` when every tile of the partition completed.
    pub complete: bool,
    /// `true` when the run stopped early because its
    /// [`RunHandle`](crate::RunHandle) was cancelled (the checkpointed
    /// tiles make it resumable).
    pub cancelled: bool,
}

impl RunOutcome {
    /// The outcome of a run [`RunStore::conclude`]d into `manifest` and
    /// `stitched`.
    pub fn new(
        manifest: RunManifest,
        stitched: Option<Stitched>,
        outcome: ScheduleOutcome,
    ) -> RunOutcome {
        RunOutcome {
            manifest,
            stitched,
            complete: outcome.remaining == 0,
            cancelled: outcome.cancelled,
            results: outcome.results,
        }
    }
}

/// A run's checkpoint store, opened: the locked directory, the records it
/// held and the append handle. All empty without a run directory.
#[derive(Debug)]
pub struct RunStore {
    dir: Option<RunDir>,
    /// The last parseable record per tile index (hashes not yet checked);
    /// a run takes them by value ([`Run::resume`]).
    pub checkpoints: HashMap<usize, TileRecord>,
    /// `tiles.jsonl`, open for appending.
    pub sink: Option<File>,
}

impl RunStore {
    /// Opens `run_dir` (creating and locking it) and loads its records;
    /// `None` disables checkpointing.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] / [`RuntimeError::Locked`] from the directory.
    pub fn open(run_dir: Option<&Path>) -> Result<RunStore, RuntimeError> {
        let dir = run_dir.map(RunDir::open).transpose()?;
        let (checkpoints, sink) = match &dir {
            Some(dir) => {
                let _span = span("checkpoint_load");
                (dir.load_records()?, Some(dir.append_handle()?))
            }
            None => Default::default(),
        };
        Ok(RunStore {
            dir,
            checkpoints,
            sink,
        })
    }

    /// Concludes a run: stitches a complete `outcome` (seam MRC under
    /// `rules`), builds the manifest and — complete runs with a directory
    /// only — writes `manifest.json` and its timing-free companion, which
    /// is byte-identical however the same input was executed.
    ///
    /// A complete run's shapes *move* into the stitched mask: its records
    /// keep index, hash, metrics and histories, and no shapes. An
    /// incomplete run's records keep theirs. Checkpoints still loaded (a
    /// run that borrowed them, [`Run::new`], copied what it resumed) are
    /// freed before the mask is built.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] when a manifest cannot be written.
    pub fn conclude(
        &mut self,
        design: &str,
        partition: &Partition,
        outcome: &mut ScheduleOutcome,
        rules: Option<&MrcRules>,
        workers: usize,
        start: Instant,
    ) -> Result<(RunManifest, Option<Stitched>), RuntimeError> {
        self.checkpoints = HashMap::new();
        let complete = outcome.remaining == 0;
        let stitched = complete.then(|| {
            let _span = span("stitch");
            let records = outcome.results.iter_mut().map(|r| &mut r.record);
            let shapes = records.flat_map(|r| std::mem::take(&mut r.shapes));
            stitch(partition, shapes, rules)
        });
        let _span = span("manifest");
        let wall = start.elapsed().as_secs_f64();
        let manifest =
            RunManifest::build(design, partition, outcome, stitched.as_ref(), workers, wall);
        if let (true, Some(dir)) = (complete, &self.dir) {
            dir.write_manifest(&manifest.to_json(true))?;
            dir.write_stable_manifest(&manifest.to_json(false))?;
        }
        Ok((manifest, stitched))
    }
}

/// What the executor's threads share under one lock.
struct Ledger<'a> {
    sink: Option<Appender<&'a mut File>>,
    /// Committed tiles, as they came.
    committed: Vec<TileResult>,
    /// The lowest-indexed tile whose correction failed.
    failure: Option<(usize, RuntimeError)>,
}

/// One run's bookkeeping between open and conclude (see the module docs).
pub struct Run<'a> {
    control: &'a RunControl<'a>,
    /// Per tile: its input hash while no record stands for it yet.
    wanted: Vec<Option<u64>>,
    /// Tiles a checkpointed or adopted record stands for.
    resumed: Vec<TileResult>,
    /// The first failed checkpoint append.
    append_error: OnceLock<RuntimeError>,
    ledger: Mutex<Ledger<'a>>,
}

impl<'a> Run<'a> {
    /// Hashes every tile of `partition` under `opc` and resumes those
    /// whose record in `checkpoints` still carries that hash, by value:
    /// each resumed record moves into the run (the store's copy, placed
    /// once). Finished tiles are appended to `sink` when one is given.
    pub fn resume(
        partition: &Partition,
        opc: &OpcConfig,
        mut checkpoints: HashMap<usize, TileRecord>,
        sink: Option<&'a mut File>,
        control: &'a RunControl<'a>,
    ) -> Run<'a> {
        let record = |index| checkpoints.remove(&index).map(Cow::Owned);
        Run::with_records(partition, opc, record, sink, control)
    }

    /// [`Run::resume`] from borrowed records: a resumed record is cloned.
    pub fn new(
        partition: &Partition,
        opc: &OpcConfig,
        checkpoints: &HashMap<usize, TileRecord>,
        sink: Option<&'a mut File>,
        control: &'a RunControl<'a>,
    ) -> Run<'a> {
        let record = |index| checkpoints.get(&index).map(Cow::Borrowed);
        Run::with_records(partition, opc, record, sink, control)
    }

    /// The one resume: hashes every tile, then offers each tile, in index
    /// order, the record `record` holds under its index.
    fn with_records<'r>(
        partition: &Partition,
        opc: &OpcConfig,
        mut record: impl FnMut(usize) -> Option<Cow<'r, TileRecord>>,
        sink: Option<&'a mut File>,
        control: &'a RunControl<'a>,
    ) -> Run<'a> {
        let mut run = Run {
            control,
            wanted: {
                let _span = span("tile_hash");
                input_hashes(partition, opc)
            },
            resumed: Vec::new(),
            append_error: OnceLock::new(),
            ledger: Mutex::new(Ledger {
                sink: sink.map(Appender::new),
                committed: Vec::new(),
                failure: None,
            }),
        };
        for tile in &partition.tiles {
            if let Some(record) = record(tile.index) {
                run.take(record);
            }
        }
        run
    }

    /// Lets `record` stand for its tile when the tile is still wanted and
    /// was hashed from the same input; a borrowed record is cloned then.
    fn take(&mut self, record: Cow<'_, TileRecord>) {
        let slot = self.wanted.get_mut(record.index);
        if let Some(slot) = slot.filter(|s| s.is_some_and(|hash| record.input_hash == hash)) {
            *slot = None;
            self.resumed.push(TileResult {
                record: record.into_owned(),
                resumed: true,
                cached: false,
            });
        }
    }

    /// Adopts the entry lines of a fleet worker's `GET /v1/records`: each
    /// wanted tile whose cache key (`keys`, by tile index) has an entry that
    /// places on it ([`TileLine::of`]) stands for that tile like a
    /// checkpoint and is re-checkpointed with it, so the next run resumes
    /// without asking. Returns how many tiles it adopted.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] when an append fails.
    pub fn adopt(
        &mut self,
        partition: &Partition,
        keys: &[u64],
        lines: &str,
    ) -> Result<usize, RuntimeError> {
        let entries: HashMap<u64, (CachedTile, &str)> = lines
            .lines()
            .filter_map(|l| CachedTile::from_json_line(l).ok().map(|(k, e)| (k, (e, l))))
            .collect();
        let mut adopted = 0;
        for (tile, &key) in partition.tiles.iter().zip(keys) {
            let found = entries.get(&key).zip(self.wanted[tile.index]);
            let Some(((entry, entry_line), hash)) = found else {
                continue;
            };
            let Some(line) = TileLine::of(tile, partition, hash, key, 0.0, entry) else {
                continue;
            };
            let text = line.to_json_line();
            self.take(Cow::Owned(line.place(entry)));
            adopted += 1;
            let ledger = self.ledger.get_mut();
            if let Some(sink) = &mut ledger.unwrap_or_else(PoisonError::into_inner).sink {
                sink.append(key, Some(entry_line), &text)?;
            }
        }
        Ok(adopted)
    }

    /// Ends the resume phase: reports every resumed or adopted tile in
    /// index order — so an observer's `completed` counter is monotonic from
    /// 1 — and returns the tiles to execute as `(tile index, input hash)`,
    /// lowest index first, at most `max_tiles` of them.
    pub fn start(&mut self, max_tiles: Option<usize>) -> Vec<(usize, u64)> {
        self.resumed.sort_unstable_by_key(|r| r.record.index);
        if let Some(progress) = self.control.progress {
            for (done, r) in self.resumed.iter().enumerate() {
                progress(&event(r, done + 1, self.wanted.len()));
            }
        }
        let todo = self.wanted.iter().enumerate();
        todo.filter_map(|(index, hash)| Some((index, (*hash)?)))
            .take(max_tiles.unwrap_or(usize::MAX))
            .collect()
    }

    /// `true` once the executor must claim no more tiles: the run's handle
    /// was cancelled, or a checkpoint append failed. Tiles in flight still
    /// finish and commit, so a stopped run resumes like a budgeted one.
    pub fn stopped(&self) -> bool {
        self.control.cancelled() || self.append_error.get().is_some()
    }

    /// Commits a finished tile — its `line`, the `entry` it places, whether
    /// that was a cache replay: appends the tile line (after its key's
    /// entry line, in one write, while the key is new to this run), then
    /// places, counts and reports it. The lines are encoded before the lock
    /// is taken — the entry only while its key looks new. A failed append
    /// is latched — the tile stays uncommitted and the run
    /// [`stopped`](Run::stopped).
    pub fn commit(&self, line: TileLine, entry: &CachedTile, cached: bool) {
        let _span = tile_span("commit", line.index);
        let key = line.key;
        // Without a sink `None`; else whether the key's entry is still due.
        let wants_entry = self.lock().sink.as_ref().map(|s| s.wants_entry(key));
        let lines = wants_entry.map(|wants| {
            let entry = wants.then(|| entry.to_json_line(key));
            (entry, line.to_json_line())
        });
        let result = TileResult {
            record: line.place(entry),
            resumed: false,
            cached,
        };
        let mut guard = self.lock();
        let ledger = &mut *guard;
        if let (Some(sink), Some((entry, text))) = (&mut ledger.sink, &lines) {
            if let Err(e) = sink.append(key, entry.as_deref(), text) {
                let _ = self.append_error.set(e);
                return;
            }
        }
        let completed = self.resumed.len() + ledger.committed.len() + 1;
        let progress = self.control.progress;
        let report = progress.map(|p| (p, event(&result, completed, self.wanted.len())));
        ledger.committed.push(result);
        drop(guard);
        if let Some((progress, event)) = report {
            progress(&event);
        }
    }

    /// Records that `tile`'s correction failed. The run goes on — every
    /// other tile still runs and checkpoints — and [`Run::finish`]
    /// surfaces the lowest-indexed failure, whatever the claim order.
    pub fn fail(&self, tile: usize, error: RuntimeError) {
        let mut ledger = self.lock();
        if ledger.failure.as_ref().is_none_or(|(t, _)| tile < *t) {
            ledger.failure = Some((tile, error));
        }
    }

    /// Assembles the outcome, results sorted by tile index.
    ///
    /// # Errors
    ///
    /// The first checkpoint append failure, else the lowest-indexed tile
    /// failure.
    pub fn finish(self) -> Result<ScheduleOutcome, RuntimeError> {
        let ledger = self.ledger.into_inner();
        let ledger = ledger.unwrap_or_else(PoisonError::into_inner);
        let failure = ledger.failure.map(|(_, e)| e);
        if let Some(e) = self.append_error.into_inner().or(failure) {
            return Err(e);
        }
        let by_index = |r: &TileResult| r.record.index;
        let (mut results, mut committed) = (self.resumed, ledger.committed);
        committed.sort_unstable_by_key(by_index);
        let (resumed, executed) = (results.len(), committed.len());
        let cache_hits = committed.iter().filter(|r| r.cached).count();
        // From +0.0: `f64::sum` of nothing is -0.0, which a fully resumed
        // run would report as `"tile_seconds":-0`.
        let tile_seconds = committed.iter().fold(0.0, |sum, r| sum + r.record.seconds);
        results.append(&mut committed);
        results.sort_unstable_by_key(by_index);
        Ok(ScheduleOutcome {
            remaining: self.wanted.len() - results.len(),
            executed,
            resumed,
            tile_seconds,
            cache_hits,
            cache_misses: match self.control.cache {
                Some(_) => executed - cache_hits,
                None => 0,
            },
            cancelled: self.control.cancelled(),
            results,
        })
    }

    fn lock(&self) -> MutexGuard<'_, Ledger<'a>> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Every tile's input hash, by tile index (tiles sit at their own index),
/// hashed in lanes over the global pool.
fn input_hashes(partition: &Partition, opc: &OpcConfig) -> Vec<Option<u64>> {
    let tiles: Vec<&Tile> = partition.tiles.iter().collect();
    let hashes = TileHasher::input(opc).hash_on(WorkerPool::global(), &tiles);
    hashes.into_iter().map(Some).collect()
}

/// The progress event of a finished tile, the `completed`-th of `total`.
fn event(result: &TileResult, completed: usize, total: usize) -> TileEvent {
    TileEvent {
        tile: result.record.index,
        name: result.record.name.clone(),
        resumed: result.resumed,
        cached: result.cached,
        seconds: result.record.seconds,
        completed,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_clip, TilingConfig};
    use crate::{run_clip, run_tiles_controlled, RunConfig};
    use cardopc_geometry::{Point, Polygon};
    use cardopc_layout::Clip;
    use cardopc_litho::WorkerPool;
    use cardopc_opc::CardOpc;

    /// One wire per 512 nm tile of a 2×2 grid, the middle pair facing
    /// across a seam, and a cheap OPC configuration.
    fn four_wires() -> (Clip, TilingConfig, OpcConfig) {
        let wire =
            |x: f64, y: f64| Polygon::rect(Point::new(x, y), Point::new(x + 260.0, y + 70.0));
        let targets = vec![
            wire(120.0, 200.0),
            wire(560.0, 240.0),
            wire(150.0, 700.0),
            wire(600.0, 760.0),
        ];
        let clip = Clip::new("move-test", 1024.0, 1024.0, targets);
        let tiling = TilingConfig {
            tile_size: 512.0,
            halo: 256.0,
        };
        let mut opc = OpcConfig::large_scale();
        opc.iterations = 2;
        opc.pitch = 16.0;
        (clip, tiling, opc)
    }

    /// Resuming from records the run owns gives what resuming from
    /// borrowed ones does: the same tiles resumed (a stale record's and a
    /// missing one's re-executed), the same records, the same budget cut.
    #[test]
    fn an_owned_resume_is_the_borrowed_resume() {
        let (clip, tiling, opc) = four_wires();
        let partition = partition_clip(&clip, &tiling).unwrap();
        let (pool, flow) = (WorkerPool::new(2), CardOpc::new(opc));
        let control = RunControl::default();
        let run = |checkpoints: Option<HashMap<usize, TileRecord>>, borrowed: bool, budget| {
            let checkpoints = checkpoints.unwrap_or_default();
            let outcome = match borrowed {
                true => run_tiles_controlled(
                    &partition,
                    &flow,
                    &pool,
                    &checkpoints,
                    budget,
                    None,
                    &control,
                ),
                false => crate::schedule::run_tiles_owned(
                    &partition,
                    &flow,
                    &pool,
                    checkpoints,
                    budget,
                    None,
                    &control,
                ),
            };
            outcome.unwrap()
        };
        let cold = run(None, true, None);
        let mut checkpoints: HashMap<usize, TileRecord> = cold
            .results
            .iter()
            .map(|r| (r.record.index, r.record.clone()))
            .collect();
        checkpoints.get_mut(&1).unwrap().input_hash ^= 1;
        checkpoints.remove(&2);
        for budget in [None, Some(1), Some(0)] {
            let borrowed = run(Some(checkpoints.clone()), true, budget);
            let owned = run(Some(checkpoints.clone()), false, budget);
            let counts = |o: &ScheduleOutcome| (o.executed, o.resumed, o.remaining);
            assert_eq!(counts(&owned), counts(&borrowed), "{budget:?}");
            assert_eq!(owned.resumed, 2);
            let tiles = |o: &ScheduleOutcome| {
                let tile = |r: &TileResult| {
                    // Executed tiles' seconds are this run's own.
                    let seconds = if r.resumed { r.record.seconds } else { 0.0 };
                    let record = TileRecord {
                        seconds,
                        ..r.record.clone()
                    };
                    (record, r.resumed, r.cached)
                };
                o.results.iter().map(tile).collect::<Vec<_>>()
            };
            assert_eq!(tiles(&owned), tiles(&borrowed), "{budget:?}");
        }
    }

    #[test]
    fn a_complete_run_moves_its_shapes_into_the_mask_and_a_partial_one_keeps_them() {
        let (clip, tiling, opc) = four_wires();
        assert!(opc.mrc.is_some(), "the seam pass must run");
        let pool = WorkerPool::new(2);
        let config = RunConfig::new(opc.clone(), tiling);

        let done = run_clip(&clip, &config, &pool).unwrap();
        assert!(done.complete);
        assert!(done.results.iter().all(|r| r.record.shapes.is_empty()));
        let partition = partition_clip(&clip, &tiling).unwrap();
        let none = HashMap::new();
        let control = RunControl::default();
        let flow = CardOpc::new(opc.clone());
        let unconcluded =
            run_tiles_controlled(&partition, &flow, &pool, &none, None, None, &control);
        let unconcluded = unconcluded.unwrap();
        let shapes = unconcluded
            .results
            .iter()
            .flat_map(|r| r.record.shapes.iter().cloned());
        let expected = stitch(&partition, shapes, opc.mrc.as_ref());
        assert_eq!(expected.mains.len(), 4);
        assert_eq!(done.stitched, Some(expected));

        let budget = RunConfig {
            max_tiles: Some(2),
            ..config
        };
        let partial = run_clip(&clip, &budget, &pool).unwrap();
        assert!(partial.stitched.is_none());
        assert_eq!(partial.results.len(), 2);
        for (kept, full) in partial.results.iter().zip(&unconcluded.results) {
            assert!(!kept.record.shapes.is_empty());
            assert_eq!(kept.record.shapes, full.record.shapes);
        }
    }
}
