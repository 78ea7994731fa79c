//! A counting, timing [`StoreIo`] that forwards every call unchanged to
//! an inner implementation — the durable layer's ledger, taken at the
//! one seam the store exposes.

use crate::trace::Tracer;
use agebo_core::StoreIo;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// What the wrapper saw. Shared with the caller through an `Arc`,
/// because the store takes its `StoreIo` by `Box`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct IoLedger {
    pub busy_s: f64,
    pub fsyncs: u64,
    pub renames: u64,
    pub appends: u64,
    pub bytes_appended: u64,
    /// Milliseconds of each `sync_file` / `sync_dir`.
    pub sync_ms: Vec<f64>,
}

pub struct CountingIo<I> {
    inner: I,
    ledger: Arc<Mutex<IoLedger>>,
    trace: Option<(Arc<Tracer>, u64)>,
}

impl<I: StoreIo> CountingIo<I> {
    /// Wraps `inner`; with `trace = Some((tracer, parent))` every call
    /// also becomes a `durable.*` span under `parent`.
    pub fn new(inner: I, trace: Option<(Arc<Tracer>, u64)>) -> (Self, Arc<Mutex<IoLedger>>) {
        let ledger = Arc::new(Mutex::new(IoLedger::default()));
        (
            CountingIo {
                inner,
                ledger: Arc::clone(&ledger),
                trace,
            },
            ledger,
        )
    }

    fn timed<R>(
        &mut self,
        name: &'static str,
        bytes: usize,
        op: impl FnOnce(&mut I) -> R,
        account: impl FnOnce(&mut IoLedger, f64),
    ) -> R {
        let t0 = std::time::Instant::now();
        let out = match &self.trace {
            Some((tracer, parent)) => {
                let inner = &mut self.inner;
                tracer
                    .time(Some(*parent), name, vec![("bytes", bytes as f64)], || {
                        op(inner)
                    })
                    .0
            }
            None => op(&mut self.inner),
        };
        let secs = t0.elapsed().as_secs_f64();
        let mut ledger = self.ledger.lock().expect("io ledger lock poisoned");
        ledger.busy_s += secs;
        account(&mut ledger, secs);
        out
    }
}

impl<I: StoreIo> StoreIo for CountingIo<I> {
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed("durable.read", 0, |io| io.read(path), |_, _| {})
    }

    fn write_all(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.timed(
            "durable.write_all",
            data.len(),
            |io| io.write_all(path, data),
            |_, _| {},
        )
    }

    fn append(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.timed(
            "durable.append",
            data.len(),
            |io| io.append(path, data),
            |l, _| {
                l.appends += 1;
                l.bytes_appended += data.len() as u64;
            },
        )
    }

    fn sync_file(&mut self, path: &Path) -> io::Result<()> {
        self.timed(
            "durable.sync_file",
            0,
            |io| io.sync_file(path),
            |l, secs| {
                l.fsyncs += 1;
                l.sync_ms.push(secs * 1e3);
            },
        )
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(
            "durable.rename",
            0,
            |io| io.rename(from, to),
            |l, _| l.renames += 1,
        )
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        self.timed(
            "durable.sync_dir",
            0,
            |io| io.sync_dir(dir),
            |l, secs| {
                l.fsyncs += 1;
                l.sync_ms.push(secs * 1e3);
            },
        )
    }

    fn exists(&mut self, path: &Path) -> bool {
        self.timed("durable.exists", 0, |io| io.exists(path), |_, _| {})
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.timed(
            "durable.truncate",
            0,
            |io| io.truncate(path, len),
            |_, _| {},
        )
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        self.timed(
            "durable.remove_file",
            0,
            |io| io.remove_file(path),
            |_, _| {},
        )
    }

    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        self.timed(
            "durable.create_dir_all",
            0,
            |io| io.create_dir_all(dir),
            |_, _| {},
        )
    }

    fn list_dir(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        self.timed("durable.list_dir", 0, |io| io.list_dir(dir), |_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agebo_core::{
        CachePolicy, CheckpointMeta, DurableStore, EvalRecord, FaultPlan, RealIo, RunHeader,
        Variant,
    };
    use agebo_dataparallel::DataParallelHp;
    use agebo_searchspace::ArchVector;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn header() -> RunHeader {
        RunHeader {
            dataset: "covertype".into(),
            profile: "test".into(),
            seed: 1,
            variant: Variant::agebo(),
            wall_time: 100.0,
            workers: 4,
            failure_rate: 0.0,
            chaos: FaultPlan::none(),
            cache: CachePolicy::Replay,
            checkpoint_every: 2,
            fingerprint: 0,
            surrogate_window: 0,
            bo_trees: 8,
            bo_candidates: 32,
        }
    }

    fn record(id: u64) -> EvalRecord {
        EvalRecord {
            id,
            arch: ArchVector(vec![1, 2, 3]),
            hp: DataParallelHp {
                bs1: 64,
                lr1: 0.01,
                n: 2,
            },
            objective: 0.5 + id as f64 * 1e-3,
            submitted_at: id as f64,
            finished_at: id as f64 + 1.0,
            duration: 1.0,
            cache_hit: false,
        }
    }

    /// Drives one store through create → two checkpoints → compaction.
    fn drive(io: Box<dyn StoreIo>, dir: &Path) {
        let mut store = DurableStore::create(io, dir, header()).expect("create");
        let meta = CheckpointMeta {
            sim: 1.0,
            n_failed: 0,
            n_cache_hits: 0,
            in_flight: 1,
        };
        store
            .append_checkpoint(&[record(0), record(1)], meta)
            .expect("append");
        store.append_checkpoint(&[record(2)], meta).expect("append");
        store.retain_latest().expect("retain");
    }

    fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .expect("store dir")
            .map(|e| e.expect("dir entry").path())
            .map(|p| {
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("agebo-benchmark-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn counting_io_leaves_the_same_bytes_on_disk_as_bare_real_io() {
        let (bare, counted) = (scratch("bare"), scratch("counted"));
        drive(Box::new(RealIo), &bare);
        let tracer = Arc::new(Tracer::default());
        let (io, ledger) = CountingIo::new(RealIo, Some((Arc::clone(&tracer), 7)));
        drive(Box::new(io), &counted);

        assert_eq!(files(&bare), files(&counted));
        let ledger = ledger.lock().unwrap().clone();
        assert_eq!(ledger.appends, 2);
        assert!(ledger.bytes_appended > 0);
        assert!(ledger.fsyncs >= 2 && ledger.renames >= 2);
        assert_eq!(ledger.sync_ms.len() as u64, ledger.fsyncs);
        // Every forwarded call is one span under the given parent.
        let spans = tracer.spans();
        assert!(spans
            .iter()
            .all(|s| s.parent == Some(7) && s.name.starts_with("durable.")));
        assert_eq!(
            spans.iter().filter(|s| s.name == "durable.append").count(),
            2
        );
        let _ = std::fs::remove_dir_all(&bare);
        let _ = std::fs::remove_dir_all(&counted);
    }
}
