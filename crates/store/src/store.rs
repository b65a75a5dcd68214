//! The job directory: thousands of `.cytc` files behind an LRU of hot
//! handles.

use crate::{StoreError, StoreJob};
use cypress_obs::{Counter, Gauge};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Residency budgets for a [`JobStore`]. Defaults are unbounded.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Maximum simultaneously resident (charged) jobs.
    pub max_jobs: usize,
    /// Maximum total [`StoreJob::resident_bytes`] across resident jobs.
    pub max_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_jobs: usize::MAX,
            max_bytes: usize::MAX,
        }
    }
}

/// A point-in-time snapshot of store counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Opens served from an already-resident handle.
    pub hits: u64,
    /// Opens that found no ready handle (includes waiters that coalesced
    /// onto an in-flight load).
    pub misses: u64,
    /// Jobs unpinned to get back under budget.
    pub evictions: u64,
    /// Actual container loads performed (≤ misses when opens coalesce).
    pub loads: u64,
    /// Currently resident (charged) jobs.
    pub resident_jobs: usize,
    /// Sum of charged bytes across resident jobs.
    pub resident_bytes: usize,
}

/// The load slot for one job name. Concurrent opens of the same name share
/// the cell: exactly one performs the load, the rest block on `get_or_init`
/// and receive the same `Arc`.
type JobCell = Arc<OnceLock<Result<Arc<StoreJob>, String>>>;

struct Entry {
    cell: JobCell,
    /// Monotonic LRU tick of the last open.
    last_use: u64,
    /// Whether this entry's bytes are counted in the store totals. Set once
    /// after a successful load; in-flight loads are never eviction victims.
    charged: bool,
    /// Bytes charged at load time: a job holds nothing more once opened, so
    /// eviction gives back exactly this.
    charged_bytes: usize,
}

struct Inner {
    map: HashMap<String, Entry>,
    tick: u64,
    resident_jobs: usize,
    resident_bytes: usize,
}

// Scope `store`.
static HITS: Counter = Counter::new("store", "hits");
static MISSES: Counter = Counter::new("store", "misses");
static EVICTIONS: Counter = Counter::new("store", "evictions");
static LOADS: Counter = Counter::new("store", "loads");
static RESIDENT_BYTES: Gauge = Gauge::new("store", "resident_bytes");
static RESIDENT_JOBS: Gauge = Gauge::new("store", "resident_jobs");

/// A directory of `.cytc` jobs with bounded-residency caching.
///
/// Jobs are addressed by file stem (`<name>.cytc`). Opening a resident job
/// is a map lookup; opening a cold one loads and verifies the container,
/// charges its bytes against the budgets, and evicts least-recently-used
/// residents until back under budget. Eviction only unpins the store's
/// reference — readers holding the `Arc` keep a fully valid handle.
pub struct JobStore {
    root: PathBuf,
    cfg: StoreConfig,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    loads: AtomicU64,
}

impl JobStore {
    /// Open a store over `root` (must be an existing directory).
    pub fn new(root: impl Into<PathBuf>, cfg: StoreConfig) -> Result<JobStore, StoreError> {
        let root = root.into();
        if !root.is_dir() {
            return Err(StoreError::Invalid(format!(
                "store root {} is not a directory",
                root.display()
            )));
        }
        Ok(JobStore {
            root,
            cfg,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                resident_jobs: 0,
                resident_bytes: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            loads: AtomicU64::new(0),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.cytc"))
    }

    /// Whether a `.cytc` file for `name` exists (resident or not).
    pub fn contains(&self, name: &str) -> bool {
        validate_name(name).is_ok() && self.path_of(name).is_file()
    }

    /// All job names in the directory (sorted `.cytc` stems).
    pub fn list(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("cytc") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Open `name`, returning a shared handle. Hot jobs return without
    /// touching the filesystem; concurrent cold opens of the same name
    /// coalesce into a single load.
    pub fn open(&self, name: &str) -> Result<Arc<StoreJob>, StoreError> {
        validate_name(name)?;
        let (cell, was_hit) = {
            let mut g = self.inner.lock().expect("store lock");
            g.tick += 1;
            let tick = g.tick;
            match g.map.get_mut(name) {
                Some(e) => {
                    e.last_use = tick;
                    let hit = matches!(e.cell.get(), Some(Ok(_)));
                    (e.cell.clone(), hit)
                }
                None => {
                    if !self.path_of(name).is_file() {
                        self.note_miss();
                        return Err(StoreError::NotFound(name.to_string()));
                    }
                    let cell: JobCell = Arc::new(OnceLock::new());
                    g.map.insert(
                        name.to_string(),
                        Entry {
                            cell: cell.clone(),
                            last_use: tick,
                            charged: false,
                            charged_bytes: 0,
                        },
                    );
                    (cell, false)
                }
            }
        };
        if was_hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            HITS.inc();
        } else {
            self.note_miss();
        }

        let mut loaded_here = false;
        let result = cell.get_or_init(|| {
            loaded_here = true;
            self.loads.fetch_add(1, Ordering::Relaxed);
            LOADS.inc();
            StoreJob::open(&self.path_of(name), name)
                .map(Arc::new)
                .map_err(|e| e.to_string())
        });
        match result {
            Ok(job) => {
                let job = job.clone();
                if loaded_here {
                    self.charge_and_evict(name, &cell, &job);
                }
                Ok(job)
            }
            Err(msg) => {
                // Drop the failed entry so a later open retries the load
                // (e.g. after the file is rewritten). Guarded by cell
                // identity so we never remove a successful reload.
                let mut g = self.inner.lock().expect("store lock");
                if let Some(e) = g.map.get(name) {
                    if Arc::ptr_eq(&e.cell, &cell) && !e.charged {
                        g.map.remove(name);
                    }
                }
                Err(StoreError::Invalid(format!("open {name}: {msg}")))
            }
        }
    }

    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        MISSES.inc();
    }

    /// Charge a freshly loaded job against the budgets, then evict LRU
    /// residents (never the job just loaded, never in-flight loads) until
    /// back under budget.
    fn charge_and_evict(&self, name: &str, cell: &JobCell, job: &Arc<StoreJob>) {
        let mut g = self.inner.lock().expect("store lock");
        let Some(e) = g.map.get_mut(name) else {
            return;
        };
        if !Arc::ptr_eq(&e.cell, cell) || e.charged {
            return;
        }
        e.charged = true;
        e.charged_bytes = job.resident_bytes();
        let charged = e.charged_bytes;
        g.resident_jobs += 1;
        g.resident_bytes += charged;

        while g.resident_jobs > self.cfg.max_jobs || g.resident_bytes > self.cfg.max_bytes {
            let victim = g
                .map
                .iter()
                .filter(|(k, e)| e.charged && k.as_str() != name)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else {
                break; // nothing evictable; the one new job may exceed alone
            };
            let e = g.map.remove(&victim).expect("victim present");
            g.resident_jobs -= 1;
            g.resident_bytes -= e.charged_bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            EVICTIONS.inc();
        }
        RESIDENT_JOBS.set(g.resident_jobs as i64);
        RESIDENT_BYTES.set(g.resident_bytes as i64);
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let g = self.inner.lock().expect("store lock");
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            resident_jobs: g.resident_jobs,
            resident_bytes: g.resident_bytes,
        }
    }

    /// Names currently resident (charged), unordered. Test/diagnostic aid.
    pub fn resident_names(&self) -> Vec<String> {
        let g = self.inner.lock().expect("store lock");
        g.map
            .iter()
            .filter(|(_, e)| e.charged)
            .map(|(k, _)| k.clone())
            .collect()
    }
}

/// Job names are bare file stems: no path separators, no traversal, no
/// hidden files. Keeps `open("../../etc/passwd")` a clean error.
fn validate_name(name: &str) -> Result<(), StoreError> {
    if name.is_empty()
        || name.contains('/')
        || name.contains('\\')
        || name.contains('\0')
        || name.starts_with('.')
    {
        return Err(StoreError::Invalid(format!("invalid job name {name:?}")));
    }
    Ok(())
}
