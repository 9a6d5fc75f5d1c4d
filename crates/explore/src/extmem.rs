//! External-memory BFS: exploration past RAM with byte-identical reports.
//!
//! The resident engine ([`crate::search`]) holds the whole visited set in
//! [`ShardedFpMap`] and the whole frontier in partitioned `Vec`s; at
//! 10⁷–10⁸ states that is gigabytes of tables, and the interesting
//! model-checking instances (the survey's arguments are only as convincing
//! as the spaces we can exhaust) go further. A [`SpillPolicy`] makes a
//! search spill *cold visited shards* — and optionally frontier partitions
//! — to deterministic per-shard run files, and stream them back per level,
//! without changing a single byte of the report.
//!
//! There is no second engine: a spilled search is the resident BFS level
//! loop run with a `DiskState` attached. This module holds that on-disk
//! half and the hooks the loop calls on it:
//!
//! * **Spill unit = shard, boundary = level.** When the resident visited
//!   set reaches [`SpillPolicy::ram_keys`] at a level boundary, every
//!   shard pages out via `FpMap::iter_ordered` (ascending stored key — the
//!   canonical order checkpoints already use) into a delta+varint
//!   [run page](crate::page) at `shard{k:03}.run{r:03}`, then clears. A
//!   key lives in RAM **or** in exactly one run file, never both: spilled
//!   keys are never re-inserted, because membership is probed before every
//!   commit.
//! * **Run-file membership.** Pass 2 of a level stages each shard's
//!   in-level-unique candidates and asks `ShardRuns::membership` which
//!   of them a run file already holds (sorted-merge over the run pages'
//!   key blocks — values never decoded); cap levels ask the same question
//!   for every child key before their j-major replay. `docs/EXTMEM.md`
//!   argues why both keep the resident engine's first-occurrence order.
//! * **Memory is accounted, not guessed.** [`crate::SearchStats::peak_bytes`]
//!   samples the resident formula (table slot arrays + frontier records at
//!   fixed widths) over what is actually resident, plus once more before
//!   each flush — deterministic integer accounting, no RSS syscall — so
//!   the spilled run's lower figure is directly comparable.
//!
//! What is *not* supported: collision audit (it keeps full states resident
//! by design) and pause/resume (a spilled run already has durable pages;
//! wiring `SearchCheckpoint` to reference them is follow-on work).
//! Witness replay works — parent links live in the run pages, and the
//! cold lookup walks them from disk.
//!
//! Run files are scratch, not durable artifacts: they are rewritten
//! wholesale per flush, a crash mid-write only aborts the search, and each
//! search must be given its own [`SpillPolicy`] directory. See
//! `docs/EXTMEM.md` for the full determinism argument and page layout.

use crate::fingerprint::Encode;
use crate::page::{
    decode_frontier_page, decode_run_page, encode_frontier_page, encode_run_page, run_page_keys,
};
use crate::persist::{Persist, PersistError};
use crate::search::{Parent, Search, SearchReport};
use crate::table::{key_of, shard_index, ShardedFpMap};
use impossible_core::system::System;
use impossible_obs::{NoopTracer, Tracer};
use std::path::PathBuf;

/// Where and when a spilled search writes to disk.
///
/// ```no_run
/// use impossible_explore::{Grid, Search, SpillPolicy};
///
/// // Doctests have no scratch dir; `tests/extmem_spill.rs` runs this for
/// // real under `CARGO_TARGET_TMPDIR`.
/// let sys = Grid { n: 3, max: 3 };
/// let policy = SpillPolicy::new("spill-scratch").ram_keys(50).spill_frontier(true);
/// let spilled = Search::new(&sys).explore_extmem(&policy);
/// let resident = Search::new(&sys).explore();
/// assert_eq!(spilled.num_states, resident.num_states);
/// assert_eq!(spilled.stats.dedup_hits, resident.stats.dedup_hits);
/// assert!(spilled.stats.peak_bytes < resident.stats.peak_bytes);
/// ```
#[derive(Debug, Clone)]
pub struct SpillPolicy {
    dir: PathBuf,
    ram_keys: usize,
    spill_frontier: bool,
}

impl SpillPolicy {
    /// Spill into `dir` (created on first use; must be private to one
    /// search) with a generous default resident budget of 2²⁰ visited keys
    /// and no frontier spilling.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillPolicy {
            dir: dir.into(),
            ram_keys: 1 << 20,
            spill_frontier: false,
        }
    }

    /// Flush visited shards to run files whenever the resident key count
    /// reaches `n` at a level boundary. `0` spills every level.
    pub fn ram_keys(mut self, n: usize) -> Self {
        self.ram_keys = n;
        self
    }

    /// Also page frontier partitions to disk between levels; pass-1
    /// workers stream their partitions back one at a time, so no level
    /// start holds the whole frontier resident.
    pub fn spill_frontier(mut self, on: bool) -> Self {
        self.spill_frontier = on;
        self
    }

    /// The spill directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// The resident visited-key budget.
    pub fn ram_keys_value(&self) -> usize {
        self.ram_keys
    }

    /// Whether frontier partitions page to disk between levels.
    pub fn spill_frontier_value(&self) -> bool {
        self.spill_frontier
    }
}

/// The on-disk half of a spilled search: run files per shard, paged
/// frontier partitions, and the key counts that keep `num_states` and the
/// cap exact without touching disk.
///
/// The page codecs are bound here, as plain function pointers, by the
/// external-memory entry points — the only callers that know the state and
/// action types implement [`Persist`]. The level loop they share with the
/// resident engine carries no such bound, because most model state types
/// have no byte codec.
pub(crate) struct DiskState<S, A> {
    dir: PathBuf,
    ram_keys: usize,
    spill_frontier: bool,
    /// Completed visited flushes (names the next run generation).
    flushes: usize,
    /// Run files per shard, in flush order. Key-disjoint by construction.
    pub(crate) shards: Vec<ShardRuns>,
    /// Total keys across all run files.
    pub(crate) spilled: usize,
    /// True when the *current* frontier lives in `front{k:03}.page` files.
    pub(crate) frontier_paged: bool,
    /// Per-partition lengths of the paged frontier (`frontier_paged` only).
    pub(crate) part_lens: Vec<usize>,
    encode_run: EncodePage<Parent<A>>,
    decode_run: DecodePage<Parent<A>>,
    encode_frontier: EncodePage<S>,
    decode_frontier: DecodePage<S>,
}

/// A page encoder over `(key, value)` entries, as [`crate::page`] defines.
type EncodePage<V> = fn(&[(u64, V)]) -> Vec<u8>;
/// The matching page decoder.
type DecodePage<V> = fn(&[u8]) -> Result<Vec<(u64, V)>, PersistError>;

/// One visited shard's run files, plus a reusable read buffer for its
/// membership probes: run files are re-read every level, and a fresh
/// `fs::read` allocation per file per level is pure churn. Deliberately
/// *not* counted in `peak_bytes` — the accounting formula covers table
/// slots and frontier records only.
#[derive(Default)]
pub(crate) struct ShardRuns {
    files: Vec<PathBuf>,
    buf: Vec<u8>,
}

impl ShardRuns {
    /// No run file holds a key of this shard yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Which of `sorted_keys` (sorted, unique stored keys) this shard's run
    /// files already hold: a sorted-merge against each run page's key
    /// block, values never decoded. Returns the matches, sorted.
    pub(crate) fn membership(&mut self, sorted_keys: &[u64]) -> Vec<u64> {
        use std::io::Read;
        let mut old = Vec::new();
        for path in &self.files {
            self.buf.clear();
            std::fs::File::open(path)
                .and_then(|mut f| f.read_to_end(&mut self.buf))
                .unwrap_or_else(|e| panic!("run read {}: {e}", path.display()));
            let run_keys = run_page_keys(&self.buf)
                .unwrap_or_else(|e| panic!("run page {}: {e}", path.display()));
            let (mut i, mut j) = (0usize, 0usize);
            while i < sorted_keys.len() && j < run_keys.len() {
                match sorted_keys[i].cmp(&run_keys[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        old.push(sorted_keys[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        // Runs are key-disjoint, but their key ranges interleave.
        old.sort_unstable();
        old
    }
}

impl<S, A: Clone> DiskState<S, A> {
    fn new(partitions: usize, policy: &SpillPolicy) -> Self
    where
        S: Persist,
        A: Persist,
    {
        std::fs::create_dir_all(policy.dir())
            .unwrap_or_else(|e| panic!("spill dir {}: {e}", policy.dir().display()));
        DiskState {
            dir: policy.dir().to_path_buf(),
            ram_keys: policy.ram_keys,
            spill_frontier: policy.spill_frontier,
            flushes: 0,
            shards: (0..partitions).map(|_| ShardRuns::default()).collect(),
            spilled: 0,
            frontier_paged: false,
            part_lens: vec![0; partitions],
            encode_run: encode_run_page::<Parent<A>>,
            decode_run: decode_run_page::<Parent<A>>,
            encode_frontier: encode_frontier_page::<S>,
            decode_frontier: decode_frontier_page::<S>,
        }
    }

    /// The level-boundary hook: flush the visited set once it has reached
    /// the resident budget, then page the next frontier out (unless the
    /// search just ended on a witness), leaving `next_parts` empty.
    pub(crate) fn end_level(
        &mut self,
        visited: &mut ShardedFpMap<Parent<A>>,
        next_parts: &mut [Vec<(u64, S)>],
        found: bool,
    ) {
        if visited.len() >= self.ram_keys {
            self.flush_visited(visited);
        }
        self.frontier_paged = self.spill_frontier && !found;
        if self.frontier_paged {
            self.store_frontier(next_parts);
            next_parts.iter_mut().for_each(|p| *p = Vec::new());
        }
    }

    /// Page every non-empty visited shard out as one run file and clear it.
    /// Probes keep spilled keys from ever being re-committed, so each key
    /// lands in exactly one run across the whole search.
    fn flush_visited(&mut self, visited: &mut ShardedFpMap<Parent<A>>) {
        let r = self.flushes;
        for (k, shard) in visited.shards_mut().iter_mut().enumerate() {
            if shard.is_empty() {
                continue;
            }
            let entries: Vec<(u64, Parent<A>)> = shard
                .iter_ordered()
                .map(|(key, v)| (key, v.clone()))
                .collect();
            let path = self.dir.join(format!("shard{k:03}.run{r:03}"));
            std::fs::write(&path, (self.encode_run)(&entries))
                .unwrap_or_else(|e| panic!("spill write {}: {e}", path.display()));
            self.shards[k].files.push(path);
            self.spilled += entries.len();
            shard.clear();
        }
        self.flushes += 1;
        visited.refresh_len();
    }

    /// Page the next frontier out, one file per non-empty partition
    /// (overwritten each level), keeping only the lengths resident.
    fn store_frontier(&mut self, parts: &[Vec<(u64, S)>]) {
        self.part_lens = parts.iter().map(Vec::len).collect();
        for (k, part) in parts.iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let path = self.frontier_path(k);
            std::fs::write(&path, (self.encode_frontier)(part))
                .unwrap_or_else(|e| panic!("frontier write {}: {e}", path.display()));
        }
    }

    /// Stream one paged frontier partition back, in its exact stored
    /// (traversal) order. `Persist` round trips are identities, so the
    /// decoded partition is the one the previous level produced.
    pub(crate) fn load_partition(&self, k: usize) -> Vec<(u64, S)> {
        if self.part_lens[k] == 0 {
            return Vec::new();
        }
        let path = self.frontier_path(k);
        let buf = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("frontier read {}: {e}", path.display()));
        (self.decode_frontier)(&buf)
            .unwrap_or_else(|e| panic!("frontier page {}: {e}", path.display()))
    }

    fn frontier_path(&self, k: usize) -> PathBuf {
        self.dir.join(format!("front{k:03}.page"))
    }

    /// Cold-path parent lookup for witness replay: decode the owning
    /// shard's run pages until the key surfaces.
    pub(crate) fn lookup_spilled_parent(&self, fp: u64) -> Option<Parent<A>> {
        let k = shard_index(fp, self.shards.len());
        let key = key_of(fp);
        for path in &self.shards[k].files {
            let buf =
                std::fs::read(path).unwrap_or_else(|e| panic!("run read {}: {e}", path.display()));
            let entries = (self.decode_run)(&buf)
                .unwrap_or_else(|e| panic!("run page {}: {e}", path.display()));
            if let Ok(i) = entries.binary_search_by_key(&key, |&(k, _)| k) {
                return Some(entries.into_iter().nth(i).expect("index in range").1);
            }
        }
        None
    }
}

impl<'a, Sys: System> Search<'a, Sys>
where
    Sys: Sync,
    Sys::State: Encode + Persist + Send + Sync,
    Sys::Action: Persist + Send + Sync,
{
    /// [`Search::explore`], external-memory mode: identical report bytes
    /// (modulo [`crate::SearchStats::peak_bytes`], which is the point), bounded
    /// resident memory per `policy`.
    pub fn explore_extmem(&self, policy: &SpillPolicy) -> SearchReport<Sys::State, Sys::Action> {
        self.explore_extmem_traced(policy, &mut NoopTracer)
    }

    /// [`Search::explore_extmem`], recording trace events into `tracer`
    /// (scope `"search"`). The trace is byte-identical to the resident
    /// [`Search::explore_traced`] trace: its `states` fields count resident
    /// and spilled keys alike.
    pub fn explore_extmem_traced(
        &self,
        policy: &SpillPolicy,
        tracer: &mut dyn Tracer,
    ) -> SearchReport<Sys::State, Sys::Action> {
        self.run_bfs(
            None::<fn(&Sys::State) -> bool>,
            Some(self.disk_state(policy)),
            tracer,
        )
    }

    /// [`Search::search`], external-memory mode: BFS until `pred` matches;
    /// the witness replays through parent links even when they live in run
    /// files.
    pub fn search_extmem<F>(
        &self,
        pred: F,
        policy: &SpillPolicy,
    ) -> SearchReport<Sys::State, Sys::Action>
    where
        F: Fn(&Sys::State) -> bool,
    {
        self.search_extmem_traced(pred, policy, &mut NoopTracer)
    }

    /// [`Search::search_extmem`], recording trace events into `tracer`
    /// (scope `"search"`); the same trace contract as
    /// [`Search::explore_extmem_traced`].
    pub fn search_extmem_traced<F>(
        &self,
        pred: F,
        policy: &SpillPolicy,
        tracer: &mut dyn Tracer,
    ) -> SearchReport<Sys::State, Sys::Action>
    where
        F: Fn(&Sys::State) -> bool,
    {
        self.run_bfs(Some(pred), Some(self.disk_state(policy)), tracer)
    }

    /// A fresh on-disk half for one spilled run under `policy`.
    fn disk_state(&self, policy: &SpillPolicy) -> DiskState<Sys::State, Sys::Action> {
        assert!(
            !self.audit_enabled(),
            "collision audit keeps full states resident; not supported in external-memory mode"
        );
        DiskState::new(self.partitions_value(), policy)
    }
}
