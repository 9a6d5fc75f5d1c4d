//! Per-layer replays for the traced run.
//!
//! After the timed loop, the traced run re-drives single layers through
//! their public functions on the workload's own data: the model's
//! `enabled`/`step`, the canon hook, the batched fingerprint pipeline, the
//! sharded table, the worker pool, and the run-page codec. Each replay
//! times only the layer call; the inputs are built first, untimed. The
//! replays also check what they can: every distinct state lands in the
//! table once, and every page decodes to the entries it encoded. Each
//! replay is a `replay.<layer>` span under run id `run`.

use crate::batch::{replay, Job};
use crate::oracle::Tally;
use crate::spans::Ctx;
use crate::stages::{search, Canon};
use crate::Env;
use impossible_core::explore::Explorer;
use impossible_core::system::System;
use impossible_election::ring_search::rotation_canon;
use impossible_explore::page::{decode_run_page, encode_run_page};
use impossible_explore::table::{shard_index, TryInsert};
use impossible_explore::{
    BatchScratch, Cap, FpMap, Grid, Parent, PauseBudget, Search, ShardedFpMap, WorkerPool,
    DEFAULT_PARTITIONS,
};
use std::hint::black_box;
use std::time::Instant;

/// Passes per replay; each reports the median pass.
const PASSES: usize = 3;

/// Layer costs measured by replay.
#[derive(Debug, Default)]
pub struct Replayed {
    /// `enabled` + `step` over the stage system, and over every system the
    /// workload touches (stage system plus batch jobs).
    pub stage_model_s: f64,
    pub model_s: f64,
    pub model_transitions: usize,
    pub canon_s: f64,
    pub canon_calls: usize,
    pub fingerprint_s: f64,
    pub fingerprinted: usize,
    pub table_s: f64,
    pub probes: usize,
    pub pool_w1_s: f64,
    pub pool_wn_s: f64,
    pub page_encode_s: f64,
    pub page_decode_s: f64,
    pub page_bytes: usize,
    pub page_keys: usize,
    pub legacy_s: f64,
    pub legacy_search_s: f64,
}

/// Run every replay for a workload whose stage system is `sys`, which has
/// `states` reachable states by the known answer.
#[allow(clippy::too_many_arguments)]
pub fn replay_all<S>(
    sys: &S,
    canon: Option<Canon>,
    seed: u64,
    pause_at: usize,
    states: usize,
    jobs: &[Job],
    env: &Env,
    run: u64,
    tally: &mut Tally,
) -> Replayed
where
    S: System<State = Vec<u8>, Action = usize> + Sync,
{
    env.spans.record(true);
    let mut out = Replayed::default();
    let g = search(sys, canon, seed, env.nproc).graph();

    // Model: enabled + step over the reachable states.
    let (t, n) = in_span(env, run, "replay.model", || {
        median_pass(|| replay(sys, &g.order, |_| true))
    });
    out.stage_model_s = t;
    out.model_s = t;
    out.model_transitions = n;
    for job in jobs {
        let (t, n) = in_span(env, run, "replay.model.job", || job.replay_model());
        out.model_s += t;
        out.model_transitions += n;
    }

    // The successor stream, in BFS order (initial states first).
    let mut stream: Vec<Vec<u8>> = g.order[..g.initials].to_vec();
    let mut chunks = vec![g.initials];
    for s in &g.order {
        let acts = sys.enabled(s);
        chunks.push(acts.len());
        stream.extend(acts.iter().map(|a| sys.step(s, a)));
    }
    drop(g);

    // Canon: the rotation hook over the raw stream. On a workload without
    // a hook this prices the hook on the same data; the search itself
    // never calls it there.
    let (t, canonical) = in_span(env, run, "replay.canon", || {
        median_pass(|| {
            let t0 = Instant::now();
            let c: Vec<Vec<u8>> = stream
                .iter()
                .map(|s| canon.unwrap_or(rotation_canon)(s))
                .collect();
            (t0.elapsed().as_secs_f64(), c)
        })
    });
    out.canon_s = t;
    out.canon_calls = stream.len();
    if canon.is_some() {
        stream = canonical;
    } else {
        drop(canonical);
    }

    // Fingerprint: the batched pipeline, one batch per expanded state.
    let (t, fps) = in_span(env, run, "replay.fingerprint", || {
        median_pass(|| {
            let mut batch = BatchScratch::new(seed);
            let mut fps = Vec::with_capacity(stream.len());
            let t0 = Instant::now();
            let mut at = 0;
            for &len in &chunks {
                fps.extend_from_slice(batch.fingerprints(stream[at..at + len].iter()));
                at += len;
            }
            (t0.elapsed().as_secs_f64(), fps)
        })
    });
    out.fingerprint_s = t;
    out.fingerprinted = fps.len();

    // Table: the stream's fingerprints into the sharded visited set, in
    // BFS order. Exactly the distinct states must land.
    let (t, fresh) = in_span(env, run, "replay.table", || {
        median_pass(|| {
            let mut table: ShardedFpMap<u32> = ShardedFpMap::new(DEFAULT_PARTITIONS);
            let t0 = Instant::now();
            let mut fresh = 0usize;
            for &fp in &fps {
                if table.try_insert_with(fp, Cap::Unbounded, || 0) == TryInsert::Inserted {
                    fresh += 1;
                }
            }
            (t0.elapsed().as_secs_f64(), fresh)
        })
    });
    out.table_s = t;
    out.probes = fps.len();
    tally.eq("table replay: distinct states", fresh, states);

    // Pool: per-shard fingerprint + insert, at one worker and at nproc.
    let mut shards: Vec<Vec<&Vec<u8>>> = vec![Vec::new(); DEFAULT_PARTITIONS];
    for (s, &fp) in stream.iter().zip(&fps) {
        shards[shard_index(fp, DEFAULT_PARTITIONS)].push(s);
    }
    let shard_work = |workers: usize| {
        let pool = WorkerPool::new(workers);
        let items = shards.clone();
        let t0 = Instant::now();
        let lens = pool.map_indexed(items, |_, part: Vec<&Vec<u8>>| {
            let mut batch = BatchScratch::new(seed);
            let mut table: FpMap<u32> = FpMap::new();
            for &fp in batch.fingerprints(part.iter().copied()) {
                table.try_insert_with(fp, Cap::Unbounded, || 0);
            }
            table.len()
        });
        (t0.elapsed().as_secs_f64(), lens.iter().sum::<usize>())
    };
    let (t1, fresh1) = in_span(env, run, "replay.pool.w1", || median_pass(|| shard_work(1)));
    let (tn, fresh_n) = in_span(env, run, "replay.pool.wn", || {
        median_pass(|| shard_work(env.nproc))
    });
    tally.eq("pool replay w1: distinct states", fresh1, states);
    tally.eq("pool replay wN: distinct states", fresh_n, states);
    out.pool_w1_s = t1;
    out.pool_wn_s = tn;
    drop(shards);
    drop(stream);

    // Page codec: the visited pages of a paused run, one page per shard.
    match search(sys, canon, seed, env.nproc)
        .run_resumable(PauseBudget::states(pause_at))
        .paused()
    {
        Some(ckpt) => {
            let visited = &ckpt.visited;
            let (te, pages) = in_span(env, run, "replay.page.encode", || {
                median_pass(|| {
                    let t0 = Instant::now();
                    let pages: Vec<Vec<u8>> = visited.iter().map(|v| encode_run_page(v)).collect();
                    (t0.elapsed().as_secs_f64(), pages)
                })
            });
            let (td, decoded) = in_span(env, run, "replay.page.decode", || {
                median_pass(|| {
                    let t0 = Instant::now();
                    let d: Vec<_> = pages
                        .iter()
                        .map(|p| decode_run_page::<Parent<usize>>(p))
                        .collect();
                    (t0.elapsed().as_secs_f64(), d)
                })
            });
            let round_trip = decoded
                .iter()
                .zip(visited)
                .all(|(d, v)| d.as_ref().ok() == Some(v));
            tally.check("run pages decode to the entries they encoded", round_trip);
            out.page_encode_s = te;
            out.page_decode_s = td;
            out.page_bytes = pages.iter().map(Vec::len).sum();
            out.page_keys = visited.iter().map(Vec::len).sum();
        }
        None => tally.check("page replay: search paused", false),
    }

    // Control: the legacy explorer against the engine on a fixed grid no
    // explore-crate change touches.
    let control = Grid { n: 6, max: 6 };
    let (t, n) = in_span(env, run, "replay.control.legacy", || {
        median_pass(|| {
            let t0 = Instant::now();
            let n = Explorer::new(black_box(&control))
                .max_states(200_000)
                .explore()
                .num_states;
            (t0.elapsed().as_secs_f64(), n)
        })
    });
    tally.eq("control: legacy grid states", n, 117_649);
    out.legacy_s = t;
    let (t, n) = in_span(env, run, "replay.control.search", || {
        median_pass(|| {
            let t0 = Instant::now();
            let n = Search::new(black_box(&control))
                .max_states(200_000)
                .explore()
                .num_states;
            (t0.elapsed().as_secs_f64(), n)
        })
    });
    tally.eq("control: search grid states", n, 117_649);
    out.legacy_search_s = t;
    env.spans.record(false);
    out
}

/// Run `f` as a span named `name` under run id `run`.
fn in_span<T>(env: &Env, run: u64, name: &str, f: impl FnOnce() -> T) -> T {
    env.spans.timed(name, Ctx::root(run), |_| f()).0
}

/// Run `f` [`PASSES`] times; return the median time and the last output.
fn median_pass<T>(mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut times = Vec::with_capacity(PASSES);
    let mut last = None;
    for _ in 0..PASSES {
        let (t, out) = f();
        times.push(t);
        last = Some(out);
    }
    (crate::median(&times), last.expect("at least one pass"))
}
