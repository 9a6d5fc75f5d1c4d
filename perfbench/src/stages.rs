//! The five search stages every workload runs on its stage system, each
//! timed as one job of the closed loop: explore at one worker, explore at
//! `nproc` workers, build the reachable graph, explore through the spill
//! layer, and pause → seal a snapshot → unseal → resume. A calibration
//! kernel runs before each stage, on as many threads as the stage keeps
//! busy ([`crate::calib`]).
//!
//! Every stage's report is checked: the resident explorations against the
//! workload's known answer, the others byte for byte against the resident
//! run at `nproc` workers (under the masks in [`crate::oracle::Mask`]).

use crate::calib::{Sample, Speed};
use crate::oracle::{line, Expect, Mask, Tally};
use crate::spans::Ctx;
use crate::Env;
use impossible_ckpt::Snapshot;
use impossible_core::system::System;
use impossible_explore::{PauseBudget, ReachableGraph, Search, SearchReport, SpillPolicy};

/// A canonicalization hook over byte-vector states.
pub type Canon = fn(&Vec<u8>) -> Vec<u8>;

/// Ceiling on every search; far above every workload's state count.
pub const MAX_STATES: usize = 4_000_000;

/// Extra timings per iteration of each single-threaded stage (explore at
/// one worker, graph), taken after the verdict window.
pub const RESAMPLES: usize = 2;

/// How the spill stage runs: flush visited shards whenever `ram_keys` keys
/// are resident, and, if `frontier`, page the frontier between levels.
#[derive(Debug, Clone, Copy)]
pub struct SpillMode {
    pub ram_keys: usize,
    pub frontier: bool,
}

/// Where the resume stage seals its snapshot.
#[derive(Debug, Clone, Copy)]
pub enum SnapMode {
    /// `Snapshot::to_bytes` / `from_bytes`, no file.
    Memory,
    /// `Snapshot::save` / `load` through a file.
    Disk,
}

/// Per-iteration inputs the seed chooses.
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// `Search::seed`: the fingerprint key, which sets shard balance.
    pub search_seed: u64,
    /// States explored before the resume stage pauses.
    pub pause_at: usize,
    /// Whether a calibration kernel runs before each stage.
    pub calibrate: bool,
}

/// Timings and counters of one iteration's stages.
#[derive(Debug, Clone, Default)]
pub struct StageOut {
    pub explore_w1_s: Sample,
    pub explore_wn_s: Sample,
    pub graph_s: Sample,
    pub spill_s: Sample,
    pub resume_s: Sample,
    pub pause_s: f64,
    pub save_s: f64,
    pub load_s: f64,
    pub resume_only_s: f64,
    pub snapshot_bytes: u64,
    pub spill_files: u64,
    pub spill_bytes: u64,
    pub peak_bytes: usize,
    pub states: usize,
    pub transitions: usize,
    pub levels: usize,
    pub peak_frontier: usize,
    pub canon_hits: usize,
    pub steals: usize,
    /// The kernel runs before the stages; the batch and the resamples add
    /// theirs.
    pub speed: Speed,
}

/// A search over `sys` with the iteration's seed, `workers` threads and the
/// workload's canon hook.
pub fn search<S>(sys: &S, canon: Option<Canon>, seed: u64, workers: usize) -> Search<'_, S>
where
    S: System<State = Vec<u8>, Action = usize>,
{
    let s = Search::new(sys)
        .max_states(MAX_STATES)
        .seed(seed)
        .workers(workers);
    match canon {
        Some(c) => s.canon(c),
        None => s,
    }
}

/// Run the five stages once. Fails (without a result) only when the spill
/// directory is not empty; every wrong answer is counted in `tally` instead.
#[allow(clippy::too_many_arguments)]
pub fn run<S>(
    sys: &S,
    canon: Option<Canon>,
    expect: &Expect,
    spill: SpillMode,
    snap: SnapMode,
    plan: &StagePlan,
    env: &Env,
    ctx: Ctx,
    tally: &mut Tally,
) -> Result<StageOut, String>
where
    S: System<State = Vec<u8>, Action = usize> + Sync,
{
    let n = env.nproc;
    let mk = |w| search(sys, canon, plan.search_seed, w);
    let mut out = StageOut::default();
    let mut speed = Speed::new(plan.calibrate);

    let (w1, t) = stage(env, "explore_w1", ctx, 1, &mut speed, |_| mk(1).explore());
    out.explore_w1_s = t;
    let (wn, t) = stage(env, "explore_wn", ctx, n, &mut speed, |_| mk(n).explore());
    out.explore_wn_s = t;
    check_known(&w1, expect, "explore w1", tally);
    tally.eq(
        "explore w1 vs wN",
        line(&w1, Mask::Scaling),
        line(&wn, Mask::Scaling),
    );
    out.states = w1.num_states;
    out.transitions = w1.num_transitions;
    out.levels = w1.stats.levels;
    out.peak_frontier = w1.stats.peak_frontier;
    out.canon_hits = w1.stats.canon_hits;
    out.steals = wn.stats.steals;
    out.peak_bytes = w1.stats.peak_bytes.max(wn.stats.peak_bytes);
    drop(w1);

    // The graph builder is sequential at any worker count.
    let (g, t) = stage(env, "graph", ctx, 1, &mut speed, |_| mk(n).graph());
    out.graph_s = t;
    check_graph(&g, expect, "graph", tally);
    drop(g);

    // Spill: the directory must be empty before the run and is emptied
    // after it, so no page of one run is ever read by a later one.
    crate::ensure_empty(&env.spill_dir)?;
    let policy = SpillPolicy::new(&env.spill_dir)
        .ram_keys(spill.ram_keys)
        .spill_frontier(spill.frontier);
    let (spilled, t) = stage(env, "spill", ctx, n, &mut speed, |_| {
        mk(n).explore_extmem(&policy)
    });
    out.spill_s = t;
    (out.spill_files, out.spill_bytes) = crate::dir_usage(&env.spill_dir);
    crate::clear_dir(&env.spill_dir)?;
    tally.eq(
        "spilled vs resident",
        line(&spilled, Mask::Extmem),
        line(&wn, Mask::Extmem),
    );
    out.peak_bytes = out.peak_bytes.max(spilled.stats.peak_bytes);
    drop(spilled);

    let (resumed, t) = stage(env, "resume", ctx, n, &mut speed, |c| {
        resume(sys, canon, snap, plan, env, c, &mut out)
    });
    out.resume_s = t;
    out.speed = speed;
    match resumed {
        Ok(r) => {
            tally.eq(
                "resumed vs straight",
                line(&r, Mask::Resume),
                line(&wn, Mask::Resume),
            );
            out.peak_bytes = out.peak_bytes.max(r.stats.peak_bytes);
        }
        Err(e) => tally.check(&format!("pause/save/load/resume: {e}"), false),
    }
    Ok(out)
}

/// Time the two single-threaded stages, explore at one worker and graph,
/// again: [`RESAMPLES`] times each, alternating, outside any span and
/// checked like their runs in the verdict window, each after a one-thread
/// kernel run recorded in `speed`. Returns `(explore_w1_s, graph_s)`
/// samples.
pub fn resample<S>(
    sys: &S,
    canon: Option<Canon>,
    expect: &Expect,
    plan: &StagePlan,
    workers: usize,
    speed: &mut Speed,
    tally: &mut Tally,
) -> (Vec<Sample>, Vec<Sample>)
where
    S: System<State = Vec<u8>, Action = usize> + Sync,
{
    let mk = |w| search(sys, canon, plan.search_seed, w);
    let (mut w1_s, mut graph_s) = (Vec::new(), Vec::new());
    for _ in 0..RESAMPLES {
        let (w1, t) = speed.timed(1, || mk(1).explore());
        w1_s.push(t);
        check_known(&w1, expect, "resampled explore w1", tally);
        drop(w1);
        let (g, t) = speed.timed(1, || mk(workers).graph());
        graph_s.push(t);
        check_graph(&g, expect, "resampled graph", tally);
    }
    (w1_s, graph_s)
}

/// Time one stage as a span under `ctx`, right after a kernel run on the
/// `threads` it keeps busy; the duration returned leaves out hypervisor
/// steal (see [`crate::steal`]).
fn stage<R>(
    env: &Env,
    name: &str,
    ctx: Ctx,
    threads: usize,
    speed: &mut Speed,
    f: impl FnOnce(Ctx) -> R,
) -> (R, Sample) {
    let ((r, _wall), t) = speed.timed(threads, || env.spans.timed(name, ctx, f));
    (r, t)
}

/// Pause at the plan's point, seal and unseal the checkpoint, and finish
/// the search from it.
fn resume<S>(
    sys: &S,
    canon: Option<Canon>,
    snap: SnapMode,
    plan: &StagePlan,
    env: &Env,
    ctx: Ctx,
    out: &mut StageOut,
) -> Result<SearchReport<Vec<u8>, usize>, String>
where
    S: System<State = Vec<u8>, Action = usize> + Sync,
{
    let sp = &env.spans;
    let mk = || search(sys, canon, plan.search_seed, env.nproc);
    let (paused, t) = sp.timed("snapshot.pause", ctx, |_| {
        mk().run_resumable(PauseBudget::states(plan.pause_at))
            .paused()
    });
    out.pause_s = t;
    let sealed = Snapshot::new(
        env.model_fp,
        paused.ok_or("search finished before the pause point")?,
    );
    let back = match snap {
        SnapMode::Memory => {
            let (bytes, t) = sp.timed("snapshot.save", ctx, |_| sealed.to_bytes());
            out.save_s = t;
            out.snapshot_bytes = bytes.len() as u64;
            drop(sealed);
            let (back, t) = sp.timed("snapshot.load", ctx, |_| Snapshot::from_bytes(&bytes));
            out.load_s = t;
            back
        }
        SnapMode::Disk => {
            let path = env
                .snapshot_path
                .to_str()
                .ok_or("snapshot path is not UTF-8")?;
            let (saved, t) = sp.timed("snapshot.save", ctx, |_| sealed.save(path));
            out.save_s = t;
            saved.map_err(|e| e.to_string())?;
            drop(sealed);
            out.snapshot_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
            let (back, t) = sp.timed("snapshot.load", ctx, |_| Snapshot::load(path));
            out.load_s = t;
            std::fs::remove_file(path).map_err(|e| e.to_string())?;
            back
        }
    };
    let back = back.map_err(|e| e.to_string())?;
    back.expect_model(env.model_fp).map_err(|e| e.to_string())?;
    let (done, t) = sp.timed("snapshot.resume", ctx, |_| {
        mk().resume(back.ckpt, PauseBudget::never()).done()
    });
    out.resume_only_s = t;
    done.ok_or_else(|| "unbounded resume paused".to_string())
}

fn check_graph(g: &ReachableGraph<Vec<u8>, usize>, e: &Expect, what: &str, tally: &mut Tally) {
    tally.eq(&format!("{what} states"), g.len(), e.states);
    tally.eq(&format!("{what} edges"), g.num_edges(), e.transitions);
    tally.check(&format!("{what} not truncated"), !g.truncated());
}

fn check_known(r: &SearchReport<Vec<u8>, usize>, e: &Expect, what: &str, tally: &mut Tally) {
    tally.eq(&format!("{what} states"), r.num_states, e.states);
    tally.eq(
        &format!("{what} transitions"),
        r.num_transitions,
        e.transitions,
    );
    tally.eq(
        &format!("{what} terminals"),
        &r.terminal_states,
        &e.terminal,
    );
    tally.check(&format!("{what} not truncated"), r.truncated_by.is_none());
}
