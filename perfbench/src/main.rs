//! Time-to-verdict benchmark for the checker.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <model-batch|spill-resume> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client process drives a closed loop: each iteration submits the
//! workload's jobs, waits for every verdict, checks each against a known
//! answer (see [`oracle`]), and only then starts the next iteration. Every
//! workload runs the same two parts on its own inputs:
//!
//! * five search stages on a stage system ([`stages`]): explore at one
//!   worker and at `nproc`, build the graph, explore through the spill
//!   layer, and pause → snapshot → resume;
//! * a batch of model × property jobs through `ckpt::run_manifest` on a
//!   pool of `nproc` workers, with a verdict cache that starts cold on disk
//!   ([`batch`]).
//!
//! After the verdict window, untraced, each iteration times the two
//! single-threaded stages [`stages::RESAMPLES`] more times each: they swing
//! most with the host's load. A fixed calibration kernel runs before every
//! timed stage, and the end-to-end times are reported at the kernel's
//! reference speed ([`calib`]).
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` iterations alternate between
//! untraced and traced, the traced ones keep spans ([`spans`]), the layer
//! replays of [`layers`] run after the loop, and the JSON holds the
//! per-layer metrics. The seed drives the fingerprint key, the pause point
//! and the order of the batch's jobs; no expected answer depends on it.

mod batch;
mod calib;
mod layers;
mod oracle;
mod spans;
mod stages;
mod steal;

use batch::{check_jobs, check_report, Job, JobNote};
use calib::{Sample, Speed};
use impossible_ckpt::{model_fp, run_manifest, VerdictCache};
use impossible_det::rng::DetRng;
use impossible_election::ring_search::{rotation_canon, TokenRing};
use impossible_explore::{Grid, WorkerPool};
use oracle::Tally;
use spans::{Ctx, Spans};
use stages::{SnapMode, SpillMode, StageOut, StagePlan};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;
use steal::CpuSample;

/// The seed a run uses when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The grid spill-resume searches: 6^7 = 279,936 states.
const GRID: Grid = Grid { n: 7, max: 5 };

/// The token ring whose rotation quotient is model-batch's stage system:
/// 52,487 necklaces.
const RING: TokenRing = TokenRing { n: 20 };

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ModelBatch,
    SpillResume,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "model-batch" => Some(Workload::ModelBatch),
            "spill-resume" => Some(Workload::SpillResume),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ModelBatch => "model-batch",
            Workload::SpillResume => "spill-resume",
        }
    }
}

/// The system the search stages run on.
#[derive(Debug, Clone, Copy)]
enum StageSys {
    Grid(Grid),
    Ring(TokenRing),
}

/// Everything a workload runs.
#[derive(Debug, Clone)]
struct Spec {
    stage_sys: StageSys,
    spill: SpillMode,
    snap: SnapMode,
    jobs: Vec<Job>,
}

impl Spec {
    fn new(w: Workload) -> Self {
        match w {
            Workload::SpillResume => Spec {
                stage_sys: StageSys::Grid(GRID),
                spill: SpillMode {
                    ram_keys: 1 << 14,
                    frontier: true,
                },
                snap: SnapMode::Disk,
                jobs: grid_jobs(),
            },
            Workload::ModelBatch => Spec {
                stage_sys: StageSys::Ring(RING),
                spill: SpillMode {
                    ram_keys: 1 << 14,
                    frontier: false,
                },
                snap: SnapMode::Memory,
                jobs: model_jobs(20, 4, 4),
            },
        }
    }

    /// A small copy of the workload for warm-up: same modes, tiny inputs.
    fn warm_up(&self) -> Self {
        let (stage_sys, jobs) = match self.stage_sys {
            StageSys::Grid(_) => (
                StageSys::Grid(Grid { n: 6, max: 4 }),
                vec![Job::GridCorner { n: 4, max: 4 }],
            ),
            StageSys::Ring(_) => (StageSys::Ring(TokenRing { n: 14 }), model_jobs(14, 3, 3)),
        };
        Spec {
            stage_sys,
            spill: SpillMode {
                ram_keys: 1 << 12,
                ..self.spill
            },
            snap: self.snap,
            jobs,
        }
    }

    fn stage_states(&self) -> usize {
        match self.stage_sys {
            StageSys::Grid(g) => oracle::grid(g.n, g.max).states,
            StageSys::Ring(r) => oracle::necklaces(r.n) - 1,
        }
    }
}

/// Spill-resume's batch: small `reaches-corner` checks, so that the
/// manifest, cache and property layers run there too while the stages
/// dominate.
fn grid_jobs() -> Vec<Job> {
    [(5, 5), (6, 3), (4, 8), (3, 9)]
        .into_iter()
        .map(|(n, max)| Job::GridCorner { n, max })
        .collect()
}

/// The model batch: both ring properties at `ring`, the quorum lasso once
/// per crashed process at `quorum`, Dijkstra's two properties at `mutex`.
fn model_jobs(ring: usize, quorum: usize, mutex: usize) -> Vec<Job> {
    let mut jobs = vec![
        Job::RingEvadesFree { n: ring },
        Job::RingGreedyElects { n: ring },
    ];
    jobs.extend((0..quorum).map(|failed| Job::QuorumNonterm { n: quorum, failed }));
    jobs.push(Job::DijkstraMutex { n: mutex });
    jobs.push(Job::DijkstraDeadlock { n: mutex });
    jobs
}

/// One iteration's seed-chosen inputs.
#[derive(Debug, Clone)]
struct Plan {
    stage: StagePlan,
    order: Vec<usize>,
}

impl Plan {
    /// Iteration `i` of a run with `seed`: a function of both alone.
    /// Iterations come in antithetic pairs: the second of a pair runs the
    /// batch in the reverse of the first's job order and pauses as far from
    /// the end as the first pauses from the start, so that a pair's median
    /// does not hinge on one lucky or unlucky draw.
    fn new(seed: u64, i: u64, states: usize, jobs: usize) -> Self {
        let mut rng = DetRng::stream(seed, i / 2);
        let search_seeds = [rng.next_u64(), rng.next_u64()];
        let mut pause_at = states / 4 + rng.bounded_u64((states / 2) as u64) as usize;
        let mut order: Vec<usize> = (0..jobs).collect();
        rng.shuffle(&mut order);
        if i % 2 == 1 {
            order.reverse();
            pause_at = states - pause_at;
        }
        let stage = StagePlan {
            search_seed: search_seeds[(i % 2) as usize],
            pause_at,
            calibrate: true,
        };
        Plan { stage, order }
    }
}

/// The run's shared state: span log, worker count and working paths.
pub struct Env {
    pub spans: Spans,
    pub nproc: usize,
    pub run_dir: PathBuf,
    pub spill_dir: PathBuf,
    pub snapshot_path: PathBuf,
    pub cache_path: PathBuf,
    /// Model fingerprint stamped into snapshots.
    pub model_fp: u64,
}

impl Env {
    /// Claim `run_dir` for this run: it must not hold anything yet.
    fn create(run_dir: PathBuf, epoch: Instant, nproc: usize) -> Result<Self, String> {
        ensure_empty(&run_dir)?;
        let spill_dir = run_dir.join("spill");
        ensure_empty(&spill_dir)?;
        Ok(Env {
            spans: Spans::new(epoch),
            nproc,
            snapshot_path: run_dir.join("search.snap"),
            cache_path: run_dir.join("verdicts.cache"),
            spill_dir,
            run_dir,
            model_fp: model_fp("perfbench", &[]),
        })
    }

    fn cache_str(&self) -> Result<&str, String> {
        self.cache_path
            .to_str()
            .ok_or_else(|| "cache path is not UTF-8".to_string())
    }
}

/// Create `dir` if needed and fail unless it is empty.
pub fn ensure_empty(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    match entries.next() {
        None => Ok(()),
        Some(_) => Err(format!(
            "{} is not empty: stale state from an earlier run",
            dir.display()
        )),
    }
}

/// Remove everything inside `dir`, keeping `dir`.
pub fn clear_dir(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for e in entries {
        let path = e.map_err(|e| e.to_string())?.path();
        let removed = if path.is_dir() {
            std::fs::remove_dir_all(&path)
        } else {
            std::fs::remove_file(&path)
        };
        removed.map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// `(files, bytes)` directly inside `dir`.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .fold((0, 0), |(n, b), m| (n + 1, b + m.len()))
}

/// The median of `f` over `iters`.
fn median_by(iters: &[&IterOut], f: impl Fn(&IterOut) -> f64) -> f64 {
    median(&iters.iter().map(|o| f(o)).collect::<Vec<_>>())
}

/// The median over `iters` of every timing of a single-threaded stage at
/// the reference speed: the one in the verdict window (`f`) and the
/// resamples (`more`).
fn pooled_median(
    iters: &[&IterOut],
    f: impl Fn(&IterOut) -> Sample,
    more: impl Fn(&IterOut) -> &[Sample],
) -> f64 {
    let all: Vec<f64> = iters
        .iter()
        .flat_map(|o| {
            std::iter::once(f(o))
                .chain(more(o).iter().copied())
                .map(|t| o.reference_s(t))
        })
        .collect();
    median(&all)
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

impl IterOut {
    /// `t` at the reference speed, by this iteration's kernel runs.
    fn reference_s(&self, t: Sample) -> f64 {
        self.stages.speed.reference_s(t)
    }

    /// `verdict_s` at the reference speed. The window mixes one-thread and
    /// `nproc`-thread work, so the kernel time is the mean over all runs.
    fn verdict_reference_s(&self) -> f64 {
        calib::REFERENCE_S * self.verdict_s / self.stages.speed.mean_s()
    }
}

/// What one iteration of the loop produced.
struct IterOut {
    traced: bool,
    /// The window's time less the kernel runs inside it.
    verdict_s: f64,
    stages: StageOut,
    cache_load_s: f64,
    cache_save_s: f64,
    batch_s: f64,
    misses: usize,
    /// Traced iterations only: the all-hit re-run on the saved cache.
    warm_s: f64,
    warm_hits: usize,
    notes: Vec<JobNote>,
    /// Timings of the single-threaded stages after the verdict window.
    w1_resamples: Vec<Sample>,
    graph_resamples: Vec<Sample>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: perfbench --workload <model-batch|spill-resume> \
                 [--seed N] [--seconds S] [--trace 0|1]";
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(usage)?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or(usage)?),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage.into()),
                }
            }
            _ => return Err(usage.into()),
        }
    }
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed,
        seconds,
        trace,
    })
}

/// Build everything a run needs and warm it up: the working directories,
/// the stage system, the batch, a cold verdict cache, and one pass of a
/// small copy of the workload through every stage and the pool, without
/// calibration.
fn setup(args: &Args, spec: &Spec, epoch: Instant, nproc: usize) -> Result<Env, String> {
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let run_dir = work.join(format!(
        "{}-s{}-p{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let env = Env::create(run_dir, epoch, nproc)?;
    let cold = VerdictCache::load(env.cache_str()?).map_err(|e| e.to_string())?;
    if !cold.is_empty() {
        return Err("verdict cache is not cold".into());
    }
    let warm = spec.warm_up();
    let mut plan = Plan::new(args.seed, u64::MAX, warm.stage_states(), warm.jobs.len());
    plan.stage.calibrate = false;
    let mut discard = Tally::default();
    iteration(&warm, &plan, &env, Ctx::root(u64::MAX), false, &mut discard)?;
    Ok(env)
}

/// One closed-loop round: the stages, then the batch, every verdict
/// checked before it returns.
fn iteration(
    spec: &Spec,
    plan: &Plan,
    env: &Env,
    ctx: Ctx,
    traced: bool,
    tally: &mut Tally,
) -> Result<IterOut, String> {
    env.spans.record(traced);
    // The verdict window is timed without hypervisor steal, like the stages,
    // and less the kernel runs inside it.
    let ((r, _wall), window_s) = steal::timed(|| {
        env.spans.timed("iteration", ctx, |c| -> Result<_, String> {
            let mut stages = match spec.stage_sys {
                StageSys::Grid(g) => {
                    let want = oracle::grid(g.n, g.max);
                    stages::run(
                        &g,
                        None,
                        &want,
                        spec.spill,
                        spec.snap,
                        &plan.stage,
                        env,
                        c,
                        tally,
                    )?
                }
                StageSys::Ring(r) => {
                    let want = oracle::ring_quotient(r.n);
                    let canon = Some(rotation_canon as stages::Canon);
                    stages::run(
                        &r,
                        canon,
                        &want,
                        spec.spill,
                        spec.snap,
                        &plan.stage,
                        env,
                        c,
                        tally,
                    )?
                }
            };
            let path = env.cache_str()?;
            let (cache, cache_load_s) = env
                .spans
                .timed("cache.load", c, |_| VerdictCache::load(path));
            let mut cache = cache.map_err(|e| format!("{path}: {e}"))?;
            let notes = Mutex::new(Vec::new());
            let pool = WorkerPool::new(env.nproc);
            stages.speed.probe(env.nproc);
            let (report, batch_s) = env.spans.timed("batch", c, |bc| {
                let jobs = check_jobs(&spec.jobs, &plan.order, &env.spans, bc, &notes);
                run_manifest(jobs, &mut cache, &pool)
            });
            check_report(&report, &spec.jobs, tally);
            let (saved, cache_save_s) = env.spans.timed("cache.save", c, |_| cache.save(path));
            tally.check(&format!("verdict cache saves: {saved:?}"), saved.is_ok());
            let notes = notes.into_inner().expect("job notes poisoned");
            Ok((
                stages,
                cache_load_s,
                cache_save_s,
                batch_s,
                report.misses,
                notes,
            ))
        })
    });
    let (stages, cache_load_s, cache_save_s, batch_s, misses, notes) = r?;
    let mut out = IterOut {
        traced,
        verdict_s: window_s - stages.speed.total_s(),
        stages,
        cache_load_s,
        cache_save_s,
        batch_s,
        misses,
        warm_s: 0.0,
        warm_hits: 0,
        notes,
        w1_resamples: Vec::new(),
        graph_resamples: Vec::new(),
    };
    // Outside the verdict window: re-run the batch against the saved cache.
    // Every job must be served from it.
    let path = env.cache_str()?;
    if traced {
        let mut cache = VerdictCache::load(path).map_err(|e| format!("{path}: {e}"))?;
        let pool = WorkerPool::new(env.nproc);
        let notes = Mutex::new(Vec::new());
        let (report, warm_s) = env.spans.timed("cache.warm", ctx, |c| {
            run_manifest(
                check_jobs(&spec.jobs, &plan.order, &env.spans, c, &notes),
                &mut cache,
                &pool,
            )
        });
        tally.eq("warm cache: every job a hit", report.hits, spec.jobs.len());
        out.warm_s = warm_s;
        out.warm_hits = report.hits;
    }
    std::fs::remove_file(path).map_err(|e| format!("{path}: {e}"))?;
    env.spans.record(false);
    Ok(out)
}

/// [`stages::RESAMPLES`] more timings of each single-threaded stage,
/// untraced and outside the verdict window, into `out` (their kernel runs
/// into `out.stages.speed`).
fn resample(spec: &Spec, plan: &Plan, env: &Env, out: &mut IterOut, tally: &mut Tally) {
    let speed = &mut out.stages.speed;
    (out.w1_resamples, out.graph_resamples) = match spec.stage_sys {
        StageSys::Grid(g) => {
            let want = oracle::grid(g.n, g.max);
            let plan = &plan.stage;
            stages::resample(&g, None, &want, plan, env.nproc, speed, tally)
        }
        StageSys::Ring(r) => {
            let want = oracle::ring_quotient(r.n);
            let canon = Some(rotation_canon as stages::Canon);
            let plan = &plan.stage;
            stages::resample(&r, canon, &want, plan, env.nproc, speed, tally)
        }
    };
}

/// High-water resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics object, in the order given.
fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let epoch = Instant::now();
    let start = CpuSample::now();
    match run(epoch, start) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(epoch: Instant, start: CpuSample) -> Result<String, String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = Spec::new(args.workload);

    // Set-up, several times; the first includes process start. Like the
    // stages, each is timed without hypervisor steal, and it is scaled by a
    // one-thread kernel run right after it.
    let (mut setup_times, mut raw_setup) = (Vec::new(), Vec::new());
    let mut env: Option<Env> = None;
    for rep in 0..SETUP_REPS {
        let c0 = if rep == 0 { start } else { CpuSample::now() };
        if let Some(old) = env.take() {
            std::fs::remove_dir_all(&old.run_dir).map_err(|e| e.to_string())?;
        }
        env = Some(setup(&args, &spec, epoch, nproc)?);
        let t = Sample {
            s: c0.uncontended_to(&CpuSample::now()),
            threads: 1,
        };
        let mut speed = Speed::new(true);
        speed.probe(1);
        setup_times.push(speed.reference_s(t));
        raw_setup.push(t.s);
    }
    let env = env.expect("set up at least once");
    eprintln!("perfbench: set-up times {raw_setup:.3?}");
    let setup_s = median(&setup_times);

    let result = measure(&args, &spec, &env, setup_s);
    let cleanup = std::fs::remove_dir_all(&env.run_dir);
    if args.trace {
        let trace_dir = env
            .run_dir
            .parent()
            .expect("run dir has a parent")
            .join("traces");
        let file = trace_dir.join(format!(
            "{}.jsonl",
            env.run_dir
                .file_name()
                .and_then(|s| s.to_str())
                .unwrap_or("run")
        ));
        env.spans
            .write_jsonl(&file)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        eprintln!("perfbench: spans written to {}", file.display());
    }
    let line = result?;
    cleanup.map_err(|e| format!("{}: {e}", env.run_dir.display()))?;
    Ok(line)
}

fn measure(args: &Args, spec: &Spec, env: &Env, setup_s: f64) -> Result<String, String> {
    let mut tally = Tally::default();
    let states = spec.stage_states();
    // Iteration 0 only checks and gives `peak_rss_mb`; at least three more
    // are timed.
    let min_iters = if args.trace { 5 } else { 4 };
    let loop_start = Instant::now();
    let mut iters: Vec<IterOut> = Vec::new();
    // The process high-water RSS after set-up and the first iteration: a
    // fixed amount of work, whatever the machine's speed. Later work only
    // adds allocator retention that depends on thread timing, and so would
    // calibration runs on fresh threads: the first iteration makes none,
    // and its timings are left out.
    let mut peak_rss = 0.0;
    loop {
        let i = iters.len() as u64;
        let mut plan = Plan::new(args.seed, i, states, spec.jobs.len());
        plan.stage.calibrate = i > 0;
        // Traced and untraced iterations alternate by antithetic pair, so
        // both see the same mix of job orders.
        let traced = args.trace && (i / 2) % 2 == 1;
        let started = Instant::now();
        let mut out = iteration(spec, &plan, env, Ctx::root(i), traced, &mut tally)?;
        if i == 0 {
            peak_rss = peak_rss_mb();
        } else {
            resample(spec, &plan, env, &mut out, &mut tally);
        }
        let last = started.elapsed().as_secs_f64();
        let s = &out.stages;
        let raw = |v: &[Sample]| v.iter().map(|t| t.s).collect::<Vec<_>>();
        eprintln!(
            "perfbench: iteration {i}{}: verdict {:.3}s = w1 {:.3} + wN {:.3} + graph {:.3} + spill {:.3} + resume {:.3} + batch {:.3}; resampled w1 {:.3?} graph {:.3?}; kernel w1 {:.4}s wN {:.4}s",
            if traced { " (traced)" } else { "" },
            out.verdict_s, s.explore_w1_s.s, s.explore_wn_s.s, s.graph_s.s, s.spill_s.s, s.resume_s.s, out.batch_s,
            raw(&out.w1_resamples), raw(&out.graph_resamples),
            out.stages.speed.kernel_s(1), out.stages.speed.kernel_s(env.nproc)
        );
        iters.push(out);
        let elapsed = loop_start.elapsed().as_secs_f64();
        if iters.len() >= min_iters && elapsed + last > args.seconds {
            break;
        }
    }
    // The timed iterations: untraced and calibrated.
    let untraced: Vec<&IterOut> = iters
        .iter()
        .filter(|o| !o.traced && o.stages.speed.is_on())
        .collect();
    eprintln!(
        "perfbench: {} seed={} nproc={} iterations={} (timed {}), verdict_s median {:.4} (at reference speed {:.4})",
        args.workload.name(),
        args.seed,
        env.nproc,
        iters.len(),
        untraced.len(),
        median_by(&untraced, |o| o.verdict_s),
        median_by(&untraced, IterOut::verdict_reference_s)
    );

    let metrics: Vec<(String, f64, &str)> = if !args.trace {
        let m = |f: fn(&IterOut) -> f64| median_by(&untraced, f);
        vec![
            ("setup_s".into(), setup_s, "s"),
            ("verdict_s".into(), m(IterOut::verdict_reference_s), "s"),
            (
                "explore_w1_s".into(),
                pooled_median(&untraced, |o| o.stages.explore_w1_s, |o| &o.w1_resamples),
                "s",
            ),
            (
                "explore_wn_s".into(),
                m(|o| o.reference_s(o.stages.explore_wn_s)),
                "s",
            ),
            (
                "graph_s".into(),
                pooled_median(&untraced, |o| o.stages.graph_s, |o| &o.graph_resamples),
                "s",
            ),
            (
                "spill_s".into(),
                m(|o| o.reference_s(o.stages.spill_s)),
                "s",
            ),
            (
                "resume_s".into(),
                m(|o| o.reference_s(o.stages.resume_s)),
                "s",
            ),
            (
                "peak_bytes".into(),
                iters[0].stages.peak_bytes as f64,
                "bytes",
            ),
            ("peak_rss_mb".into(), peak_rss, "MB"),
            (
                "pass_share".into(),
                1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
                "ratio",
            ),
        ]
    } else {
        layer_metrics(spec, env, args.seed, &iters, &untraced, &mut tally)
    };
    let line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
    Ok(line)
}

/// The per-layer metrics of a traced run: span sums from the traced
/// iterations, stage counters, and the replays of [`layers`].
fn layer_metrics(
    spec: &Spec,
    env: &Env,
    seed: u64,
    iters: &[IterOut],
    untraced: &[&IterOut],
    tally: &mut Tally,
) -> Vec<(String, f64, &'static str)> {
    let traced: Vec<&IterOut> = iters.iter().filter(|o| o.traced).collect();
    let t = |f: fn(&IterOut) -> f64| median_by(&traced, f);
    let sp = &env.spans;
    let span_med = |name: &str| median(&sp.per_run_sums(|n| n == name));

    // The replays run on iteration 0's inputs, under the next run id.
    let run = iters.len() as u64;
    let plan = Plan::new(seed, 0, spec.stage_states(), spec.jobs.len());
    let seed = plan.stage.search_seed;
    let rep = match spec.stage_sys {
        StageSys::Grid(g) => layers::replay_all(
            &g,
            None,
            seed,
            plan.stage.pause_at,
            spec.stage_states(),
            &spec.jobs,
            env,
            run,
            tally,
        ),
        StageSys::Ring(r) => layers::replay_all(
            &r,
            Some(rotation_canon),
            seed,
            plan.stage.pause_at,
            spec.stage_states(),
            &spec.jobs,
            env,
            run,
            tally,
        ),
    };
    let first = &traced[0].stages;
    let w1 = t(|o| o.stages.explore_w1_s.s);
    let wn = t(|o| o.stages.explore_wn_s.s);
    let hooked = matches!(spec.stage_sys, StageSys::Ring(_));
    let attributed = rep.stage_model_s
        + if hooked { rep.canon_s } else { 0.0 }
        + rep.fingerprint_s
        + rep.table_s;
    let job_sum = median(&sp.per_run_sums(|n| n.starts_with("job:")));
    let batch = t(|o| o.batch_s);
    let lasso: usize = traced[0].notes.iter().map(|n| n.lasso_len).sum();
    let per_ns = |s: f64, n: usize| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };

    for o in &traced {
        let mut jobs: Vec<String> = o.notes.iter().map(|n| n.label.clone()).collect();
        jobs.sort();
        jobs.dedup();
        tally.eq("every batch job reported", jobs.len(), spec.jobs.len());
    }
    let job_times = per_label_times(sp);
    for (label, secs) in &job_times {
        eprintln!("perfbench: manifest.job_s[{label}] = {secs:.4} (median over traced iterations)");
    }

    vec![
        (
            "model.step_ns".into(),
            per_ns(rep.model_s, rep.model_transitions),
            "ns",
        ),
        (
            "model.transitions".into(),
            rep.model_transitions as f64,
            "count",
        ),
        (
            "canon.call_ns".into(),
            per_ns(rep.canon_s, rep.canon_calls),
            "ns",
        ),
        (
            "canon.hit_ratio".into(),
            first.canon_hits as f64 / first.transitions.max(1) as f64,
            "ratio",
        ),
        (
            "fingerprint.state_ns".into(),
            per_ns(rep.fingerprint_s, rep.fingerprinted),
            "ns",
        ),
        (
            "table.probe_ns".into(),
            per_ns(rep.table_s, rep.probes),
            "ns",
        ),
        (
            "table.fresh_ratio".into(),
            first.states as f64 / first.transitions.max(1) as f64,
            "ratio",
        ),
        ("pool.speedup".into(), rep.pool_w1_s / rep.pool_wn_s, "x"),
        ("pool.steals".into(), first.steals as f64, "count"),
        (
            "search.states_per_s".into(),
            first.states as f64 / w1,
            "1/s",
        ),
        ("search.levels".into(), first.levels as f64, "count"),
        (
            "search.peak_frontier".into(),
            first.peak_frontier as f64,
            "count",
        ),
        ("search.wn_over_w1".into(), wn / w1, "ratio"),
        ("search.unattributed_s".into(), w1 - attributed, "s"),
        ("graph.build_s".into(), span_med("graph"), "s"),
        (
            "graph.over_search".into(),
            t(|o| o.stages.graph_s.s) / wn,
            "ratio",
        ),
        ("property.check_s".into(), span_med("check"), "s"),
        ("property.lasso_len".into(), lasso as f64, "count"),
        (
            "extmem.over_resident".into(),
            t(|o| o.stages.spill_s.s) / wn,
            "ratio",
        ),
        (
            "extmem.disk_bytes".into(),
            first.spill_bytes as f64,
            "bytes",
        ),
        ("extmem.files".into(), first.spill_files as f64, "count"),
        (
            "page.encode_ns_per_key".into(),
            per_ns(rep.page_encode_s, rep.page_keys),
            "ns",
        ),
        (
            "page.decode_ns_per_key".into(),
            per_ns(rep.page_decode_s, rep.page_keys),
            "ns",
        ),
        (
            "page.bytes_per_key".into(),
            rep.page_bytes as f64 / rep.page_keys.max(1) as f64,
            "bytes",
        ),
        ("snapshot.pause_s".into(), t(|o| o.stages.pause_s), "s"),
        ("snapshot.save_s".into(), t(|o| o.stages.save_s), "s"),
        ("snapshot.load_s".into(), t(|o| o.stages.load_s), "s"),
        (
            "snapshot.resume_s".into(),
            t(|o| o.stages.resume_only_s),
            "s",
        ),
        (
            "snapshot.bytes".into(),
            first.snapshot_bytes as f64,
            "bytes",
        ),
        ("manifest.job_sum_s".into(), job_sum, "s"),
        (
            "manifest.job_max_s".into(),
            job_times.iter().map(|(_, s)| *s).fold(0.0, f64::max),
            "s",
        ),
        (
            "manifest.pool_util".into(),
            job_sum / (env.nproc as f64 * batch),
            "ratio",
        ),
        ("cache.load_s".into(), t(|o| o.cache_load_s), "s"),
        ("cache.save_s".into(), t(|o| o.cache_save_s), "s"),
        ("cache.warm_s".into(), t(|o| o.warm_s), "s"),
        ("cache.hits".into(), traced[0].warm_hits as f64, "count"),
        ("cache.misses".into(), traced[0].misses as f64, "count"),
        (
            "trace.overhead".into(),
            t(IterOut::verdict_reference_s) / median_by(untraced, IterOut::verdict_reference_s),
            "ratio",
        ),
        ("control.legacy_s".into(), rep.legacy_s, "s"),
        (
            "calib.kernel_s".into(),
            median_by(untraced, |o| o.stages.speed.kernel_s(1)),
            "s",
        ),
        (
            "calib.kernel_wn_s".into(),
            median_by(untraced, |o| o.stages.speed.kernel_s(env.nproc)),
            "s",
        ),
        (
            "control.legacy_over_search".into(),
            rep.legacy_s / rep.legacy_search_s,
            "ratio",
        ),
    ]
}

/// Per job label, the median of its `job:` span over the cold batches.
fn per_label_times(sp: &Spans) -> Vec<(String, f64)> {
    let mut by_label: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for s in sp.snapshot() {
        if let Some(label) = s.name.strip_prefix("job:") {
            by_label
                .entry(label.to_string())
                .or_default()
                .push(s.secs());
        }
    }
    by_label.into_iter().map(|(l, v)| (l, median(&v))).collect()
}
