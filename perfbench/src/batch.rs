//! The manifest batch: model × property jobs run through
//! `impossible_ckpt::run_manifest` on a pool of `nproc` workers, against a
//! verdict cache that starts cold on disk.
//!
//! Each job composes the same public pieces as the model crates' entry
//! points (the `System` impls, their canon hooks, `Search::graph`,
//! `Checker`), so that the traced run can split it into a graph span and a
//! check span. The Dijkstra jobs call `impossible_sharedmem::check` as is.

use crate::oracle::{self, Tally};
use crate::spans::{Ctx, Spans};
use crate::stages::MAX_STATES;
use impossible_ckpt::{job_key, model_fp, CheckJob, ManifestReport, Verdict};
use impossible_consensus::flp::{AsyncCandidate, FlpState, FlpSystem};
use impossible_consensus::quorum::{QuorumLocal, QuorumMsg, QuorumVote};
use impossible_core::ids::ProcessId;
use impossible_core::system::System;
use impossible_election::ring_search::{rotation_canon, GreedyMergeRing, TokenRing};
use impossible_explore::property::{eventually, leads_to, Counterexample};
use impossible_explore::{Checker, Grid, PropertyReport, Search};
use impossible_sharedmem::algorithms::dijkstra::Dijkstra;
use impossible_sharedmem::check::find_deadlock;
use impossible_sharedmem::MutexSystem;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One job of a batch.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    /// `◇(all counters at max)` on `Grid { n, max }`: holds.
    GridCorner { n: usize, max: u8 },
    /// `◇(one token)` on the token ring's rotation quotient under a free
    /// scheduler: fails (the tokens can circulate in lockstep forever).
    RingEvadesFree { n: usize },
    /// `multi-token ⤳ one-token` under greedy merging: fails for `n >= 5`.
    RingGreedyElects { n: usize },
    /// `◇(live processes decide)` for quorum voting with process `failed`
    /// crashed: fails, the checker exhibits the FLP lasso.
    QuorumNonterm { n: usize, failed: usize },
    /// Dijkstra's algorithm never puts two processes in the critical
    /// region: holds.
    DijkstraMutex { n: usize },
    /// Dijkstra's algorithm has no deadlock: holds.
    DijkstraDeadlock { n: usize },
}

/// What the oracle expects of a job's verdict.
#[derive(Debug, Clone, Copy)]
pub struct Want {
    pub holds: bool,
    /// `(states, edges)` when a known answer exists.
    pub counts: Option<(usize, usize)>,
}

/// What a job reports besides its verdict.
#[derive(Debug, Clone)]
pub struct JobNote {
    pub label: String,
    /// Stem plus cycle length of the counterexample lasso, 0 if none.
    pub lasso_len: usize,
}

impl Job {
    /// The label, in the `check manifest` line syntax where one exists.
    pub fn label(&self) -> String {
        match *self {
            Job::GridCorner { n, max } => format!("grid {n} {max} reaches-corner"),
            Job::RingEvadesFree { n } => format!("ring {n} evades-free"),
            Job::RingGreedyElects { n } => format!("ring {n} greedy-elects"),
            Job::QuorumNonterm { n, failed } => format!("quorum {n} {failed} nonterm"),
            Job::DijkstraMutex { n } => format!("dijkstra {n} mutex"),
            Job::DijkstraDeadlock { n } => format!("dijkstra {n} deadlock-free"),
        }
    }

    /// The verdict-cache key (the same keys `check manifest` uses).
    pub fn key(&self) -> u64 {
        match *self {
            Job::GridCorner { n, max } => {
                job_key(model_fp("grid", &[n as u64, max as u64]), "reaches-corner")
            }
            Job::RingEvadesFree { n } => job_key(model_fp("ring", &[n as u64]), "evades-free"),
            Job::RingGreedyElects { n } => {
                job_key(model_fp("greedy-ring", &[n as u64]), "greedy-elects")
            }
            Job::QuorumNonterm { n, failed } => {
                job_key(model_fp("quorum", &[n as u64, failed as u64]), "nonterm")
            }
            Job::DijkstraMutex { n } => job_key(model_fp("dijkstra", &[n as u64]), "mutex"),
            Job::DijkstraDeadlock { n } => {
                job_key(model_fp("dijkstra", &[n as u64]), "deadlock-free")
            }
        }
    }

    /// The known answer: the verdict's direction always, its counts where a
    /// closed form or a pinned legacy count exists.
    pub fn want(&self) -> Want {
        match *self {
            Job::GridCorner { n, max } => {
                let e = oracle::grid(n, max);
                Want {
                    holds: true,
                    counts: Some((e.states, e.transitions)),
                }
            }
            Job::RingEvadesFree { n } => Want {
                holds: false,
                counts: Some((oracle::necklaces(n) - 1, oracle::ring_free_edges(n))),
            },
            Job::RingGreedyElects { n } => Want {
                holds: n < 5,
                counts: oracle::ring_greedy_edges(n).map(|e| (oracle::necklaces(n) - 1, e)),
            },
            Job::QuorumNonterm { n, .. } => Want {
                holds: false,
                counts: oracle::quorum_crashed(n),
            },
            Job::DijkstraMutex { n } => Want {
                holds: true,
                counts: oracle::dijkstra(n),
            },
            // `find_deadlock` reports only the verdict.
            Job::DijkstraDeadlock { .. } => Want {
                holds: true,
                counts: None,
            },
        }
    }

    /// Compute the verdict, timing the graph and check phases as spans
    /// under `ctx`.
    pub fn run(&self, sp: &Spans, ctx: Ctx) -> (Verdict, usize) {
        match *self {
            Job::GridCorner { n, max } => {
                let sys = Grid { n, max };
                let (g, _) = sp.timed("graph", ctx, |_| {
                    Search::new(&sys).max_states(MAX_STATES).graph()
                });
                let corner = eventually("reaches-corner", move |s: &Vec<u8>| {
                    s.iter().all(|&c| c == max)
                });
                let (r, _) = sp.timed("check", ctx, |_| Checker::new(&g).check(&corner));
                verdict(&r)
            }
            Job::RingEvadesFree { n } => {
                let sys = TokenRing { n };
                let (g, _) = sp.timed("graph", ctx, |_| {
                    Search::new(&sys)
                        .max_states(MAX_STATES)
                        .canon(rotation_canon)
                        .graph()
                });
                let prop = eventually("one-token", |s: &Vec<u8>| tokens(s) == 1);
                let (r, _) = sp.timed("check", ctx, |_| Checker::new(&g).check(&prop));
                verdict(&r)
            }
            Job::RingGreedyElects { n } => {
                let sys = GreedyMergeRing { n };
                let (g, _) = sp.timed("graph", ctx, |_| {
                    Search::new(&sys)
                        .max_states(MAX_STATES)
                        .canon(rotation_canon)
                        .graph()
                });
                let prop = leads_to(
                    "merges-elect",
                    |s: &Vec<u8>| tokens(s) >= 2,
                    |s: &Vec<u8>| tokens(s) == 1,
                );
                let (r, _) = sp.timed("check", ctx, |_| Checker::new(&g).check(&prop));
                verdict(&r)
            }
            Job::QuorumNonterm { n, failed } => quorum_nonterm(n, failed, sp, ctx),
            Job::DijkstraMutex { n } => {
                let alg = Dijkstra::new(n);
                let sys = MutexSystem::new(&alg);
                let (r, _) = sp.timed("search", ctx, |_| {
                    Search::new(&sys)
                        .max_states(MAX_STATES)
                        .search(|s| sys.critical_processes(s).len() >= 2)
                });
                let v = Verdict {
                    holds: r.witness.is_none() && r.truncated_by.is_none(),
                    states: r.num_states,
                    edges: r.num_transitions,
                };
                (v, 0)
            }
            Job::DijkstraDeadlock { n } => {
                let alg = Dijkstra::new(n);
                let sys = MutexSystem::new(&alg);
                let (dead, _) = sp.timed("deadlock", ctx, |_| find_deadlock(&sys, MAX_STATES));
                (
                    Verdict {
                        holds: dead.is_none(),
                        states: 0,
                        edges: 0,
                    },
                    0,
                )
            }
        }
    }
}

impl Job {
    /// Replay `enabled` + `step` over the job's reachable states (its graph
    /// is built first, untimed): `(seconds, transitions)`.
    pub fn replay_model(&self) -> (f64, usize) {
        let all = |_: &usize| true;
        match *self {
            Job::GridCorner { n, max } => {
                let sys = Grid { n, max };
                let g = Search::new(&sys).max_states(MAX_STATES).graph();
                replay(&sys, &g.order, all)
            }
            Job::RingEvadesFree { n } => {
                let sys = TokenRing { n };
                let g = Search::new(&sys)
                    .max_states(MAX_STATES)
                    .canon(rotation_canon)
                    .graph();
                replay(&sys, &g.order, all)
            }
            Job::RingGreedyElects { n } => {
                let sys = GreedyMergeRing { n };
                let g = Search::new(&sys)
                    .max_states(MAX_STATES)
                    .canon(rotation_canon)
                    .graph();
                replay(&sys, &g.order, all)
            }
            Job::QuorumNonterm { n, failed } => {
                let cand = QuorumVote::new(n);
                let sys = FlpSystem::all_binary(&cand);
                let live = |a: &_| sys.owner(a) != Some(ProcessId(failed));
                let g = Search::new(&sys)
                    .max_states(MAX_STATES)
                    .graph_filtered(live);
                replay(&sys, &g.order, live)
            }
            Job::DijkstraMutex { n } | Job::DijkstraDeadlock { n } => {
                let alg = Dijkstra::new(n);
                let sys = MutexSystem::new(&alg);
                let g = Search::new(&sys).max_states(MAX_STATES).graph();
                replay(&sys, &g.order, |_| true)
            }
        }
    }
}

/// Time `enabled` + `step` over `states`, keeping only actions `keep`
/// admits: `(seconds, transitions)`.
pub fn replay<S: System>(
    sys: &S,
    states: &[S::State],
    keep: impl Fn(&S::Action) -> bool,
) -> (f64, usize) {
    let t0 = std::time::Instant::now();
    let mut transitions = 0;
    for s in states {
        for a in sys.enabled(s).iter().filter(|a| keep(a)) {
            std::hint::black_box(sys.step(s, a));
            transitions += 1;
        }
    }
    (t0.elapsed().as_secs_f64(), transitions)
}

/// The quorum FLP lasso job: drop the crashed process's actions from the
/// reachable graph, then check that every live process eventually decides
/// under FLP admissibility and per-live-process fairness.
fn quorum_nonterm(n: usize, failed: usize, sp: &Spans, ctx: Ctx) -> (Verdict, usize) {
    let cand = QuorumVote::new(n);
    let sys = FlpSystem::all_binary(&cand);
    let (g, _) = sp.timed("graph", ctx, |_| {
        Search::new(&sys)
            .max_states(MAX_STATES)
            .graph_filtered(|a| sys.owner(a) != Some(ProcessId(failed)))
    });
    let live: Vec<usize> = (0..n).filter(|&p| p != failed).collect();
    let class: BTreeMap<usize, usize> = live.iter().enumerate().map(|(k, &p)| (p, k)).collect();
    let prop = eventually(
        "live-processes-decide",
        |s: &FlpState<QuorumLocal, QuorumMsg>| {
            live.iter().all(|&p| cand.decision(&s.locals[p]).is_some())
        },
    );
    let (r, _) = sp.timed("check", ctx, |_| {
        Checker::new(&g)
            .admissible(|s: &FlpState<QuorumLocal, QuorumMsg>| {
                s.pending.iter().all(|(_, to, _)| *to == failed)
            })
            .fairness(live.len(), |a| {
                sys.owner(a).and_then(|p| class.get(&p.index()).copied())
            })
            .check(&prop)
    });
    verdict(&r)
}

fn tokens(s: &[u8]) -> usize {
    s.iter().filter(|&&b| b == 1).count()
}

fn verdict<S: Clone, A: Clone>(r: &PropertyReport<S, A>) -> (Verdict, usize) {
    let lasso_len = match &r.counterexample {
        Some(Counterexample::Lasso(l)) => l.stem.len() + l.cycle.len(),
        _ => 0,
    };
    (
        Verdict {
            holds: r.holds && !r.truncated,
            states: r.states,
            edges: r.edges,
        },
        lasso_len,
    )
}

/// The batch as `CheckJob`s in `order`, each timed as a `job:<label>` span
/// under `ctx`; lasso lengths land in `notes`.
pub fn check_jobs<'a>(
    jobs: &'a [Job],
    order: &[usize],
    sp: &'a Spans,
    ctx: Ctx,
    notes: &'a Mutex<Vec<JobNote>>,
) -> Vec<CheckJob<'a>> {
    order
        .iter()
        .map(|&k| {
            let job = &jobs[k];
            let label = job.label();
            let span = format!("job:{label}");
            CheckJob {
                label: label.clone(),
                key: job.key(),
                run: Box::new(move || {
                    let ((v, lasso_len), _) = sp.timed(&span, ctx, |c| job.run(sp, c));
                    let note = JobNote {
                        label: label.clone(),
                        lasso_len,
                    };
                    notes.lock().expect("job notes poisoned").push(note);
                    v
                }),
            }
        })
        .collect()
}

/// Check a cold batch's report against the known answers: every job a
/// miss, every verdict as the oracle says.
pub fn check_report(report: &ManifestReport, jobs: &[Job], tally: &mut Tally) {
    tally.eq("batch cache hits (cold)", report.hits, 0);
    tally.eq("batch cache misses (cold)", report.misses, jobs.len());
    let want: BTreeMap<String, Want> = jobs.iter().map(|j| (j.label(), j.want())).collect();
    tally.eq("batch outcomes", report.outcomes.len(), jobs.len());
    for o in &report.outcomes {
        let Some(w) = want.get(&o.label) else {
            tally.check(&format!("unknown job label {}", o.label), false);
            continue;
        };
        tally.eq(&format!("{} holds", o.label), o.verdict.holds, w.holds);
        if let Some((states, edges)) = w.counts {
            tally.eq(&format!("{} states", o.label), o.verdict.states, states);
            tally.eq(&format!("{} edges", o.label), o.verdict.edges, edges);
        }
    }
}
