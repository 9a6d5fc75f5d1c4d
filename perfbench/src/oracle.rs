//! Known answers that the engines under test do not produce themselves,
//! and the tally of checks made against them.
//!
//! Three kinds of answer:
//! * closed forms — `Grid` state and edge counts, and the number of binary
//!   necklaces and of ones over them (the states and edges of the token
//!   ring's rotation quotient);
//! * verdict directions that follow from the theorems — the FLP lasso
//!   exists for every crashed process, a free scheduler evades election,
//!   greedy merging fails to elect for `n >= 5`, Dijkstra's algorithm is
//!   safe and deadlock-free;
//! * counts with no closed form, pinned once from the legacy reference
//!   engine `impossible_core::explore::Explorer` (for the quotient and the
//!   crash-filtered systems, run on wrappers that canonicalize each
//!   successor or drop the crashed process's actions).

use impossible_explore::SearchReport;

/// Counts checks made and checks failed; `correct` is `failed == 0`.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {what}");
        }
    }

    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.attempted += 1;
        if got != want {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {what}: got {got:?}, want {want:?}");
        }
    }
}

/// Expected shape of a full exploration.
#[derive(Debug, Clone)]
pub struct Expect {
    pub states: usize,
    pub transitions: usize,
    /// States with no enabled action, in merge order.
    pub terminal: Vec<Vec<u8>>,
}

/// `Grid { n, max }`: every counter vector is reachable, `(max+1)^n`
/// states; each state has one edge per counter below `max`, which sums to
/// `n * max * (max+1)^(n-1)`; the all-`max` corner is the only terminal.
pub fn grid(n: usize, max: u8) -> Expect {
    let b = max as usize + 1;
    Expect {
        states: b.pow(n as u32),
        transitions: n * max as usize * b.pow(n as u32 - 1),
        terminal: vec![vec![max; n]],
    }
}

/// Euler's totient.
fn phi(mut m: usize) -> usize {
    let mut r = m;
    let mut p = 2;
    while p * p <= m {
        if m.is_multiple_of(p) {
            while m.is_multiple_of(p) {
                m /= p;
            }
            r -= r / p;
        }
        p += 1;
    }
    if m > 1 {
        r -= r / m;
    }
    r
}

/// Binary necklaces of length `n` (Burnside over the rotation group):
/// `(1/n) * sum over g | n of phi(n/g) * 2^g`.
pub fn necklaces(n: usize) -> usize {
    (1..=n)
        .filter(|&g| n.is_multiple_of(g))
        .map(|g| phi(n / g) << g)
        .sum::<usize>()
        / n
}

/// Edges of the free token ring's rotation quotient: one per token of each
/// necklace representative, so the total number of ones over all binary
/// necklaces. Weighted Burnside: a rotation with `g = gcd(k, n)` fixes the
/// `2^g` strings of period `g`, which hold `n * 2^(g-1)` ones in all, so
/// the total is `sum over g | n of phi(n/g) * 2^(g-1)`.
pub fn ring_free_edges(n: usize) -> usize {
    (1..=n)
        .filter(|&g| n.is_multiple_of(g))
        .map(|g| phi(n / g) << (g - 1))
        .sum()
}

/// Edges of the greedy-merge ring's rotation quotient, pinned from the
/// legacy explorer.
pub fn ring_greedy_edges(n: usize) -> Option<usize> {
    match n {
        20 => Some(266_677),
        22 => Some(1_060_119),
        _ => None,
    }
}

/// The rotation quotient of the token ring: every nonempty necklace is
/// reachable from the all-tokens start, and a token always circulates, so
/// nothing is terminal.
pub fn ring_quotient(n: usize) -> Expect {
    Expect {
        states: necklaces(n) - 1,
        transitions: ring_free_edges(n),
        terminal: Vec::new(),
    }
}

/// Quorum-vote consensus on `n` processes over all binary inputs, with one
/// crashed process's actions dropped: `(states, edges)` pinned from the
/// legacy explorer. By symmetry every crashed process gives the same counts.
pub fn quorum_crashed(n: usize) -> Option<(usize, usize)> {
    match n {
        4 => Some((3_560, 20_256)),
        _ => None,
    }
}

/// Dijkstra's mutual exclusion on `n` processes: `(states, transitions)`
/// pinned from the legacy explorer.
pub fn dijkstra(n: usize) -> Option<(usize, usize)> {
    match n {
        4 => Some((335_023, 1_340_092)),
        _ => None,
    }
}

/// Which report fields a byte-compare may ignore. Each mask is one the
/// repository's own probes already apply.
#[derive(Debug, Clone, Copy)]
pub enum Mask {
    /// Across worker counts (`check scaling`): the worker count and the two
    /// steal counters record the pool shape by design.
    Scaling,
    /// Spilled against resident (`extmem_report_line`): the worker count,
    /// and the RAM high-water mark that spilling exists to lower.
    Extmem,
    /// Resumed against straight (`check resume`): the worker count only.
    Resume,
}

/// The canonical comparison line of a report under `mask`.
pub fn line(r: &SearchReport<Vec<u8>, usize>, mask: Mask) -> String {
    let mut stats = r.stats;
    stats.workers = 0;
    match mask {
        Mask::Scaling => {
            stats.steals = 0;
            stats.stolen_shards = 0;
        }
        Mask::Extmem => stats.peak_bytes = 0,
        Mask::Resume => {}
    }
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.num_states, r.num_transitions, r.terminal_states, r.truncated_by, r.witness, stats
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn necklace_counts_match_the_known_sequence() {
        // OEIS A000031.
        let want = [1, 2, 3, 4, 6, 8, 14, 20, 36, 60, 108];
        for (n, &w) in want.iter().enumerate().skip(1) {
            assert_eq!(necklaces(n), w, "n = {n}");
        }
        assert_eq!(necklaces(22) - 1, 190_745);
    }

    #[test]
    fn ring_edges_match_the_legacy_counts() {
        // Counted by the legacy explorer on the canonicalizing wrapper.
        assert_eq!(ring_free_edges(8), 144);
        assert_eq!(ring_free_edges(20), 524_880);
        assert_eq!(ring_free_edges(22), 2_098_206);
    }

    #[test]
    fn grid_closed_forms() {
        let e = grid(7, 5);
        assert_eq!(e.states, 279_936);
        assert_eq!(e.transitions, 7 * 5 * 46_656);
    }
}
