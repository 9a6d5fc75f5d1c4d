//! Machine-speed calibration, for timings that compare across minutes.
//!
//! On the shared two-vCPU virtual machine the bounds were set on, the same
//! stage runs 30% or more slower for seconds at a time when other tenants
//! load the host, and runs of the same code minutes apart differ by as
//! much; hypervisor steal ([`crate::steal`]) accounts for almost none of
//! it. So every iteration also measures the machine's speed, with a fixed
//! kernel that shares no code with the checker: a fill of a 16 MiB
//! open-addressing table and a quarter-million small allocations. The
//! kernel runs right before every timed stage, on as many threads at once
//! as the stage keeps busy, because the host slows one vCPU and both vCPUs
//! differently. The end-to-end metrics report
//! `REFERENCE_S · stage / kernel`, with `kernel` the mean of the
//! iteration's kernel runs at the stage's width: the stage's time on a
//! machine where one kernel per thread takes [`REFERENCE_S`]. A change to
//! the checker moves the stage and not the kernel, so it moves the metric
//! in full; a slower minute of the host moves both.

/// The kernel's time on the reference machine, in seconds: about its time
/// on an unloaded vCPU of the machine the bounds were set on.
pub const REFERENCE_S: f64 = 0.05;

/// A timing, without hypervisor steal, and the number of threads the timed
/// work kept busy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub s: f64,
    pub threads: usize,
}

/// The kernel runs of one iteration: `(threads, seconds)`.
#[derive(Debug, Clone, Default)]
pub struct Speed {
    on: bool,
    runs: Vec<(usize, f64)>,
}

impl Speed {
    /// Kernel runs are made only if `on`; otherwise probes do nothing.
    pub fn new(on: bool) -> Self {
        Speed {
            on,
            runs: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run the kernel once on each of `threads` threads at once, and keep
    /// the time the slowest took.
    pub fn probe(&mut self, threads: usize) {
        if !self.on {
            return;
        }
        let (sum, t) = crate::steal::timed(|| match threads {
            0 | 1 => kernel(),
            n => std::thread::scope(|sc| {
                let hs: Vec<_> = (0..n).map(|_| sc.spawn(kernel)).collect();
                hs.into_iter()
                    .map(|h| h.join().expect("calibration kernel panicked"))
                    .sum()
            }),
        });
        std::hint::black_box(sum);
        self.runs.push((threads.max(1), t));
    }

    /// Probe on `threads` threads, then time `f`.
    pub fn timed<R>(&mut self, threads: usize, f: impl FnOnce() -> R) -> (R, Sample) {
        self.probe(threads);
        let (r, s) = crate::steal::timed(f);
        (r, Sample { s, threads })
    }

    /// Mean kernel time at `threads` threads (NaN if never probed there).
    pub fn kernel_s(&self, threads: usize) -> f64 {
        let at: Vec<f64> = self
            .runs
            .iter()
            .filter(|(n, _)| *n == threads.max(1))
            .map(|(_, t)| *t)
            .collect();
        at.iter().sum::<f64>() / at.len() as f64
    }

    /// Time spent in kernel runs.
    pub fn total_s(&self) -> f64 {
        self.runs.iter().map(|(_, t)| t).sum()
    }

    /// Mean time of every kernel run, whatever its width.
    pub fn mean_s(&self) -> f64 {
        self.total_s() / self.runs.len() as f64
    }

    /// `t` at the reference speed.
    pub fn reference_s(&self, t: Sample) -> f64 {
        REFERENCE_S * t.s / self.kernel_s(t.threads)
    }
}

/// The kernel: 2^20 pseudo-random keys into a 2^21-slot linear-probing
/// table, and one 7-byte allocation per four keys. The same work every
/// call, whatever the seed.
fn kernel() -> u64 {
    const BITS: u32 = 21;
    let mask = (1usize << BITS) - 1;
    let mut table = vec![0u64; 1 << BITS];
    let mut boxes: Vec<Vec<u8>> = Vec::with_capacity(1 << 18);
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut repeats = 0u64;
    for k in 0..1u64 << 20 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (x >> 1) | 1;
        let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - BITS)) as usize;
        loop {
            match table[slot] {
                0 => {
                    table[slot] = key;
                    break;
                }
                v if v == key => {
                    repeats += 1;
                    break;
                }
                _ => slot = (slot + 1) & mask,
            }
        }
        if k % 4 == 0 {
            boxes.push(key.to_le_bytes()[..7].to_vec());
        }
    }
    repeats + boxes.iter().map(|b| u64::from(b[0])).sum::<u64>()
}
