//! Host speed, measured between units of work.
//!
//! A shared host's speed drifts with its neighbours' load: on a 2-vCPU
//! guest, a fixed loop's time moves by 10–35% over seconds, and a whole
//! 30-second run can sit in a slow or a fast stretch. That drift moves
//! every wall-clock figure, so the workloads time a fixed *reference*
//! between their units of work (rounds, request slices) and report each
//! time scaled to a nominal host speed:
//!
//! ```text
//! reported time = measured time × NOMINAL_NS / median(reference ns)
//! ```
//!
//! The reference has three parts of about 1 ms each: a dependent 16-lane
//! multiply-add chain (core speed), repeated copies of a 256 KiB buffer,
//! and a 16-way transposition of a 1 MiB buffer. The copy and the
//! transposition are the two memory patterns of the lane mirror (span
//! copies, node-major ↔ lane-major gathers); on a 2-vCPU guest they track
//! the loops' slow and fast stretches better than the chain or a
//! cache-sized copy alone. The reference runs on as many threads as the
//! workload, the slowest thread counting. It never touches the program,
//! so a change to the program moves the reported times in full. Raw
//! figures go to the run log next to the factor.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// The reference's time at the nominal host speed, close to its median
/// on the 2-vCPU Xeon guest the bounds were set on.
pub const NOMINAL_NS: f64 = 3.0e6;

const LANES: usize = 16;
const FMA_ITERS: usize = 90_000;
const COPY_WORDS: usize = 64 << 10;
const COPY_PASSES: usize = 90;
/// Rows of the transposition: one per node of the 16-node board.
const ROWS: usize = 16;
const TRANSPOSE_WORDS: usize = 256 << 10;
const TRANSPOSE_PASSES: usize = 2;

/// One thread's buffers, kept across samples so a sample pays no page
/// faults.
struct Buffers {
    src: Vec<f32>,
    dst: Vec<f32>,
    rows: Vec<f32>,
    lanes: Vec<f32>,
}

impl Buffers {
    fn new() -> Self {
        Buffers {
            src: vec![1.0; COPY_WORDS],
            dst: vec![0.0; COPY_WORDS],
            rows: (0..TRANSPOSE_WORDS).map(|i| i as f32).collect(),
            lanes: vec![0.0; TRANSPOSE_WORDS],
        }
    }
}

/// Reference samples of one run.
#[derive(Default)]
pub struct Speed {
    samples: Vec<f64>,
    buffers: Vec<Buffers>,
}

impl Speed {
    /// Times the reference once on `threads` threads at once.
    pub fn sample(&mut self, threads: usize) {
        let threads = threads.max(1);
        while self.buffers.len() < threads {
            self.buffers.push(Buffers::new());
        }
        let barrier = Barrier::new(threads);
        let (own, rest) = self.buffers[..threads]
            .split_first_mut()
            .expect("at least one thread");
        let slowest = std::thread::scope(|scope| {
            let helpers: Vec<_> = rest
                .iter_mut()
                .map(|b| {
                    let barrier = &barrier;
                    scope.spawn(move || reference(b, barrier))
                })
                .collect();
            let own = reference(own, &barrier);
            helpers
                .into_iter()
                .map(|h| h.join().expect("the reference loop cannot panic"))
                .fold(own, u64::max)
        });
        self.samples.push(slowest as f64);
    }

    /// Measured over nominal reference time: a time is divided by this,
    /// a rate multiplied by it. 1 before the first sample.
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            crate::stats::median(&self.samples) / NOMINAL_NS
        }
    }

    /// A measured time, at the nominal host speed.
    pub fn time(&self, t: f64) -> f64 {
        t / self.slowdown()
    }

    /// A measured rate, at the nominal host speed.
    pub fn rate(&self, per_s: f64) -> f64 {
        per_s * self.slowdown()
    }

    /// The run log's line: sample count, median and factor.
    pub fn describe(&self) -> String {
        format!(
            "speed: {} reference samples, median {:.0} ns (nominal {NOMINAL_NS:.0} ns); \
             times divided by {:.4}",
            self.samples.len(),
            crate::stats::median(&self.samples),
            self.slowdown()
        )
    }
}

/// One thread's reference: warms its buffers, waits at `barrier`, then
/// runs the chain, the copies and the transpositions. Returns
/// nanoseconds.
fn reference(b: &mut Buffers, barrier: &Barrier) -> u64 {
    b.dst.copy_from_slice(&b.src);
    b.lanes.copy_from_slice(&b.rows);
    barrier.wait();
    let t = Instant::now();
    let mut x = black_box([1.0f32; LANES]);
    for _ in 0..FMA_ITERS {
        for l in x.iter_mut() {
            *l = *l * 0.999 + 0.001;
        }
        x = black_box(x);
    }
    for _ in 0..COPY_PASSES {
        black_box(&mut b.dst).copy_from_slice(black_box(&b.src));
    }
    let n = TRANSPOSE_WORDS / ROWS;
    for _ in 0..TRANSPOSE_PASSES {
        let rows = black_box(&b.rows);
        for (i, lane) in b.lanes.chunks_exact_mut(ROWS).enumerate() {
            for (k, w) in lane.iter_mut().enumerate() {
                *w = rows[k * n + i];
            }
        }
        black_box(&mut b.lanes);
    }
    black_box((&x, &b.dst));
    t.elapsed().as_nanos() as u64
}
