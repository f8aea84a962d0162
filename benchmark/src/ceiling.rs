//! Host ceilings, measured in the same run as the workload they judge.
//!
//! * Copy bandwidth with `copy_from_slice` — the primitive behind the
//!   lane mirror's row and span copies — once at the
//!   workload's own working-set size and once with each buffer four
//!   times the last-level cache the host reports. Bandwidth counts the
//!   bytes read plus the bytes written.
//! * Multiply-add throughput on 16-lane `f32` rows (one lane per node of
//!   the 16-node board, the shape the kernel tier sweeps), with the
//!   operands held in registers. Each lane's multiply and add count as
//!   two flops, like the program's `TotalFlops`.
//!
//! Every ceiling is the best of several timed samples.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host limits plus the buffer sizes they were measured with.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    pub copy_gbps_ws: f64,
    pub copy_gbps_dram: f64,
    pub fma_gflops: f64,
    /// Bytes per copy buffer at the working-set size: source plus
    /// destination span the workload's working set.
    pub ws_bytes: usize,
    /// Bytes per copy buffer for the memory-bound measurement: four
    /// times the last-level cache each.
    pub dram_bytes: usize,
}

impl Ceilings {
    /// The sizes behind the copy ceilings, for the run's log.
    pub fn describe(&self) -> String {
        format!(
            "ceilings: copy {:.2} GB/s with 2 x {} B buffers (working set), \
             {:.2} GB/s with 2 x {} B buffers (4 x LLC); {:.2} Gflop/s 16-lane mul-add",
            self.copy_gbps_ws, self.ws_bytes, self.copy_gbps_dram, self.dram_bytes, self.fma_gflops
        )
    }
}

/// Measures every ceiling for a workload whose bound arrays span
/// `working_set` bytes, on a host with an `llc_bytes` last-level cache.
pub fn measure(working_set: usize, llc_bytes: usize) -> Ceilings {
    let ws_bytes = working_set / 2;
    let dram_bytes = 4 * llc_bytes;
    Ceilings {
        copy_gbps_ws: copy_gbps(ws_bytes, Duration::from_millis(300)),
        copy_gbps_dram: copy_gbps(dram_bytes, Duration::from_millis(600)),
        fma_gflops: fma_gflops(Duration::from_millis(300)),
        ws_bytes,
        dram_bytes,
    }
}

/// Best copy bandwidth between two `bytes`-sized buffers, in GB/s.
fn copy_gbps(bytes: usize, budget: Duration) -> f64 {
    let words = (bytes / 4).max(1024);
    let src: Vec<f32> = (0..words).map(|i| i as f32).collect();
    let mut dst = vec![0.0f32; words];
    dst.copy_from_slice(&src);
    // Repeat small copies so each sample spans at least ~2 ms.
    let reps = (2_000_000 / words).max(1);
    let start = Instant::now();
    let mut best = 0.0f64;
    let mut samples = 0;
    while samples < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..reps {
            black_box(&mut dst).copy_from_slice(black_box(&src));
        }
        let secs = t.elapsed().as_secs_f64();
        best = best.max((2 * 4 * words * reps) as f64 / secs / 1e9);
        samples += 1;
    }
    best
}

const LANES: usize = 16;
const CHAINS: usize = 4;
const INNER: usize = 1 << 16;

/// Best multiply-add throughput on register-resident 16-lane rows, in
/// Gflop/s.
fn fma_gflops(budget: Duration) -> f64 {
    let a = black_box([0.999_9f32; LANES]);
    let c = black_box([1.0e-4f32; LANES]);
    let start = Instant::now();
    let mut best = 0.0f64;
    let mut samples = 0;
    while samples < 3 || start.elapsed() < budget {
        let mut acc = black_box([[1.0f32; LANES]; CHAINS]);
        let t = Instant::now();
        for _ in 0..INNER {
            for row in acc.iter_mut() {
                for (x, (&m, &k)) in row.iter_mut().zip(a.iter().zip(&c)) {
                    *x = *x * m + k;
                }
            }
        }
        black_box(&acc);
        let secs = t.elapsed().as_secs_f64();
        best = best.max((2 * LANES * CHAINS * INNER) as f64 / secs / 1e9);
        samples += 1;
    }
    best
}
