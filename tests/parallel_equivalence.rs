//! Differential suite for the parallel execution engine: for every
//! paper pattern, both exchange primitives and both strip disciplines
//! (four machine configs), and thread counts 1, 2, and 8, the threaded
//! executor must be *indistinguishable* from the serial one —
//! bit-identical result arrays and exactly equal [`Measurement`]s.
//!
//! The serial run (threads = 1) is the oracle; every other thread count
//! is diffed against it. Because the simulated CM-2 is SIMD, every node
//! runs the same schedule, so per-node execution order cannot affect
//! either the numerics (each node owns its memory) or the cycle
//! accounting (the reduction takes the per-step maximum over nodes,
//! which all agree).

use cmcc::cm2::{ExchangePrimitive, Machine, MachineConfig};
use cmcc::core::recognize::CoeffSpec;
use cmcc::core::Compiler;
use cmcc::runtime::{convolve, CmArray, ExecOptions};
use cmcc::{Measurement, PaperPattern};

const THREADS: [usize; 2] = [2, 8];

/// One full convolution under `opts`; returns the measurement and the
/// gathered result bits.
fn run_case(pattern: PaperPattern, opts: &ExecOptions) -> (Measurement, Vec<u32>) {
    run_case_on(MachineConfig::tiny_4(), pattern, opts)
}

/// [`run_case`] on a machine described by `cfg`.
fn run_case_on(
    cfg: MachineConfig,
    pattern: PaperPattern,
    opts: &ExecOptions,
) -> (Measurement, Vec<u32>) {
    let compiler = Compiler::new(cfg.clone());
    let compiled = compiler
        .compile_assignment(&pattern.fortran())
        .expect("paper patterns compile");
    let mut machine = Machine::new(cfg).expect("the config is valid");
    let (rows, cols) = (8usize, 12usize);
    let x = CmArray::new(&mut machine, rows, cols).unwrap();
    x.fill_with(&mut machine, |r, c| {
        ((r * 31 + c * 7) % 41) as f32 * 0.125 - 2.5
    });
    let named = compiled
        .spec()
        .coeffs
        .iter()
        .filter(|c| matches!(c, CoeffSpec::Named(_)))
        .count();
    let coeffs: Vec<CmArray> = (0..named)
        .map(|a| {
            let arr = CmArray::new(&mut machine, rows, cols).unwrap();
            arr.fill_with(&mut machine, move |r, c| {
                ((r * 5 + c * 11 + a * 3) % 13) as f32 * 0.0625 - 0.375
            });
            arr
        })
        .collect();
    let refs: Vec<&CmArray> = coeffs.iter().collect();
    let r = CmArray::new(&mut machine, rows, cols).unwrap();
    let m = convolve(&mut machine, &compiled, &r, &x, &refs, opts)
        .expect("paper patterns run on tiny_4");
    let bits = r.gather(&machine).iter().map(|v| v.to_bits()).collect();
    (m, bits)
}

/// The exhaustive differential sweep: pattern × primitive × strip
/// discipline, serial vs each threaded configuration.
#[test]
fn threaded_execution_is_indistinguishable_from_serial() {
    for pattern in PaperPattern::ALL {
        for primitive in [ExchangePrimitive::News, ExchangePrimitive::OldPerDirection] {
            for half_strips in [true, false] {
                let cfg = MachineConfig {
                    primitive,
                    half_strips,
                    ..MachineConfig::tiny_4()
                };
                let base = ExecOptions::serial();
                let (serial_m, serial_bits) = run_case_on(cfg.clone(), pattern, &base);
                for threads in THREADS {
                    let opts = base.with_threads(threads);
                    let (m, bits) = run_case_on(cfg.clone(), pattern, &opts);
                    assert_eq!(
                        serial_bits,
                        bits,
                        "{} / {primitive:?} / half_strips={half_strips}: \
                         results diverge at {threads} threads",
                        pattern.name()
                    );
                    assert_eq!(
                        serial_m,
                        m,
                        "{} / {primitive:?} / half_strips={half_strips}: \
                         measurement diverges at {threads} threads",
                        pattern.name()
                    );
                }
            }
        }
    }
}

/// Thread counts beyond the node count clamp to the node count — the
/// degenerate oversubscribed case stays exact.
#[test]
fn oversubscribed_thread_counts_are_exact() {
    let base = ExecOptions::serial();
    let (serial_m, serial_bits) = run_case(PaperPattern::Square9, &base);
    for threads in [3, 4, 64, usize::MAX] {
        let (m, bits) = run_case(PaperPattern::Square9, &base.with_threads(threads));
        assert_eq!(serial_bits, bits, "results diverge at {threads} threads");
        assert_eq!(serial_m, m, "measurement diverges at {threads} threads");
    }
}

/// `threads = 0` is treated as 1 (clamped), not a panic.
#[test]
fn zero_threads_clamps_to_serial() {
    let (serial_m, serial_bits) = run_case(PaperPattern::Cross5, &ExecOptions::serial());
    let (m, bits) = run_case(PaperPattern::Cross5, &ExecOptions::serial().with_threads(0));
    assert_eq!(serial_bits, bits);
    assert_eq!(serial_m, m);
}

/// Repeated runs with the same options produce identical measurements:
/// nothing about scheduling leaks into the accounting.
#[test]
fn repeated_threaded_runs_are_deterministic() {
    let opts = ExecOptions::default().with_threads(8);
    let (m1, b1) = run_case(PaperPattern::Diamond13, &opts);
    let (m2, b2) = run_case(PaperPattern::Diamond13, &opts);
    assert_eq!(m1, m2);
    assert_eq!(b1, b2);
}
