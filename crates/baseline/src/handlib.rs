//! The 1989 hand-coded library-routine baseline.
//!
//! The 1989 Gordon Bell Prize code's inner loops "were handled by library
//! routines that were carefully coded at a low level ... general enough
//! to be used by many users, but each library routine performs a fixed
//! pattern of computation" (§1). This module models that library:
//!
//! * it offers exactly **one** routine, the nine-point cross (the seismic
//!   kernel's pattern) — any other stencil gets
//!   [`HandLibError::NoSuchRoutine`], which is the paper's motivation for
//!   compiling arbitrary patterns from Fortran;
//! * it predates the slicewise compiler, so every word moved between
//!   memory and the floating-point chip pays the **fieldwise
//!   transposition** overhead the interface chip imposed on
//!   processorwise data (§3);
//! * it uses the **older** grid primitive (one direction at a time) and
//!   processes fixed width-4 strips without the half-strip split.
//!
//! Functionally exact; the cycle model's constants are documented below
//! and produce ≈5 Gflops full-machine for the nine-point cross —
//! bracketing the 1989 prize figure of 5.6 Gflops.

use cmcc_cm2::machine::Machine;
use cmcc_cm2::news::{old_exchange_cycles, ExchangeShape};
use cmcc_cm2::timing::{CycleBreakdown, Measurement};
use cmcc_core::offset::Offset;
use cmcc_core::recognize::{CoeffSpec, StencilSpec};
use cmcc_runtime::array::CmArray;
use cmcc_runtime::error::RuntimeError;
use cmcc_runtime::reference::{reference_convolve, CoeffValue};
use std::fmt;

/// Fixed strip width of the hand-coded routine.
const HAND_WIDTH: u64 = 4;

/// Issue cycles per multiply-add, fieldwise era: the streamed coefficient
/// word crosses the interface chip *and* is transposed from the
/// bit-serial processorwise layout (batches of 32), doubling the
/// calibrated slicewise-era cost of 2.
const FIELDWISE_MAC_CYCLES: u64 = 4;

/// Cycles per load/store, fieldwise era: single transfer plus
/// transposition.
const FIELDWISE_MEM_CYCLES: u64 = 3;

/// Sequencer cycles of loop overhead per line.
const LINE_OVERHEAD: u64 = 2;

/// Per-strip startup (no half-strip split: one startup per strip).
const STRIP_STARTUP: u64 = 60;

/// Front-end cycles per library call.
const CALL_OVERHEAD: u64 = 3000;

/// Errors from the fixed-function library.
#[derive(Debug, Clone, PartialEq)]
pub enum HandLibError {
    /// The library has no routine for this stencil pattern.
    NoSuchRoutine {
        /// Why the pattern did not match.
        reason: String,
    },
    /// Argument trouble, as for the compiled path.
    Runtime(RuntimeError),
}

impl fmt::Display for HandLibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandLibError::NoSuchRoutine { reason } => {
                write!(
                    f,
                    "no hand-coded library routine for this pattern: {reason}"
                )
            }
            HandLibError::Runtime(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for HandLibError {}

impl From<RuntimeError> for HandLibError {
    fn from(e: RuntimeError) -> Self {
        HandLibError::Runtime(e)
    }
}

/// The nine-point cross: center plus ±1 and ±2 along each axis — the
/// pattern of the 1989 seismic code ("a nine-point cross stencil", §7).
pub fn nine_point_cross_offsets() -> Vec<Offset> {
    vec![
        Offset::new(-2, 0),
        Offset::new(-1, 0),
        Offset::new(0, -2),
        Offset::new(0, -1),
        Offset::new(0, 0),
        Offset::new(0, 1),
        Offset::new(0, 2),
        Offset::new(1, 0),
        Offset::new(2, 0),
    ]
}

/// Applies the library's nine-point-cross routine.
///
/// # Errors
///
/// [`HandLibError::NoSuchRoutine`] unless `spec` is exactly a nine-point
/// cross with one coefficient array per tap; argument errors otherwise as
/// for the compiled path.
pub fn handlib_convolve(
    machine: &mut Machine,
    spec: &StencilSpec,
    result: &CmArray,
    source: &CmArray,
    coeffs: &[&CmArray],
) -> Result<Measurement, HandLibError> {
    // Pattern check: the routine is fixed.
    let mut want = nine_point_cross_offsets();
    want.sort();
    let mut got: Vec<Offset> = spec.stencil.taps().iter().map(|t| t.offset).collect();
    got.sort();
    if got != want || !spec.stencil.bias().is_empty() {
        return Err(HandLibError::NoSuchRoutine {
            reason: format!(
                "the library supports only the nine-point cross; statement has {} taps and {} bias terms",
                spec.stencil.taps().len(),
                spec.stencil.bias().len()
            ),
        });
    }

    if !result.same_shape(source) {
        return Err(RuntimeError::ShapeMismatch {
            what: "result and source shapes differ".to_owned(),
        }
        .into());
    }
    let named = spec
        .coeffs
        .iter()
        .filter(|c| matches!(c, CoeffSpec::Named(_)))
        .count();
    if coeffs.len() != named {
        return Err(RuntimeError::WrongCoeffCount {
            expected: named,
            got: coeffs.len(),
        }
        .into());
    }

    // Functional result.
    let x_host = source.gather(machine);
    let coeff_host: Vec<Vec<f32>> = coeffs.iter().map(|a| a.gather(machine)).collect();
    let mut host_iter = coeff_host.iter();
    let values: Vec<CoeffValue<'_>> = spec
        .coeffs
        .iter()
        .map(|c| match c {
            CoeffSpec::Named(_) => CoeffValue::Array(host_iter.next().expect("count checked")),
            CoeffSpec::Literal(v) => CoeffValue::Literal(*v),
        })
        .collect();
    let out = reference_convolve(
        &spec.stencil,
        source.rows(),
        source.cols(),
        &x_host,
        &values,
    );
    result.scatter(machine, &out);

    // Cycle model.
    let cfg = machine.config().clone();
    let sub_rows = source.sub_rows() as u64;
    let sub_cols = source.sub_cols() as u64;
    // A two-deep halo on all four sides, one direction at a time, no
    // corner step (the cross has no diagonal taps).
    let comm = old_exchange_cycles(
        &cfg,
        ExchangeShape::symmetric(2 * source.sub_cols(), 2 * source.sub_rows()),
    );
    // Width-4 strips, whole-row register rings over the 8-column bounding
    // box, one startup per strip, every memory word transposed.
    let strips = sub_cols.div_ceil(HAND_WIDTH);
    let loads_per_line = HAND_WIDTH + 4; // bounding-box row: w + east/west arms
    let macs_per_line = HAND_WIDTH * 9; // 4 results × 9-step chains (pairs keep both threads busy)
    let line_cycles = macs_per_line * FIELDWISE_MAC_CYCLES
        + (loads_per_line + HAND_WIDTH) * FIELDWISE_MEM_CYCLES
        + LINE_OVERHEAD;
    let compute = strips * (STRIP_STARTUP + sub_rows * line_cycles);
    let frontend = CALL_OVERHEAD + strips * u64::from(cfg.frontend_dispatch_cycles);

    Ok(Measurement {
        useful_flops: spec.stencil.useful_flops_per_point()
            * (source.rows() * source.cols()) as u64,
        cycles: CycleBreakdown {
            comm,
            compute,
            frontend,
        },
        nodes: machine.node_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmcc_cm2::config::MachineConfig;
    use cmcc_core::patterns::PaperPattern;

    #[test]
    fn star9_is_the_nine_point_cross() {
        let spec = PaperPattern::Star9.spec().unwrap();
        let mut got: Vec<Offset> = spec.stencil.taps().iter().map(|t| t.offset).collect();
        got.sort();
        let mut want = nine_point_cross_offsets();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn computes_the_cross_exactly() {
        let mut m = Machine::new(MachineConfig::tiny_4()).unwrap();
        let spec = PaperPattern::Star9.spec().unwrap();
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill_with(&mut m, |r, c| (r * 8 + c) as f32 * 0.5);
        let coeffs: Vec<CmArray> = (0..9)
            .map(|i| {
                let a = CmArray::new(&mut m, 8, 8).unwrap();
                a.fill(&mut m, 0.1 * (i + 1) as f32);
                a
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        handlib_convolve(&mut m, &spec, &r, &x, &refs).unwrap();

        let x_host = x.gather(&m);
        let hosts: Vec<Vec<f32>> = coeffs.iter().map(|a| a.gather(&m)).collect();
        let values: Vec<CoeffValue<'_>> = hosts.iter().map(|h| CoeffValue::Array(h)).collect();
        let want = reference_convolve(&spec.stencil, 8, 8, &x_host, &values);
        assert_eq!(r.gather(&m), want);
    }

    #[test]
    fn rejects_other_patterns() {
        let mut m = Machine::new(MachineConfig::tiny_4()).unwrap();
        let spec = PaperPattern::Cross5.spec().unwrap();
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let coeffs: Vec<CmArray> = (0..5)
            .map(|_| CmArray::new(&mut m, 8, 8).unwrap())
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let err = handlib_convolve(&mut m, &spec, &r, &x, &refs).unwrap_err();
        assert!(matches!(err, HandLibError::NoSuchRoutine { .. }));
        assert!(err.to_string().contains("nine-point"));
    }

    #[test]
    fn lands_between_slicewise_and_compiled() {
        // The ordering the paper's history implies: generic ≈4 Gflops <
        // hand library ≈5.6 Gflops < compiler >10 Gflops (full machine).
        let cfg = MachineConfig {
            node_memory_words: 1 << 21,
            ..MachineConfig::tiny_4()
        };
        let mut m = Machine::new(cfg).unwrap();
        let spec = PaperPattern::Star9.spec().unwrap();
        let x = CmArray::new(&mut m, 512, 512).unwrap();
        let r = CmArray::new(&mut m, 512, 512).unwrap();
        let coeffs: Vec<CmArray> = (0..9)
            .map(|_| CmArray::new(&mut m, 512, 512).unwrap())
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let hand = handlib_convolve(&mut m, &spec, &r, &x, &refs)
            .unwrap()
            .extrapolate(2048);
        let gflops = hand.gflops(m.config());
        assert!(
            (4.0..7.0).contains(&gflops),
            "hand library full-machine rate {gflops} Gflops outside the ~5.6 Gflops band"
        );
    }

    #[test]
    fn coefficient_count_checked() {
        let mut m = Machine::new(MachineConfig::tiny_4()).unwrap();
        let spec = PaperPattern::Star9.spec().unwrap();
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let err = handlib_convolve(&mut m, &spec, &r, &x, &[]).unwrap_err();
        assert!(matches!(
            err,
            HandLibError::Runtime(RuntimeError::WrongCoeffCount { .. })
        ));
    }
}
