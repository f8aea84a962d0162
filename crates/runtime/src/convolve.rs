//! The run-time library's main entry point: executing a compiled stencil
//! over distributed arrays.
//!
//! One stencil call does, in order (§5): allocate temporary storage, copy
//! the source subgrid into it, perform the halo exchange (all four
//! neighbors at once, then corners if the pattern needs them), then strip-
//! mine the subgrid — shaving the widest workable strip each time — and
//! run each strip as two half-strips through the compiled kernels. The
//! call returns a [`Measurement`] with the paper's accounting: useful
//! flops only, and cycles split into communication, compute, and
//! front-end overhead.

use crate::array::CmArray;
use crate::error::RuntimeError;
use crate::plan::{ExecutionPlan, StencilBinding};
use cmcc_cm2::exec::ExecEngine;
use cmcc_cm2::machine::Machine;
use cmcc_cm2::timing::Measurement;
use cmcc_core::compiler::CompiledStencil;

/// Execution options for one stencil call: what a caller picks per run.
/// Part of a plan-cache key (hence `Hash`): plans built under different
/// options are distinct. How the machine's run-time library exchanges
/// halos and splits strips is not an option but a property of the
/// machine ([`cmcc_cm2::MachineConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecOptions {
    /// Which engine runs the stencil: the scalar engine under the cycle
    /// model (the default), or one of the two fast functional engines —
    /// the node-outer scalar path or the lockstep row sweeps over node
    /// lanes (bit-identical results). A lockstep plan falls back to the
    /// scalar engine when a binding cannot be lane-mapped (array
    /// aliasing, or a row program the build refuses) and says why
    /// ([`crate::ExecutionPlan::lane_fallback`]).
    pub engine: ExecEngine,
    /// Host threads kernel execution fans out over (clamped to
    /// `1..=node_count`; `1` is the serial path). The scalar engine
    /// splits whole nodes across threads; the lockstep engine splits
    /// each row sweep's output rows into bands of contiguous rows, one
    /// per thread, over its one lane mirror. Results and
    /// [`Measurement`]s are bit-identical for every value — the node
    /// reduction is deterministic, and each point's chain stays on one
    /// thread — so this knob trades wall-clock time only. Defaults to
    /// the host's available parallelism.
    pub threads: usize,
    /// Fuse this many time steps per halo exchange (temporal tiling).
    /// `1` (the default) is the classic one-exchange-per-execute loop.
    /// With `k > 1` the plan deepens every halo to `k·radius`, and a
    /// single `execute` refreshes and exchanges once, then applies the
    /// stencil `k` times — ping-ponging between scratch states on the
    /// lane mirror with a shrinking valid region per inner step — and
    /// commits the result once. Callers therefore
    /// advance `k` time steps per `execute`; query the plan's
    /// effective depth via `ExecutionPlan::temporal_depth()` (the
    /// planner clamps back to `1` — and counts `TemporalFallbacks` —
    /// when the request cannot be honored: the cycle or scalar engine,
    /// multi-source stencils, pointwise stencils, or subgrids smaller
    /// than `k·radius`; a binding whose result aliases a named
    /// coefficient is refused instead). Part of the plan-cache key like
    /// every other option.
    pub temporal_depth: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            engine: ExecEngine::Cycle,
            threads: default_threads(),
            temporal_depth: 1,
        }
    }
}

/// The host's available parallelism (`1` when it cannot be queried).
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl ExecOptions {
    /// Fast functional execution (no timing) on the lockstep engine —
    /// for applications that iterate many time steps and validate
    /// results rather than cycles.
    pub fn fast() -> Self {
        Self::default().with_engine(ExecEngine::Lockstep)
    }

    /// Today's serial execution path (`threads = 1`) — for
    /// wall-clock-reproducible benchmarking of the simulator itself.
    pub fn serial() -> Self {
        ExecOptions {
            threads: 1,
            ..Self::default()
        }
    }

    /// The same options with a pinned thread count.
    pub fn with_threads(self, threads: usize) -> Self {
        ExecOptions { threads, ..self }
    }

    /// The same options with a pinned engine.
    pub fn with_engine(self, engine: ExecEngine) -> Self {
        ExecOptions { engine, ..self }
    }

    /// The same options with a requested temporal-tiling depth: one
    /// `execute` fuses up to `k` time steps per halo exchange. `0` is
    /// treated as `1`.
    pub fn with_temporal_depth(self, k: usize) -> Self {
        ExecOptions {
            temporal_depth: k.max(1),
            ..self
        }
    }
}

/// Executes `compiled` on `machine`: `result = stencil(source, coeffs)`.
///
/// `coeffs` supplies one distributed array per *named* coefficient of the
/// statement, in the order [`cmcc_core::recognize::StencilSpec::coeffs`]
/// lists them (literal coefficients are materialized internally).
///
/// # Errors
///
/// Shape mismatches, halo-too-deep subgrids, wrong coefficient counts,
/// node-memory exhaustion, or (indicating a compiler bug) a pipeline
/// hazard.
///
/// # Examples
///
/// ```
/// use cmcc_cm2::{Machine, MachineConfig};
/// use cmcc_core::Compiler;
/// use cmcc_runtime::{convolve, CmArray, ExecOptions};
///
/// let mut machine = Machine::new(MachineConfig::tiny_4())?;
/// let compiled = Compiler::new(machine.config().clone())
///     .compile_assignment("R = 0.25 * CSHIFT(X, 1, -1) + 0.75 * X")?;
/// let x = CmArray::new(&mut machine, 8, 8)?;
/// let r = CmArray::new(&mut machine, 8, 8)?;
/// x.fill(&mut machine, 4.0);
/// let m = convolve(&mut machine, &compiled, &r, &x, &[], &ExecOptions::default())?;
/// assert_eq!(r.get(&machine, 3, 3), 4.0);
/// assert!(m.cycles.total() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn convolve(
    machine: &mut Machine,
    compiled: &CompiledStencil,
    result: &CmArray,
    source: &CmArray,
    coeffs: &[&CmArray],
    opts: &ExecOptions,
) -> Result<Measurement, RuntimeError> {
    convolve_multi(machine, compiled, result, &[source], coeffs, opts)
}

/// Executes a (possibly multi-source) stencil: `result = stencil(sources,
/// coeffs)`. One array per entry of
/// [`cmcc_core::recognize::StencilSpec::sources`], in order — the §9
/// future-work extension ("handle all ten terms as one stencil pattern").
///
/// # Errors
///
/// As [`convolve`], plus [`RuntimeError::WrongSourceCount`] when the
/// source list does not match the statement.
pub fn convolve_multi(
    machine: &mut Machine,
    compiled: &CompiledStencil,
    result: &CmArray,
    sources: &[&CmArray],
    coeffs: &[&CmArray],
    opts: &ExecOptions,
) -> Result<Measurement, RuntimeError> {
    // The four phases run back to back: bind (validate), plan (allocate
    // temporaries, compile the exchange and the schedule), execute,
    // release. Temporary allocations live only for this call (§5: the
    // run-time library "takes care of allocating temporary memory
    // space") and go back to the arena whether or not the execute
    // succeeds; callers that iterate keep the plan instead — see
    // [`crate::plan`] and the session-level plan cache.
    let binding = StencilBinding::new(compiled, result, sources, coeffs)?;
    let mut plan = ExecutionPlan::build(machine, &binding, opts)?;
    let outcome = plan.execute(machine);
    plan.release(machine);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{reference_convolve, CoeffValue};
    use cmcc_cm2::config::MachineConfig;
    use cmcc_cm2::news::ExchangePrimitive;
    use cmcc_core::compiler::Compiler;
    use cmcc_core::patterns::PaperPattern;
    use cmcc_core::recognize::CoeffSpec;

    fn machine() -> Machine {
        Machine::new(MachineConfig::tiny_4()).unwrap()
    }

    /// Runs `compiled` on an 8×12 problem and compares against the
    /// reference evaluator, bit for bit.
    fn check(source_text: &str, engine: ExecEngine) {
        let mut m = machine();
        let compiled = Compiler::new(m.config().clone())
            .compile_assignment(source_text)
            .unwrap();
        let spec = compiled.spec();
        let (rows, cols) = (8usize, 12usize);

        let x = CmArray::new(&mut m, rows, cols).unwrap();
        x.fill_with(&mut m, |r, c| ((r * 31 + c * 17) % 23) as f32 * 0.375 - 3.0);

        let mut coeff_arrays = Vec::new();
        for (i, c) in spec.coeffs.iter().enumerate() {
            match c {
                CoeffSpec::Named(_) => {
                    let arr = CmArray::new(&mut m, rows, cols).unwrap();
                    arr.fill_with(&mut m, move |r, c| {
                        ((r * 7 + c * 3 + i * 11) % 13) as f32 * 0.25 - 1.0
                    });
                    coeff_arrays.push(arr);
                }
                CoeffSpec::Literal(_) => {}
            }
        }
        let r = CmArray::new(&mut m, rows, cols).unwrap();

        let refs: Vec<&CmArray> = coeff_arrays.iter().collect();
        let opts = ExecOptions::default().with_engine(engine);
        let measurement = convolve(&mut m, &compiled, &r, &x, &refs, &opts).unwrap();

        // Host-side golden model.
        let x_host = x.gather(&m);
        let coeff_host: Vec<Vec<f32>> = coeff_arrays.iter().map(|a| a.gather(&m)).collect();
        let mut host_iter = coeff_host.iter();
        let values: Vec<CoeffValue<'_>> = spec
            .coeffs
            .iter()
            .map(|c| match c {
                CoeffSpec::Named(_) => CoeffValue::Array(host_iter.next().unwrap()),
                CoeffSpec::Literal(v) => CoeffValue::Literal(*v),
            })
            .collect();
        let want = reference_convolve(compiled.stencil(), rows, cols, &x_host, &values);
        let got = r.gather(&m);
        for i in 0..want.len() {
            assert_eq!(
                got[i].to_bits(),
                want[i].to_bits(),
                "element ({}, {}): got {}, want {}",
                i / cols,
                i % cols,
                got[i],
                want[i]
            );
        }
        match engine {
            ExecEngine::Cycle => assert!(measurement.cycles.total() > 0),
            ExecEngine::Scalar | ExecEngine::Lockstep => {
                assert_eq!(measurement.cycles.compute, 0)
            }
        }
        assert_eq!(
            measurement.useful_flops,
            compiled.stencil().useful_flops_per_point() * (rows * cols) as u64
        );
    }

    #[test]
    fn all_paper_patterns_match_reference() {
        for p in PaperPattern::ALL {
            check(&p.fortran(), ExecEngine::Cycle);
        }
    }

    #[test]
    fn fast_mode_matches_reference_too() {
        check(&PaperPattern::Square9.fortran(), ExecEngine::Lockstep);
    }

    #[test]
    fn literal_coefficients_and_unit_taps() {
        check(
            "R = 0.25 * CSHIFT(X, 1, -1) + X + 0.25 * CSHIFT(X, 1, +1) + B",
            ExecEngine::Cycle,
        );
    }

    #[test]
    fn eoshift_boundary_fill_value_end_to_end() {
        // Neumann-ish wall at 100.0: the halo beyond the global edge is
        // filled with the BOUNDARY= constant, machine and reference alike.
        check(
            "R = 0.5 * EOSHIFT(X, 1, -1, BOUNDARY=100.0) + 0.5 * X",
            ExecEngine::Cycle,
        );
        // And observably: the top row blends toward 100.
        let mut m = machine();
        let compiled = Compiler::new(m.config().clone())
            .compile_assignment("R = 0.5 * EOSHIFT(X, 1, -1, BOUNDARY=100.0) + 0.5 * X")
            .unwrap();
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill(&mut m, 0.0);
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        convolve(&mut m, &compiled, &r, &x, &[], &ExecOptions::default()).unwrap();
        assert_eq!(r.get(&m, 0, 3), 50.0);
        assert_eq!(r.get(&m, 1, 3), 0.0);
    }

    #[test]
    fn eoshift_boundary() {
        check(
            "R = C1 * EOSHIFT(X, 1, -1) + C2 * X + C3 * EOSHIFT(X, 2, +1)",
            ExecEngine::Cycle,
        );
    }

    #[test]
    fn wide_border_stencil() {
        check(
            "R = C1 * CSHIFT(X, 2, -2) + C2 * X + C3 * CSHIFT(CSHIFT(X, 1, +2), 2, +1)",
            ExecEngine::Cycle,
        );
    }

    /// The five-point cross on an 8×8 problem, run once on a machine
    /// described by `cfg`: its measurement and result.
    fn cross5_on(cfg: MachineConfig) -> (Measurement, Vec<f32>) {
        let mut m = Machine::new(cfg).unwrap();
        let compiled = Compiler::new(m.config().clone())
            .compile_assignment(&PaperPattern::Cross5.fortran())
            .unwrap();
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill_with(&mut m, |r, c| (r * 8 + c) as f32);
        let coeffs: Vec<CmArray> = (0..5)
            .map(|i| {
                let a = CmArray::new(&mut m, 8, 8).unwrap();
                a.fill(&mut m, 0.1 * (i + 1) as f32);
                a
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let measurement =
            convolve(&mut m, &compiled, &r, &x, &refs, &ExecOptions::default()).unwrap();
        (measurement, r.gather(&m))
    }

    #[test]
    fn full_strip_option_matches_reference() {
        let (half, r_half) = cross5_on(MachineConfig::tiny_4());
        let (full, r_full) = cross5_on(MachineConfig {
            half_strips: false,
            ..MachineConfig::tiny_4()
        });
        assert_eq!(r_half, r_full);
        // Full strips pay one startup per strip rather than two.
        assert!(full.cycles.compute < half.cycles.compute);
        assert!(full.cycles.frontend < half.cycles.frontend);
    }

    #[test]
    fn corner_skip_saves_cycles_for_cross() {
        let (skip, _) = cross5_on(MachineConfig::tiny_4());
        let (noskip, _) = cross5_on(MachineConfig {
            skip_corners_when_possible: false,
            ..MachineConfig::tiny_4()
        });
        assert!(noskip.cycles.comm > skip.cycles.comm);
    }

    #[test]
    fn old_primitive_costs_more() {
        let (new, _) = cross5_on(MachineConfig::tiny_4());
        let (old, _) = cross5_on(MachineConfig {
            primitive: ExchangePrimitive::OldPerDirection,
            ..MachineConfig::tiny_4()
        });
        assert!(old.cycles.comm > new.cycles.comm);
        assert_eq!(old.cycles.compute, new.cycles.compute);
    }

    #[test]
    fn temporary_memory_is_released() {
        let mut m = machine();
        let compiled = Compiler::new(m.config().clone())
            .compile_assignment("R = 0.5 * X")
            .unwrap();
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let before = m.alloc_mark();
        let persistent = m.persistent_used();
        for _ in 0..5 {
            convolve(&mut m, &compiled, &r, &x, &[], &ExecOptions::default()).unwrap();
        }
        assert_eq!(m.alloc_mark(), before, "temporaries must be released");
        assert_eq!(
            m.persistent_used(),
            persistent,
            "plan fields must go back to the arena"
        );
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let mut m = machine();
        let compiled = Compiler::new(m.config().clone())
            .compile_assignment("R = C * X")
            .unwrap();
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let r_bad = CmArray::new(&mut m, 8, 12).unwrap();
        let c = CmArray::new(&mut m, 8, 8).unwrap();
        let err = convolve(
            &mut m,
            &compiled,
            &r_bad,
            &x,
            &[&c],
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::ShapeMismatch { .. }));
    }

    #[test]
    fn wrong_coefficient_count_rejected() {
        let mut m = machine();
        let compiled = Compiler::new(m.config().clone())
            .compile_assignment("R = C1 * X + C2 * CSHIFT(X, 1, 1)")
            .unwrap();
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let err = convolve(&mut m, &compiled, &r, &x, &[], &ExecOptions::default()).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::WrongCoeffCount {
                expected: 2,
                got: 0
            }
        );
    }

    #[test]
    fn halo_deeper_than_subgrid_is_rejected() {
        let mut m = machine();
        let compiled = Compiler::new(m.config().clone())
            .compile_assignment("R = C * CSHIFT(X, 1, -5)")
            .unwrap();
        let x = CmArray::new(&mut m, 8, 8).unwrap(); // 4x4 subgrids
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let c = CmArray::new(&mut m, 8, 8).unwrap();
        let err = convolve(&mut m, &compiled, &r, &x, &[&c], &ExecOptions::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::SubgridTooSmall { .. }));
    }
}
