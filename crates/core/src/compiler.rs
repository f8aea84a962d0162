//! The compiler driver: Fortran text (or stencil IR) in, per-width
//! kernels out.
//!
//! "We have found it practical for the compiler to attempt to construct
//! multistencils of width 8, 4, 2, and 1; it is all right if some of
//! these don't work. The idea is that the run-time library routine can
//! handle a subgrid of any size or shape simply by shaving off, at each
//! step, the widest strip for which the compiler managed to construct a
//! workable multistencil" (§5.3). [`CompiledStencil`] is that per-width
//! kernel table; [`CompiledStencil::widest_kernel_for`] is the shaving
//! rule.

use crate::columns::PlanError;
use crate::error::CompileError;
use crate::recognize::{recognize, recognize_extended, StencilSpec};
use crate::regalloc::Walk;
use crate::schedule::{emit_kernel_with, KernelInfo};
use crate::stencil::Stencil;
use cmcc_cm2::config::{MachineConfig, FPU_REGISTERS};
use cmcc_cm2::isa::Kernel;
use cmcc_cm2::sequencer::ScratchMemory;
use cmcc_front::parser::{parse_assignment, parse_subroutine};
use cmcc_front::sexp::parse_defstencil;

/// The kernels for one strip width, in both walk directions.
///
/// The two half-strips of a strip both start at a subgrid edge and work
/// toward the center (§5.2); the bottom half walks north and the top half
/// walks south, so each width carries a mirrored kernel pair.
#[derive(Debug, Clone, PartialEq)]
pub struct StripKernel {
    /// The strip width `w`.
    pub width: usize,
    /// Kernel walking north (bottom half-strip, edge→center).
    pub north: Kernel,
    /// Kernel walking south (top half-strip, edge→center).
    pub south: Kernel,
    /// Structural summary (identical for both directions).
    pub info: KernelInfo,
}

/// A fully compiled stencil statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStencil {
    spec: StencilSpec,
    kernels: Vec<StripKernel>,
    fingerprint: u64,
}

impl CompiledStencil {
    /// The recognized statement: names and stencil IR.
    pub fn spec(&self) -> &StencilSpec {
        &self.spec
    }

    /// A stable structural fingerprint of the compilation: the spec
    /// fingerprint combined with the full kernel set (widths, unroll
    /// patterns, instruction streams). Computed once at compile time;
    /// equal fingerprints mean interchangeable compilations, so this is
    /// the statement component of an execution-plan cache key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The stencil IR.
    pub fn stencil(&self) -> &Stencil {
        &self.spec.stencil
    }

    /// The compiled kernels, widest first.
    pub fn kernels(&self) -> &[StripKernel] {
        &self.kernels
    }

    /// The workable strip widths, descending.
    pub fn widths(&self) -> Vec<usize> {
        self.kernels.iter().map(|k| k.width).collect()
    }

    /// The widest kernel not exceeding `remaining` columns — the run-time
    /// library's strip-shaving rule. Returns `None` when `remaining` is
    /// zero.
    pub fn widest_kernel_for(&self, remaining: usize) -> Option<&StripKernel> {
        self.kernels.iter().find(|k| k.width <= remaining)
    }

    /// Total sequencer scratch-memory entries across all kernels (the
    /// resource the unroll factor spends, §5.4).
    pub fn scratch_entries(&self) -> usize {
        self.kernels
            .iter()
            .map(|k| k.north.scratch_entries() + k.south.scratch_entries())
            .sum()
    }
}

/// The Connection Machine Convolution Compiler.
///
/// # Examples
///
/// ```
/// use cmcc_core::compiler::Compiler;
///
/// let compiler = Compiler::default();
/// let compiled = compiler.compile_assignment(
///     "R = C1 * CSHIFT(X, 1, -1) + C2 * X + C3 * CSHIFT(X, 1, +1)",
/// )?;
/// assert_eq!(compiled.widths(), vec![8, 4, 2, 1]);
/// # Ok::<(), cmcc_core::error::CompileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    cfg: MachineConfig,
    widths: Vec<usize>,
    max_unroll: usize,
    scratch: ScratchMemory,
    paired: bool,
}

impl Compiler {
    /// A compiler for the given machine, attempting the paper's widths
    /// 8, 4, 2, 1.
    pub fn new(cfg: MachineConfig) -> Self {
        Compiler {
            cfg,
            widths: vec![8, 4, 2, 1],
            max_unroll: 512,
            scratch: ScratchMemory::default(),
            paired: true,
        }
    }

    /// Disables the paired-results interleave (the §5.3 two-thread
    /// discipline) — the pairing ablation's counterfactual, at half the
    /// multiply-add throughput.
    pub fn with_paired_results(mut self, paired: bool) -> Self {
        self.paired = paired;
        self
    }

    /// Overrides the sequencer scratch-memory budget (the resource loop
    /// unrolling spends, §5.4). Widths are dropped, narrowest-but-one
    /// first, until the kernel set fits.
    pub fn with_scratch(mut self, scratch: ScratchMemory) -> Self {
        self.scratch = scratch;
        self
    }

    /// Overrides the candidate strip widths (sorted descending and
    /// deduplicated internally). Used by the width ablation.
    pub fn with_widths(mut self, widths: impl IntoIterator<Item = usize>) -> Self {
        let mut w: Vec<usize> = widths.into_iter().filter(|&w| w > 0).collect();
        w.sort_unstable_by(|a, b| b.cmp(a));
        w.dedup();
        self.widths = w;
        self
    }

    /// Caps the unroll factor (sequencer scratch-memory budget).
    pub fn with_max_unroll(mut self, max_unroll: usize) -> Self {
        self.max_unroll = max_unroll.max(1);
        self
    }

    /// The machine configuration this compiler targets.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Compiles recognized stencil IR into kernels.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::NoFeasibleWidth`] when no candidate width
    /// fits the register file.
    pub fn compile(&self, spec: StencilSpec) -> Result<CompiledStencil, CompileError> {
        let mut kernels: Vec<StripKernel> = Vec::new();
        let mut narrowest_failure: Option<(usize, usize)> = None;
        for &width in &self.widths {
            match (
                emit_kernel_with(
                    &spec.stencil,
                    width,
                    Walk::North,
                    &self.cfg,
                    self.max_unroll,
                    self.paired,
                ),
                emit_kernel_with(
                    &spec.stencil,
                    width,
                    Walk::South,
                    &self.cfg,
                    self.max_unroll,
                    self.paired,
                ),
            ) {
                (Ok((north, info)), Ok((south, _))) => kernels.push(StripKernel {
                    width,
                    north,
                    south,
                    info,
                }),
                (Err(e), _) | (_, Err(e)) => {
                    if let PlanError::NotEnoughRegisters { needed, available } = e {
                        narrowest_failure = Some((needed, available));
                    }
                }
            }
        }
        if kernels.is_empty() {
            let (needed, available) =
                narrowest_failure.unwrap_or((FPU_REGISTERS, FPU_REGISTERS - 1));
            return Err(CompileError::NoFeasibleWidth { needed, available });
        }
        // Fit the kernel set into the sequencer's scratch data memory:
        // every width's pair of kernels is resident during a call. Widths
        // are dropped narrowest-but-one first — the widest kernel carries
        // the throughput, width 1 guarantees coverage of any subgrid.
        loop {
            let demand = self
                .scratch
                .check(kernels.iter().flat_map(|k| [&k.north, &k.south]));
            match demand {
                Ok(_) => break,
                Err(overflow) => {
                    // Candidate to drop: the narrowest width above 1; if
                    // only {1} or a single width remains, give up.
                    let victim = kernels
                        .iter()
                        .rposition(|k| k.width != 1)
                        .filter(|_| kernels.len() > 1);
                    match victim {
                        Some(i) => {
                            kernels.remove(i);
                        }
                        None => {
                            return Err(CompileError::ScratchOverflow {
                                needed: overflow.needed,
                                capacity: overflow.capacity,
                            })
                        }
                    }
                }
            }
        }
        let mut fp = crate::fingerprint::Fingerprint::new();
        fp.write_u64(spec.fingerprint());
        fp.write_u64(kernels.len() as u64);
        for k in &kernels {
            crate::fingerprint::write_kernel(&mut fp, &k.north);
            crate::fingerprint::write_kernel(&mut fp, &k.south);
        }
        Ok(CompiledStencil {
            spec,
            kernels,
            fingerprint: fp.finish(),
        })
    }

    /// Parses, recognizes, and compiles a single assignment statement.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`]: parse, recognize, or register exhaustion.
    pub fn compile_assignment(&self, source: &str) -> Result<CompiledStencil, CompileError> {
        let stmt = parse_assignment(source)?;
        let spec = recognize(&stmt)?;
        self.compile(spec)
    }

    /// Like [`Compiler::compile_assignment`], but admits shifts of
    /// several source arrays in one statement — the paper's §9 future
    /// work ("handle all ten terms as one stencil pattern"), fused into a
    /// single kernel.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`].
    pub fn compile_assignment_extended(
        &self,
        source: &str,
    ) -> Result<CompiledStencil, CompileError> {
        let stmt = parse_assignment(source)?;
        let spec = recognize_extended(&stmt)?;
        self.compile(spec)
    }

    /// Compiles a `SUBROUTINE` unit in the paper's second-implementation
    /// style: one stencil assignment isolated in a subroutine whose
    /// arguments are the result, source, and coefficient arrays.
    ///
    /// # Errors
    ///
    /// [`CompileError::Subroutine`] when the unit has anything other than
    /// one assignment, when referenced arrays are not rank-2 parameters,
    /// or any parse/recognize/register error.
    pub fn compile_subroutine(&self, source: &str) -> Result<CompiledStencil, CompileError> {
        let sub = parse_subroutine(source)?;
        let [stmt] = sub.body.as_slice() else {
            return Err(CompileError::Subroutine(format!(
                "expected exactly one assignment statement, found {}",
                sub.body.len()
            )));
        };
        let spec = recognize(stmt)?;
        // Every referenced array must be a rank-2 dummy argument.
        let mut names: Vec<&str> = vec![&spec.target];
        names.extend(spec.sources.iter().map(String::as_str));
        for coeff in &spec.coeffs {
            if let crate::recognize::CoeffSpec::Named(n) = coeff {
                names.push(n);
            }
        }
        for name in names {
            if !sub
                .params
                .iter()
                .any(|p| p.value.eq_ignore_ascii_case(name))
            {
                return Err(CompileError::Subroutine(format!(
                    "array `{name}` is not a dummy argument of {}",
                    sub.name.value
                )));
            }
            match sub.rank_of(name) {
                Some(2) => {}
                Some(r) => {
                    return Err(CompileError::Subroutine(format!(
                        "array `{name}` is declared with rank {r}, expected rank 2"
                    )))
                }
                None => {
                    return Err(CompileError::Subroutine(format!(
                        "array `{name}` has no type declaration"
                    )))
                }
            }
        }
        self.compile(spec)
    }

    /// Compiles a Lisp `defstencil` form (the paper's first
    /// implementation).
    ///
    /// # Errors
    ///
    /// Any [`CompileError`].
    pub fn compile_defstencil(&self, source: &str) -> Result<CompiledStencil, CompileError> {
        let def = parse_defstencil(source)?;
        let spec = recognize(&def.body)?;
        self.compile(spec)
    }
}

impl Default for Compiler {
    /// A compiler for the paper's 16-node measurement platform.
    fn default() -> Self {
        Compiler::new(MachineConfig::test_board_16())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CROSS: &str = "R = C1 * CSHIFT (X, DIM=1, SHIFT=-1) \
                           + C2 * CSHIFT (X, DIM=2, SHIFT=-1) \
                           + C3 * X \
                           + C4 * CSHIFT (X, DIM=2, SHIFT=+1) \
                           + C5 * CSHIFT (X, DIM=1, SHIFT=+1)";

    fn diamond_source() -> String {
        let mut terms = Vec::new();
        let mut i = 0;
        for dr in -2i32..=2 {
            for dc in -2i32..=2 {
                if dr.abs() + dc.abs() <= 2 {
                    i += 1;
                    terms.push(format!("C{i} * CSHIFT(CSHIFT(X, 1, {dr}), 2, {dc})"));
                }
            }
        }
        format!("R = {}", terms.join(" + "))
    }

    #[test]
    fn cross_compiles_at_all_widths() {
        let c = Compiler::default().compile_assignment(CROSS).unwrap();
        assert_eq!(c.widths(), vec![8, 4, 2, 1]);
        assert_eq!(c.stencil().useful_flops_per_point(), 9);
    }

    #[test]
    fn diamond_loses_width_8() {
        // §5.3: "the compiler would simply not generate code for the
        // width-8 case."
        let c = Compiler::default()
            .compile_assignment(&diamond_source())
            .unwrap();
        assert_eq!(c.widths(), vec![4, 2, 1]);
        let k4 = c.widest_kernel_for(21).unwrap();
        assert_eq!(k4.width, 4);
        // 30 data registers (one 3-column stays padded to 5) + r0.
        assert_eq!(k4.info.registers_used, 31);
        assert_eq!(k4.info.unroll, 15);
    }

    #[test]
    fn shaving_rule_picks_widest_fitting() {
        let c = Compiler::default().compile_assignment(CROSS).unwrap();
        assert_eq!(c.widest_kernel_for(21).unwrap().width, 8);
        assert_eq!(c.widest_kernel_for(7).unwrap().width, 4);
        assert_eq!(c.widest_kernel_for(3).unwrap().width, 2);
        assert_eq!(c.widest_kernel_for(1).unwrap().width, 1);
        assert!(c.widest_kernel_for(0).is_none());
    }

    /// Shifts past `MAX_SHIFT`, given at once or accumulated by nesting,
    /// are refused with a typed recognition error in every build, instead
    /// of overflowing the column-span arithmetic (a debug panic, and a
    /// wrapped register count in release). The largest allowed shift
    /// still reaches the register check.
    #[test]
    fn out_of_range_shifts_are_typed_errors() {
        use crate::recognize::MAX_SHIFT;
        let compile = |src: &str| Compiler::default().compile_assignment(src);
        for src in [
            "R = C1*CSHIFT(X,1,2147483647) + X".to_owned(),
            "R = C1*CSHIFT(X,2,-9223372036854775807) + X".to_owned(),
            format!("R = C1*CSHIFT(CSHIFT(X,1,{MAX_SHIFT}),1,1) + X"),
        ] {
            let err = compile(&src).unwrap_err();
            assert!(
                matches!(&err, CompileError::Recognize(e) if e.message().contains("out of range")),
                "{src}: {err}"
            );
        }
        let err = compile(&format!("R = C1*CSHIFT(X,1,{MAX_SHIFT}) + X")).unwrap_err();
        assert!(
            matches!(err, CompileError::NoFeasibleWidth { needed, .. } if needed as i64 > MAX_SHIFT),
            "{err}"
        );
    }

    #[test]
    fn huge_stencil_fails_with_register_feedback() {
        // A 1×41 row stencil: 41 cells even at width 1 > 31 registers.
        let terms: Vec<String> = (0..41)
            .map(|i| format!("C{i} * CSHIFT(X, 2, {})", i - 20))
            .collect();
        let err = Compiler::default()
            .compile_assignment(&format!("R = {}", terms.join(" + ")))
            .unwrap_err();
        let CompileError::NoFeasibleWidth { needed, available } = err else {
            panic!("expected register exhaustion, got {err}");
        };
        assert_eq!(needed, 41);
        assert_eq!(available, 31);
    }

    #[test]
    fn custom_widths_are_honored() {
        let c = Compiler::default()
            .with_widths([4, 4, 2])
            .compile_assignment(CROSS)
            .unwrap();
        assert_eq!(c.widths(), vec![4, 2]);
    }

    #[test]
    fn subroutine_paper_example_compiles() {
        let src = "
SUBROUTINE CROSS (R, X, C1, C2, C3, C4, C5)
REAL, ARRAY( :, : ) :: R, X, C1, C2, C3, C4, C5
R = C1 * CSHIFT (X, 1, -1) &
  + C2 * CSHIFT (X, 2, -1) &
  + C3 * X &
  + C4 * CSHIFT (X, 2, +1) &
  + C5 * CSHIFT (X, 1, +1)
END
";
        let c = Compiler::default().compile_subroutine(src).unwrap();
        assert_eq!(c.spec().target, "R");
        assert_eq!(c.spec().coeffs.len(), 5);
    }

    #[test]
    fn subroutine_missing_declaration_rejected() {
        let src = "SUBROUTINE S (R, X, C)\nREAL, ARRAY(:,:) :: R, X\nR = C * X\nEND";
        let err = Compiler::default().compile_subroutine(src).unwrap_err();
        assert!(matches!(err, CompileError::Subroutine(_)), "{err}");
        assert!(err.to_string().contains("C"));
    }

    #[test]
    fn subroutine_wrong_rank_rejected() {
        let src =
            "SUBROUTINE S (R, X, C)\nREAL, ARRAY(:,:) :: R, X\nREAL, ARRAY(:) :: C\nR = C * X\nEND";
        let err = Compiler::default().compile_subroutine(src).unwrap_err();
        assert!(err.to_string().contains("rank 1"));
    }

    #[test]
    fn subroutine_nonparameter_array_rejected() {
        let src = "SUBROUTINE S (R, X)\nREAL, ARRAY(:,:) :: R, X, C\nR = C * X\nEND";
        let err = Compiler::default().compile_subroutine(src).unwrap_err();
        assert!(err.to_string().contains("dummy argument"));
    }

    #[test]
    fn subroutine_two_assignments_rejected() {
        let src =
            "SUBROUTINE S (R, Q, X, C)\nREAL, ARRAY(:,:) :: R, Q, X, C\nR = C * X\nQ = C * X\nEND";
        let err = Compiler::default().compile_subroutine(src).unwrap_err();
        assert!(err.to_string().contains("exactly one"));
    }

    #[test]
    fn defstencil_paper_example_compiles() {
        let src = "(defstencil cross (r x c1 c2 c3 c4 c5)
           (single-float single-float)
           (:= r (+ (* c1 (cshift x 1 -1))
                    (* c2 (cshift x 2 -1))
                    (* c3 x)
                    (* c4 (cshift x 2 +1))
                    (* c5 (cshift x 1 +1)))))";
        let c = Compiler::default().compile_defstencil(src).unwrap();
        assert_eq!(c.widths(), vec![8, 4, 2, 1]);
        assert_eq!(c.stencil().useful_flops_per_point(), 9);
    }

    #[test]
    fn scratch_accounting_is_positive_and_grows_with_unroll() {
        let cross = Compiler::default().compile_assignment(CROSS).unwrap();
        let diamond = Compiler::default()
            .compile_assignment(&diamond_source())
            .unwrap();
        assert!(cross.scratch_entries() > 0);
        // The diamond's width-4 kernel alone unrolls 15 lines.
        let d4 = diamond.widest_kernel_for(4).unwrap();
        let c4 = cross.widest_kernel_for(4).unwrap();
        assert!(d4.north.scratch_entries() > c4.north.scratch_entries());
    }

    #[test]
    fn tight_scratch_drops_narrow_widths_first() {
        use cmcc_cm2::sequencer::ScratchMemory;
        let full = Compiler::default().compile_assignment(CROSS).unwrap();
        let full_entries: Vec<(usize, usize)> = full
            .kernels()
            .iter()
            .map(|k| {
                (
                    k.width,
                    k.north.scratch_entries() + k.south.scratch_entries(),
                )
            })
            .collect();
        let total: usize = full_entries.iter().map(|(_, e)| e).sum();
        // Budget for everything except the width-2 and width-4 kernels.
        let w2: usize = full_entries.iter().find(|(w, _)| *w == 2).unwrap().1;
        let w4: usize = full_entries.iter().find(|(w, _)| *w == 4).unwrap().1;
        let c = Compiler::default()
            .with_scratch(ScratchMemory::new(total - w2 - w4))
            .compile_assignment(CROSS)
            .unwrap();
        // The narrowest non-1 widths go first; the throughput-carrying
        // width 8 and the coverage-guaranteeing width 1 survive.
        assert_eq!(c.widths(), vec![8, 1]);
    }

    #[test]
    fn impossible_scratch_budget_is_reported() {
        use cmcc_cm2::sequencer::ScratchMemory;
        let err = Compiler::default()
            .with_scratch(ScratchMemory::new(10))
            .compile_assignment(CROSS)
            .unwrap_err();
        let CompileError::ScratchOverflow { needed, capacity } = err else {
            panic!("expected scratch overflow, got {err}");
        };
        assert_eq!(capacity, 10);
        assert!(needed > 10);
    }

    #[test]
    fn paper_patterns_fit_the_default_scratch() {
        use cmcc_cm2::sequencer::ScratchMemory;
        let scratch = ScratchMemory::default();
        for pattern in crate::patterns::PaperPattern::ALL {
            let c = Compiler::default()
                .compile_assignment(&pattern.fortran())
                .unwrap();
            let used = scratch
                .check(c.kernels().iter().flat_map(|k| [&k.north, &k.south]))
                .unwrap_or_else(|e| panic!("{pattern}: {e}"));
            assert!(used > 0);
        }
    }

    #[test]
    fn unroll_cap_can_disable_widths() {
        // The diamond's width-4 plan unrolls 15 lines (rings 5/3/1);
        // capping at 5 forces the compiler down to widths whose rings
        // equalize to a single size of 5.
        let c = Compiler::default()
            .with_max_unroll(5)
            .compile_assignment(&diamond_source())
            .unwrap();
        assert!(!c.widths().contains(&4), "widths: {:?}", c.widths());
        assert!(c.widths().contains(&2), "widths: {:?}", c.widths());
    }
}
