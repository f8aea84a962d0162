//! Compile once, run many: the bind → plan → execute pipeline.
//!
//! The paper's system compiles a stencil statement once and then calls it
//! "many times — typically thousands" (§1). The original [`crate::convolve()`]
//! entry point repeated every run-time decision on each call: allocating
//! halo storage, materializing constant pages, computing exchange
//! addresses, and rebuilding the strip schedule. This module splits those
//! out:
//!
//! 1. **compile** — [`cmcc_core::Compiler`] produces a
//!    [`CompiledStencil`] (unchanged), now carrying a stable
//!    [`CompiledStencil::fingerprint`];
//! 2. **bind** — [`StencilBinding`] attaches result/source/coefficient
//!    arrays to the compiled stencil and validates shapes and counts
//!    once;
//! 3. **plan** — [`ExecutionPlan::build`] allocates the scalar engine's
//!    halo buffers and constant pages from the persistent arena,
//!    compiles the halo exchange into an [`ExchangeProgram`] per source,
//!    strip-mines the subgrid, lays the lane mirror out from the plan's
//!    shape, and lowers the stencil IR into the lane body's row program;
//! 4. **execute** — [`ExecutionPlan::execute`] performs only the halo
//!    exchange, the row sweeps (or, on the scalar engine, the kernel
//!    runs of the strip schedule, resolved to absolute addresses the
//!    first time that engine runs a binding), and the paper's cycle
//!    accounting. No allocation, no schedule construction;
//! 5. **release** — [`ExecutionPlan::release`] returns the plan's fields
//!    to the arena after its last execute (a failed build returns
//!    whatever it had allocated by itself).
//!
//! Results and [`Measurement`]s are bit-identical to running the
//! compiler's kernels with per-step address resolution
//! ([`cmcc_cm2::exec::run_strip`]) — the resolved executor replays the
//! same operation stream, and the row sweeps give every point its
//! compiled chain's exact operation sequence — so plans are purely a
//! host-side performance feature, exactly like the paper's distinction
//! between compile-time and run-time work.

use crate::array::CmArray;
use crate::convolve::ExecOptions;
use crate::error::RuntimeError;
use crate::halo::{ExchangeProgram, HaloBuffer, LaneExchangeProgram, LaneFillProgram, Padded};
use crate::strips::{full_strip, halfstrips, plan_strips, HalfStrip, Strip};
use cmcc_cm2::exec::{fast_counts, ExecEngine, FieldLayout, ResolvedStrip, StripContext, StripRun};
use cmcc_cm2::isa::Kernel;
use cmcc_cm2::kernels::{self, LaneBuffer, RowCoeff, RowProgram, RowRun, RowStep, RowTerm};
use cmcc_cm2::lane::LaneMirror;
use cmcc_cm2::machine::Machine;
use cmcc_cm2::memory::Field;
use cmcc_cm2::timing::{CycleBreakdown, Measurement};
use cmcc_core::compiler::CompiledStencil;
use cmcc_core::recognize::CoeffSpec;
use cmcc_core::regalloc::Walk;
use cmcc_core::stencil::CoeffRef;
use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

/// A compiled stencil bound to concrete distributed arrays, with all
/// shape and count validation done up front (the front end's job on the
/// real machine).
///
/// Binding is cheap — [`CmArray`] handles are `Copy` — and performs no
/// machine allocation; it exists so that validation errors surface before
/// any planning work starts.
#[derive(Debug, Clone)]
pub struct StencilBinding<'a> {
    compiled: &'a CompiledStencil,
    result: CmArray,
    sources: Vec<CmArray>,
    coeffs: Vec<CmArray>,
}

impl<'a> StencilBinding<'a> {
    /// Validates and records the argument arrays for one stencil call.
    ///
    /// `sources` supplies one array per entry of
    /// [`cmcc_core::recognize::StencilSpec::sources`]; `coeffs` one array
    /// per *named* coefficient, in [`StencilSpec::coeffs`] order (literal
    /// coefficients are materialized by the plan).
    ///
    /// [`StencilSpec::coeffs`]: cmcc_core::recognize::StencilSpec::coeffs
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WrongSourceCount`], [`RuntimeError::WrongCoeffCount`],
    /// or [`RuntimeError::ShapeMismatch`] when the argument lists do not
    /// match the statement.
    pub fn new(
        compiled: &'a CompiledStencil,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
    ) -> Result<Self, RuntimeError> {
        let spec = compiled.spec();
        let stencil = compiled.stencil();

        let expected_sources = stencil.source_count().max(1);
        if sources.len() != expected_sources {
            return Err(RuntimeError::WrongSourceCount {
                expected: expected_sources,
                got: sources.len(),
            });
        }
        for (i, s) in sources.iter().enumerate() {
            if !result.same_shape(s) {
                return Err(RuntimeError::ShapeMismatch {
                    what: format!(
                        "result is {}x{} but source {i} is {}x{}",
                        result.rows(),
                        result.cols(),
                        s.rows(),
                        s.cols()
                    ),
                });
            }
        }
        let named: Vec<&str> = spec
            .coeffs
            .iter()
            .filter_map(|c| match c {
                CoeffSpec::Named(n) => Some(n.as_str()),
                CoeffSpec::Literal(_) => None,
            })
            .collect();
        if coeffs.len() != named.len() {
            return Err(RuntimeError::WrongCoeffCount {
                expected: named.len(),
                got: coeffs.len(),
            });
        }
        for (arr, name) in coeffs.iter().zip(&named) {
            if !arr.same_shape(result) {
                return Err(RuntimeError::ShapeMismatch {
                    what: format!(
                        "coefficient `{name}` is {}x{}, expected {}x{}",
                        arr.rows(),
                        arr.cols(),
                        result.rows(),
                        result.cols()
                    ),
                });
            }
        }

        Ok(StencilBinding {
            compiled,
            result: *result,
            sources: sources.iter().map(|s| **s).collect(),
            coeffs: coeffs.iter().map(|c| **c).collect(),
        })
    }

    /// The compiled stencil this binding attaches arrays to.
    pub fn compiled(&self) -> &'a CompiledStencil {
        self.compiled
    }

    /// The bound result array.
    pub fn result(&self) -> &CmArray {
        &self.result
    }

    /// The bound source arrays.
    pub fn sources(&self) -> &[CmArray] {
        &self.sources
    }

    /// The bound named-coefficient arrays.
    pub fn coeffs(&self) -> &[CmArray] {
        &self.coeffs
    }
}

/// The immutable half of an execution plan: everything plan-build
/// computes that does **not** depend on which concrete arrays a tenant
/// binds — the scalar engine's node schedule and node-memory fields
/// (halo buffers, constant and literal pages), and the lane mirror's
/// layout with the row program and halo programs lowered against it. It
/// holds no bound array's address: only the shape and the argument
/// counts every binding must match.
///
/// A `CompiledPlan` is shared between any number of [`PlanInstance`]s
/// through an [`Arc`]: the session plan cache hands every tenant the same
/// artifact, and evicting it from the cache cannot invalidate in-flight
/// instances — the `Arc` keeps it alive until the last instance drops.
/// Its node-memory fields come from the persistent arena and are
/// returned to it by [`CompiledPlan::release`] once ownership is unique.
#[derive(Debug)]
pub struct CompiledPlan {
    /// The scalar engine's body: `None` on temporal plans, which have
    /// none and so own no node field at all.
    scalar: Option<ScalarBody>,
    /// What one run of the node schedule reports, counted at build: the
    /// lane body reports it without running that schedule, so its
    /// `Measurement`s and step counters match the scalar engine's.
    counts: ScheduleCounts,
    /// The lane body, or why instances cannot run it: cycle-accurate
    /// mode, the scalar engine requested, or a check the row program
    /// failed. Lane addresses depend on the plan's shape alone, so every
    /// instance shares it verbatim. Always `Ok` on temporal plans: their
    /// build fails without it.
    lane: Result<LaneSchedule, &'static str>,
    /// Sources and named coefficients every binding supplies.
    sources: usize,
    named: usize,
    /// Every node-memory field the plan owns — the scalar engine's — in
    /// allocation order: what [`Self::release`] returns to the arena.
    owned: OwnedFields,
    /// Global rows and columns of every bound array.
    shape: (usize, usize),
    useful_flops: u64,
    call_overhead: u64,
    dispatch: u64,
    nodes: usize,
    opts: ExecOptions,
    fingerprint: u64,
    /// Fused time steps per execute: 1 for the classic one-step plan,
    /// two or more when temporal tiling shares one deepened halo
    /// exchange between them ([`ExecOptions::temporal_depth`] honored).
    depth: usize,
    /// Why a requested `temporal_depth > 1` was clamped back to 1, when
    /// it was. `None` when the request was honored (or never made).
    temporal_fallback: Option<&'static str>,
}

/// A classic plan's scalar engine: its node schedule, unresolved (the
/// engine resolves it against the binding it runs), and the node-memory
/// fields it reads and writes.
#[derive(Debug)]
struct ScalarBody {
    node: NodeSchedule,
    /// One halo buffer per source, refreshed and exchanged in node
    /// memory every execute.
    halos: Vec<HaloBuffer>,
    exchanges: Vec<ExchangeProgram>,
    /// One word each of 1.0 and 0.0.
    consts: Field,
    /// One entry per coefficient slot, in `spec.coeffs` order: a
    /// literal's page (its constant streamed with a zero row stride), or
    /// `None` for a named coefficient, which the binding supplies.
    pages: Vec<Option<Field>>,
}

impl ScalarBody {
    /// Resolves the node schedule against a binding whose result is
    /// `result` and whose named coefficients are `coeffs`: identical on
    /// every node (SIMD), in strip-mine order, with every memory operand
    /// turned into an absolute address. A named coefficient is read from
    /// its bound array, a literal from its page.
    fn resolve_strips(&self, result: &CmArray, coeffs: &[CmArray]) -> Vec<ResolvedStrip> {
        let srcs: Vec<FieldLayout> = self.halos.iter().map(HaloBuffer::layout).collect();
        let mut named = coeffs.iter();
        let coeffs: Vec<FieldLayout> = self
            .pages
            .iter()
            .map(|page| match page {
                Some(page) => FieldLayout {
                    base: page.base(),
                    row_stride: 0,
                    row_offset: 0,
                    col_offset: 0,
                },
                None => named
                    .next()
                    .expect("coefficient count was validated")
                    .layout(),
            })
            .collect();
        self.node
            .strips
            .iter()
            .map(|&(kernel, strip, half)| {
                let ctx = StripContext {
                    srcs: &srcs,
                    res: result.layout(),
                    coeffs: &coeffs,
                    ones_addr: self.consts.addr(0),
                    zeros_addr: self.consts.addr(1),
                    start_row: half.start_row as i64,
                    lines: half.lines,
                    col0: strip.col0 as i64,
                };
                ResolvedStrip::new(&self.node.kernels[kernel], &ctx)
            })
            .collect()
    }
}

/// One term of the statement in accumulation order: the stencil IR the
/// lane body sweeps.
#[derive(Debug, Clone, Copy)]
struct Term {
    /// A tap's source and offset, `(source, drow, dcol)`; `None` for a
    /// bias term.
    tap: Option<(usize, i64, i64)>,
    coeff: TermCoeff,
}

/// What multiplies a [`Term`]'s data.
#[derive(Debug, Clone, Copy)]
enum TermCoeff {
    /// A literal, or `1.0` for a unit tap.
    Scalar(f32),
    /// Named coefficient `k`, in binding order.
    Named(usize),
}

/// The lane body of a plan: the mirror's layout, fixed by the plan's
/// shape alone, and per direction the row program and every halo
/// exchange lowered against it, plus the temporal scratch fix-ups.
#[derive(Debug, Clone)]
struct LaneSchedule {
    /// Every lane buffer, one after another from lane word 0: one halo
    /// per source; one buffer per named coefficient — the coefficient
    /// itself (pad 0) on a classic plan, its `(depth−1)·radius` halo on
    /// a temporal one, whose intermediate steps read coefficients at
    /// margin positions; the temporal scratch states (none at depth 1,
    /// one at depth 2, two beyond); and the destination, shaped like
    /// source 0's halo. The sources and coefficients are refreshed from
    /// their bound arrays; the scratch states and the destination are
    /// written by the sweeps.
    buffers: Vec<Padded>,
    /// Direction 0: reads source 0's halo buffer.
    forward: LaneDirection,
    /// Direction 1 — the same schedule with source 0's halo and the
    /// destination buffer trading lane words, so an execute can read
    /// whichever buffer already holds its source — derived from
    /// direction 0 the first time an execute reads the destination
    /// buffer: a plan that never does (an unchanged binding run again)
    /// never pays for it.
    backward: OnceLock<LaneDirection>,
    /// The beyond-global-edge fill fix-up per temporal scratch buffer: a
    /// zero-fill boundary requires margin reads past the global edge to
    /// see the fill value, but intermediate steps write computed garbage
    /// there; this restores the invariant after every non-final step.
    /// Empty programs under a circular boundary (wrapped margin values
    /// are recomputed bit-identically, no fix-up needed).
    scratch_fills: Vec<LaneFillProgram>,
}

/// One direction of a [`LaneSchedule`].
#[derive(Debug, Clone)]
struct LaneDirection {
    /// The statement lowered to lane words, one step per fused step.
    program: RowProgram,
    /// One halo exchange per source, then (temporal plans) one per
    /// coefficient halo; a classic plan's coefficients have no ring.
    exchanges: Vec<LaneExchangeProgram>,
}

impl LaneSchedule {
    /// Mirror words per node.
    fn words(&self) -> usize {
        self.buffers.last().map_or(0, |b| b.base() + b.words())
    }

    /// Machine-total words the halo exchange of buffer `k` moves; zero
    /// for a classic plan's coefficient, which has no ring.
    fn exchange_words(&self, k: usize) -> usize {
        let exchanges = &self.forward.exchanges;
        exchanges.get(k).map_or(0, LaneExchangeProgram::words_moved)
    }

    /// Direction `dir`'s schedule. Direction 1 is direction 0 with
    /// source 0's halo and the destination buffer trading lane words —
    /// row program and exchanges alike: lowering and generation decide
    /// by buffer, so that is exactly what they return for a layout in
    /// which the two buffers trade lane words, and nothing is lowered
    /// twice.
    fn direction(&self, dir: usize) -> &LaneDirection {
        if dir == 0 {
            return &self.forward;
        }
        self.backward.get_or_init(|| {
            let (a, b) = (self.buffers[0], self.buffers[self.buffers.len() - 1]);
            assert_eq!(
                a.words(),
                b.words(),
                "the destination is shaped like source 0's halo"
            );
            let (a, b, len) = (a.base(), b.base(), a.words());
            let forward = &self.forward;
            LaneDirection {
                program: forward.program.with_buffers_swapped(a, b, len),
                exchanges: forward
                    .exchanges
                    .iter()
                    .map(|x| x.with_buffers_swapped(a, b, len))
                    .collect(),
            }
        })
    }
}

/// The stencil IR the lane body sweeps: the statement's taps in
/// statement order, then its bias terms, each coefficient a literal's
/// value, `1.0` for a unit tap, or a named array in binding order.
fn statement_terms(compiled: &CompiledStencil) -> Vec<Term> {
    let mut named = 0;
    let coeffs: Vec<TermCoeff> = compiled
        .spec()
        .coeffs
        .iter()
        .map(|c| match c {
            CoeffSpec::Literal(v) => TermCoeff::Scalar(*v),
            CoeffSpec::Named(_) => {
                named += 1;
                TermCoeff::Named(named - 1)
            }
        })
        .collect();
    let stencil = compiled.stencil();
    stencil
        .taps()
        .iter()
        .map(|tap| Term {
            tap: Some((
                usize::from(tap.source),
                i64::from(tap.offset.drow),
                i64::from(tap.offset.dcol),
            )),
            coeff: match tap.coeff {
                CoeffRef::Array(a) => coeffs[a],
                CoeffRef::Unit => TermCoeff::Scalar(1.0),
            },
        })
        .chain(stencil.bias().iter().map(|&a| Term {
            tap: None,
            coeff: coeffs[a],
        }))
        .collect()
}

/// The lane buffers of a `depth`-deep plan with `sources` sources and
/// `named` named coefficients over a `sub` subgrid, stencil radius `pad`,
/// laid out one after another from lane word 0 in
/// [`LaneSchedule::buffers`] order. Step `j` of `depth` writes a
/// `(depth−1−j)·radius`-deep extension of the subgrid, so step 0 reads
/// `depth·radius` deep (the source halos), every step reads coefficients
/// up to `(depth−1)·radius` beyond the edge, and the scratch states and
/// the destination are framed like the source halos.
///
/// # Errors
///
/// [`RuntimeError::SubgridTooSmall`] when a buffer's halo is deeper
/// than the subgrid.
fn lane_layout(
    sub: (usize, usize),
    (sources, named): (usize, usize),
    depth: usize,
    pad: usize,
) -> Result<Vec<Padded>, RuntimeError> {
    let (halo, coeff) = (depth * pad, (depth - 1) * pad);
    // The scratch states, then the destination.
    let swept = depth.min(3);
    let pads = std::iter::repeat_n(halo, sources)
        .chain(std::iter::repeat_n(coeff, named))
        .chain(std::iter::repeat_n(halo, swept));
    let mut base = 0;
    pads.map(|pad| {
        let buffer = Padded::new(base, sub, pad)?;
        base += buffer.words();
        Ok(buffer)
    })
    .collect()
}

/// Lowers `terms` into direction 0's row program against the lane
/// layout `buffers` ([`lane_layout`]). Step `j` of `depth` writes the
/// `(depth−1−j)·radius`-deep extension of the subgrid — into the next
/// scratch state, or (the last step) the destination buffer's interior
/// — reading source halos (step 0) or the previous scratch state; a
/// named coefficient is read in place, from its buffer.
///
/// # Errors
///
/// Why the program cannot run: a run starting outside its buffer, or a
/// check [`RowProgram::new`] refuses.
fn lower(
    terms: &[Term],
    buffers: &[Padded],
    (sources, named): (usize, usize),
    (sub_rows, sub_cols): (usize, usize),
    depth: usize,
    pad: usize,
) -> Result<RowProgram, &'static str> {
    let refreshed = sources + named;
    let scratch = |i: usize| &buffers[refreshed + i % 2];
    // The run of `buffer` whose first point is logical `(row, col)`.
    let run = |buffer: &Padded, row: i64, col: i64| -> Result<RowRun, &'static str> {
        let layout = buffer.layout();
        let (r, c) = (row + layout.row_offset, col + layout.col_offset);
        if r < 0 || c < 0 {
            return Err("a term run starts outside its buffer");
        }
        Ok(RowRun {
            word: layout.base + r as usize * layout.row_stride + c as usize,
            stride: layout.row_stride,
        })
    };
    let steps = (0..depth)
        .map(|step| {
            let m = ((depth - 1 - step) * pad) as i64;
            let srcs = if step == 0 {
                &buffers[..sources]
            } else {
                std::slice::from_ref(scratch(step - 1))
            };
            let out = if step + 1 == depth {
                &buffers[buffers.len() - 1]
            } else {
                scratch(step)
            };
            let terms = terms
                .iter()
                .map(|term| {
                    let data = match term.tap {
                        Some((s, dr, dc)) => Some(run(&srcs[s], dr - m, dc - m)?),
                        None => None,
                    };
                    let coeff = match term.coeff {
                        TermCoeff::Scalar(v) => RowCoeff::Scalar(v),
                        TermCoeff::Named(k) => RowCoeff::Run(run(&buffers[sources + k], -m, -m)?),
                    };
                    Ok(RowTerm { data, coeff })
                })
                .collect::<Result<_, &'static str>>()?;
            Ok(RowStep {
                rows: sub_rows + 2 * m as usize,
                cols: sub_cols + 2 * m as usize,
                dest: run(out, -m, -m)?,
                terms,
            })
        })
        .collect::<Result<_, &'static str>>()?;
    let checked: Vec<LaneBuffer> = buffers
        .iter()
        .enumerate()
        .map(|(i, b)| LaneBuffer {
            base: b.base(),
            len: b.words(),
            swept: i >= refreshed,
        })
        .collect();
    RowProgram::new(steps, &checked)
}

/// What one lane buffer holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Held {
    /// The node-memory array whose words its interior holds.
    array: Field,
    /// The write epoch as of which it holds them: a later stamp on
    /// `array` makes the buffer stale.
    epoch: u64,
    /// Whether the buffer's halo ring was exchanged since its interior
    /// was last written.
    exchanged: bool,
}

/// The mutable half of an execution plan: one tenant's binding and
/// execution state over a shared [`CompiledPlan`] — the strip schedule
/// resolved against the tenant's arrays (once the scalar engine runs
/// it), and the persistent lane mirror with the record of what it
/// holds.
///
/// Instances are cheap to create (no machine allocation — they reuse the
/// compiled plan's halo buffers and pages) and fully independent: two
/// instances over the same `CompiledPlan` can be rebound and executed
/// without observing each other, as long as machine access is serialized
/// by the caller (the session's machine lock).
#[derive(Debug, Clone)]
pub struct PlanInstance {
    /// The shared node schedule resolved against this instance's result
    /// and named coefficients. `None` until the scalar engine first runs
    /// the binding, and again after a rebind moves either; a source move
    /// keeps it, because kernels read sources through the plan-owned
    /// halos. A lane-mapped instance never resolves it.
    strips: Option<Vec<ResolvedStrip>>,
    /// Why the scalar engine runs this binding: the artifact's reason,
    /// or a result that overlaps a named coefficient
    /// ([`aliasing_refusal`]). `None` exactly when `execute` runs the
    /// lane body. Rebind recomputes it.
    lane_fallback: Option<&'static str>,
    /// The instance-owned persistent lane mirror. Shaped on first
    /// execute, recycled afterwards (zero steady-state allocations);
    /// `lane_buffers` records what it holds. Reusable across instances
    /// via [`ExecutionPlan::take_mirror`] / [`ExecutionPlan::install_mirror`].
    lane_mirror: LaneMirror,
    /// What each lane buffer holds, in layout order; `None` is garbage.
    /// A source or coefficient buffer that holds its array skips the
    /// refresh, and skips the exchange too once its ring is exchanged.
    /// Scratch states never hold anything across executes.
    lane_buffers: Vec<Option<Held>>,
    /// The direction the execute in flight runs: 1 when the destination
    /// buffer already holds source 0, else 0.
    lane_dir: usize,
    /// The last lane execute until its commit: the buffer holding its
    /// result, the result array bound when it ran (the commit writes
    /// there, whatever the plan was rebound to since), and its
    /// measurement. Only the commit makes the buffer hold the result.
    lane_pending: Option<(usize, CmArray, Measurement)>,
    /// The [`Machine::write_epoch`] the mirror was last synced at.
    lane_epoch: u64,
    /// Machine-total words the last rebind added to the next execute's
    /// re-read beyond a ping-pong swap: the refreshes (and, on temporal
    /// plans, exchanges) of the named coefficients it moved.
    lane_rebind_moved: usize,
    result: CmArray,
    sources: Vec<CmArray>,
    coeffs: Vec<CmArray>,
}

/// Everything a stencil call decides ahead of its first iteration:
/// halo buffers, compiled exchange programs, constant/literal pages, the
/// strip-mine schedule and the row program.
///
/// Internally an `ExecutionPlan` is a shared immutable [`CompiledPlan`]
/// (held through an [`Arc`], so cloned plans and concurrent tenants share
/// one compiled artifact) plus a private mutable [`PlanInstance`] (this
/// plan's binding, lane mirror, and the record of what the mirror holds).
///
/// Build once with [`ExecutionPlan::build`], run any number of times with
/// [`ExecutionPlan::execute`], retarget to other same-shape arrays with
/// [`ExecutionPlan::rebind`], or attach a fresh instance to an existing
/// artifact with [`ExecutionPlan::from_shared`], and hand the fields back
/// with [`ExecutionPlan::release`]. A steady-state execute performs
/// **zero** field allocations (observable via [`Machine::alloc_count`])
/// and zero schedule rebuilds.
///
/// # Examples
///
/// ```
/// use cmcc_cm2::{Machine, MachineConfig};
/// use cmcc_core::Compiler;
/// use cmcc_runtime::{CmArray, ExecOptions, ExecutionPlan, StencilBinding};
///
/// let mut machine = Machine::new(MachineConfig::tiny_4())?;
/// let compiled = Compiler::new(machine.config().clone())
///     .compile_assignment("R = 0.25 * CSHIFT(X, 1, -1) + 0.75 * X")?;
/// let x = CmArray::new(&mut machine, 8, 8)?;
/// let r = CmArray::new(&mut machine, 8, 8)?;
/// x.fill(&mut machine, 4.0);
///
/// let binding = StencilBinding::new(&compiled, &r, &[&x], &[])?;
/// let mut plan = ExecutionPlan::build(&mut machine, &binding, &ExecOptions::default())?;
/// let first = plan.execute(&mut machine)?;
/// let again = plan.execute(&mut machine)?;
/// assert_eq!(r.get(&machine, 3, 3), 4.0);
/// assert_eq!(first, again); // deterministic, allocation-free replay
/// plan.release(&mut machine);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    shared: Arc<CompiledPlan>,
    inst: PlanInstance,
}

impl CompiledPlan {
    /// Plans every *shared* per-call decision for `binding` under `opts`.
    ///
    /// Allocates the scalar engine's halo buffers and constant pages from
    /// the persistent arena (classic plans: a temporal plan has no scalar
    /// body and owns no node field), fills the constant pages, compiles
    /// one [`ExchangeProgram`] per source, strip-mines the subgrid for the
    /// scalar engine, lays the lane mirror out from the plan's shape and
    /// lowers the stencil IR into the lane body's row program, checked
    /// once here. The result is immutable: tenants attach to it with
    /// [`ExecutionPlan::from_shared`] without touching the artifact. A
    /// build that fails after its first allocation returns every field
    /// it took to the arena.
    ///
    /// Counts one `PlanBuilds` — the exactly-once build assertion
    /// concurrent sessions rely on.
    ///
    /// # Errors
    ///
    /// As [`ExecutionPlan::build`].
    pub fn build(
        machine: &mut Machine,
        binding: &StencilBinding<'_>,
        opts: &ExecOptions,
    ) -> Result<Self, RuntimeError> {
        let _span = cmcc_obs::span(cmcc_obs::Phase::PlanBuild);
        cmcc_obs::add(cmcc_obs::Counter::PlanBuilds, 1);
        let mut owned = OwnedFields::default();
        match Self::build_into(machine, binding, opts, &mut owned) {
            Ok(cp) => Ok(CompiledPlan { owned, ..cp }),
            Err(e) => {
                owned.release(machine);
                Err(e)
            }
        }
    }

    /// [`Self::build`]'s body: allocates every field through `owned`,
    /// which the caller hands to the plan or, on an error, back to the
    /// arena. The returned plan's own `owned` is empty.
    fn build_into(
        machine: &mut Machine,
        binding: &StencilBinding<'_>,
        opts: &ExecOptions,
        owned: &mut OwnedFields,
    ) -> Result<Self, RuntimeError> {
        let compiled = binding.compiled();
        let spec = compiled.spec();
        let stencil = compiled.stencil();
        let result = *binding.result();
        let sub = (result.sub_rows(), result.sub_cols());
        let (sub_rows, sub_cols) = sub;
        let pad = stencil.borders().max_width() as usize;
        let (sources, named) = (binding.sources().len(), binding.coeffs().len());

        // Temporal tiling: fuse `depth` time steps per halo exchange by
        // deepening the halo to `depth·radius` and recomputing margin
        // points locally (the redundant-compute trade). Eligibility is
        // exactly the set of plans the fused schedule below can express;
        // anything else clamps back to one step per exchange and records
        // why, both in the counter and on the plan.
        let requested_depth = opts.temporal_depth.max(1);
        let mut temporal_fallback = None;
        let depth = if requested_depth == 1 {
            1
        } else {
            let reason = if opts.engine == ExecEngine::Cycle {
                Some("cycle-accurate mode")
            } else if opts.engine == ExecEngine::Scalar {
                Some("scalar engine")
            } else if binding.sources().len() != 1 {
                Some("multi-source stencil")
            } else if pad == 0 {
                Some("pointwise stencil")
            } else if requested_depth
                .checked_mul(pad)
                .is_none_or(|margin| margin > sub_rows.min(sub_cols))
            {
                Some("subgrid smaller than depth x radius")
            } else {
                None
            };
            match reason {
                Some(why) => {
                    cmcc_obs::add(cmcc_obs::Counter::TemporalFallbacks, 1);
                    temporal_fallback = Some(why);
                    1
                }
                None => requested_depth,
            }
        };
        check_fusable(depth, &result, binding.coeffs().iter())?;

        // The scalar engine's node fields, classic plans only: one halo
        // buffer per source, the constant pair (one word each of 1.0 and
        // 0.0) and one page per literal coefficient (streamed with a zero
        // row stride).
        let node_fields = if depth == 1 {
            let halos: Vec<HaloBuffer> = (0..sources)
                .map(|_| owned.halo(machine, sub, pad))
                .collect::<Result<_, _>>()?;
            let consts = owned.field(machine, 2)?;
            let pages: Vec<Option<Field>> = spec
                .coeffs
                .iter()
                .map(|c| match c {
                    CoeffSpec::Literal(_) => owned.field(machine, sub_cols).map(Some),
                    CoeffSpec::Named(_) => Ok(None),
                })
                .collect::<Result<_, _>>()?;
            let filled = pages.iter().flatten().map(Field::range);
            for mem in machine.write_nodes(filled.chain([consts.range()])) {
                mem.write(consts.addr(0), 1.0);
                mem.write(consts.addr(1), 0.0);
                for (page, c) in pages.iter().zip(&spec.coeffs) {
                    if let (Some(page), CoeffSpec::Literal(v)) = (page, c) {
                        mem.fill_field(*page, *v);
                    }
                }
            }
            Some((halos, consts, pages))
        } else {
            None
        };

        // The halo exchanges, compiled: neighbor lookups, copy addresses,
        // fill spans, and the cycle price are all fixed by (placement,
        // grid, machine config, boundary). Fused steps always need
        // corners: composing the stencil with itself reaches diagonal
        // neighbors even when one application does not.
        let (grid, cfg) = (machine.grid(), machine.config());
        let need_corners = if cfg.skip_corners_when_possible {
            stencil.needs_corner_exchange() || depth > 1
        } else {
            pad > 0
        };
        let exchange = |at: &Padded| {
            ExchangeProgram::new(
                at,
                grid,
                cfg,
                stencil.boundary(),
                stencil.fill(),
                need_corners,
            )
        };
        let scalar = node_fields.map(|(halos, consts, pages)| ScalarBody {
            node: NodeSchedule::of(compiled, cfg.half_strips, sub_rows, sub_cols),
            exchanges: halos.iter().map(|h| exchange(&h.placement())).collect(),
            halos,
            consts,
            pages,
        });

        // The lane body: the mirror laid out from the shape alone, the
        // stencil IR lowered against it, and the halo exchanges and
        // scratch fills generated at its lane bases. A refused row
        // program keeps a classic plan on the scalar engine; a temporal
        // plan, which has no other body, is refused.
        let lane = if opts.engine == ExecEngine::Cycle {
            Err("cycle-accurate mode")
        } else if opts.engine == ExecEngine::Scalar {
            Err("scalar engine requested")
        } else {
            let buffers = lane_layout(sub, (sources, named), depth, pad)?;
            let terms = statement_terms(compiled);
            lower(&terms, &buffers, (sources, named), sub, depth, pad).map(|program| {
                // Sources, and a temporal plan's coefficient halos.
                let rings = if depth > 1 { sources + named } else { sources };
                let scratch = &buffers[sources + named..buffers.len() - 1];
                LaneSchedule {
                    forward: LaneDirection {
                        program,
                        exchanges: buffers[..rings]
                            .iter()
                            .map(|b| LaneExchangeProgram::new(&exchange(b)))
                            .collect(),
                    },
                    backward: OnceLock::new(),
                    scratch_fills: scratch
                        .iter()
                        .map(|b| {
                            LaneFillProgram::boundary(b, grid, stencil.boundary(), stencil.fill())
                        })
                        .collect(),
                    buffers,
                }
            })
        };
        if depth > 1 && lane.is_err() {
            return Err(RuntimeError::Unfusable {
                reason: "the fused schedule does not map onto the lane mirror",
            });
        }
        Ok(CompiledPlan {
            scalar,
            counts: ScheduleCounts::of(compiled, cfg.half_strips, sub, depth, pad),
            lane,
            sources,
            named,
            owned: OwnedFields::default(),
            shape: (result.rows(), result.cols()),
            useful_flops: stencil.useful_flops_per_point()
                * (result.rows() * result.cols()) as u64
                * depth as u64,
            call_overhead: u64::from(cfg.call_overhead_cycles),
            dispatch: u64::from(cfg.frontend_dispatch_cycles),
            nodes: machine.node_count(),
            opts: *opts,
            fingerprint: compiled.fingerprint(),
            depth,
            temporal_fallback,
        })
    }

    /// The lane schedule.
    ///
    /// # Panics
    ///
    /// Panics unless instances of the plan can run the lane body.
    fn lane_schedule(&self) -> &LaneSchedule {
        self.lane
            .as_ref()
            .expect("lane-mapped plans have a lane schedule")
    }

    /// Why a binding of `result` and the named coefficients `coeffs`
    /// runs on the scalar engine, if it does: the artifact's reason, or
    /// the aliasing rule's ([`aliasing_refusal`]).
    fn lane_fallback(&self, result: &CmArray, coeffs: &[CmArray]) -> Option<&'static str> {
        match &self.lane {
            Err(reason) => Some(reason),
            Ok(_) => aliasing_refusal(result, coeffs.iter()),
        }
    }

    /// Validates that a candidate binding can attach to this artifact:
    /// argument counts equal the build binding's, every array has the
    /// compiled shape, and (temporal plans) the result aliases no named
    /// coefficient. `what` prefixes error messages ("rebind", "bound").
    fn validate_binding(
        &self,
        what: &str,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
    ) -> Result<(), RuntimeError> {
        if sources.len() != self.sources {
            return Err(RuntimeError::WrongSourceCount {
                expected: self.sources,
                got: sources.len(),
            });
        }
        if coeffs.len() != self.named {
            return Err(RuntimeError::WrongCoeffCount {
                expected: self.named,
                got: coeffs.len(),
            });
        }
        let (rows, cols) = self.shape;
        let check = |kind: &str, arr: &CmArray| -> Result<(), RuntimeError> {
            if (arr.rows(), arr.cols()) != self.shape {
                return Err(RuntimeError::ShapeMismatch {
                    what: format!(
                        "{what} {kind} is {}x{} but the plan was built for {rows}x{cols}",
                        arr.rows(),
                        arr.cols(),
                    ),
                });
            }
            Ok(())
        };
        check("result", result)?;
        for s in sources {
            check("source", s)?;
        }
        for c in coeffs {
            check("coefficient", c)?;
        }
        check_fusable(self.temporal_depth(), result, coeffs.iter().copied())
    }

    /// The [`CompiledStencil::fingerprint`] this artifact was built from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Global rows of the compiled shape.
    pub fn rows(&self) -> usize {
        self.shape.0
    }

    /// Global columns of the compiled shape.
    pub fn cols(&self) -> usize {
        self.shape.1
    }

    /// Words of node memory per node the artifact owns: a classic plan's
    /// halo buffers, constant pair and literal pages — what the scalar
    /// engine reads. A temporal plan owns none.
    pub fn words(&self) -> usize {
        self.owned.words()
    }

    /// Fused time steps per execute: the effective temporal depth (1 for
    /// classic plans, including clamped requests).
    pub fn temporal_depth(&self) -> usize {
        self.depth
    }

    /// Why a requested temporal depth above 1 was clamped back to one
    /// step per exchange, when it was.
    pub fn temporal_fallback(&self) -> Option<&'static str> {
        self.temporal_fallback
    }

    /// Returns the artifact's fields to the persistent arena. The caller
    /// must hold the *only* reference (the session sweeps retired plans
    /// through [`Arc::try_unwrap`] before calling this), because
    /// instances read the halo buffers and pages on every execute.
    pub fn release(self, machine: &mut Machine) {
        self.owned.release(machine);
    }
}

impl PlanInstance {
    /// Creates the per-tenant state for `cp` bound to `binding`'s
    /// arrays. Performs no machine allocation and resolves no strip.
    fn for_binding(cp: &CompiledPlan, binding: &StencilBinding<'_>) -> Self {
        PlanInstance {
            strips: None,
            lane_fallback: cp.lane_fallback(binding.result(), binding.coeffs()),
            lane_mirror: LaneMirror::new(),
            lane_buffers: vec![None; cp.lane.as_ref().map_or(0, |l| l.buffers.len())],
            lane_dir: 0,
            lane_pending: None,
            lane_epoch: 0,
            lane_rebind_moved: 0,
            result: *binding.result(),
            sources: binding.sources().to_vec(),
            coeffs: binding.coeffs().to_vec(),
        }
    }

    /// The bound array lane buffer `k` is refreshed from: the sources
    /// first, then the named coefficients.
    fn refresh_array(&self, k: usize) -> CmArray {
        match k.checked_sub(self.sources.len()) {
            None => self.sources[k],
            Some(c) => self.coeffs[c],
        }
    }

    /// Marks the mirror's contents as garbage: the next execute
    /// refreshes every buffer.
    fn forget_mirror(&mut self) {
        self.lane_buffers.fill(None);
        self.lane_pending = None;
    }

    /// The buffer that holds array `k` of [`Self::refresh_array`] in
    /// direction `dir`: its own, except source 0 in direction 1, which
    /// is read from the destination buffer (the last).
    fn source_buffer(&self, k: usize, dir: usize) -> usize {
        if k == 0 && dir == 1 {
            self.lane_buffers.len() - 1
        } else {
            k
        }
    }

    /// The buffer the final step writes in direction `dir`: whichever
    /// of source 0's halo and the destination buffer `dir` does not
    /// read.
    fn dest_buffer(&self, dir: usize) -> usize {
        self.source_buffer(0, 1 - dir)
    }

    /// Commits the last lane execute. See [`ExecutionPlan::commit`].
    fn commit(&mut self, cp: &CompiledPlan, machine: &mut Machine) -> Measurement {
        let (buffer, result, measurement) = self
            .lane_pending
            .take()
            .expect("a commit follows an uncommitted execute_region");
        let rect = cp.lane_schedule().buffers[buffer].interior_copy(&result);
        let _t = cmcc_obs::trace::scope(
            cmcc_obs::trace::TraceOp::RegionCommit,
            (rect.rows * rect.cols) as u64,
        );
        let mems = machine.write_nodes([result.field().range()]);
        let words = self.lane_mirror.scatter(&rect, mems);
        cmcc_obs::add(cmcc_obs::Counter::ScatterWords, words as u64);
        self.lane_buffers[buffer] = Some(Held {
            array: result.field(),
            epoch: machine.write_epoch(),
            exchanged: false,
        });
        measurement
    }

    /// Forgets every buffer whose array was written since the epoch it
    /// holds it as of, and records this sync's epoch. Runs before the
    /// execute takes node memory, so the epoch precedes the execute's
    /// own stamps. An execute never committed leaves its buffer unheld.
    fn invalidate_stale(&mut self, machine: &Machine) {
        self.lane_pending = None;
        self.lane_epoch = machine.write_epoch();
        for buffer in &mut self.lane_buffers {
            if buffer.is_some_and(|h| machine.written_since(h.array.range(), h.epoch)) {
                *buffer = None;
            }
        }
    }

    /// Runs the lane body once over the shared artifact `cp`: the read
    /// phase ([`Self::read_phase`]) through `machine`, which it then
    /// drops, and the compute phase ([`Self::compute_phase`]) on the
    /// private mirror, under one `execute` span. See
    /// [`ExecutionPlan::execute_region`].
    fn execute_region<G: Deref<Target = Machine>>(&mut self, cp: &CompiledPlan, machine: G) {
        let _span = cmcc_obs::span(cmcc_obs::Phase::Execute);
        let mut tally = ExecTally::new(&self.lane_mirror);
        self.read_phase(cp, &machine, &mut tally);
        drop(machine);
        self.compute_phase(cp, tally);
    }

    /// Picks the direction — the one reading the buffer that already
    /// holds source 0, if one does — and refreshes every source and
    /// coefficient buffer that does not hold its array once
    /// [`Self::invalidate_stale`] has run: the execute's only reads of
    /// node memory. Refreshed buffers stay unexchanged until the compute
    /// phase has exchanged them.
    fn read_phase(&mut self, cp: &CompiledPlan, machine: &Machine, tally: &mut ExecTally) {
        self.invalidate_stale(machine);
        let (_, mems) = machine.exec_parts();
        let lane = cp.lane_schedule();
        self.lane_mirror.ensure(lane.words(), cp.nodes);
        let holds = |buffers: &[Option<Held>], b: usize, array: Field| {
            buffers[b].is_some_and(|h| h.array == array)
        };
        let source = self.sources[0].field();
        self.lane_dir = usize::from(
            !holds(&self.lane_buffers, 0, source)
                && holds(&self.lane_buffers, self.source_buffer(0, 1), source),
        );
        for k in 0..cp.sources + cp.named {
            let b = self.source_buffer(k, self.lane_dir);
            let array = self.refresh_array(k);
            if holds(&self.lane_buffers, b, array.field()) {
                continue;
            }
            let copy = lane.buffers[b].interior_copy(&array);
            let words = if k < lane.forward.exchanges.len() {
                // A halo: the lane-domain `fill_interior`.
                let _t = cmcc_obs::trace::scope(
                    cmcc_obs::trace::TraceOp::InteriorRefresh,
                    (copy.rows * copy.cols) as u64,
                );
                let words = self.lane_mirror.gather(mems, &copy);
                cmcc_obs::add(cmcc_obs::Counter::InteriorRefreshWords, words as u64);
                words
            } else {
                // A classic plan's coefficient, which the sweeps read in
                // place: its copy counts as a gather.
                let words = self.lane_mirror.gather(mems, &copy);
                cmcc_obs::add(cmcc_obs::Counter::GatherWords, words as u64);
                words
            };
            tally.interior_words += words;
            tally.predicted += copy.rows * copy.cols * cp.nodes;
            self.lane_buffers[b] = Some(Held {
                array: array.field(),
                epoch: self.lane_epoch,
                exchanged: false,
            });
        }
    }

    /// Runs every halo exchange the read phase left pending and every
    /// fused step — all on the private mirror, with no access to node
    /// memory — and records the result as awaiting its commit.
    fn compute_phase(&mut self, cp: &CompiledPlan, mut tally: ExecTally) {
        let depth = cp.depth;
        let dir = self.lane_dir;
        let schedule = cp.lane_schedule();
        let lane = schedule.direction(dir);
        for (k, exchange) in lane.exchanges.iter().enumerate() {
            // The modeled NEWS cycles are charged every iteration —
            // the CM-2 exchanges every time. Skipping the host-side
            // copies of an unchanged source is an emulator optimization
            // and must not perturb the `Measurement`.
            tally.comm += exchange.cycles();
            let b = self.source_buffer(k, dir);
            let held = self.lane_buffers[b]
                .as_mut()
                .expect("the read phase refreshed every pair");
            if held.exchanged {
                continue;
            }
            tally.exchange_words += exchange.words_moved();
            tally.predicted += exchange.words_moved();
            let _ = exchange.run(&mut self.lane_mirror);
            held.exchanged = true;
        }
        // The destination is about to be overwritten; it holds the
        // result only once the commit has written it.
        let dest = self.dest_buffer(dir);
        self.lane_buffers[dest] = None;
        // The row sweeps stand in for the whole node schedule: its
        // counters, summed at build, are this execute's.
        cmcc_obs::add(cmcc_obs::Counter::LockstepSteps, cp.counts.steps);
        cmcc_obs::add(cmcc_obs::Counter::KernelizedSteps, cp.counts.steps);
        tally.run = cp.counts.run;
        for (step, sweep) in lane.program.steps().iter().enumerate() {
            let _t = cmcc_obs::trace::scope(cmcc_obs::trace::TraceOp::KernelSweep, step as u64);
            kernels::sweep(sweep, &mut self.lane_mirror, cp.opts.threads);
            if step + 1 < depth {
                schedule.scratch_fills[step % 2].run(&mut self.lane_mirror);
            }
        }
        self.lane_pending = Some((dest, self.result, self.finish(cp, tally)));
    }

    /// Runs one iteration over the shared artifact `cp`. See
    /// [`ExecutionPlan::execute`].
    fn execute(
        &mut self,
        cp: &CompiledPlan,
        machine: &mut Machine,
    ) -> Result<Measurement, RuntimeError> {
        if self.lane_fallback.is_none() {
            // The lane body, committed at once: the caller holds the
            // machine exclusively, so nothing runs in between.
            self.execute_region(cp, &*machine);
            return Ok(self.commit(cp, machine));
        }
        // The scalar engine: the oracle and the cycle model. Temporal
        // plans have no scalar body: their build lowers the lane body or
        // fails, and every binding that passes `check_fusable` maps.
        let body = cp.scalar.as_ref().expect("temporal plans are lane-mapped");
        let _span = cmcc_obs::span(cmcc_obs::Phase::Execute);
        let mut tally = ExecTally::new(&self.lane_mirror);
        for ((halo, program), src) in body.halos.iter().zip(&body.exchanges).zip(&self.sources) {
            tally.interior_words += halo.fill_interior(machine, src);
            tally.exchange_words += program.words_moved();
            tally.comm += program.run(machine);
        }
        let strips = self
            .strips
            .get_or_insert_with(|| body.resolve_strips(&self.result, &self.coeffs));
        tally.run = machine.run_resolved_all(
            strips,
            [self.result.field().range()],
            cp.opts.engine.mode(),
            cp.opts.threads,
        )?;
        tally.predicted = self.steady_copy_words(cp);
        Ok(self.finish(cp, tally))
    }

    /// The execute epilogue shared by the lane and scalar bodies:
    /// telemetry, the copy-word cross-check, and the paper's cycle
    /// accounting rolled into a [`Measurement`].
    fn finish(&self, cp: &CompiledPlan, tally: ExecTally) -> Measurement {
        let ExecTally {
            run,
            comm,
            interior_words,
            exchange_words,
            allocations,
            predicted,
        } = tally;
        cmcc_obs::add(
            if self.lane_fallback.is_none() {
                cmcc_obs::Counter::LaneResidentRuns
            } else {
                cmcc_obs::Counter::ScalarRuns
            },
            1,
        );
        cmcc_obs::add(cmcc_obs::Counter::FusedSteps, cp.temporal_depth() as u64);
        cmcc_obs::add(cmcc_obs::Counter::UsefulFlops, cp.useful_flops);
        cmcc_obs::add(
            cmcc_obs::Counter::TotalFlops,
            2 * run.macs * cp.nodes as u64,
        );
        cmcc_obs::add(
            cmcc_obs::Counter::MirrorAllocations,
            self.lane_mirror.allocations() - allocations,
        );
        for (slot, &n) in cp.counts.strip_widths.iter().enumerate() {
            cmcc_obs::add(WIDTH_COUNTERS[slot], n);
        }

        // Every build proves the copy model against observed traffic: the
        // words this execute moved are exactly what its re-reads predict
        // — the analytic `steady_state_copy_words` on the scalar engine,
        // and the refreshed buffers and run exchanges on the lane body,
        // whose commit then moves the result. Both sides are counted
        // anyway, and on the lane body a mismatch panics before the
        // execute's result awaits a commit, so node memory stays
        // untouched.
        assert_eq!(
            interior_words + exchange_words,
            predicted,
            "execute copy words diverged from the copy model"
        );

        // One front-end microcode dispatch per half-strip, plus the
        // call overhead.
        let frontend = cp.call_overhead + cp.dispatch * cp.counts.dispatches;

        Measurement {
            useful_flops: cp.useful_flops,
            cycles: CycleBreakdown {
                comm,
                compute: run.cycles,
                frontend,
            },
            nodes: cp.nodes,
        }
    }

    /// Retargets the instance to different arrays of identical shape
    /// over the shared artifact `cp`. See [`ExecutionPlan::rebind`].
    fn rebind(
        &mut self,
        cp: &CompiledPlan,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
    ) -> Result<(), RuntimeError> {
        let _span = cmcc_obs::span(cmcc_obs::Phase::PlanRebind);
        cmcc_obs::add(cmcc_obs::Counter::PlanRebinds, 1);
        cp.validate_binding("rebind", result, sources, coeffs)?;

        let result_moved = result.field() != self.result.field();
        let moved_coeffs: Vec<usize> = (0..coeffs.len())
            .filter(|&k| coeffs[k].field() != self.coeffs[k].field())
            .collect();
        let any_source = self
            .sources
            .iter()
            .zip(sources)
            .any(|(old, new)| old.field() != new.field());
        if !result_moved && moved_coeffs.is_empty() && !any_source {
            // Identical binding (the plan-cache hit replaying the same
            // arrays): the resolved strips and the engine still hold.
            // Writes to the bound arrays are caught by the execute's
            // write-stamp check, not here.
            self.lane_rebind_moved = 0;
            return Ok(());
        }
        if result_moved || !moved_coeffs.is_empty() {
            // The scalar engine re-resolves against the new arrays the
            // next time it runs; kernels read sources through the
            // plan-owned halos, so a source move keeps the strips.
            self.strips = None;
        }

        self.result = *result;
        self.sources.clear();
        self.sources.extend(sources.iter().map(|s| **s));
        self.coeffs.clear();
        self.coeffs.extend(coeffs.iter().map(|c| **c));

        // The lane schedule depends on the shape alone, so it stays
        // valid; only the aliasing rule is checked again, which can put
        // the instance on the scalar engine or take it off. The mirror
        // keeps its contents and its records of what each buffer holds:
        // the next execute reads its source from the buffer that holds
        // it — a ping-pong's last result — and re-reads only what moved.
        self.lane_fallback = cp.lane_fallback(&self.result, &self.coeffs);
        self.lane_rebind_moved = if self.lane_fallback.is_none() {
            let lane = cp.lane_schedule();
            moved_coeffs
                .iter()
                .map(|&k| self.subgrid_words(cp) + lane.exchange_words(cp.sources + k))
                .sum()
        } else {
            0
        };
        Ok(())
    }

    /// Machine-total words copied per steady-state `execute` — the body
    /// behind [`ExecutionPlan::steady_state_copy_words`].
    fn steady_copy_words(&self, cp: &CompiledPlan) -> usize {
        let subgrid = self.subgrid_words(cp);
        if self.lane_fallback.is_some() {
            // The scalar engine refreshes every source interior and runs
            // every exchange per execute.
            let body = cp.scalar.as_ref().expect("temporal plans are lane-mapped");
            return subgrid * self.sources.len()
                + body
                    .exchanges
                    .iter()
                    .map(ExchangeProgram::words_moved)
                    .sum::<usize>();
        }
        // The result is committed every execute. Source 0's buffer still
        // holds it, exchanged, unless the commit rewrote source 0 (an
        // in-place update, read next time from the destination: exchange
        // only; a partial overlap: refresh and exchange again).
        let lane = cp.lane_schedule();
        let result = self.result.field();
        let exchange0 = lane.exchange_words(0);
        let source0 = if self.sources[0].field() == result {
            exchange0
        } else if overlaps(self.sources[0].field(), result) {
            subgrid + exchange0
        } else {
            0
        };
        // Other sources and coefficients stay held unless the commit
        // wrote their array.
        let others: usize = (1..cp.sources + cp.named)
            .filter(|&k| overlaps(self.refresh_array(k).field(), result))
            .map(|k| subgrid + lane.exchange_words(k))
            .sum();
        source0 + others + subgrid
    }

    /// Machine-total words of one subgrid copy: a buffer's refresh, or
    /// the commit of the result.
    fn subgrid_words(&self, cp: &CompiledPlan) -> usize {
        self.result.field().len() * cp.nodes
    }

    /// Machine-total words copied by the execute after a ping-pong
    /// rebind on the lane body, whose source 0 is the last result: that
    /// source's buffer holds it, so it only exchanges; every other
    /// source refreshes and exchanges; the result is committed; and
    /// whatever the last rebind moved beyond that (see
    /// `lane_rebind_moved`) is re-read. On the scalar engine this is the
    /// steady-state figure (every execute already pays the full
    /// refresh).
    fn rebind_cycle_copy_words(&self, cp: &CompiledPlan) -> usize {
        if self.lane_fallback.is_some() {
            return self.steady_copy_words(cp);
        }
        let (lane, subgrid) = (cp.lane_schedule(), self.subgrid_words(cp));
        let others: usize = (1..self.sources.len())
            .map(|k| subgrid + lane.exchange_words(k))
            .sum();
        lane.exchange_words(0) + others + self.lane_rebind_moved + subgrid
    }
}

impl ExecutionPlan {
    /// Plans every per-call decision for `binding` under `opts`.
    ///
    /// Builds the shared [`CompiledPlan`] (the scalar engine's halo
    /// buffers and constant pages from the persistent arena, exchange
    /// programs, the strip-mine schedule, the lane layout and the row
    /// program) and attaches the binding's own [`PlanInstance`] to it. Return the fields with
    /// [`Self::release`] after the last execute; a build that fails
    /// returns whatever it had allocated itself.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::SubgridTooSmall`] when the stencil's halo is deeper
    /// than the per-node subgrid, [`RuntimeError::OutOfMemory`], or
    /// [`RuntimeError::Unfusable`] when a temporal plan cannot fuse the
    /// binding.
    pub fn build(
        machine: &mut Machine,
        binding: &StencilBinding<'_>,
        opts: &ExecOptions,
    ) -> Result<Self, RuntimeError> {
        let shared = CompiledPlan::build(machine, binding, opts)?;
        let inst = PlanInstance::for_binding(&shared, binding);
        Ok(ExecutionPlan {
            shared: Arc::new(shared),
            inst,
        })
    }

    /// Attaches a fresh per-tenant instance to an existing shared
    /// artifact — the multi-tenant fast path: no machine access, no
    /// field allocation, no strip resolution, just this binding over
    /// the shared schedule.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] when the binding's compiled
    /// stencil fingerprint or array shapes do not match the artifact;
    /// [`RuntimeError::WrongSourceCount`] / [`RuntimeError::WrongCoeffCount`]
    /// on argument-count mismatches; [`RuntimeError::Unfusable`] when the
    /// artifact is temporal and the result aliases a named coefficient.
    pub fn from_shared(
        shared: &Arc<CompiledPlan>,
        binding: &StencilBinding<'_>,
    ) -> Result<Self, RuntimeError> {
        if binding.compiled().fingerprint() != shared.fingerprint {
            return Err(RuntimeError::ShapeMismatch {
                what: format!(
                    "compiled stencil fingerprint {:#018x} does not match the shared plan's {:#018x}",
                    binding.compiled().fingerprint(),
                    shared.fingerprint
                ),
            });
        }
        let srcs: Vec<&CmArray> = binding.sources().iter().collect();
        let cfs: Vec<&CmArray> = binding.coeffs().iter().collect();
        shared.validate_binding("bound", binding.result(), &srcs, &cfs)?;
        let inst = PlanInstance::for_binding(shared, binding);
        Ok(ExecutionPlan {
            shared: Arc::clone(shared),
            inst,
        })
    }

    /// The shared compiled artifact this plan executes. Cloning the
    /// returned [`Arc`] keeps the artifact (and its node-memory fields)
    /// alive independently of cache eviction.
    pub fn shared(&self) -> &Arc<CompiledPlan> {
        &self.shared
    }

    /// Runs one iteration: halo exchange, the row sweeps or the kernel
    /// runs, and the paper's accounting. Performs no field allocation and
    /// no schedule construction; the scalar engine resolves the strip
    /// schedule against the bound arrays the first time it runs them.
    ///
    /// A [`Self::lane_mapped`] plan runs the lane body —
    /// [`Self::execute_region`] — and its [`Self::commit`] back to back;
    /// its mirror is recycled, so a steady state allocates nothing. The
    /// body re-reads node memory only where its mirror is out of date:
    /// each source (interior refresh + exchange) and named coefficient
    /// is re-read unless a mirror buffer holds it — refreshed from it,
    /// or (a source) written by a commit as a result — with no write
    /// stamp on it since ([`Machine::written_since`]). Writes by anyone
    /// else count — host scatters, another plan's execute — so an
    /// unchanged binding over unchanged arrays, and the next step of a
    /// ping-pong, touch no `NodeMemory` beyond writing the result. Every other plan runs on
    /// the scalar engine. Every execute stamps the ranges it writes (its
    /// writable [`Self::lease_ranges`]).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Hazard`] on a pipeline hazard (a compiler bug).
    pub fn execute(&mut self, machine: &mut Machine) -> Result<Measurement, RuntimeError> {
        self.inst.execute(&self.shared, machine)
    }

    /// Whether `execute` runs the lane body: the lockstep engine and a
    /// binding whose result overlaps no named coefficient.
    /// Its only node-memory write is its commit of the result, and it
    /// cannot fail, so such a plan may also run region-leased
    /// ([`Self::execute_region`], then [`Self::commit`]). False means the
    /// scalar engine — the oracle and the cycle model — runs it, writing
    /// node memory mid-execute under an exclusive borrow.
    pub fn lane_mapped(&self) -> bool {
        self.inst.lane_fallback.is_none()
    }

    /// Runs the lane body under *shared* machine access, holding
    /// `machine` — a read guard, or any other shared borrow — only for
    /// the read phase. That phase is the only one that reads node
    /// memory: it refreshes every stale source and coefficient buffer.
    /// Then `machine` is dropped, and the halo exchanges and the fused
    /// sweeps run on the private mirror alone, leaving the result there.
    /// [`Self::commit`] then writes it to node memory under exclusive
    /// access; the session makes that commit under a brief write lock,
    /// while still holding the lease over this plan's
    /// [`ExecutionPlan::lease_ranges`], so no conflicting execute can run
    /// between the read phase and the commit. One `execute` trace span
    /// covers both phases. An execute left uncommitted writes nothing:
    /// the next one forgets it and refreshes whatever it overwrote.
    ///
    /// Results, [`Measurement`]s, and telemetry are bit-identical to
    /// [`ExecutionPlan::execute`], which runs the same body and commit.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not [`ExecutionPlan::lane_mapped`].
    pub fn execute_region<G: Deref<Target = Machine>>(&mut self, machine: G) {
        self.inst.execute_region(&self.shared, machine);
    }

    /// Commits the last [`Self::execute_region`]: transposes its result
    /// from the lane mirror straight into the result array bound when it
    /// ran — the lane body's one node-memory write, stamped exactly there
    /// ([`Self::uncommitted`] names the range) — and returns the
    /// execute's [`Measurement`]. From then on the mirror buffer counts
    /// as holding the result array as of that stamp, so an execute that
    /// next reads the result (a ping-pong step, an in-place update) reads
    /// it from the mirror instead of refreshing it from node memory.
    /// Counts the result as scatter words. [`Self::execute`] commits by
    /// itself.
    ///
    /// # Panics
    ///
    /// Panics unless an `execute_region` awaits its commit.
    pub fn commit(&mut self, machine: &mut Machine) -> Measurement {
        self.inst.commit(&self.shared, machine)
    }

    /// The node-memory range [`Self::commit`] writes, while an
    /// [`Self::execute_region`] awaits its commit: the result array bound
    /// when that execute ran. The session checks it lies inside the
    /// execute's lease before taking the write lock.
    pub fn uncommitted(&self) -> Option<Range<usize>> {
        self.inst
            .lane_pending
            .map(|(_, result, _)| result.field().range())
    }

    /// The node-memory ranges this plan's next execute touches, with
    /// write flags — what the session leases before admitting the
    /// execute. The bound arrays always: sources and coefficients
    /// read-only, the result writable (the lane body's commit writes
    /// it). The plan-owned fields — halo buffers, the constant pair and
    /// literal pages — only when the scalar engine runs the instance,
    /// and then writable: `fill_interior` and the exchange write the
    /// halos, so two scalar instances of one shared artifact must
    /// serialize. The lane body reads no plan-owned word.
    pub fn lease_ranges(&self) -> Vec<LeaseRange> {
        let owned: &[Field] = if self.lane_mapped() {
            &[]
        } else {
            &self.shared.owned.0
        };
        let inst = &self.inst;
        let bound = inst.sources.iter().chain(&inst.coeffs);
        owned
            .iter()
            .map(|&f| (f, true))
            .chain(bound.map(|a| (a.field(), false)))
            .chain([(inst.result.field(), true)])
            .filter(|(f, _)| !f.is_empty())
            .map(|(f, writable)| LeaseRange {
                start: f.base(),
                end: f.base() + f.len(),
                writable,
            })
            .collect()
    }

    /// Retargets the plan to different arrays of identical shape without
    /// rebuilding anything shared.
    ///
    /// O(arrays) work: the lane schedule is kept (lane addresses depend
    /// on the shape alone), and so is the mirror's contents — the next
    /// execute re-reads only the buffers whose array moved (see
    /// [`Self::execute`]). A moved result
    /// or named coefficient drops the instance's resolved strips, which
    /// the scalar engine re-resolves the next time it runs; a moved
    /// source keeps them (sources are read through the plan's own halo
    /// buffers).
    ///
    /// This is what makes ping-pong time stepping (`swap(cur, next)`) and
    /// volume sweeps reuse one plan.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WrongSourceCount`], [`RuntimeError::WrongCoeffCount`],
    /// or [`RuntimeError::ShapeMismatch`] when the new arrays do not match
    /// the plan's shapes; [`RuntimeError::Unfusable`] when a temporal
    /// plan's new result aliases a named coefficient. The plan keeps its
    /// old binding on any error.
    pub fn rebind(
        &mut self,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
    ) -> Result<(), RuntimeError> {
        self.inst.rebind(&self.shared, result, sources, coeffs)
    }

    /// Returns the plan's fields to the persistent arena — if this was
    /// the artifact's last instance. While other instances (or the plan
    /// cache) still hold the shared artifact, the fields stay live and
    /// this is a no-op beyond dropping the instance.
    pub fn release(self, machine: &mut Machine) {
        let ExecutionPlan { shared, inst } = self;
        drop(inst);
        if let Ok(cp) = Arc::try_unwrap(shared) {
            cp.release(machine);
        }
    }

    /// Detaches the instance's lane mirror, for reuse by another tenant.
    /// The plan falls back to an unprimed (but still valid) state: its
    /// next execute re-shapes whatever mirror it holds and refreshes
    /// every buffer.
    pub fn take_mirror(&mut self) -> LaneMirror {
        self.inst.forget_mirror();
        std::mem::take(&mut self.inst.lane_mirror)
    }

    /// Installs a (possibly recycled) lane mirror into the instance.
    /// The mirror's buffers are reused when shapes match — this is how
    /// a session hands a retired instance's mirror to a new tenant
    /// without allocating; contents are treated as garbage and refreshed
    /// whole.
    pub fn install_mirror(&mut self, mirror: LaneMirror) {
        self.inst.lane_mirror = mirror;
        self.inst.forget_mirror();
    }

    /// The [`CompiledStencil::fingerprint`] this plan was built from.
    pub fn fingerprint(&self) -> u64 {
        self.shared.fingerprint
    }

    /// Global rows of the bound arrays.
    pub fn rows(&self) -> usize {
        self.inst.result.rows()
    }

    /// Global columns of the bound arrays.
    pub fn cols(&self) -> usize {
        self.inst.result.cols()
    }

    /// Lane-mirror buffer allocations performed so far. Steady state
    /// (repeated `execute` without rebinding a different shape) must not
    /// move this counter; benches and tests assert on the delta.
    pub fn lane_mirror_allocations(&self) -> u64 {
        self.inst.lane_mirror.allocations()
    }

    /// Machine-total words copied per steady-state `execute` under the
    /// current engine. The lane body reaches a fixed point: while the
    /// binding holds and nobody writes the bound read-only arrays, the
    /// mirror's source and coefficient buffers stay current, so a
    /// steady iteration copies nothing but the committed result — plus, on
    /// an in-place update, the exchange of the source it reads back from
    /// the mirror.
    /// The scalar engine refreshes per iteration: the interior source
    /// copy and the halo-exchange moves. Computed from the plan's
    /// structure, so it cannot drift from what `execute` actually does.
    /// Fill words (border zeroing) are excluded: they are stores, not
    /// copies.
    pub fn steady_state_copy_words(&self) -> usize {
        self.inst.steady_copy_words(&self.shared)
    }

    /// Machine-total words the execute after a ping-pong rebind — source
    /// 0 is the last result — moves on the lane body: source 0's halo
    /// exchange (the mirror holds its words, so there is no refresh),
    /// every other source's refresh and exchange, the committed result,
    /// plus the refreshes (and, on temporal plans, exchanges) of the
    /// coefficients the last rebind moved. Equals
    /// [`Self::steady_state_copy_words`] on the scalar engine, where
    /// every execute already pays the full refresh.
    pub fn rebind_cycle_copy_words(&self) -> usize {
        self.inst.rebind_cycle_copy_words(&self.shared)
    }

    /// Fused time steps a single `execute` advances: the plan's
    /// effective temporal depth (1 when temporal tiling is off or was
    /// clamped).
    pub fn temporal_depth(&self) -> usize {
        self.shared.temporal_depth()
    }

    /// Why a requested `temporal_depth > 1` was clamped to 1, if it
    /// was; `None` when the requested depth took effect.
    pub fn temporal_fallback(&self) -> Option<&'static str> {
        self.shared.temporal_fallback()
    }

    /// Why `execute` runs the scalar engine instead of the lane body:
    /// "cycle-accurate mode", "scalar engine requested", "bound arrays
    /// overlap in node memory" (the result overlaps a named
    /// coefficient), or the check the row program failed
    /// ([`cmcc_cm2::kernels::RowProgram::new`]). `None` exactly when the
    /// plan is [`Self::lane_mapped`]. Follows every rebind.
    pub fn lane_fallback(&self) -> Option<&'static str> {
        self.inst.lane_fallback
    }

    /// Words of node memory per node the plan owns: a classic plan's
    /// halo buffers and constant pages, none on a temporal plan.
    pub fn words(&self) -> usize {
        self.shared.words()
    }
}

/// The strip-mine schedule of a `rows × cols` region, in execution
/// order — strip by strip, half-strips within each: every half-strip's
/// kernel, its strip and its half.
fn strip_mine(
    compiled: &CompiledStencil,
    half_strips: bool,
    rows: usize,
    cols: usize,
) -> Vec<(&Kernel, Strip, HalfStrip)> {
    let halves = if half_strips {
        halfstrips(rows)
    } else {
        full_strip(rows)
    };
    let mut schedule = Vec::new();
    for strip in plan_strips(compiled, cols) {
        let sk = compiled
            .widest_kernel_for(strip.width)
            .expect("plan_strips used compiled widths");
        assert_eq!(
            sk.width, strip.width,
            "the widest kernel must fit the strip exactly"
        );
        for &half in &halves {
            let kernel = match half.walk {
                Walk::North => &sk.north,
                Walk::South => &sk.south,
            };
            schedule.push((kernel, strip, half));
        }
    }
    schedule
}

/// A classic plan's node schedule with no address resolved: what the
/// scalar engine resolves against the binding it runs
/// ([`CompiledPlan::resolve_strips`]).
#[derive(Debug, Default)]
struct NodeSchedule {
    /// One copy of each kernel the schedule names: one per strip width
    /// and walk.
    kernels: Vec<Kernel>,
    /// Every half-strip in execution order: its kernel's index in
    /// `kernels`, its strip and its half.
    strips: Vec<(usize, Strip, HalfStrip)>,
}

impl NodeSchedule {
    /// The strip-mine schedule of a `rows × cols` subgrid.
    fn of(compiled: &CompiledStencil, half_strips: bool, rows: usize, cols: usize) -> Self {
        let mut kernels: Vec<&Kernel> = Vec::new();
        let strips = strip_mine(compiled, half_strips, rows, cols)
            .into_iter()
            .map(|(kernel, strip, half)| {
                let k = match kernels.iter().position(|&k| std::ptr::eq(k, kernel)) {
                    Some(k) => k,
                    None => {
                        kernels.push(kernel);
                        kernels.len() - 1
                    }
                };
                (k, strip, half)
            })
            .collect();
        NodeSchedule {
            kernels: kernels.into_iter().cloned().collect(),
            strips,
        }
    }
}

/// The node-memory fields a plan owns, in allocation order, all from the
/// persistent arena. A build allocates through one and hands it to the
/// finished plan — or, when it fails part-way, straight back to the
/// arena.
#[derive(Debug, Default)]
struct OwnedFields(Vec<Field>);

impl OwnedFields {
    /// Allocates `len` words on every node.
    fn field(&mut self, machine: &mut Machine, len: usize) -> Result<Field, RuntimeError> {
        let field = machine.alloc_field_persistent(len)?;
        self.0.push(field);
        Ok(field)
    }

    /// Allocates a `pad`-deep halo buffer around a `(rows, cols)`
    /// subgrid.
    fn halo(
        &mut self,
        machine: &mut Machine,
        (rows, cols): (usize, usize),
        pad: usize,
    ) -> Result<HaloBuffer, RuntimeError> {
        let halo = HaloBuffer::new(machine, rows, cols, pad)?;
        self.0.push(halo.field());
        Ok(halo)
    }

    /// Words per node the fields occupy.
    fn words(&self) -> usize {
        self.0.iter().map(Field::len).sum()
    }

    /// Returns every field to the arena.
    fn release(self, machine: &mut Machine) {
        for field in self.0.into_iter().rev() {
            machine.free_field_persistent(field);
        }
    }
}

/// What one run of a plan's node schedule reports on every node,
/// counted from each half-strip's kernel and line count without
/// resolving an address: the same whether the scalar engine runs the
/// schedule or the lane body stands in for it.
#[derive(Debug, Default)]
struct ScheduleCounts {
    /// The fast-mode counters, summed over every half-strip.
    run: StripRun,
    /// Dynamic steps issued.
    steps: u64,
    /// Half-strips per kernel width (index 0 → width 8, then 4, 2, 1) —
    /// the paper's strip-mine distribution, reported through `cmcc_obs`.
    strip_widths: [u64; 4],
    /// Half-strips: one front-end microcode dispatch each.
    dispatches: u64,
}

impl ScheduleCounts {
    /// Counts the schedule of every fused step of a `depth`-deep plan
    /// over a `rows × cols` subgrid: step `j` covers the subgrid
    /// widened by a `(depth−1−j)·pad`-deep margin on every side.
    fn of(
        compiled: &CompiledStencil,
        half_strips: bool,
        (rows, cols): (usize, usize),
        depth: usize,
        pad: usize,
    ) -> Self {
        let mut counts = ScheduleCounts::default();
        for step in 0..depth {
            let margin = 2 * (depth - 1 - step) * pad;
            for (kernel, strip, half) in
                strip_mine(compiled, half_strips, rows + margin, cols + margin)
            {
                let run = fast_counts(kernel, half.lines);
                counts.steps += run.macs + run.loads + run.stores + run.nops;
                counts.run.absorb(&run);
                if let Some(slot) = width_slot(strip.width) {
                    counts.strip_widths[slot] += 1;
                }
                counts.dispatches += 1;
            }
        }
        counts
    }
}

/// `cmcc_obs` strip counters in `strip_widths` slot order (8, 4, 2, 1).
const WIDTH_COUNTERS: [cmcc_obs::Counter; 4] = [
    cmcc_obs::Counter::StripsWidth8,
    cmcc_obs::Counter::StripsWidth4,
    cmcc_obs::Counter::StripsWidth2,
    cmcc_obs::Counter::StripsWidth1,
];

/// Maps a kernel width to its `strip_widths` slot. The compiler only
/// emits the paper's widths (8, 4, 2, 1); anything else is uncounted.
fn width_slot(width: usize) -> Option<usize> {
    match width {
        8 => Some(0),
        4 => Some(1),
        2 => Some(2),
        1 => Some(3),
        _ => None,
    }
}

/// What one execute accumulated on its way to the shared epilogue
/// ([`PlanInstance::finish`]): the kernel run, modeled exchange cycles,
/// observed copy traffic, and the copy words the cross-check expects.
struct ExecTally {
    run: StripRun,
    comm: u64,
    /// Machine-total words the refreshes of halos and lane buffers
    /// copied from bound arrays.
    interior_words: usize,
    exchange_words: usize,
    /// The mirror's allocation count at execute entry.
    allocations: u64,
    /// Machine-total copy words the execute's re-reads predict.
    predicted: usize,
}

impl ExecTally {
    /// An empty tally, with the mirror's counters as the baseline.
    fn new(mirror: &LaneMirror) -> Self {
        ExecTally {
            run: StripRun::default(),
            comm: 0,
            interior_words: 0,
            exchange_words: 0,
            allocations: mirror.allocations(),
            predicted: 0,
        }
    }
}

/// One node-memory address range an execute touches, with whether it may
/// write it — the unit of the session's region-lease table.
///
/// Two executes may run concurrently exactly when no writable range of
/// either overlaps any range of the other: read-read overlap is harmless
/// (tenants of one shared artifact all read its constant pages and halo
/// buffers), while any overlap involving a write must serialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseRange {
    /// First node-memory address of the range.
    pub start: usize,
    /// One past the last address (exclusive).
    pub end: usize,
    /// Whether the execute may store into the range.
    pub writable: bool,
}

impl LeaseRange {
    /// Whether two leased ranges cannot be held concurrently: they
    /// overlap and at least one side writes.
    pub fn conflicts(&self, other: &LeaseRange) -> bool {
        self.start < other.end && other.start < self.end && (self.writable || other.writable)
    }
}

/// Whether two node-memory fields share an address.
fn overlaps(a: Field, b: Field) -> bool {
    a.base() < b.base() + b.len() && b.base() < a.base() + a.len()
}

/// The one aliasing rule, shared by the build, `from_shared` and
/// `rebind`: a result that overlaps a named coefficient. Returns the
/// reason a classic plan then runs the scalar engine, which reads the
/// coefficient in place — the lane body would have to refresh the
/// coefficient's buffer after every commit; a temporal plan cannot fuse
/// such a binding at all ([`check_fusable`]). Any other aliasing maps:
/// every source and coefficient slot is refreshed into a lane buffer of
/// its own, and a result aliased onto a source is read back from the
/// destination buffer.
fn aliasing_refusal<'a>(
    result: &CmArray,
    mut coeffs: impl Iterator<Item = &'a CmArray>,
) -> Option<&'static str> {
    coeffs
        .any(|c| overlaps(c.field(), result.field()))
        .then_some("bound arrays overlap in node memory")
}

/// The aliasing rule for temporal tiling: a fused execute reads each
/// named coefficient once, at its start, while `depth` separate executes
/// would see a result that aliases a coefficient overwrite it between
/// steps — so that binding cannot fuse. (A source may alias the result:
/// a separate step also reads its whole source before writing.) A clamp
/// to depth 1 cannot stand in: an instance cannot clamp a shared
/// artifact, and a build-time clamp would make the outcome depend on
/// which tenant built first.
fn check_fusable<'a>(
    depth: usize,
    result: &CmArray,
    coeffs: impl Iterator<Item = &'a CmArray>,
) -> Result<(), RuntimeError> {
    if depth > 1 && aliasing_refusal(result, coeffs).is_some() {
        return Err(RuntimeError::Unfusable {
            reason: "the result aliases a named coefficient",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolve::convolve;
    use cmcc_cm2::config::MachineConfig;
    use cmcc_core::compiler::Compiler;
    use cmcc_core::patterns::PaperPattern;

    fn machine() -> Machine {
        Machine::new(MachineConfig::tiny_4()).unwrap()
    }

    fn compile(m: &Machine, text: &str) -> CompiledStencil {
        Compiler::new(m.config().clone())
            .compile_assignment(text)
            .unwrap()
    }

    #[test]
    fn plan_matches_fresh_convolve_bit_for_bit() {
        let mut m = machine();
        let compiled = compile(&m, &PaperPattern::Cross5.fortran());
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill_with(&mut m, |r, c| ((r * 13 + c * 7) % 11) as f32 * 0.5 - 2.0);
        let coeffs: Vec<CmArray> = (0..5)
            .map(|i| {
                let a = CmArray::new(&mut m, 8, 8).unwrap();
                a.fill(&mut m, 0.11 * (i + 1) as f32);
                a
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let r_fresh = CmArray::new(&mut m, 8, 8).unwrap();
        let r_plan = CmArray::new(&mut m, 8, 8).unwrap();
        let opts = ExecOptions::default();

        let fresh = convolve(&mut m, &compiled, &r_fresh, &x, &refs, &opts).unwrap();

        let binding = StencilBinding::new(&compiled, &r_plan, &[&x], &refs).unwrap();
        let mut plan = ExecutionPlan::build(&mut m, &binding, &opts).unwrap();
        for _ in 0..3 {
            let planned = plan.execute(&mut m).unwrap();
            assert_eq!(planned, fresh);
        }
        let want = r_fresh.gather(&m);
        let got = r_plan.gather(&m);
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        plan.release(&mut m);
    }

    #[test]
    fn steady_state_execute_performs_no_allocations() {
        let mut m = machine();
        let compiled = compile(&m, "R = 0.25 * CSHIFT(X, 1, -1) + 0.75 * X");
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill(&mut m, 1.0);
        let binding = StencilBinding::new(&compiled, &r, &[&x], &[]).unwrap();
        let mut plan = ExecutionPlan::build(&mut m, &binding, &ExecOptions::fast()).unwrap();
        let allocs = m.alloc_count();
        let mark = m.alloc_mark();
        for _ in 0..10 {
            plan.execute(&mut m).unwrap();
        }
        assert_eq!(m.alloc_count(), allocs, "execute must not allocate");
        assert_eq!(m.alloc_mark(), mark, "execute must not move the bump mark");
        plan.release(&mut m);
    }

    #[test]
    fn steady_state_execute_reuses_the_lane_mirror() {
        let mut m = machine();
        let compiled = compile(&m, &PaperPattern::Square9.fortran());
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill_with(&mut m, |r, c| ((r * 7 + c) % 13) as f32 * 0.5);
        let coeffs: Vec<CmArray> = (0..9)
            .map(|i| {
                let a = CmArray::new(&mut m, 8, 8).unwrap();
                a.fill(&mut m, (i as f32 - 4.0) * 0.125);
                a
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let binding = StencilBinding::new(&compiled, &r, &[&x], &refs).unwrap();
        let mut plan = ExecutionPlan::build(&mut m, &binding, &ExecOptions::fast()).unwrap();
        assert!(plan.lane_mapped(), "a clean binding lane-maps");

        // The first execute shapes the mirror; every later one recycles it.
        let first = plan.execute(&mut m).unwrap();
        let mirror_allocs = plan.lane_mirror_allocations();
        assert!(mirror_allocs > 0, "the priming execute shapes the mirror");
        let node_allocs = m.alloc_count();
        for _ in 0..10 {
            let again = plan.execute(&mut m).unwrap();
            assert_eq!(again, first);
        }
        assert_eq!(
            plan.lane_mirror_allocations(),
            mirror_allocs,
            "steady state must not grow or reshape the lane mirror"
        );
        assert_eq!(m.alloc_count(), node_allocs, "execute must not allocate");
        assert!(
            plan.inst.strips.is_none(),
            "a lane-mapped instance resolves no strips"
        );

        // The lane body's steady state copies only the committed result,
        // strictly fewer words than the scalar engine's per-execute
        // refresh and exchange, and measures the same.
        let binding2 = StencilBinding::new(&compiled, &r, &[&x], &refs).unwrap();
        let mut baseline = ExecutionPlan::build(
            &mut m,
            &binding2,
            &ExecOptions::fast().with_engine(ExecEngine::Scalar),
        )
        .unwrap();
        assert!(!baseline.lane_mapped());
        assert_eq!(baseline.execute(&mut m).unwrap(), first);
        assert!(plan.steady_state_copy_words() < baseline.steady_state_copy_words());
        baseline.release(&mut m);
        plan.release(&mut m);
    }

    /// A lane execute writes node memory only in its commit: after
    /// `execute_region` nothing is scattered and the write epoch has not
    /// moved; the commit stamps the result's range and nothing the plan
    /// reads, counts the result as scatter words, and returns what
    /// `execute` measures.
    #[test]
    fn a_lane_execute_writes_node_memory_only_in_its_commit() {
        cmcc_obs::set_enabled(true);
        let mut m = machine();
        let compiled = compile(&m, "R = C * CSHIFT(X, 1, -1) + 0.5 * X");
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let c = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill_with(&mut m, |row, col| (row * 8 + col) as f32);
        c.fill(&mut m, 0.25);
        let binding = StencilBinding::new(&compiled, &r, &[&x], &[&c]).unwrap();
        let mut plan = ExecutionPlan::build(&mut m, &binding, &ExecOptions::fast()).unwrap();
        assert!(plan.lane_mapped());

        let (epoch, before) = (m.write_epoch(), cmcc_obs::thread_snapshot());
        plan.execute_region(&m);
        let computed = cmcc_obs::thread_snapshot().delta(&before);
        assert_eq!(computed.get(cmcc_obs::Counter::ScatterWords), 0);
        assert_eq!(m.write_epoch(), epoch, "execute_region wrote node memory");
        assert_eq!(plan.uncommitted(), Some(r.field().range()));

        let measurement = plan.commit(&mut m);
        let committed = cmcc_obs::thread_snapshot().delta(&before);
        assert_eq!(
            committed.get(cmcc_obs::Counter::ScatterWords),
            (r.field().len() * m.node_count()) as u64
        );
        assert!(m.written_since(r.field().range(), epoch));
        for bound in [&x, &c] {
            assert!(
                !m.written_since(bound.field().range(), epoch),
                "the commit stamped a bound source or coefficient"
            );
        }
        assert_eq!(plan.uncommitted(), None);
        assert_eq!(plan.execute(&mut m).unwrap(), measurement);
        plan.release(&mut m);
    }

    #[test]
    fn release_returns_every_persistent_word() {
        let mut m = machine();
        let compiled = compile(&m, &PaperPattern::Square9.fortran());
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let coeffs: Vec<CmArray> = (0..9)
            .map(|_| CmArray::new(&mut m, 8, 8).unwrap())
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let before = m.persistent_used();
        let binding = StencilBinding::new(&compiled, &r, &[&x], &refs).unwrap();
        let plan = ExecutionPlan::build(&mut m, &binding, &ExecOptions::default()).unwrap();
        assert!(m.persistent_used() > before);
        plan.release(&mut m);
        assert_eq!(m.persistent_used(), before);
    }

    /// Leases follow what the engine touches: a lane-mapped plan leases
    /// exactly its bound arrays — sources and coefficients read-only, the
    /// result writable — and an instance the scalar engine runs leases
    /// every plan-owned field too, writable.
    #[test]
    fn leases_follow_what_the_engine_touches() {
        let mut m = machine();
        let compiled = compile(&m, "R = C * CSHIFT(X, 1, -1) + 0.5 * X");
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let c = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let lease = |f: Field, writable: bool| LeaseRange {
            start: f.base(),
            end: f.base() + f.len(),
            writable,
        };
        let owned = |plan: &ExecutionPlan| -> Vec<LeaseRange> {
            plan.shared()
                .owned
                .0
                .iter()
                .map(|&f| lease(f, true))
                .collect()
        };
        let binding = StencilBinding::new(&compiled, &r, &[&x], &[&c]).unwrap();
        let mut lane = ExecutionPlan::build(&mut m, &binding, &ExecOptions::fast()).unwrap();
        assert!(lane.lane_mapped());
        let bound = [
            lease(x.field(), false),
            lease(c.field(), false),
            lease(r.field(), true),
        ];
        assert_eq!(lane.lease_ranges(), bound);

        let scalar_opts = ExecOptions::fast().with_engine(ExecEngine::Scalar);
        let scalar = ExecutionPlan::build(&mut m, &binding, &scalar_opts).unwrap();
        assert_eq!(
            owned(&scalar).len(),
            3,
            "the source halo, the constant pair and the literal page"
        );
        assert_eq!(
            scalar.lease_ranges(),
            [&owned(&scalar)[..], &bound].concat()
        );

        // The aliasing rule puts the lane plan's instance on the scalar
        // engine: it leases its artifact's fields too.
        lane.rebind(&c, &[&x], &[&c]).unwrap();
        assert!(!lane.lane_mapped());
        let aliased = [
            lease(x.field(), false),
            lease(c.field(), false),
            lease(c.field(), true),
        ];
        assert_eq!(lane.lease_ranges(), [&owned(&lane)[..], &aliased].concat());
        scalar.release(&mut m);
        lane.release(&mut m);
    }

    #[test]
    fn rebind_retargets_result_source_and_coeffs() {
        let mut m = machine();
        let compiled = compile(&m, "R = C * CSHIFT(X, 2, 1) + 0.5 * X");
        let mk = |m: &mut Machine, seed: usize| {
            let a = CmArray::new(m, 8, 8).unwrap();
            a.fill_with(m, move |r, c| ((r * 5 + c * 3 + seed) % 17) as f32 * 0.25);
            a
        };
        let x1 = mk(&mut m, 1);
        let c1 = mk(&mut m, 2);
        let x2 = mk(&mut m, 3);
        let c2 = mk(&mut m, 4);
        let r1 = CmArray::new(&mut m, 8, 8).unwrap();
        let r2 = CmArray::new(&mut m, 8, 8).unwrap();
        let opts = ExecOptions::default();

        let binding = StencilBinding::new(&compiled, &r1, &[&x1], &[&c1]).unwrap();
        let mut plan = ExecutionPlan::build(&mut m, &binding, &opts).unwrap();
        plan.execute(&mut m).unwrap();
        // Kernels read sources through the plan's halo buffers: a source
        // move keeps the strips the scalar engine resolved.
        plan.rebind(&r1, &[&x2], &[&c1]).unwrap();
        assert!(plan.inst.strips.is_some());
        plan.rebind(&r2, &[&x2], &[&c2]).unwrap();
        let rebound = plan.execute(&mut m).unwrap();

        // A fresh convolve on the second argument set must agree exactly.
        let r_fresh = CmArray::new(&mut m, 8, 8).unwrap();
        let fresh = convolve(&mut m, &compiled, &r_fresh, &x2, &[&c2], &opts).unwrap();
        assert_eq!(rebound, fresh);
        assert_eq!(r2.gather(&m), r_fresh.gather(&m));

        // And rebinding back retargets cleanly (round trip).
        plan.rebind(&r1, &[&x1], &[&c1]).unwrap();
        plan.execute(&mut m).unwrap();
        let r_fresh1 = CmArray::new(&mut m, 8, 8).unwrap();
        convolve(&mut m, &compiled, &r_fresh1, &x1, &[&c1], &opts).unwrap();
        assert_eq!(r1.gather(&m), r_fresh1.gather(&m));
        plan.release(&mut m);
    }

    #[test]
    fn rebind_rejects_mismatched_shapes_and_counts() {
        let mut m = machine();
        let compiled = compile(&m, "R = C * X");
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let c = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let wrong = CmArray::new(&mut m, 8, 12).unwrap();
        let binding = StencilBinding::new(&compiled, &r, &[&x], &[&c]).unwrap();
        let mut plan = ExecutionPlan::build(&mut m, &binding, &ExecOptions::default()).unwrap();
        assert!(matches!(
            plan.rebind(&wrong, &[&x], &[&c]),
            Err(RuntimeError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            plan.rebind(&r, &[&x], &[]),
            Err(RuntimeError::WrongCoeffCount { .. })
        ));
        assert!(matches!(
            plan.rebind(&r, &[], &[&c]),
            Err(RuntimeError::WrongSourceCount { .. })
        ));
        plan.release(&mut m);
    }

    #[test]
    fn lockstep_plan_matches_scalar_plan_bit_for_bit() {
        let mut m = machine();
        let compiled = compile(&m, &PaperPattern::Square9.fortran());
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill_with(&mut m, |r, c| ((r * 13 + c * 7) % 11) as f32 * 0.5 - 2.0);
        let coeffs: Vec<CmArray> = (0..9)
            .map(|i| {
                let a = CmArray::new(&mut m, 8, 8).unwrap();
                a.fill_with(&mut m, move |r, c| {
                    ((r * 3 + c * 5 + i) % 7) as f32 * 0.125 - 0.25
                });
                a
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let r_scalar = CmArray::new(&mut m, 8, 8).unwrap();
        let r_lock = CmArray::new(&mut m, 8, 8).unwrap();

        let scalar_opts = ExecOptions::fast().with_engine(ExecEngine::Scalar);
        let b = StencilBinding::new(&compiled, &r_scalar, &[&x], &refs).unwrap();
        let mut scalar_plan = ExecutionPlan::build(&mut m, &b, &scalar_opts).unwrap();
        assert!(!scalar_plan.lane_mapped());
        let scalar_meas = scalar_plan.execute(&mut m).unwrap();

        let lock_opts = ExecOptions::fast().with_engine(ExecEngine::Lockstep);
        let b = StencilBinding::new(&compiled, &r_lock, &[&x], &refs).unwrap();
        let mut lock_plan = ExecutionPlan::build(&mut m, &b, &lock_opts).unwrap();
        assert!(lock_plan.lane_mapped());
        let lock_meas = lock_plan.execute(&mut m).unwrap();

        assert_eq!(scalar_meas, lock_meas);
        let want = r_scalar.gather(&m);
        let got = r_lock.gather(&m);
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        scalar_plan.release(&mut m);
        lock_plan.release(&mut m);
    }

    #[test]
    fn aliased_binding_falls_back_to_scalar() {
        let mut m = machine();
        let compiled = compile(&m, "R = C * X");
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        x.fill(&mut m, 2.0);
        let c = CmArray::new(&mut m, 8, 8).unwrap();
        c.fill(&mut m, 3.0);
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        let opts = ExecOptions::fast();
        assert_eq!(opts.engine, ExecEngine::Lockstep);

        // Result aliased to the coefficient array: the lane mirror cannot
        // represent one buffer in two roles, so the plan must fall back —
        // and still compute the correct result through the scalar path.
        let b = StencilBinding::new(&compiled, &c, &[&x], &[&c]).unwrap();
        let mut plan = ExecutionPlan::build(&mut m, &b, &opts).unwrap();
        assert!(!plan.lane_mapped());
        plan.execute(&mut m).unwrap();
        assert_eq!(c.get(&m, 3, 3), 6.0);
        plan.release(&mut m);

        // A clean binding keeps the lockstep engine.
        let b = StencilBinding::new(&compiled, &r, &[&x], &[&c]).unwrap();
        let plan = ExecutionPlan::build(&mut m, &b, &opts).unwrap();
        assert!(plan.lane_mapped());
        plan.release(&mut m);
    }

    #[test]
    fn rebind_keeps_lockstep_matching_fresh_convolve() {
        let mut m = machine();
        let compiled = compile(&m, "R = C * CSHIFT(X, 2, 1) + 0.5 * X");
        let mk = |m: &mut Machine, seed: usize| {
            let a = CmArray::new(m, 8, 8).unwrap();
            a.fill_with(m, move |r, c| ((r * 5 + c * 3 + seed) % 17) as f32 * 0.25);
            a
        };
        let x1 = mk(&mut m, 1);
        let c1 = mk(&mut m, 2);
        let x2 = mk(&mut m, 3);
        let c2 = mk(&mut m, 4);
        let r1 = CmArray::new(&mut m, 8, 8).unwrap();
        let r2 = CmArray::new(&mut m, 8, 8).unwrap();
        let opts = ExecOptions::fast();

        let binding = StencilBinding::new(&compiled, &r1, &[&x1], &[&c1]).unwrap();
        let mut plan = ExecutionPlan::build(&mut m, &binding, &opts).unwrap();
        assert!(plan.lane_mapped());
        plan.execute(&mut m).unwrap();
        plan.rebind(&r2, &[&x2], &[&c2]).unwrap();
        assert!(plan.lane_mapped(), "rebind must keep the lane body");
        plan.execute(&mut m).unwrap();

        // Rebinding onto an aliased pair turns the engine off: the
        // scalar engine runs the binding the lane rebinds moved the
        // result and the coefficient to, and matches a fresh scalar
        // convolve over the same aliasing…
        let c_alias = CmArray::new(&mut m, 8, 8).unwrap();
        let c1_values = c1.gather(&m);
        c_alias.scatter(&mut m, &c1_values);
        plan.rebind(&c1, &[&x1], &[&c1]).unwrap();
        assert!(!plan.lane_mapped());
        let aliased = plan.execute(&mut m).unwrap();
        let fresh = convolve(
            &mut m,
            &compiled,
            &c_alias,
            &x1,
            &[&c_alias],
            &ExecOptions::fast().with_engine(ExecEngine::Scalar),
        )
        .unwrap();
        assert_eq!(aliased, fresh);
        assert_eq!(c1.gather(&m), c_alias.gather(&m));
        // …and a clean rebind turns it back on, dropping the strips
        // resolved for the moved result.
        plan.rebind(&r1, &[&x1], &[&c1]).unwrap();
        assert!(plan.lane_mapped());
        assert!(plan.inst.strips.is_none());
        plan.execute(&mut m).unwrap();

        let r_fresh = CmArray::new(&mut m, 8, 8).unwrap();
        convolve(
            &mut m,
            &compiled,
            &r_fresh,
            &x2,
            &[&c2],
            &ExecOptions::fast().with_engine(ExecEngine::Scalar),
        )
        .unwrap();
        assert_eq!(r2.gather(&m), r_fresh.gather(&m));
        let r_fresh1 = CmArray::new(&mut m, 8, 8).unwrap();
        convolve(
            &mut m,
            &compiled,
            &r_fresh1,
            &x1,
            &[&c1],
            &ExecOptions::fast().with_engine(ExecEngine::Scalar),
        )
        .unwrap();
        assert_eq!(r1.gather(&m), r_fresh1.gather(&m));
        plan.release(&mut m);
    }

    #[test]
    fn binding_validation_matches_convolve() {
        let mut m = machine();
        let compiled = compile(&m, "R = C1 * X + C2 * CSHIFT(X, 1, 1)");
        let x = CmArray::new(&mut m, 8, 8).unwrap();
        let r = CmArray::new(&mut m, 8, 8).unwrap();
        assert!(matches!(
            StencilBinding::new(&compiled, &r, &[&x], &[]),
            Err(RuntimeError::WrongCoeffCount {
                expected: 2,
                got: 0
            })
        ));
        assert!(matches!(
            StencilBinding::new(&compiled, &r, &[], &[]),
            Err(RuntimeError::WrongSourceCount { .. })
        ));
    }
}
