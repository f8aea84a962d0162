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
//! 3. **plan** — [`ExecutionPlan::build`] allocates halo buffers and
//!    constant pages from the persistent arena, compiles the halo
//!    exchange into an [`ExchangeProgram`] per source, strip-mines the
//!    subgrid, and lowers the stencil IR into the lane body's row
//!    program;
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
use crate::halo::{lane_run, ExchangeProgram, HaloBuffer, LaneExchangeProgram, LaneFillProgram};
use crate::strips::{full_strip, halfstrips, plan_strips, HalfStrip, Strip};
use cmcc_cm2::exec::{
    fast_counts, ExecEngine, ExecMode, FieldLayout, ResolvedStrip, StripContext, StripRun,
};
use cmcc_cm2::isa::Kernel;
use cmcc_cm2::kernels::{self, RowCoeff, RowProgram, RowRun, RowStep, RowTerm};
use cmcc_cm2::lane::{LaneMirror, LaneRange, LaneView, RectCopy, RegionStage};
use cmcc_cm2::machine::Machine;
use cmcc_cm2::memory::Field;
use cmcc_cm2::timing::{CycleBreakdown, Measurement};
use cmcc_core::compiler::CompiledStencil;
use cmcc_core::recognize::CoeffSpec;
use cmcc_core::regalloc::Walk;
use cmcc_core::stencil::CoeffRef;
use std::ops::Deref;
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
/// binds — the strip-mine schedule and the kernels it names, the row
/// program lowered from the stencil IR, the compiled halo-exchange
/// programs, and the plan-owned node-memory fields (halo buffers,
/// constant and literal pages). It holds no bound array's address: only
/// the shape and the argument counts every binding must match.
///
/// A `CompiledPlan` is shared between any number of [`PlanInstance`]s
/// through an [`Arc`]: the session plan cache hands every tenant the same
/// artifact, and evicting it from the cache cannot invalidate in-flight
/// instances — the `Arc` keeps it alive until the last instance drops.
/// Its node-memory fields come from the persistent arena and are
/// returned to it by [`CompiledPlan::release`] once ownership is unique.
#[derive(Debug)]
pub struct CompiledPlan {
    /// The classic plan's node schedule, unresolved: the scalar engine
    /// resolves it against the binding it runs. Empty on temporal plans,
    /// which have no scalar body.
    node: NodeSchedule,
    /// What one run of the node schedule reports, counted at build: the
    /// lane body reports it without running that schedule, so its
    /// `Measurement`s and step counters match the scalar engine's.
    counts: ScheduleCounts,
    /// The statement's terms in accumulation order — taps, then bias
    /// terms: the stencil IR the lane body's row program is lowered
    /// from.
    terms: Vec<Term>,
    /// The stencil's radius (its widest border).
    pad: usize,
    /// The row program and halo programs over the lane mirror, when the
    /// build binding maps onto it (fast mode, lockstep engine, no array
    /// aliasing the mirror cannot hold). Lane addresses depend only on
    /// the view's range lengths and order — both rebind-invariant — so
    /// every instance over same-shape arrays shares this schedule
    /// verbatim. Always `Some` on temporal plans: their build fails
    /// without it.
    lane: Option<LaneSchedule>,
    halos: Vec<HaloBuffer>,
    /// A lane plan's destination buffer: a plan-owned field shaped like
    /// source 0's halo buffer, which exists only on the mirror (its
    /// node words are never read or written). Direction 0 reads source
    /// 0's halo and writes this buffer's interior (a temporal plan's
    /// final step does); direction 1 swaps the two. `None` off the lane
    /// body (cycle mode, scalar engine).
    dest: Option<HaloBuffer>,
    exchanges: Vec<ExchangeProgram>,
    consts: Field,
    /// One entry per coefficient slot, in `spec.coeffs` order: a
    /// literal's page (its constant streamed with a zero row stride), or
    /// `None` for a named coefficient, which the binding supplies.
    pages: Vec<Option<Field>>,
    /// Every node-memory field the plan owns — the ones above and the
    /// temporal plan's — in allocation order: what [`Self::release`]
    /// returns to the arena.
    owned: OwnedFields,
    /// Global rows and columns of every bound array.
    shape: (usize, usize),
    /// Per-node subgrid rows and columns of every bound array.
    sub: (usize, usize),
    useful_flops: u64,
    call_overhead: u64,
    dispatch: u64,
    nodes: usize,
    opts: ExecOptions,
    fingerprint: u64,
    /// The temporal-tiling schedule: `Some` when the plan fuses two or
    /// more time steps per halo exchange ([`ExecOptions::temporal_depth`]
    /// honored), `None` for the classic one-step plan.
    temporal: Option<TemporalPlan>,
    /// Why a requested `temporal_depth > 1` was clamped back to 1, when
    /// it was. `None` when the request was honored (or never made).
    temporal_fallback: Option<&'static str>,
}

/// The shared artifacts of a temporally tiled plan: `depth` fused time
/// steps share one deepened (`depth·radius`) halo exchange per execute,
/// ping-ponging intermediate states through plan-owned scratch buffers.
/// Every node computes a shrinking extended region per inner step — the
/// classic redundant-compute trade: margin points are recomputed locally
/// instead of communicated.
#[derive(Debug)]
struct TemporalPlan {
    /// Fused time steps per execute (≥ 2).
    depth: usize,
    /// Ping-pong intermediate-state buffers, plain halo buffers padded
    /// to the full `depth·radius` frame: none for depth 1, one for depth
    /// 2, two beyond (consecutive states always land in different
    /// buffers).
    scratch: Vec<HaloBuffer>,
    /// Per-named-coefficient halo buffers, padded `(depth−1)·radius`:
    /// intermediate steps read coefficients at margin positions, which
    /// live on neighbor nodes just like source halo words do.
    coeff_halos: Vec<HaloBuffer>,
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

/// The rebind-invariant lane form of a plan: per direction, the row
/// program and every halo exchange, plus the temporal scratch fix-ups,
/// all addressed in lane words of one view shape.
#[derive(Debug, Clone)]
struct LaneSchedule {
    /// Direction 0: reads source 0's halo buffer.
    forward: LaneDirection,
    /// Direction 1 — the same schedule with source 0's halo and the
    /// destination buffer trading lane words, so an execute can read
    /// whichever buffer already holds its source — as `(a, b, len)`:
    /// the two ranges' first lane words and their length.
    swap: (usize, usize, usize),
    /// Direction 1, derived from direction 0 the first time an execute
    /// reads the destination buffer: a plan that never does (an
    /// unchanged binding run again) never pays for it.
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
    /// coefficient halo.
    exchanges: Vec<LaneExchangeProgram>,
}

impl LaneSchedule {
    /// Direction 0 from its row `program` (lowered over `view`), the
    /// halo `exchanges` translated onto `view` and the temporal
    /// `scratch_fills` (addressed over `view`), plus the swap of source
    /// 0's halo (the view's first range) and the destination buffer (its
    /// last) that direction 1 trades.
    ///
    /// # Errors
    ///
    /// Why the schedule cannot run on the lane mirror: an exchange run
    /// outside one viewed range.
    fn new(
        program: RowProgram,
        exchanges: &[&ExchangeProgram],
        scratch_fills: Vec<LaneFillProgram>,
        view: &LaneView,
    ) -> Result<Self, &'static str> {
        let exchanges = exchanges
            .iter()
            .map(|p| LaneExchangeProgram::translate(p, view))
            .collect::<Option<_>>()
            .ok_or("a halo exchange run lies outside the lane view")?;
        let ranges = view.ranges();
        let (a, b) = (ranges[0], ranges[ranges.len() - 1]);
        assert_eq!(
            a.len, b.len,
            "the destination is shaped like source 0's halo"
        );
        Ok(LaneSchedule {
            forward: LaneDirection { program, exchanges },
            swap: (a.lane_base, b.lane_base, a.len),
            backward: OnceLock::new(),
            scratch_fills,
        })
    }

    /// Direction `dir`'s schedule. Direction 1 is direction 0 with the
    /// two swapped ranges' lane words exchanged — row program and
    /// exchanges alike: lowering and translation decide by range, so
    /// that is exactly what they return through a view in which the
    /// ranges trade lane words, and nothing is lowered twice.
    fn direction(&self, dir: usize) -> &LaneDirection {
        if dir == 0 {
            return &self.forward;
        }
        self.backward.get_or_init(|| {
            let (a, b, len) = self.swap;
            let forward = &self.forward;
            LaneDirection {
                program: forward.program.with_ranges_swapped(a, b, len),
                exchanges: forward
                    .exchanges
                    .iter()
                    .map(|x| x.with_ranges_swapped(a, b, len))
                    .collect(),
            }
        })
    }
}

/// What one halo-shaped lane buffer's interior holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Held {
    /// The node-memory array whose words it holds.
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
/// it), the lane view over them, and the persistent lane mirror with the
/// record of what it holds.
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
    /// A private lane schedule, used only when the shared plan has none
    /// to offer — it was built from a binding the mirror cannot hold
    /// (aliased arrays) and this instance's binding is clean. `None`
    /// means the instance runs the shared schedule; lane addresses are
    /// rebind-invariant, so that is the common case.
    lane_override: Option<LaneSchedule>,
    /// The node-memory ↔ lane-word map of the lane body. `Some` exactly
    /// when `execute` runs it; `None` when the engine is scalar, the mode
    /// is cycle-accurate, or the current binding cannot be mapped
    /// (aliased arrays) — then the scalar engine runs the plan, and
    /// `lane_fallback` says why. Rebind recomputes it in place.
    lane_view: Option<LaneView>,
    /// Why the scalar engine runs this binding; `None` exactly when
    /// `lane_view` is `Some`.
    lane_fallback: Option<&'static str>,
    /// The instance-owned persistent lane mirror. Shaped on first
    /// execute, recycled afterwards (zero steady-state allocations);
    /// `lane_held` and `lane_buffers` record what it holds. Poolable
    /// across instances via
    /// [`ExecutionPlan::take_mirror`] / [`ExecutionPlan::install_mirror`].
    lane_mirror: LaneMirror,
    /// The interior of each halo-shaped lane buffer, node side on the
    /// array its refresh copies from (the lane-domain `fill_interior`):
    /// one per refresh pair — sources first, then (temporal plans) the
    /// bound named-coefficient arrays into their halos — then a classic
    /// plan's destination buffer (node side on source 0, which direction
    /// 1 reads from it). Empty unless lane-mapped.
    lane_interiors: Vec<RectCopy>,
    /// The node base each viewed range's lane words were last gathered
    /// from, parallel to the view's ranges. Empty while the mirror holds
    /// garbage (before the first execute, after a pool swap): the next
    /// execute then gathers the whole view. Only the *gathered* ranges
    /// (read-only, not lane-private, not a halo buffer) are consulted
    /// afterwards — halo words come from the refresh and exchange,
    /// destination and scratch words from the row sweeps.
    lane_held: Vec<Option<usize>>,
    /// What each buffer of `lane_interiors` holds; `None` is garbage. A
    /// pair whose buffer holds its array skips the refresh, and skips
    /// the exchange too once the buffer's ring is exchanged.
    lane_buffers: Vec<Option<Held>>,
    /// The direction the execute in flight runs: 1 when the destination
    /// buffer already holds source 0, else 0.
    lane_dir: usize,
    /// The buffer the last execute wrote and the result array it staged
    /// for, until [`ExecutionPlan::committed`] reports the commit's
    /// epoch: only then does the buffer count as holding the result.
    lane_pending: Option<(usize, Field)>,
    /// The [`Machine::write_epoch`] the mirror was last synced at: a
    /// held range stamped later holds newer words.
    lane_epoch: u64,
    /// Machine-total words the last rebind added to the next execute's
    /// re-read beyond a ping-pong swap: the named coefficients it moved
    /// (gathered ranges, or coefficient-halo refreshes on temporal
    /// plans).
    lane_rebind_moved: usize,
    /// The staged writes of a direct [`ExecutionPlan::execute`], recycled
    /// across executes; empty until the first one (the session stages
    /// region executes into its own buffer).
    stage: RegionStage,
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
    /// Allocates the halo buffers and constant pages from the persistent
    /// arena, fills the constant pages, compiles one [`ExchangeProgram`]
    /// per source, strip-mines the subgrid for the scalar engine, and
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
            let reason = if opts.mode != ExecMode::Fast {
                Some("cycle-accurate mode")
            } else if opts.engine != ExecEngine::Lockstep {
                Some("scalar engine")
            } else if binding.sources().len() != 1 {
                Some("multi-source stencil")
            } else if pad == 0 {
                Some("pointwise stencil")
            } else if requested_depth * pad > sub_rows.min(sub_cols) {
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
        // The deepest margin any inner step computes: step j writes a
        // `(depth-1-j)·radius`-deep extension of the subgrid, so step 0
        // reads `depth·radius` (the source halo) and every step reads
        // coefficients at up to `(depth-1)·radius` beyond the edge.
        let halo_pad = depth * pad;
        let coeff_pad = (depth - 1) * pad;

        let halos: Vec<HaloBuffer> = binding
            .sources()
            .iter()
            .map(|_| owned.halo(machine, sub, halo_pad))
            .collect::<Result<_, _>>()?;
        let lane_eligible = opts.mode == ExecMode::Fast && opts.engine == ExecEngine::Lockstep;
        let dest = if lane_eligible {
            Some(owned.halo(machine, sub, halo_pad)?)
        } else {
            None
        };

        // Constant pages: one word each of 1.0 and 0.0, plus one page
        // per literal coefficient (streamed with a zero row stride).
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

        // Temporal plans read named coefficients at margin positions,
        // which live on neighbor nodes: each gets its own (shallower)
        // halo buffer and exchange, refreshed alongside the source halo.
        // Their intermediate states ping-pong through scratch buffers
        // padded to the full halo frame, so every step's extended write
        // region (and the next step's reads one radius beyond it) stays
        // in bounds at non-negative padded coordinates.
        let temporal = if depth > 1 {
            let coeff_halos = binding
                .coeffs()
                .iter()
                .map(|_| owned.halo(machine, sub, coeff_pad))
                .collect::<Result<_, _>>()?;
            let scratch = (0..depth.min(3) - 1)
                .map(|_| owned.halo(machine, sub, halo_pad))
                .collect::<Result<_, _>>()?;
            Some(TemporalPlan {
                depth,
                scratch,
                coeff_halos,
            })
        } else {
            None
        };

        // The halo exchanges, compiled: neighbor lookups, copy addresses,
        // fill spans, and the cycle price are all fixed by (shape, grid,
        // boundary, primitive). Fused steps always need corners:
        // composing the stencil with itself reaches diagonal neighbors
        // even when one application does not.
        let need_corners = if opts.skip_corners_when_possible {
            stencil.needs_corner_exchange() || depth > 1
        } else {
            pad > 0
        };
        let (grid, cfg) = (machine.grid(), machine.config());
        let exchange = |halo: &HaloBuffer| {
            ExchangeProgram::new(
                halo,
                grid,
                cfg,
                stencil.boundary(),
                stencil.fill(),
                need_corners,
                opts.primitive,
            )
        };
        let exchanges: Vec<ExchangeProgram> = halos.iter().map(exchange).collect();
        let coeff_exchanges: Vec<ExchangeProgram> = temporal
            .iter()
            .flat_map(|tp| &tp.coeff_halos)
            .map(exchange)
            .collect();

        // The classic plan's node schedule, for the scalar engine: the
        // strips in strip-mine order and one copy of each kernel they
        // name. Temporal plans have no scalar body.
        let node = if depth == 1 {
            NodeSchedule::of(compiled, opts.half_strips, sub_rows, sub_cols)
        } else {
            NodeSchedule::default()
        };
        let counts = ScheduleCounts::of(compiled, opts.half_strips, sub, depth, pad);

        // The IR the lane body sweeps: taps in statement order, then bias
        // terms, each coefficient a literal's value, `1.0` for a unit tap,
        // or a named array in binding order.
        let mut named = 0;
        let coeff_terms: Vec<TermCoeff> = spec
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
        let terms = stencil
            .taps()
            .iter()
            .map(|tap| Term {
                tap: Some((
                    usize::from(tap.source),
                    i64::from(tap.offset.drow),
                    i64::from(tap.offset.dcol),
                )),
                coeff: match tap.coeff {
                    CoeffRef::Array(a) => coeff_terms[a],
                    CoeffRef::Unit => TermCoeff::Scalar(1.0),
                },
            })
            .chain(stencil.bias().iter().map(|&a| Term {
                tap: None,
                coeff: coeff_terms[a],
            }))
            .collect();

        let mut cp = CompiledPlan {
            node,
            counts,
            terms,
            pad,
            lane: None,
            halos,
            dest,
            exchanges,
            consts,
            pages,
            owned: OwnedFields::default(),
            shape: (result.rows(), result.cols()),
            sub,
            useful_flops: stencil.useful_flops_per_point()
                * (result.rows() * result.cols()) as u64
                * depth as u64,
            call_overhead: u64::from(cfg.call_overhead_cycles),
            dispatch: u64::from(cfg.frontend_dispatch_cycles),
            nodes: machine.node_count(),
            opts: *opts,
            fingerprint: compiled.fingerprint(),
            temporal,
            temporal_fallback,
        };

        // The lane mapping: mirror exactly the buffers the lane body
        // reads and writes, lower the stencil IR into a row program over
        // them and translate the halo programs into lane words. The view
        // fails on aliased arrays, the program when a check refuses it,
        // a translation when a run escapes its buffer; a classic plan
        // then runs on the scalar engine, and a temporal plan, which has
        // no other body, is refused. Only the schedule is kept: lane
        // addresses depend on range lengths and order alone, both
        // binding-invariant, so the artifact shares it with every
        // instance; the view itself (its gather bases) and the interior
        // refresh copies are per-binding and are recomputed by
        // [`PlanInstance::for_binding`].
        if lane_eligible {
            let exchanges: Vec<&ExchangeProgram> =
                cp.exchanges.iter().chain(&coeff_exchanges).collect();
            cp.lane = instance_lane_view(&cp, binding.coeffs(), &result).and_then(|view| {
                let program = cp.lane_program(&view, binding.coeffs()).ok()?;
                // The beyond-global-edge fill fix-up of each scratch state.
                let fills = cp
                    .temporal
                    .iter()
                    .flat_map(|tp| &tp.scratch)
                    .map(|s| {
                        LaneFillProgram::boundary(
                            s,
                            grid,
                            stencil.boundary(),
                            stencil.fill(),
                            &view,
                        )
                    })
                    .collect::<Option<_>>()?;
                LaneSchedule::new(program, &exchanges, fills, &view).ok()
            });
            if cp.temporal.is_some() && cp.lane.is_none() {
                return Err(RuntimeError::Unfusable {
                    reason: "the fused schedule does not map onto the lane mirror",
                });
            }
        }
        Ok(cp)
    }

    /// Why instances of this artifact cannot run the lane body, if
    /// they cannot: it needs fast mode on the lockstep engine.
    fn lane_ineligible(&self) -> Option<&'static str> {
        if self.opts.mode != ExecMode::Fast {
            Some("cycle-accurate mode")
        } else if self.opts.engine != ExecEngine::Lockstep {
            Some("scalar engine requested")
        } else {
            None
        }
    }

    /// Lowers the statement's terms into direction 0's row program over
    /// `view`, for a binding whose named coefficients are `coeffs`. Step
    /// `j` of `depth` writes the `(depth−1−j)·radius`-deep extension of
    /// the subgrid — into the next scratch state, or (the last step) the
    /// destination buffer's interior — reading source halos (step 0) or
    /// the previous scratch state; a named coefficient is read in place,
    /// from its bound array (classic plans) or its coefficient halo
    /// (temporal plans).
    ///
    /// # Errors
    ///
    /// Why the program cannot run: a run outside its buffer or the view,
    /// or a check [`RowProgram::new`] refuses.
    fn lane_program(
        &self,
        view: &LaneView,
        coeffs: &[CmArray],
    ) -> Result<RowProgram, &'static str> {
        let depth = self.temporal_depth();
        let (sub_rows, sub_cols) = self.sub;
        let dest = self.dest.expect("lane plans have a destination buffer");
        // The run of `layout` whose first point is logical `(row, col)`.
        let run = |layout: FieldLayout, row: i64, col: i64| -> Result<RowRun, &'static str> {
            let (r, c) = (row + layout.row_offset, col + layout.col_offset);
            if r < 0 || c < 0 {
                return Err("a term run starts outside its buffer");
            }
            let addr = layout.base + r as usize * layout.row_stride + c as usize;
            let (word, _) = view
                .locate(addr)
                .ok_or("a term run lies outside the lane view")?;
            Ok(RowRun {
                word,
                stride: layout.row_stride,
            })
        };
        let coeff_layouts: Vec<FieldLayout> = match &self.temporal {
            Some(tp) => tp.coeff_halos.iter().map(HaloBuffer::layout).collect(),
            None => coeffs.iter().map(CmArray::layout).collect(),
        };
        let steps = (0..depth)
            .map(|step| {
                let m = ((depth - 1 - step) * self.pad) as i64;
                let scratch = |i: usize| match &self.temporal {
                    Some(tp) => tp.scratch[i % 2].layout(),
                    None => unreachable!("only fused steps pass through scratch"),
                };
                let srcs: Vec<FieldLayout> = if step == 0 {
                    self.halos.iter().map(HaloBuffer::layout).collect()
                } else {
                    vec![scratch(step - 1)]
                };
                let out = if step + 1 == depth {
                    dest.layout()
                } else {
                    scratch(step)
                };
                let terms = self
                    .terms
                    .iter()
                    .map(|term| {
                        let data = match term.tap {
                            Some((s, dr, dc)) => Some(run(srcs[s], dr - m, dc - m)?),
                            None => None,
                        };
                        let coeff = match term.coeff {
                            TermCoeff::Scalar(v) => RowCoeff::Scalar(v),
                            TermCoeff::Named(k) => RowCoeff::Run(run(coeff_layouts[k], -m, -m)?),
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
        RowProgram::new(steps, view)
    }

    /// Validates that a candidate binding can attach to this artifact:
    /// argument counts equal the build binding's (one source per halo
    /// buffer, one array per named coefficient slot), every array has the
    /// compiled shape, and (temporal plans) the result aliases no named
    /// coefficient. `what` prefixes error messages ("rebind", "bound").
    fn validate_binding(
        &self,
        what: &str,
        result: &CmArray,
        sources: &[&CmArray],
        coeffs: &[&CmArray],
    ) -> Result<(), RuntimeError> {
        if sources.len() != self.halos.len() {
            return Err(RuntimeError::WrongSourceCount {
                expected: self.halos.len(),
                got: sources.len(),
            });
        }
        let named = self.pages.iter().filter(|page| page.is_none()).count();
        if coeffs.len() != named {
            return Err(RuntimeError::WrongCoeffCount {
                expected: named,
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

    /// Whether `base` starts one of the plan's halo buffers (source or,
    /// temporal plans, coefficient halos): ranges whose mirror words the
    /// interior refresh and exchange define, never a gather.
    fn is_halo(&self, base: usize) -> bool {
        self.halos
            .iter()
            .chain(self.temporal.iter().flat_map(|tp| &tp.coeff_halos))
            .chain(&self.dest)
            .any(|h| h.field().base() == base)
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

    /// The execution options the artifact was built under.
    pub fn options(&self) -> &ExecOptions {
        &self.opts
    }

    /// Words of node memory the artifact's halo buffers (the
    /// destination buffer included), constant pages, and (temporal
    /// plans) coefficient halos and scratch states occupy.
    pub fn words(&self) -> usize {
        self.owned.words()
    }

    /// Fused time steps per execute: the effective temporal depth (1 for
    /// classic plans, including clamped requests).
    pub fn temporal_depth(&self) -> usize {
        self.temporal.as_ref().map_or(1, |tp| tp.depth)
    }

    /// Why a requested temporal depth above 1 was clamped back to one
    /// step per exchange, when it was.
    pub fn temporal_fallback(&self) -> Option<&'static str> {
        self.temporal_fallback
    }

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
    /// arrays and maps it onto the lane mirror. Performs no machine
    /// allocation and resolves no strip.
    fn for_binding(cp: &CompiledPlan, binding: &StencilBinding<'_>) -> Self {
        let mut inst = PlanInstance {
            strips: None,
            lane_override: None,
            lane_view: None,
            lane_fallback: None,
            lane_mirror: LaneMirror::new(),
            lane_interiors: Vec::new(),
            lane_held: Vec::new(),
            lane_buffers: Vec::new(),
            lane_dir: 0,
            lane_pending: None,
            lane_epoch: 0,
            lane_rebind_moved: 0,
            stage: RegionStage::new(),
            result: *binding.result(),
            sources: binding.sources().to_vec(),
            coeffs: binding.coeffs().to_vec(),
        };
        inst.map_lanes(cp);
        inst
    }

    /// The lane schedule the instance runs when lane-mapped: the shared
    /// one, or its private one when the artifact has none.
    fn lane_schedule<'a>(&'a self, cp: &'a CompiledPlan) -> Option<&'a LaneSchedule> {
        cp.lane.as_ref().or(self.lane_override.as_ref())
    }

    /// Maps the current binding onto the lane mirror: the view over the
    /// bound arrays (its gather bases follow every rebind), a private
    /// schedule when the shared artifact has none, and the interior
    /// copies, which read the bound arrays. Leaves the instance unmapped
    /// — on the scalar engine, with the reason in `lane_fallback` — when
    /// any part fails.
    fn map_lanes(&mut self, cp: &CompiledPlan) {
        self.lane_view = None;
        self.lane_interiors.clear();
        self.lane_fallback = self.try_map_lanes(cp).err();
    }

    /// [`Self::map_lanes`]'s body, or why the binding cannot map.
    fn try_map_lanes(&mut self, cp: &CompiledPlan) -> Result<(), &'static str> {
        if let Some(reason) = cp.lane_ineligible() {
            return Err(reason);
        }
        let view = instance_lane_view(cp, &self.coeffs, &self.result)
            .ok_or("bound arrays overlap in node memory")?;
        if self.lane_schedule(cp).is_none() {
            // Only classic plans get here (a temporal build maps its
            // schedule or fails), so there are no coefficient halos or
            // scratch fills to translate.
            let program = cp.lane_program(&view, &self.coeffs)?;
            let exchanges: Vec<&ExchangeProgram> = cp.exchanges.iter().collect();
            self.lane_override = Some(LaneSchedule::new(program, &exchanges, Vec::new(), &view)?);
        }
        // Refresh pairs: each source into its halo, then (temporal
        // plans) each named coefficient into its coefficient halo, then
        // the destination buffer, which holds source 0 when direction 1
        // reads it.
        let coeffs: &[CmArray] = if cp.temporal.is_some() {
            &self.coeffs
        } else {
            &[]
        };
        let halos = cp
            .halos
            .iter()
            .chain(cp.temporal.iter().flat_map(|tp| &tp.coeff_halos))
            .chain(&cp.dest);
        let arrays = self
            .sources
            .iter()
            .chain(coeffs)
            .chain(cp.dest.iter().map(|_| &self.sources[0]));
        self.lane_interiors = lane_interior_copies(&view, halos.zip(arrays))
            .ok_or("a halo buffer lies outside the lane view")?;
        self.lane_buffers.resize(self.lane_interiors.len(), None);
        self.lane_view = Some(view);
        Ok(())
    }

    /// The bound array refresh pair `k` copies into its halo: sources
    /// first, then (temporal plans) the named coefficients.
    fn refresh_array(&self, k: usize) -> CmArray {
        match k.checked_sub(self.sources.len()) {
            None => self.sources[k],
            Some(c) => self.coeffs[c],
        }
    }

    /// Marks the mirror's contents as garbage: the next execute gathers
    /// the whole view and refreshes every halo.
    fn forget_mirror(&mut self) {
        self.lane_held.clear();
        self.lane_buffers.fill(None);
        self.lane_pending = None;
    }

    /// The buffer refresh pair `k` reads in direction `dir`: its own,
    /// except source 0 in direction 1, which reads the destination
    /// buffer (the last of `lane_interiors`).
    fn source_buffer(&self, k: usize, dir: usize) -> usize {
        if k == 0 && dir == 1 {
            self.lane_interiors.len() - 1
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

    /// Records that the stage the last execute filled was committed at
    /// `epoch`: its destination buffer now holds the result array.
    fn committed(&mut self, epoch: u64) {
        if let Some((b, array)) = self.lane_pending.take() {
            self.lane_buffers[b] = Some(Held {
                array,
                epoch,
                exchanged: false,
            });
        }
    }

    /// Forgets every held range whose node-memory source moved or was
    /// written since the mirror's last sync and every buffer whose array
    /// was written since the epoch it holds it as of, and records this
    /// sync's epoch. Runs before the execute takes node memory, so the
    /// epoch precedes the execute's own stamps. A commit never reported
    /// by [`Self::committed`] leaves its buffer unheld.
    fn invalidate_stale(&mut self, machine: &Machine) {
        self.lane_pending = None;
        let since = std::mem::replace(&mut self.lane_epoch, machine.write_epoch());
        let view = self
            .lane_view
            .as_ref()
            .expect("mirrored plans are lane-mapped");
        for (held, range) in self.lane_held.iter_mut().zip(view.ranges()) {
            let words = range.node_base..range.node_base + range.len;
            if *held != Some(range.node_base) || machine.written_since(words, since) {
                *held = None;
            }
        }
        for buffer in &mut self.lane_buffers {
            if buffer.is_some_and(|h| machine.written_since(h.array.range(), h.epoch)) {
                *buffer = None;
            }
        }
    }

    /// Runs the lane body once over the shared artifact `cp`, in its two
    /// phases. The read phase ([`Self::read_phase`]) is the only part
    /// that reads node memory, through `machine` — any shared borrow,
    /// such as the session's read guard. Then `machine` is dropped: the
    /// compute phase ([`Self::compute_phase`]) touches only the
    /// instance's private mirror and stages the result into `stage` for
    /// the caller to commit (and report with [`Self::committed`]). One `execute` span covers both
    /// phases. Only lane-mapped instances may run it — the caller checks
    /// [`ExecutionPlan::lane_mapped`] — and it cannot fail, so this
    /// returns a bare [`Measurement`].
    fn execute_region<G: Deref<Target = Machine>>(
        &mut self,
        cp: &CompiledPlan,
        machine: G,
        stage: &mut RegionStage,
    ) -> Measurement {
        let _span = cmcc_obs::span(cmcc_obs::Phase::Execute);
        let mut tally = ExecTally::new(&self.lane_mirror);
        self.read_phase(cp, &machine, &mut tally);
        drop(machine);
        self.compute_phase(cp, tally, stage)
    }

    /// Re-reads exactly what [`Self::invalidate_stale`] left unheld: the
    /// whole view when the mirror holds nothing yet, else the gathered
    /// ranges that moved or were written. Then picks the direction —
    /// the one reading the buffer that already holds source 0, if one
    /// does — and refreshes the interior of every pair whose buffer does
    /// not hold its array. Refreshed buffers stay unexchanged until the
    /// compute phase has exchanged them.
    fn read_phase(&mut self, cp: &CompiledPlan, machine: &Machine, tally: &mut ExecTally) {
        self.invalidate_stale(machine);
        let (_, mems) = machine.exec_parts();
        let nodes = cp.nodes;
        let view = self
            .lane_view
            .as_ref()
            .expect("mirrored plans are lane-mapped");
        self.lane_mirror.ensure(view.words(), nodes);
        let gathered = |r: &LaneRange| !r.writable && !r.private && !cp.is_halo(r.node_base);
        if self.lane_held.is_empty() {
            self.lane_mirror.gather(view, mems);
            tally.predicted += view.gather_words() * nodes;
            self.lane_held
                .extend(view.ranges().iter().map(|r| Some(r.node_base)));
        } else {
            for (range, held) in view.ranges().iter().zip(&mut self.lane_held) {
                if held.is_none() && gathered(range) {
                    let rect = RectCopy {
                        node0: range.node_base,
                        node_stride: 0,
                        lane0: range.lane_base,
                        lane_stride: 0,
                        rows: 1,
                        cols: range.len,
                    };
                    self.lane_mirror.gather_rect(mems, &rect);
                    tally.predicted += range.len * nodes;
                    *held = Some(range.node_base);
                }
            }
        }
        let holds = |buffers: &[Option<Held>], b: usize, array: Field| {
            buffers[b].is_some_and(|h| h.array == array)
        };
        let source = self.sources[0].field();
        self.lane_dir = usize::from(
            !holds(&self.lane_buffers, 0, source)
                && holds(&self.lane_buffers, self.source_buffer(0, 1), source),
        );
        let pairs = self.sources.len() + cp.temporal.as_ref().map_or(0, |tp| tp.coeff_halos.len());
        for k in 0..pairs {
            let b = self.source_buffer(k, self.lane_dir);
            let array = self.refresh_array(k).field();
            if holds(&self.lane_buffers, b, array) {
                continue;
            }
            let interior = &self.lane_interiors[b];
            let _t = cmcc_obs::trace::scope(
                cmcc_obs::trace::TraceOp::InteriorRefresh,
                (interior.rows * interior.cols) as u64,
            );
            self.lane_mirror.gather_rows(mems, interior);
            tally.predicted += interior.rows * interior.cols * nodes;
            self.lane_buffers[b] = Some(Held {
                array,
                epoch: self.lane_epoch,
                exchanged: false,
            });
        }
    }

    /// Runs every halo exchange the read phase left pending, every fused
    /// step, and the stage transpose — all on the private mirror, with
    /// no access to node memory.
    fn compute_phase(
        &mut self,
        cp: &CompiledPlan,
        mut tally: ExecTally,
        stage: &mut RegionStage,
    ) -> Measurement {
        let depth = cp.temporal_depth();
        let dir = self.lane_dir;
        let schedule = cp
            .lane
            .as_ref()
            .or(self.lane_override.as_ref())
            .expect("mapped plans have a lane schedule");
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
        // result only once the commit reports its epoch.
        let dest = self.dest_buffer(dir);
        self.lane_buffers[dest] = None;
        self.lane_pending = Some((dest, self.result.field()));
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
        // Transpose the destination's interior into the result's stage;
        // the caller commits it with `Machine::apply_stage`.
        let rect = RectCopy {
            node0: self.result.field().base(),
            node_stride: self.result.sub_cols(),
            ..self.lane_interiors[dest]
        };
        tally.predicted += rect.rows * rect.cols * cp.nodes;
        self.lane_mirror.stage(&rect, stage);
        self.finish(cp, tally)
    }

    /// Runs one iteration over the shared artifact `cp`. See
    /// [`ExecutionPlan::execute`].
    fn execute(
        &mut self,
        cp: &CompiledPlan,
        machine: &mut Machine,
    ) -> Result<Measurement, RuntimeError> {
        if self.lane_view.is_some() {
            // The lane body, committed at once: the caller holds the
            // machine exclusively, so nothing runs between the staged
            // writes and their commit.
            let mut stage = std::mem::take(&mut self.stage);
            let m = self.execute_region(cp, &*machine, &mut stage);
            let epoch = {
                let _t = cmcc_obs::trace::scope(
                    cmcc_obs::trace::TraceOp::RegionCommit,
                    stage.ranges().len() as u64,
                );
                machine.apply_stage(&stage)
            };
            self.committed(epoch);
            self.stage = stage;
            return Ok(m);
        }
        // The scalar engine: the oracle and the cycle model. Temporal
        // plans have no scalar body: their build maps the schedule or
        // fails, and their view holds only plan-owned buffers and the
        // result, so every binding that passes `check_fusable` maps.
        assert!(cp.temporal.is_none(), "temporal plans are lane-mapped");
        let _span = cmcc_obs::span(cmcc_obs::Phase::Execute);
        let mut tally = ExecTally::new(&self.lane_mirror);
        for ((halo, program), src) in cp.halos.iter().zip(&cp.exchanges).zip(&self.sources) {
            tally.interior_words += halo.fill_interior(machine, src);
            tally.exchange_words += program.words_moved();
            tally.comm += program.run(machine);
        }
        let strips = self
            .strips
            .get_or_insert_with(|| cp.resolve_strips(&self.result, &self.coeffs));
        tally.run = machine.run_resolved_all(
            strips,
            [self.result.field().range()],
            cp.opts.mode,
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
            mirror_base,
            predicted,
        } = tally;
        let d = MirrorWords::of(&self.lane_mirror).minus(&mirror_base);
        cmcc_obs::add(
            if self.lane_view.is_some() {
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
        cmcc_obs::add(cmcc_obs::Counter::GatherWords, d.gathered);
        cmcc_obs::add(cmcc_obs::Counter::ScatterWords, d.scattered);
        cmcc_obs::add(cmcc_obs::Counter::InteriorRefreshWords, d.row_gathered);
        cmcc_obs::add(cmcc_obs::Counter::MirrorAllocations, d.allocations);
        for (slot, &n) in cp.counts.strip_widths.iter().enumerate() {
            cmcc_obs::add(WIDTH_COUNTERS[slot], n);
        }

        // Every build proves the copy model against observed traffic: the
        // words this execute moved are exactly what its re-reads predict
        // — the analytic `steady_state_copy_words` on the scalar engine,
        // and the staged result plus the re-gathered ranges, refreshed
        // buffers and run exchanges on the lane body. Both sides are counted
        // anyway, and on the lane body a mismatch panics before the
        // caller commits the stage, so node memory stays untouched.
        let observed =
            (interior_words + exchange_words) as u64 + d.row_gathered + d.gathered + d.scattered;
        assert_eq!(
            observed, predicted as u64,
            "execute copy words diverged from the copy model"
        );
        if self.lane_view.is_some() {
            assert_eq!(
                d.lane_copied, exchange_words as u64,
                "lane exchange moved a different word count than its program records"
            );
        }

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
            // arrays): the resolved strips and the lane view still hold.
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

        // Remap against the new arrays. The ranges keep their order and
        // lengths (shapes were just validated), so lane addresses and
        // the lane schedule stay valid; only the view's gather bases and
        // the interior copies move. A rebind can also unmap the plan
        // (the new binding aliases arrays) or map it again. The mirror
        // keeps its contents and its records of what each buffer holds:
        // the next execute reads its source from the buffer that holds
        // it — a ping-pong's last result — and re-reads only what moved.
        self.map_lanes(cp);
        let nodes = cp.nodes;
        self.lane_rebind_moved = match (&self.lane_view, self.lane_schedule(cp)) {
            (Some(_), Some(schedule)) => moved_coeffs
                .iter()
                .map(|&k| {
                    let c = self.coeffs[k];
                    match cp.temporal {
                        // Temporal plans read coefficients through their
                        // halos: a moved array re-runs that refresh pair.
                        Some(_) => {
                            c.sub_rows() * c.sub_cols() * nodes
                                + schedule.forward.exchanges[self.sources.len() + k].words_moved()
                        }
                        None => c.field().len() * nodes,
                    }
                })
                .sum(),
            _ => 0,
        };
        Ok(())
    }

    /// Machine-total words copied per steady-state `execute` — the body
    /// behind [`ExecutionPlan::steady_state_copy_words`].
    fn steady_copy_words(&self, cp: &CompiledPlan) -> usize {
        let (Some(_), Some(schedule)) = (&self.lane_view, self.lane_schedule(cp)) else {
            // The scalar engine refreshes every source interior and runs
            // every exchange per execute.
            let interior: usize = self
                .sources
                .iter()
                .map(|s| s.sub_rows() * s.sub_cols())
                .sum();
            return interior * cp.nodes
                + cp.exchanges
                    .iter()
                    .map(ExchangeProgram::words_moved)
                    .sum::<usize>();
        };
        // The result is staged every execute. Source 0's buffer still
        // holds it, exchanged, unless the commit rewrote source 0 (an
        // in-place update, read next time from the destination: exchange
        // only; a partial overlap: refresh and exchange again).
        let result = self.result.field();
        let exchange0 = schedule.forward.exchanges[0].words_moved();
        let source0 = if self.sources[0].field() == result {
            exchange0
        } else if overlaps(self.sources[0].field(), result) {
            self.refresh_words(cp, 0) + exchange0
        } else {
            0
        };
        // Other pairs stay held unless the commit wrote their array; the
        // last buffer is the destination.
        let others: usize = (1..self.lane_interiors.len() - 1)
            .filter(|&k| overlaps(self.refresh_array(k).field(), result))
            .map(|k| self.refresh_words(cp, k) + schedule.forward.exchanges[k].words_moved())
            .sum();
        source0 + others + self.stage_words(cp)
    }

    /// Machine-total words the interior refresh of pair `k` copies.
    fn refresh_words(&self, cp: &CompiledPlan, k: usize) -> usize {
        self.lane_interiors[k].rows * self.lane_interiors[k].cols * cp.nodes
    }

    /// Machine-total words one execute stages into the result.
    fn stage_words(&self, cp: &CompiledPlan) -> usize {
        self.result.field().len() * cp.nodes
    }

    /// Machine-total words copied by the execute after a ping-pong
    /// rebind on the lane body, whose source 0 is the last result: that
    /// source's buffer holds it, so it only exchanges; every other
    /// source refreshes and exchanges; the result is staged; and
    /// whatever the last rebind moved beyond that (see
    /// `lane_rebind_moved`) is re-read. On the scalar engine this is the
    /// steady-state figure (every execute already pays the full
    /// refresh).
    fn rebind_cycle_copy_words(&self, cp: &CompiledPlan) -> usize {
        let (Some(_), Some(schedule)) = (&self.lane_view, self.lane_schedule(cp)) else {
            return self.steady_copy_words(cp);
        };
        let exchanges = &schedule.forward.exchanges;
        let others: usize = (1..self.sources.len())
            .map(|k| self.refresh_words(cp, k) + exchanges[k].words_moved())
            .sum();
        exchanges[0].words_moved() + others + self.lane_rebind_moved + self.stage_words(cp)
    }
}

impl ExecutionPlan {
    /// Plans every per-call decision for `binding` under `opts`.
    ///
    /// Builds the shared [`CompiledPlan`] (halo buffers and constant
    /// pages from the persistent arena, exchange programs, the
    /// strip-mine schedule and the row program) and attaches the
    /// binding's own [`PlanInstance`] to it. Return the fields with
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
    /// field allocation, no strip resolution, just this binding's lane
    /// view over the shared schedule.
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
    /// A [`Self::lane_mapped`] plan runs the lane body — the same one
    /// [`Self::execute_region`] runs — and commits its staged writes at
    /// once through [`Machine::apply_stage`]; its mirror and stage
    /// buffers are recycled, so a steady state allocates nothing. The
    /// body re-reads node memory only where its mirror is out of date:
    /// each viewed read-only range (the coefficient arrays of a classic
    /// plan) is re-read exactly when its node base moved since
    /// the mirror's last sync or its write stamps
    /// ([`Machine::written_since`]) are newer, and each source (interior
    /// refresh + exchange) unless a mirror buffer holds it — refreshed
    /// from it, or written as the result of a commit that reported its
    /// epoch — with no stamp on it since. Writes by anyone else count —
    /// host scatters, another plan's execute — so an unchanged binding
    /// over unchanged arrays, and the next step of a ping-pong, touch no
    /// `NodeMemory` beyond writing the result. Every
    /// other plan runs on the scalar engine. Every execute stamps the
    /// ranges it writes (its writable [`Self::lease_ranges`]).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Hazard`] on a pipeline hazard (a compiler bug).
    pub fn execute(&mut self, machine: &mut Machine) -> Result<Measurement, RuntimeError> {
        self.inst.execute(&self.shared, machine)
    }

    /// Whether `execute` runs the lane body: fast mode, the lockstep
    /// engine, and a binding the lane mirror can hold (no aliased arrays
    /// on a classic plan). Its only node-memory write is the staged
    /// result, and it cannot fail, so such a plan may also run
    /// region-leased ([`Self::execute_region`]). False means the scalar
    /// engine — the oracle and the cycle model — runs it, writing node
    /// memory mid-execute under an exclusive borrow.
    pub fn lane_mapped(&self) -> bool {
        self.inst.lane_view.is_some()
    }

    /// Runs the lane body under *shared* machine access, holding
    /// `machine` — a read guard, or any other shared borrow — only for
    /// the read phase. That phase is the only one that reads node
    /// memory: it re-gathers the stale mirror ranges and refreshes the
    /// interior of every stale halo. Then `machine` is dropped, and the
    /// halo exchanges, the fused sweeps and the transpose of the result
    /// into `stage` run on the private mirror alone. The caller commits
    /// the stage with [`Machine::apply_stage`] under a brief exclusive
    /// lock, while still holding the lease over this plan's
    /// [`ExecutionPlan::lease_ranges`] — no conflicting execute can run
    /// between the read phase and the commit — and reports the epoch it
    /// returns with [`Self::committed`]. One `execute`
    /// trace span covers both phases.
    ///
    /// Results, [`Measurement`]s, and telemetry are bit-identical to
    /// [`ExecutionPlan::execute`], which runs the same body (staged
    /// words count as scatter words at stage time; the commit itself
    /// counts nothing).
    ///
    /// # Panics
    ///
    /// Panics if the plan is not [`ExecutionPlan::lane_mapped`].
    pub fn execute_region<G: Deref<Target = Machine>>(
        &mut self,
        machine: G,
        stage: &mut RegionStage,
    ) -> Measurement {
        self.inst.execute_region(&self.shared, machine, stage)
    }

    /// Hands the plan the write epoch the commit of its last
    /// [`Self::execute_region`] stamped — the value
    /// [`Machine::apply_stage`] returned for that stage. From then on
    /// the destination buffer counts as holding the result array as of
    /// that epoch, so an execute that next reads the result (a
    /// ping-pong step, an in-place update) reads it from the mirror
    /// instead of refreshing it from node memory. A stage that is never
    /// committed, or whose commit is never reported, leaves the buffer
    /// unheld: the next execute refreshes as usual.
    /// [`Self::execute`] commits and reports by itself.
    pub fn committed(&mut self, epoch: u64) {
        self.inst.committed(epoch);
    }

    /// The node-memory ranges this plan's next execute touches, with
    /// write flags — what the session leases before admitting the
    /// execute. Covers the bound arrays (result writable; sources and
    /// coefficients read-only) plus every plan-owned field: halo
    /// buffers and the destination buffer, the constant pair, literal
    /// coefficient pages, and — temporal plans — coefficient halos and
    /// ping-pong scratch. The result is leased writable though the lane
    /// body does not view it: its commit writes it. On the
    /// lane body the plan-owned fields are read-only (the refresh and
    /// exchange run on the instance's private mirror); on the scalar
    /// engine `fill_interior` and the exchange write them, so two
    /// instances of one shared artifact must serialize.
    pub fn lease_ranges(&self) -> Vec<LeaseRange> {
        let cp = &*self.shared;
        let owned_writable = !self.lane_mapped();
        let mut out = Vec::new();
        let mut push = |f: Field, writable: bool| {
            if !f.is_empty() {
                out.push(LeaseRange {
                    start: f.base(),
                    end: f.base() + f.len(),
                    writable,
                });
            }
        };
        for halo in cp.halos.iter().chain(&cp.dest) {
            push(halo.field(), owned_writable);
        }
        push(cp.consts, false);
        for &page in cp.pages.iter().flatten() {
            push(page, false);
        }
        if let Some(tp) = &cp.temporal {
            for halo in &tp.coeff_halos {
                push(halo.field(), owned_writable);
            }
            for halo in &tp.scratch {
                push(halo.field(), owned_writable);
            }
        }
        for s in &self.inst.sources {
            push(s.field(), false);
        }
        for c in &self.inst.coeffs {
            push(c.field(), false);
        }
        push(self.inst.result.field(), true);
        out
    }

    /// Retargets the plan to different arrays of identical shape without
    /// rebuilding anything shared.
    ///
    /// O(ranges) work: the lane view and the interior copies are
    /// recomputed over the new arrays; the row program and halo
    /// programs are kept (lane addresses are rebind-invariant), and so
    /// is the mirror's contents — the next execute re-reads only the
    /// ranges whose base moved (see [`Self::execute`]). A moved result
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

    /// Detaches the instance's lane mirror, for pooling across tenants.
    /// The plan falls back to an unprimed (but still valid) state: its
    /// next execute re-shapes whatever mirror it holds and gathers the
    /// whole view.
    pub fn take_mirror(&mut self) -> LaneMirror {
        self.inst.forget_mirror();
        std::mem::take(&mut self.inst.lane_mirror)
    }

    /// Installs a (possibly recycled) lane mirror into the instance.
    /// The mirror's buffers are reused when shapes match — this is how
    /// the session mirror pool keeps steady-state allocations at zero
    /// across tenants; contents are treated as garbage and re-gathered
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

    /// The execution options the plan was built under.
    pub fn options(&self) -> &ExecOptions {
        &self.shared.opts
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
    /// mirror's source halos and read-only ranges stay current, so a
    /// steady iteration copies nothing but the staged result — plus, on
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
    /// every other source's refresh and exchange, the staged result,
    /// plus the read-only ranges (or, on temporal plans, coefficient
    /// halos) the last rebind moved. Equals
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
    /// overlap in node memory", or the check the row program failed
    /// ([`cmcc_cm2::kernels::RowProgram::new`]). `None` exactly when the
    /// plan is [`Self::lane_mapped`]. Follows every rebind.
    pub fn lane_fallback(&self) -> Option<&'static str> {
        self.inst.lane_fallback
    }

    /// Words of node memory the plan's halo buffers and constant pages
    /// occupy.
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
/// observed copy traffic, and the copy words the debug cross-check
/// expects.
struct ExecTally {
    run: StripRun,
    comm: u64,
    interior_words: usize,
    exchange_words: usize,
    mirror_base: MirrorWords,
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
            mirror_base: MirrorWords::of(mirror),
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

/// Snapshot of [`LaneMirror`]'s monotonic word counters, differenced
/// around one execute to attribute that execute's mirror traffic.
#[derive(Clone, Copy)]
struct MirrorWords {
    gathered: u64,
    row_gathered: u64,
    scattered: u64,
    lane_copied: u64,
    allocations: u64,
}

impl MirrorWords {
    fn of(mirror: &LaneMirror) -> Self {
        MirrorWords {
            gathered: mirror.gathered_words(),
            row_gathered: mirror.row_gathered_words(),
            scattered: mirror.scattered_words(),
            lane_copied: mirror.lane_copied_words(),
            allocations: mirror.allocations(),
        }
    }

    fn minus(&self, base: &MirrorWords) -> MirrorWords {
        MirrorWords {
            gathered: self.gathered - base.gathered,
            row_gathered: self.row_gathered - base.row_gathered,
            scattered: self.scattered - base.scattered,
            lane_copied: self.lane_copied - base.lane_copied,
            allocations: self.allocations - base.allocations,
        }
    }
}

/// The lane view over a binding of `cp`, or `None` when the mirror
/// cannot hold it.
///
/// The view mirrors the node-memory ranges the lane body reads or
/// writes, in a fixed order: halo buffers and the named coefficients
/// (read-only), then the destination buffer (writable,
/// **lane-private**: it has no node-memory image, so no gather copies
/// it). Literal and unit coefficients are scalars of the row program,
/// so the constant and literal pages stay in node memory for the scalar
/// engine alone. The result array is not viewed: the stage transposes
/// the destination buffer's interior into it. The order and lengths are
/// rebind-invariant, which is what keeps lowered row programs valid
/// across rebinds. Temporal plans replace the coefficient *arrays* with
/// the plan-owned coefficient halos (refreshed like source halos) and
/// add the ping-pong scratch states as writable lane-private ranges —
/// produced and consumed entirely on the mirror within one execute.
///
/// A result that overlaps a gathered range would make the mirror's copy
/// of that range stale the moment the result is committed, so such a
/// binding is refused here: a classic plan whose result aliases a named
/// coefficient runs on the scalar engine (a temporal one never gets
/// here, [`check_fusable`] refuses it first). The view's own overlap
/// check rejects a classic binding that aliases two named coefficients.
/// A result aliased onto a source maps: the commit stamps the source,
/// and the next execute reads it from the destination buffer.
fn instance_lane_view(cp: &CompiledPlan, coeffs: &[CmArray], result: &CmArray) -> Option<LaneView> {
    let temporal = cp.temporal.is_some();
    if !temporal && coeffs.iter().any(|c| overlaps(c.field(), result.field())) {
        return None;
    }
    let mut ranges = Vec::new();
    let mut push = |f: Field, writable: bool, private: bool| {
        ranges.push((f.base(), f.len(), writable, private));
    };
    for halo in &cp.halos {
        push(halo.field(), false, false);
    }
    match &cp.temporal {
        Some(tp) => {
            for halo in &tp.coeff_halos {
                push(halo.field(), false, false);
            }
            for halo in &tp.scratch {
                push(halo.field(), true, true);
            }
        }
        None => {
            for c in coeffs {
                push(c.field(), false, false);
            }
        }
    }
    if let Some(dest) = &cp.dest {
        push(dest.field(), true, true);
    }
    LaneView::new_with_private(&ranges)
}

/// Whether two node-memory fields share an address.
fn overlaps(a: Field, b: Field) -> bool {
    a.base() < b.base() + b.len() && b.base() < a.base() + a.len()
}

/// The one binding rule temporal tiling adds, shared by the build,
/// `from_shared` and `rebind`: a fused execute reads each named
/// coefficient once, at its start, while `depth` separate executes
/// would see a result that aliases a coefficient overwrite it between
/// steps — so that binding cannot fuse. (A source may alias the result:
/// a separate step also reads its whole source before writing.) A clamp
/// to depth 1 cannot stand in: an instance cannot clamp a shared
/// artifact, and a build-time clamp would make the outcome depend on
/// which tenant built first.
fn check_fusable<'a>(
    depth: usize,
    result: &CmArray,
    mut coeffs: impl Iterator<Item = &'a CmArray>,
) -> Result<(), RuntimeError> {
    if depth > 1 && coeffs.any(|c| overlaps(c.field(), result.field())) {
        return Err(RuntimeError::Unfusable {
            reason: "the result aliases a named coefficient",
        });
    }
    Ok(())
}

/// Translates each halo's interior refresh onto the lane mirror: one
/// [`RectCopy`] per halo pairs the mirror rows holding its interior with
/// the (mirror-external) bound array — the lane-domain `fill_interior`.
/// Returns `None` when any halo buffer is not wholly inside one viewed
/// range (then the plan runs on the scalar engine).
fn lane_interior_copies<'a>(
    view: &LaneView,
    pairs: impl Iterator<Item = (&'a HaloBuffer, &'a CmArray)>,
) -> Option<Vec<RectCopy>> {
    pairs
        .map(|(halo, src)| {
            let hl = halo.layout();
            let sl = src.layout();
            let f = halo.field();
            let lane0 = lane_run(view, f.base(), f.len())?;
            Some(RectCopy {
                node0: sl.addr(0, 0),
                node_stride: sl.row_stride,
                lane0: lane0 + (hl.addr(0, 0) - f.base()),
                lane_stride: hl.row_stride,
                rows: src.sub_rows(),
                cols: src.sub_cols(),
            })
        })
        .collect()
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

        // The lane body's steady state copies only the staged result,
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
        assert!(plan.lane_mapped(), "rebind must keep the lane view");
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
