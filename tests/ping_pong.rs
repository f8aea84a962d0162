//! The role-swap invalidation matrix: a lane plan reads its source from
//! the mirror buffer its last execute wrote — skipping the interior
//! refresh — exactly when that buffer still holds the source's words,
//! and refreshes from node memory whenever anything could have changed
//! them.
//!
//! Every paper pattern runs at temporal depth 1, 2 and 4 on one and two
//! threads, in three shapes of time loop: an X↔R ping-pong, a
//! rotation through three buffers, and an in-place update. Between
//! executes the loop is disturbed in every way that must force a
//! refresh: a host write to the held array, another plan's execute
//! writing it, a region execute left uncommitted, a
//! mirror reuse round trip (`take_mirror` / `install_mirror`) that hands
//! the plan back a mirror whose every word is NaN, and a rebind to an
//! array the plan does not hold. Every execute is checked bit for bit
//! against the iterated scalar engine, its copy words against the plan's
//! own model, and its `InteriorRefreshWords` against zero (undisturbed)
//! or the source's words (disturbed); the priming execute copies exactly
//! every refresh, every exchange and the result. The NaN mirror shows the
//! lane body reads only words it refreshed, exchanged, filled or swept.
//! An unchanged binding run again — temporal plans included, whose final
//! fused step writes the destination buffer too — refreshes and
//! exchanges nothing.

use cmcc::cm2::{Machine, MachineConfig};
use cmcc::core::compiler::CompiledStencil;
use cmcc::core::recognize::CoeffSpec;
use cmcc::core::Compiler;
use cmcc::obs::{self, Counter, RunReport};
use cmcc::runtime::{CmArray, ExecOptions, ExecutionPlan, StencilBinding};
use cmcc::{ExecEngine, PaperPattern};
use std::sync::Mutex;

/// Serializes the cases: telemetry is process-global.
static OBS_LOCK: Mutex<()> = Mutex::new(());

const EDGE: usize = 16;

/// The three time loops.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Loop {
    PingPong,
    Rotation,
    InPlace,
}

/// What happens before a step.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Disturbance {
    None,
    HostWrite,
    OtherPlan,
    Uncommitted,
    MirrorSwap,
    UnheldSource,
}

/// The disturbance schedule every case runs: undisturbed swap steps
/// between each disturbance, so every disturbance follows a held
/// source.
const SCHEDULE: [Disturbance; 12] = [
    Disturbance::None,
    Disturbance::None,
    Disturbance::HostWrite,
    Disturbance::None,
    Disturbance::OtherPlan,
    Disturbance::None,
    Disturbance::Uncommitted,
    Disturbance::None,
    Disturbance::MirrorSwap,
    Disturbance::None,
    Disturbance::UnheldSource,
    Disturbance::None,
];

fn lockstep(threads: usize, depth: usize) -> ExecOptions {
    ExecOptions::fast()
        .with_engine(ExecEngine::Lockstep)
        .with_threads(threads)
        .with_temporal_depth(depth)
}

/// Coefficient arrays for `compiled`'s named coefficients, filled
/// deterministically.
fn coeff_arrays(m: &mut Machine, compiled: &CompiledStencil) -> Vec<CmArray> {
    let named = compiled
        .spec()
        .coeffs
        .iter()
        .filter(|c| matches!(c, CoeffSpec::Named(_)))
        .count();
    (0..named)
        .map(|a| {
            let arr = CmArray::new(m, EDGE, EDGE).unwrap();
            arr.fill_with(m, move |r, c| {
                ((r * 5 + c * 11 + a * 3) % 13) as f32 * 0.0625 - 0.375
            });
            arr
        })
        .collect()
}

/// The iterated scalar engine on a machine of its own.
struct Oracle {
    machine: Machine,
    a: CmArray,
    b: CmArray,
    plan: ExecutionPlan,
    coeffs: Vec<CmArray>,
}

impl Oracle {
    fn new(cfg: &MachineConfig, compiled: &CompiledStencil) -> Self {
        let mut machine = Machine::new(cfg.clone()).unwrap();
        let coeffs = coeff_arrays(&mut machine, compiled);
        let a = CmArray::new(&mut machine, EDGE, EDGE).unwrap();
        let b = CmArray::new(&mut machine, EDGE, EDGE).unwrap();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let binding = StencilBinding::new(compiled, &b, &[&a], &refs).unwrap();
        let scalar = ExecOptions::fast()
            .with_engine(ExecEngine::Scalar)
            .with_threads(1);
        let plan = ExecutionPlan::build(&mut machine, &binding, &scalar).unwrap();
        Oracle {
            machine,
            a,
            b,
            plan,
            coeffs,
        }
    }

    /// `steps` separate stencil applications to `input`.
    fn advance(&mut self, input: &[f32], steps: usize) -> Vec<f32> {
        let refs: Vec<&CmArray> = self.coeffs.iter().collect();
        self.a.scatter(&mut self.machine, input);
        let (mut cur, mut next) = (self.a, self.b);
        for _ in 0..steps {
            self.plan.rebind(&next, &[&cur], &refs).unwrap();
            self.plan.execute(&mut self.machine).unwrap();
            std::mem::swap(&mut cur, &mut next);
        }
        cur.gather(&self.machine)
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs one case of the matrix: the disturbance schedule over one time
/// loop, checking every execute.
fn run_case(pattern: PaperPattern, depth: usize, threads: usize, shape: Loop) {
    let what = format!("{pattern:?} depth {depth}, {threads} thread(s), {shape:?}");
    let cfg = MachineConfig::tiny_4();
    let compiled = Compiler::new(cfg.clone())
        .compile_assignment(&pattern.fortran())
        .unwrap();
    let mut oracle = Oracle::new(&cfg, &compiled);
    let mut m = Machine::new(cfg.clone()).unwrap();
    let coeffs = coeff_arrays(&mut m, &compiled);
    let refs: Vec<&CmArray> = coeffs.iter().collect();
    let bufs: Vec<CmArray> = (0..3)
        .map(|_| CmArray::new(&mut m, EDGE, EDGE).unwrap())
        .collect();
    let unheld = CmArray::new(&mut m, EDGE, EDGE).unwrap();
    let other_src = CmArray::new(&mut m, EDGE, EDGE).unwrap();
    other_src.fill_with(&mut m, |r, c| ((r * 3 + c) % 7) as f32 * 0.5 - 1.0);
    let mut state: Vec<f32> = (0..EDGE * EDGE)
        .map(|i| ((i * 31) % 41) as f32 * 0.125 - 2.5)
        .collect();
    bufs[0].scatter(&mut m, &state);

    // Another plan that writes into whatever array it is pointed at.
    let other_compiled = Compiler::new(cfg.clone())
        .compile_assignment("R = 0.5 * X + 0.25 * CSHIFT(X, 1, 1)")
        .unwrap();
    let other_binding = StencilBinding::new(&other_compiled, &bufs[0], &[&other_src], &[]).unwrap();
    let mut other = ExecutionPlan::build(&mut m, &other_binding, &lockstep(1, 1)).unwrap();

    let binding = StencilBinding::new(&compiled, &bufs[1], &[&bufs[0]], &refs).unwrap();
    let mut plan = ExecutionPlan::build(&mut m, &binding, &lockstep(threads, depth)).unwrap();
    assert!(plan.lane_mapped(), "{what}: lane-mapped");
    assert_eq!(plan.temporal_depth(), depth, "{what}: depth");
    let source_words = (m.node_count() * bufs[0].field().len()) as u64;

    let mut cur = bufs[0];
    let mut cold: Option<RunReport> = None;
    // Whether the plan's last execute went uncommitted.
    let mut after_drop = false;
    for (step, &disturbance) in SCHEDULE.iter().enumerate() {
        let case = format!("{what}, step {step} ({disturbance:?})");
        let prev = cur;
        match disturbance {
            Disturbance::None | Disturbance::MirrorSwap => {}
            Disturbance::HostWrite => {
                state = state.iter().map(|v| v * 0.5 + 0.25).collect();
                cur.scatter(&mut m, &state);
            }
            Disturbance::OtherPlan => {
                other.rebind(&cur, &[&other_src], &[]).unwrap();
                other.execute(&mut m).unwrap();
                state = cur.gather(&m);
            }
            Disturbance::Uncommitted => {
                // A region execute nobody commits: it moves every copy
                // word of the model but the result's and writes no node
                // word, so node memory keeps the old result and the
                // step's roles advance over the stale array.
                let next = target(shape, &bufs, cur);
                plan.rebind(&next, &[&cur], &refs).unwrap();
                let model = model(&plan, shape);
                let result_words = (m.node_count() * next.field().len()) as u64;
                let (before, epoch) = (obs::thread_snapshot(), m.write_epoch());
                plan.execute_region(&m);
                let dropped = obs::thread_snapshot().delta(&before);
                assert_eq!(
                    dropped.copy_words(),
                    model - result_words,
                    "{case}: uncommitted execute copy words"
                );
                assert_eq!(m.write_epoch(), epoch, "{case}: uncommitted write");
                assert_eq!(
                    dropped.get(Counter::InteriorRefreshWords),
                    0,
                    "{case}: held source"
                );
                cur = next;
                state = cur.gather(&m);
                after_drop = true;
            }
            Disturbance::UnheldSource => {
                unheld.scatter(&mut m, &state);
                cur = unheld;
            }
        }
        if disturbance == Disturbance::MirrorSwap {
            let mut mirror = plan.take_mirror();
            for w in 0..mirror.words() {
                mirror.word_mut(w).fill(f32::NAN);
            }
            plan.install_mirror(mirror);
        }

        let next = match disturbance {
            Disturbance::UnheldSource if shape != Loop::InPlace => target(shape, &bufs, prev),
            _ => target(shape, &bufs, cur),
        };
        plan.rebind(&next, &[&cur], &refs).unwrap();
        let model = model(&plan, shape);
        let before = obs::thread_snapshot();
        plan.execute(&mut m).unwrap();
        let got = obs::thread_snapshot().delta(&before);
        let want = oracle.advance(&state, depth);
        let diverged = bits(&next.gather(&m))
            .iter()
            .zip(bits(&want))
            .position(|(g, w)| *g != w);
        assert_eq!(
            diverged, None,
            "{case}: first element diverging from the oracle"
        );

        let refresh = got.get(Counter::InteriorRefreshWords);
        let Some(cold) = &cold else {
            let nodes = m.node_count();
            assert_priming_copy(&got, &compiled, nodes, &bufs[0], coeffs.len(), depth, &case);
            cold = Some(got);
            state = want;
            cur = next;
            continue;
        };
        match disturbance {
            _ if after_drop && shape == Loop::InPlace => {
                // The uncommitted in-place execute left its source
                // buffer holding the unchanged array, ring and all: at
                // every depth the last step writes the other buffer.
                assert_eq!(refresh, 0, "{case}: refresh");
                assert_eq!(got.get(Counter::HaloExchanges), 0, "{case}: exchanges");
                assert_eq!(
                    got.copy_words(),
                    got.get(Counter::ScatterWords),
                    "{case}: copy words"
                );
            }
            _ if after_drop => {
                // The uncommitted execute overwrote the buffer that held
                // the array it now reads (or never made its result held).
                assert_eq!(
                    refresh, source_words,
                    "{case}: refresh after an uncommitted execute"
                );
                assert_eq!(got.copy_words(), model + refresh, "{case}: copy words");
            }
            Disturbance::None => {
                assert_eq!(refresh, 0, "{case}: an undisturbed swap step refreshed");
                assert_eq!(got.copy_words(), model, "{case}: copy words");
            }
            Disturbance::MirrorSwap => {
                assert_eq!(
                    got.copy_words(),
                    cold.copy_words(),
                    "{case}: re-prime copy words"
                );
                assert_eq!(
                    refresh,
                    cold.get(Counter::InteriorRefreshWords),
                    "{case}: re-prime refresh"
                );
                assert!(
                    refresh >= source_words,
                    "{case}: re-prime refreshes the source"
                );
            }
            Disturbance::Uncommitted => unreachable!("handled above"),
            Disturbance::HostWrite | Disturbance::OtherPlan | Disturbance::UnheldSource => {
                assert_eq!(refresh, source_words, "{case}: refresh");
                assert_eq!(got.copy_words(), model + refresh, "{case}: copy words");
            }
        }
        after_drop = false;
        state = want;
        cur = next;
    }
    other.release(&mut m);
    plan.release(&mut m);
    oracle.plan.release(&mut oracle.machine);
}

/// The priming execute's exact copy, the mirror holding nothing yet:
/// every refresh — the source, and each named coefficient (a classic
/// plan's counted as a gather, a temporal plan's coefficient halo as an
/// interior refresh) — every exchange — the source halo `depth·radius`
/// deep, a temporal plan's coefficient halos `(depth−1)·radius` deep —
/// and the commit of the result.
fn assert_priming_copy(
    got: &RunReport,
    compiled: &CompiledStencil,
    nodes: usize,
    source: &CmArray,
    named: usize,
    depth: usize,
    case: &str,
) {
    let (subgrid, sub) = ((nodes * source.field().len()) as u64, source.sub_rows());
    let stencil = compiled.stencil();
    let radius = stencil.borders().max_width() as usize;
    let corners = depth > 1 || stencil.needs_corner_exchange();
    // Machine-total words one exchange of a `pad`-deep ring moves.
    let ring = |pad: usize| (nodes * (4 * pad * sub + usize::from(corners) * 4 * pad * pad)) as u64;
    let named = named as u64;
    let (refreshed, gathered, coeff_rings, exchanges) = if depth > 1 {
        let rings = named * ring((depth - 1) * radius);
        (subgrid + named * subgrid, 0, rings, 1 + named)
    } else {
        (subgrid, named * subgrid, 0, 1)
    };
    assert_eq!(
        got.get(Counter::InteriorRefreshWords),
        refreshed,
        "{case}: priming refresh"
    );
    assert_eq!(
        got.get(Counter::GatherWords),
        gathered,
        "{case}: priming gather"
    );
    assert_eq!(
        got.get(Counter::ExchangeEdgeWords) + got.get(Counter::ExchangeCornerWords),
        ring(depth * radius) + coeff_rings,
        "{case}: priming exchange words"
    );
    assert_eq!(
        got.get(Counter::HaloExchanges),
        exchanges,
        "{case}: priming exchanges"
    );
    assert_eq!(
        got.get(Counter::ScatterWords),
        subgrid,
        "{case}: priming commit"
    );
}

/// The array a step writes when reading `cur`: the other buffer of a
/// ping-pong, the next of a rotation, `cur` itself in place.
fn target(shape: Loop, bufs: &[CmArray], cur: CmArray) -> CmArray {
    let at = || {
        bufs.iter()
            .position(|b| b.field() == cur.field())
            .expect("a loop buffer")
    };
    match shape {
        Loop::InPlace => cur,
        Loop::PingPong => bufs[1 - at().min(1)],
        Loop::Rotation => bufs[(at() + 1) % 3],
    }
}

/// The plan's copy model for an undisturbed step of `shape`: a swap
/// step reads the last result; an in-place step reads its own.
fn model(plan: &ExecutionPlan, shape: Loop) -> u64 {
    match shape {
        Loop::InPlace => plan.steady_state_copy_words() as u64,
        Loop::PingPong | Loop::Rotation => plan.rebind_cycle_copy_words() as u64,
    }
}

fn run_matrix(shape: Loop) {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    for pattern in PaperPattern::ALL {
        for depth in [1, 2, 4] {
            for threads in [1, 2] {
                run_case(pattern, depth, threads, shape);
            }
        }
    }
}

#[test]
fn ping_pong_swaps_roles_and_refreshes_exactly_when_disturbed() {
    run_matrix(Loop::PingPong);
}

#[test]
fn rotation_over_three_buffers_swaps_roles_and_refreshes_exactly_when_disturbed() {
    run_matrix(Loop::Rotation);
}

#[test]
fn in_place_updates_swap_roles_and_refresh_exactly_when_disturbed() {
    run_matrix(Loop::InPlace);
}

/// An unchanged binding run again — `R = f(X)` with nothing written in
/// between — reads its source from the halo buffer the first execute
/// refreshed and exchanged: every later execute refreshes and exchanges
/// nothing, copies only its committed result, and stays bit-identical to
/// the iterated scalar engine. Temporal plans included: their last
/// fused step writes the destination buffer, never source 0's halo.
#[test]
fn undisturbed_reruns_refresh_and_exchange_nothing_at_every_depth() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    let cfg = MachineConfig::tiny_4();
    for pattern in PaperPattern::ALL {
        let compiled = Compiler::new(cfg.clone())
            .compile_assignment(&pattern.fortran())
            .unwrap();
        let mut oracle = Oracle::new(&cfg, &compiled);
        for depth in [1, 2, 4] {
            for threads in [1, 2] {
                let what = format!("{pattern:?} depth {depth}, {threads} thread(s)");
                let mut m = Machine::new(cfg.clone()).unwrap();
                let coeffs = coeff_arrays(&mut m, &compiled);
                let refs: Vec<&CmArray> = coeffs.iter().collect();
                let x = CmArray::new(&mut m, EDGE, EDGE).unwrap();
                let r = CmArray::new(&mut m, EDGE, EDGE).unwrap();
                let state: Vec<f32> = (0..EDGE * EDGE)
                    .map(|i| ((i * 29) % 37) as f32 * 0.125 - 2.0)
                    .collect();
                x.scatter(&mut m, &state);
                let binding = StencilBinding::new(&compiled, &r, &[&x], &refs).unwrap();
                let mut plan =
                    ExecutionPlan::build(&mut m, &binding, &lockstep(threads, depth)).unwrap();
                assert!(plan.lane_mapped(), "{what}: lane-mapped");
                assert_eq!(plan.temporal_depth(), depth, "{what}: depth");
                let want = bits(&oracle.advance(&state, depth));
                for run in 0..4 {
                    let before = obs::thread_snapshot();
                    plan.execute(&mut m).unwrap();
                    let got = obs::thread_snapshot().delta(&before);
                    assert_eq!(bits(&r.gather(&m)), want, "{what}, run {run}: result");
                    if run == 0 {
                        continue;
                    }
                    assert_eq!(
                        got.get(Counter::InteriorRefreshWords),
                        0,
                        "{what}, run {run}: refresh"
                    );
                    assert_eq!(got.get(Counter::HaloExchanges), 0, "{what}, run {run}");
                    assert_eq!(
                        got.copy_words(),
                        plan.steady_state_copy_words() as u64,
                        "{what}, run {run}: copy words"
                    );
                    assert_eq!(
                        got.copy_words(),
                        got.get(Counter::ScatterWords),
                        "{what}, run {run}: only the committed result moves"
                    );
                }
                plan.release(&mut m);
            }
        }
        oracle.plan.release(&mut oracle.machine);
    }
}
