//! Telemetry contract tests for the `cmcc-obs` counters: the three
//! executors must agree on useful-flop accounting, disabled profiling
//! must leave an empty report, rebinding through the session cache must
//! keep counters continuous (no gaps or double counting between
//! bracketed reports), and a steady-state iteration's observed copy
//! words must equal the plan's analytic prediction — including under
//! ping-pong rebinding, where only what moved or was written is re-read.
//!
//! The counters are process-global atomics, so every test here takes a
//! shared lock and resets the registry before measuring.

use std::sync::Mutex;

use cmcc::core::recognize::CoeffSpec;
use cmcc::obs::{self, Counter};
use cmcc::runtime::{CmArray, ExecEngine, ExecOptions, ExecutionPlan, StencilBinding};
use cmcc::{Compiler, Machine, MachineConfig, PaperPattern, Session};

/// Serializes tests that touch the global counter registry.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs the five-point cross through a session under `opts` and returns
/// the bracketed report for the final (steady-state) run.
fn run_five_point(opts: &ExecOptions) -> obs::RunReport {
    let mut s = Session::tiny().unwrap();
    let c = s.compile(&PaperPattern::Cross5.fortran()).unwrap();
    let x = s.array(8, 8).unwrap();
    let r = s.array(8, 8).unwrap();
    x.fill_with(&mut s.machine_mut(), |row, col| {
        ((row * 5 + col) % 7) as f32
    });
    let named = c
        .spec()
        .coeffs
        .iter()
        .filter(|c| matches!(c, CoeffSpec::Named(_)))
        .count();
    let coeffs: Vec<CmArray> = (0..named).map(|_| s.array(8, 8).unwrap()).collect();
    for (i, a) in coeffs.iter().enumerate() {
        a.fill(&mut s.machine_mut(), 0.125 * (i + 1) as f32);
    }
    let refs: Vec<&CmArray> = coeffs.iter().collect();
    // Three runs: build, then two rebound replays, so the report below
    // is a pure steady-state iteration for every engine.
    s.run_with(&c, &r, &x, &refs, opts).unwrap();
    s.run_with(&c, &r, &x, &refs, opts).unwrap();
    s.run_with(&c, &r, &x, &refs, opts).unwrap();
    s.last_report()
}

/// The paper's numerator must not depend on which executor produced it:
/// scalar and lane-body runs of the five-point pattern report identical
/// useful-flop counts.
#[test]
fn useful_flops_identical_across_engines() {
    let _g = lock();
    obs::set_enabled(true);
    obs::reset();

    let scalar = run_five_point(&ExecOptions::fast().with_engine(ExecEngine::Scalar));
    let resident = run_five_point(&ExecOptions::fast().with_engine(ExecEngine::Lockstep));

    assert_eq!(scalar.get(Counter::ScalarRuns), 1);
    assert_eq!(resident.get(Counter::LaneResidentRuns), 1);

    let flops = scalar.get(Counter::UsefulFlops);
    assert!(flops > 0, "the five-point stencil does real work");
    assert_eq!(
        resident.get(Counter::UsefulFlops),
        flops,
        "lane-resident useful flops diverge from scalar"
    );

    obs::set_enabled(false);
}

/// With profiling off, a full compile-and-run cycle must leave the
/// registry untouched: the bracketed report is empty and costs nothing.
#[test]
fn disabled_profiling_yields_empty_report() {
    let _g = lock();
    obs::set_enabled(false);
    obs::reset();

    let report = run_five_point(&ExecOptions::default());
    assert!(
        report.is_empty(),
        "disabled profiling still recorded something:\n{}",
        report.render_table()
    );
    assert!(obs::snapshot().is_empty(), "global registry stayed zeroed");
}

/// Counter continuity across the session cache: the first run builds,
/// the second rebinds, and the two bracketed reports tile the global
/// totals exactly — nothing is lost or double-counted at the hit/miss
/// boundary.
#[test]
fn rebind_preserves_counter_continuity() {
    let _g = lock();
    obs::set_enabled(true);
    obs::reset();

    let mut s = Session::tiny().unwrap();
    let c = s.compile("R = 0.25 * CSHIFT(X, 1, -1) + 0.75 * X").unwrap();
    let x = s.array(8, 8).unwrap();
    let r = s.array(8, 8).unwrap();
    x.fill(&mut s.machine_mut(), 2.0);

    s.run(&c, &r, &x, &[]).unwrap();
    let first = s.last_report();
    assert_eq!(first.get(Counter::PlanBuilds), 1, "first run builds");
    assert_eq!(first.get(Counter::PlanCacheMisses), 1);

    s.run(&c, &r, &x, &[]).unwrap();
    let second = s.last_report();
    assert_eq!(second.get(Counter::PlanBuilds), 0, "hit must not rebuild");
    assert_eq!(second.get(Counter::PlanRebinds), 1, "hit rebinds in place");
    assert_eq!(second.get(Counter::PlanCacheHits), 1);

    let total = obs::snapshot();
    for counter in Counter::ALL {
        assert_eq!(
            first.get(counter) + second.get(counter),
            total.get(counter),
            "{} not continuous across the rebind boundary",
            counter.key()
        );
    }

    obs::set_enabled(false);
}

/// The observability counters reproduce the plan's own analytic model: a
/// steady-state lane-resident iteration's copy words, as summed from the
/// report, equal `steady_state_copy_words()` exactly.
#[test]
fn steady_state_copy_words_match_analytic_prediction() {
    let _g = lock();
    obs::set_enabled(true);
    obs::reset();

    let cfg = MachineConfig::tiny_4();
    let compiled = Compiler::new(cfg.clone())
        .compile_assignment("R = 0.25 * CSHIFT(X, 1, -1) + 0.5 * X + 0.25 * CSHIFT(X, 2, 1)")
        .unwrap();
    let mut m = Machine::new(cfg).unwrap();
    let x = CmArray::new(&mut m, 8, 8).unwrap();
    let r = CmArray::new(&mut m, 8, 8).unwrap();
    x.fill_with(&mut m, |row, col| (row * 3 + col) as f32 * 0.5);

    let binding = StencilBinding::new(&compiled, &r, &[&x], &[]).unwrap();
    let mut plan = ExecutionPlan::build(&mut m, &binding, &ExecOptions::default()).unwrap();
    plan.execute(&mut m).unwrap(); // priming iteration (full mirror gather)

    let before = obs::snapshot();
    plan.execute(&mut m).unwrap(); // steady state
    let steady = obs::snapshot().delta(&before);

    assert_eq!(
        steady.copy_words(),
        plan.steady_state_copy_words() as u64,
        "observed steady-state copy words diverge from the prediction:\n{}",
        steady.render_table()
    );
    assert_eq!(
        steady.get(Counter::GatherWords),
        0,
        "steady state must not re-gather the full mirror"
    );
    assert_eq!(steady.get(Counter::MirrorAllocations), 0);
    plan.release(&mut m);

    ping_pong_copy_words_match_the_rebind_cycle_model();
    obs::set_enabled(false);
}

/// The copy-word contract under ping-pong rebinding: a Square9 plan over
/// nine coefficient arrays swaps source and result every execute. Once
/// primed, no execute re-gathers anything (the coefficients neither move
/// nor change) or refreshes its source (the last result is still in the
/// mirror), and each moves exactly `rebind_cycle_copy_words()`. A
/// host scatter into one coefficient array then makes the next execute
/// gather exactly that array — `nodes × len` words — and still match the
/// scalar engine bit for bit.
fn ping_pong_copy_words_match_the_rebind_cycle_model() {
    let cfg = MachineConfig::tiny_4();
    let compiled = Compiler::new(cfg.clone())
        .compile_assignment(&PaperPattern::Square9.fortran())
        .unwrap();
    let mut m = Machine::new(cfg).unwrap();
    let x = CmArray::new(&mut m, 16, 16).unwrap();
    let r = CmArray::new(&mut m, 16, 16).unwrap();
    x.fill_with(&mut m, |row, col| ((row * 7 + col * 3) % 13) as f32 * 0.25);
    let coeffs: Vec<CmArray> = (0..9)
        .map(|k| {
            let a = CmArray::new(&mut m, 16, 16).unwrap();
            a.fill_with(&mut m, |row, col| {
                ((row + col * 5 + k) % 7) as f32 * 0.0625 + 0.0625
            });
            a
        })
        .collect();
    let refs: Vec<&CmArray> = coeffs.iter().collect();
    let binding = StencilBinding::new(&compiled, &r, &[&x], &refs).unwrap();
    let mut plan = ExecutionPlan::build(&mut m, &binding, &ExecOptions::fast()).unwrap();
    assert!(plan.lane_mapped());
    plan.execute(&mut m).unwrap(); // priming iteration

    let (mut cur, mut next) = (r, x);
    let mut step = |m: &mut Machine, cur: &CmArray, next: &CmArray| {
        plan.rebind(next, &[cur], &refs).unwrap();
        let before = obs::snapshot();
        plan.execute(m).unwrap();
        (
            obs::snapshot().delta(&before),
            plan.rebind_cycle_copy_words(),
        )
    };
    for _ in 0..4 {
        let (report, predicted) = step(&mut m, &cur, &next);
        assert_eq!(
            report.get(Counter::GatherWords),
            0,
            "a ping-pong execute re-gathered unchanged coefficients"
        );
        assert_eq!(
            report.get(Counter::InteriorRefreshWords),
            0,
            "a ping-pong execute refreshed the source its last result left in the mirror"
        );
        assert_eq!(
            report.copy_words(),
            predicted as u64,
            "ping-pong copy words diverge from the rebind-cycle model:\n{}",
            report.render_table()
        );
        std::mem::swap(&mut cur, &mut next);
    }

    // A host write to one coefficient array: exactly its words are
    // re-gathered, and the result still matches the scalar engine.
    let changed = &coeffs[4];
    changed.fill_with(&mut m, |row, col| (row * 16 + col) as f32 * 0.001);
    let input = cur.gather(&m);
    let (report, _) = step(&mut m, &cur, &next);
    assert_eq!(
        report.get(Counter::GatherWords),
        (m.node_count() * changed.field().len()) as u64,
        "a host scatter must re-gather exactly the written array"
    );
    let oracle_in = CmArray::new(&mut m, 16, 16).unwrap();
    let oracle_out = CmArray::new(&mut m, 16, 16).unwrap();
    oracle_in.scatter(&mut m, &input);
    let binding = StencilBinding::new(&compiled, &oracle_out, &[&oracle_in], &refs).unwrap();
    let mut scalar = ExecutionPlan::build(
        &mut m,
        &binding,
        &ExecOptions::fast().with_engine(ExecEngine::Scalar),
    )
    .unwrap();
    scalar.execute(&mut m).unwrap();
    let want: Vec<u32> = oracle_out.gather(&m).iter().map(|v| v.to_bits()).collect();
    let got: Vec<u32> = next.gather(&m).iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "resident result diverges from the scalar engine");
    scalar.release(&mut m);
    plan.release(&mut m);
}
