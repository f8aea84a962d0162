//! Engine writes to bound arrays: when one plan's execute writes an
//! array another plan reads — its source or a coefficient — the
//! lane-resident reader must see the new contents at its next execute,
//! even with an identical binding. Resident mirrors re-read exactly the
//! ranges whose write stamps are newer than their last sync, so these
//! cases pin that rule on each path a reader can take: the region path
//! (one uncontended handle), a conflicted reader on a second handle
//! that waits its FIFO turn behind the writer and then runs the same
//! region body, and a temporally fused plan that reads its coefficient
//! through a coefficient halo. The same rule lets a
//! temporal plan update its source in place: its own commit stamps the
//! source, so the next execute re-reads it. A temporal binding whose
//! result aliases a named coefficient cannot fuse and is refused. The
//! scalar engine, which has no mirror, is the oracle.
//!
//! These live in their own test binary: the conflicted case holds a
//! machine read guard while two handles queue on the lease table.

use cmcc::cm2::exec::{ExecEngine, ExecMode};
use cmcc::runtime::{CmArray, ExecOptions, ExecutionPlan, RuntimeError, StencilBinding};
use cmcc::{CompiledStencil, LeaseStats, Session, SessionError};
use std::time::{Duration, Instant};

const SUBGRID: (usize, usize) = (8, 8);

/// Lane-resident lockstep execution: the only region-eligible mode.
fn exec_opts() -> ExecOptions {
    let mut opts = ExecOptions::default()
        .with_threads(1)
        .with_engine(ExecEngine::Lockstep);
    opts.mode = ExecMode::Fast;
    opts
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// P1 reads `X` through its source halo and `C` as a coefficient; P2
/// writes whichever array it is bound to.
const READER: &str = "R = C * CSHIFT(X, 1, -1) + 0.5 * CSHIFT(X, 2, 1)";
const WRITER: &str = "R = 0.75 * Y + 0.25 * CSHIFT(Y, 2, -1)";

/// Arrays shared by the engine-write regressions: the reader's source,
/// coefficient and result, and the writer's input.
struct WriteCase {
    compiled_reader: CompiledStencil,
    compiled_writer: CompiledStencil,
    x: CmArray,
    c: CmArray,
    r: CmArray,
    y: CmArray,
}

impl WriteCase {
    fn new(s: &mut Session) -> Self {
        let rows = SUBGRID.0 * s.machine().grid().rows();
        let cols = SUBGRID.1 * s.machine().grid().cols();
        let compiled_reader = s.compile(READER).unwrap();
        let compiled_writer = s.compile(WRITER).unwrap();
        let x = s.array(rows, cols).unwrap();
        let c = s.array(rows, cols).unwrap();
        let r = s.array(rows, cols).unwrap();
        let y = s.array(rows, cols).unwrap();
        let mut m = s.machine_mut();
        x.fill_with(&mut m, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.5 - 2.0);
        c.fill_with(&mut m, |r, c| ((r * 5 + c) % 9) as f32 * 0.125 + 0.25);
        y.fill_with(&mut m, |r, c| ((r * 3 + c * 13) % 17) as f32 * 0.25 - 1.5);
        drop(m);
        WriteCase {
            compiled_reader,
            compiled_writer,
            x,
            c,
            r,
            y,
        }
    }

    /// P1: the lane-resident reader, always with the identical binding.
    fn read(&self, s: &mut Session, opts: &ExecOptions) {
        s.run_with_multi(&self.compiled_reader, &self.r, &[&self.x], &[&self.c], opts)
            .expect("reader runs");
    }

    /// P2: an execute whose result is `target` (`X` or `C`).
    fn write(&self, s: &mut Session, target: &CmArray) {
        s.run_with_multi(&self.compiled_writer, target, &[&self.y], &[], &exec_opts())
            .expect("writer runs");
    }

    /// The scalar engine's answer for the reader over the arrays' current
    /// contents, iterated `depth` times as a fused temporal plan is.
    fn oracle(&self, s: &mut Session, depth: usize) -> Vec<f32> {
        let x = self.x.gather(&s.machine());
        scalar_steps(s, &self.compiled_reader, &x, &self.c, depth)
    }

    fn check(&self, s: &mut Session, depth: usize, what: &str) {
        let got = self.r.gather(&s.machine());
        let want = self.oracle(s, depth);
        assert!(
            bits_equal(&got, &want),
            "reader result diverges from the scalar engine after {what}"
        );
    }
}

/// The scalar engine's answer for `steps` applications of `compiled` to
/// `x`, each step's result the next step's source, with `c` as the
/// named coefficient throughout.
fn scalar_steps(
    s: &mut Session,
    compiled: &CompiledStencil,
    x: &[f32],
    c: &CmArray,
    steps: usize,
) -> Vec<f32> {
    let scalar = ExecOptions::fast()
        .with_engine(ExecEngine::Scalar)
        .with_threads(1);
    let (rows, cols) = (c.rows(), c.cols());
    let mut cur = s.array(rows, cols).unwrap();
    let mut next = s.array(rows, cols).unwrap();
    cur.scatter(&mut s.machine_mut(), x);
    for _ in 0..steps {
        s.run_with(compiled, &next, &cur, &[c], &scalar).unwrap();
        std::mem::swap(&mut cur, &mut next);
    }
    cur.gather(&s.machine())
}

/// Polls `cond` on the session's lease table until it holds.
fn wait_for(root: &Session, what: &str, cond: impl Fn(LeaseStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond(root.lease_stats()) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Region path: another plan's execute writes the reader's source, then
/// its coefficient; the resident reader, rerun with an identical
/// binding, must re-read both (their write stamps are newer than its
/// mirror) and match the scalar engine bit for bit.
#[test]
fn engine_writes_to_bound_arrays_reach_a_region_reader() {
    let mut s = Session::tiny().unwrap();
    let case = WriteCase::new(&mut s);
    let opts = exec_opts();
    case.read(&mut s, &opts);
    assert!(s.last_plan().is_some_and(|p| p.lane_mapped()));
    for target in [case.x, case.c] {
        case.write(&mut s, &target);
        let before = s.lease_stats();
        case.read(&mut s, &opts);
        let after = s.lease_stats();
        assert_eq!(after.region_grants, before.region_grants + 1);
        assert_eq!(after.conflicts, before.conflicts);
        case.check(&mut s, 1, "an engine write");
    }
}

/// Conflicted path: the writer runs on a second handle and holds its
/// lease (its commit waits behind a read guard) while the reader queues
/// on the conflict. The reader's rerun waits its FIFO turn, is counted,
/// runs the region body — and must still see the new `X`, then the new
/// `C`.
#[test]
fn engine_writes_to_bound_arrays_reach_a_queued_region_reader() {
    let root = Session::tiny().unwrap();
    let mut a = root.clone();
    let mut b = root.clone();
    let case = WriteCase::new(&mut a);
    let opts = exec_opts();
    case.read(&mut a, &opts);
    // Build the writer's plan up front (into a scratch result): a build
    // takes the machine write lock, which the read guard below blocks.
    let scratch = b.array(case.x.rows(), case.x.cols()).unwrap();
    case.write(&mut b, &scratch);
    for target in [case.x, case.c] {
        let before = root.lease_stats();
        std::thread::scope(|scope| {
            let guard = root.machine();
            let case = &case;
            let (a, b) = (&mut a, &mut b);
            scope.spawn(move || case.write(b, &target));
            wait_for(&root, "the writer's lease", |st| st.live == 1);
            scope.spawn(move || case.read(a, &opts));
            wait_for(&root, "the reader to queue", |st| st.queued == 1);
            drop(guard);
        });
        let after = root.lease_stats();
        assert_eq!(
            after.conflicts,
            before.conflicts + 1,
            "the queued reader must be counted"
        );
        assert_eq!(
            after.region_grants,
            before.region_grants + 2,
            "writer and queued reader both run the region body"
        );
        case.check(&mut a, 1, "a conflicting engine write");
    }
    let stats = root.lease_stats();
    assert_eq!((stats.live, stats.queued), (0, 0));
}

/// Temporal path: a two-step fused reader reads `C` through its
/// coefficient halo; engine writes to `X` and `C` must both reach it.
#[test]
fn engine_writes_to_bound_arrays_reach_a_temporal_reader() {
    let mut s = Session::tiny().unwrap();
    let case = WriteCase::new(&mut s);
    let opts = exec_opts().with_temporal_depth(2);
    case.read(&mut s, &opts);
    let plan = s.last_plan().unwrap();
    assert_eq!(plan.temporal_depth(), 2, "{:?}", plan.temporal_fallback());
    assert!(plan.lane_mapped());
    for target in [case.x, case.c] {
        case.write(&mut s, &target);
        case.read(&mut s, &opts);
        case.check(&mut s, 2, "an engine write");
    }
}

/// In-place temporal bindings (result == source) run the lane body: the
/// commit stamps the source, so each execute re-reads what the previous
/// one wrote, and `k` fused steps per execute stay bit-identical to the
/// iterated scalar engine — through `ExecutionPlan::execute` and through
/// `Session::run_with`.
#[test]
fn in_place_temporal_bindings_lane_map_and_match_iterated_scalar() {
    const EXECUTES: usize = 3;
    for depth in [2, 4] {
        let mut s = Session::tiny().unwrap();
        let case = WriteCase::new(&mut s);
        let opts = exec_opts().with_temporal_depth(depth);
        let x0 = case.x.gather(&s.machine());
        let want = scalar_steps(
            &mut s,
            &case.compiled_reader,
            &x0,
            &case.c,
            depth * EXECUTES,
        );

        let a = s.array(case.x.rows(), case.x.cols()).unwrap();
        a.scatter(&mut s.machine_mut(), &x0);
        let binding = StencilBinding::new(&case.compiled_reader, &a, &[&a], &[&case.c]).unwrap();
        let mut plan = ExecutionPlan::build(&mut s.machine_mut(), &binding, &opts).unwrap();
        assert_eq!(
            plan.temporal_depth(),
            depth,
            "{:?}",
            plan.temporal_fallback()
        );
        assert!(plan.lane_mapped(), "an in-place temporal binding lane-maps");
        for _ in 0..EXECUTES {
            plan.execute(&mut s.machine_mut()).unwrap();
        }
        assert!(
            bits_equal(&a.gather(&s.machine()), &want),
            "depth {depth}: in-place execute diverges from the scalar engine"
        );
        plan.release(&mut s.machine_mut());

        let b = s.array(case.x.rows(), case.x.cols()).unwrap();
        b.scatter(&mut s.machine_mut(), &x0);
        for _ in 0..EXECUTES {
            s.run_with(&case.compiled_reader, &b, &b, &[&case.c], &opts)
                .unwrap();
        }
        let plan = s.last_plan().unwrap();
        assert_eq!(plan.temporal_depth(), depth);
        assert!(plan.lane_mapped(), "an in-place session binding lane-maps");
        assert!(
            bits_equal(&b.gather(&s.machine()), &want),
            "depth {depth}: in-place session run diverges from the scalar engine"
        );
    }
}

/// A temporal plan cannot fuse a binding whose result aliases a named
/// coefficient: `k` separate executes would overwrite the coefficient
/// between steps, while a fused execute reads it once. The build,
/// `from_shared` and `rebind` share one check that refuses the binding
/// with a typed error, the session surfaces it, and a refused rebind
/// keeps the old binding. At depth 1 such a binding still runs, on the
/// scalar engine.
#[test]
fn temporal_result_aliasing_a_coefficient_is_refused() {
    let mut s = Session::tiny().unwrap();
    let compiled = s
        .compile("R = C * CSHIFT(X, 1, -1) + 0.5 * X + C * CSHIFT(X, 2, 1)")
        .unwrap();
    let case = WriteCase::new(&mut s);
    let (x, c, r) = (case.x, case.c, case.r);
    let x0 = x.gather(&s.machine());
    let refused = |e: &RuntimeError| matches!(e, RuntimeError::Unfusable { .. });
    for depth in [2, 4] {
        let opts = exec_opts().with_temporal_depth(depth);
        let aliased = StencilBinding::new(&compiled, &c, &[&x], &[&c]).unwrap();
        let err = ExecutionPlan::build(&mut s.machine_mut(), &aliased, &opts).unwrap_err();
        assert!(refused(&err), "build: {err}");

        let clean = StencilBinding::new(&compiled, &r, &[&x], &[&c]).unwrap();
        let mut plan = ExecutionPlan::build(&mut s.machine_mut(), &clean, &opts).unwrap();
        assert_eq!(plan.temporal_depth(), depth);
        let err = ExecutionPlan::from_shared(plan.shared(), &aliased).unwrap_err();
        assert!(refused(&err), "from_shared: {err}");
        let err = plan.rebind(&c, &[&x], &[&c]).unwrap_err();
        assert!(refused(&err), "rebind: {err}");
        plan.execute(&mut s.machine_mut()).unwrap();
        let want = scalar_steps(&mut s, &compiled, &x0, &c, depth);
        assert!(
            bits_equal(&r.gather(&s.machine()), &want),
            "depth {depth}: a refused rebind must keep the old binding"
        );
        plan.release(&mut s.machine_mut());

        match s.run_with(&compiled, &c, &x, &[&c], &opts) {
            Err(SessionError::Runtime(e)) if refused(&e) => {}
            other => panic!("session: expected a refusal, got {other:?}"),
        }
    }

    let c0 = c.gather(&s.machine());
    let copy = s.array(c.rows(), c.cols()).unwrap();
    copy.scatter(&mut s.machine_mut(), &c0);
    let scalar = ExecOptions::fast()
        .with_engine(ExecEngine::Scalar)
        .with_threads(1);
    s.run_with(&compiled, &copy, &x, &[&copy], &scalar).unwrap();
    s.run_with(&compiled, &c, &x, &[&c], &exec_opts()).unwrap();
    assert!(!s.last_plan().unwrap().lane_mapped());
    assert!(
        bits_equal(&c.gather(&s.machine()), &copy.gather(&s.machine())),
        "a depth-1 aliased binding diverges from the scalar engine"
    );
}
