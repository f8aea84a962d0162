//! A new session touches only the node memory it uses.
//!
//! The test board gives each of its 16 nodes 16 MiB, and a 512² workload
//! touches a few percent of that. Peak resident memory should follow
//! what a session touches, also from the third session in a process on,
//! whose node memory an allocator could otherwise serve from heap blocks
//! an earlier session freed, zeroing all 256 MiB of it again.
//!
//! This file holds one test, so it runs in a process of its own and the
//! peak (`VmHWM`) it reads is this test's alone.

#![cfg(target_os = "linux")]

use cmcc::{ExecEngine, ExecOptions, Session};

/// This process's peak resident memory, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

/// Six test-board sessions, one after another, each scattering a 512²
/// array, running one lane execute and keeping its gathered result —
/// what a benchmark or a service building a session per job does.
#[test]
fn six_test_board_sessions_touch_only_what_they_use() {
    const EDGE: usize = 512;
    let x0: Vec<f32> = (0..EDGE * EDGE).map(|i| (i % 97) as f32 * 0.25).collect();
    let opts = ExecOptions::fast()
        .with_engine(ExecEngine::Lockstep)
        .with_threads(1);
    let mut results = Vec::new();
    for _ in 0..6 {
        let mut session = Session::test_board().unwrap();
        let blur = session
            .compile("R = 0.25 * CSHIFT(X, 1, -1) + 0.5 * X + 0.25 * CSHIFT(X, 2, +1)")
            .unwrap();
        let x = session.array(EDGE, EDGE).unwrap();
        let r = session.array(EDGE, EDGE).unwrap();
        x.scatter(&mut session.machine_mut(), &x0);
        session.run_with(&blur, &r, &x, &[], &opts).unwrap();
        assert!(session.last_plan().is_some_and(|p| p.lane_mapped()));
        results.push(r.gather(&session.machine()));
    }
    assert!(results.windows(2).all(|pair| pair[0] == pair[1]));
    let peak = peak_rss_mib();
    assert!(
        peak < 128.0,
        "peak RSS {peak:.1} MiB after six 16-node sessions"
    );
}
