//! End-to-end tests of the `cmcc` command-line driver.

use std::io::Write;
use std::process::{Command, Stdio};

fn cmcc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cmcc"))
}

fn run_stdin(args: &[&str], source: &str) -> (String, String, i32) {
    let mut child = cmcc()
        .args(args)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("driver spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(source.as_bytes())
        .expect("write source");
    let out = child.wait_with_output().expect("driver exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn compiles_a_clean_statement() {
    let (stdout, _, code) = run_stdin(
        &[],
        "R = C1 * CSHIFT(X, 1, -1) + C2 * X + C3 * CSHIFT(X, 1, +1)\n",
    );
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("1 compiled, 0 warnings"), "{stdout}");
    assert!(stdout.contains("widths [8, 4, 2, 1]"), "{stdout}");
}

#[test]
fn warns_on_flagged_failures_with_nonzero_exit() {
    let (stdout, _, code) = run_stdin(&[], "!CMF$ STENCIL\nR = A - B\n");
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("warning"), "{stdout}");
    assert!(stdout.contains("subtraction"), "{stdout}");
}

#[test]
fn runs_and_verifies_with_run_flag() {
    let (stdout, stderr, code) = run_stdin(
        &["--run", "--subgrid", "8x8"],
        "R = 0.5 * CSHIFT(X, 2, 1) + 0.5 * X\n",
    );
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("[verified bit-exact]"), "{stdout}");
    assert!(stdout.contains("Mflops"), "{stdout}");
}

/// `--engine` selects the fast-mode engine, so either value runs
/// functionally; only a run without it keeps the cycle model.
#[test]
fn engine_flag_selects_a_fast_mode_engine() {
    let source = "R = 0.5 * CSHIFT(X, 2, 1) + 0.5 * X\n";
    let run = |extra: &[&str]| {
        let args: Vec<&str> = ["--run", "--subgrid", "8x8"]
            .iter()
            .chain(extra)
            .copied()
            .collect();
        let (stdout, stderr, code) = run_stdin(&args, source);
        assert_eq!(code, 0, "{extra:?}\nstdout: {stdout}\nstderr: {stderr}");
        assert!(
            stdout.contains("[verified bit-exact]"),
            "{extra:?}: {stdout}"
        );
        stdout
    };
    let scalar = run(&["--engine", "scalar"]);
    assert!(
        scalar.contains("functional (scalar) [scalar engine requested]"),
        "{scalar}"
    );
    assert!(!scalar.contains("cycles"), "{scalar}");
    let default = run(&[]);
    assert!(default.contains(" cycles, "), "{default}");
    let lockstep = run(&["--engine", "lockstep", "--threads", "2"]);
    assert!(
        lockstep.contains("functional (lockstep, lane-resident)"),
        "{lockstep}"
    );
}

#[test]
fn multi_directive_compiles_fused_statements() {
    let (stdout, _, code) = run_stdin(
        &["--run", "--subgrid", "8x8"],
        "!CMF$ STENCIL MULTI\nR = 0.5 * CSHIFT(U, 1, -1) + 0.5 * CSHIFT(V, 2, +1)\n",
    );
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("[verified bit-exact]"), "{stdout}");
}

#[test]
fn parse_errors_render_to_stderr() {
    let (_, stderr, code) = run_stdin(&[], "R = C1 *\n");
    assert_ne!(code, 0);
    assert!(stderr.contains("error"), "{stderr}");
}

/// A `--serve` line nested far past the parser's limit is refused on
/// every tenant thread with its parse error, instead of overflowing the
/// thread's stack and aborting every tenant: the other lines are
/// served, and the batch exits 0.
#[test]
fn serve_refuses_a_too_deep_line_and_serves_the_rest() {
    let deep = format!("R = {}X{}", "(".repeat(10_000), ")".repeat(10_000));
    let batch = format!(
        "R = 0.5 * CSHIFT(X, 2, 1) + 0.5 * X\n{deep}\nR = 0.25 * CSHIFT(X, 1, -1) + 0.75 * X\n"
    );
    let (stdout, stderr, code) =
        run_stdin(&["--serve", "--workers", "2", "--subgrid", "8x8"], &batch);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    for tenant in 0..2 {
        assert!(
            stderr.contains(&format!(
                "tenant {tenant}: refused statement 2: parse error: expression nested more than"
            )),
            "{stderr}"
        );
        assert!(
            stdout.contains(&format!("tenant {tenant}: 2 statements, 2 runs")),
            "{stdout}"
        );
    }
}

#[test]
fn missing_file_is_reported() {
    let out = cmcc()
        .arg("/nonexistent/path.f90")
        .output()
        .expect("driver runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn bad_usage_exits_2() {
    let out = cmcc().arg("--bogus-flag").output().expect("driver runs");
    assert_eq!(out.status.code(), Some(2));
}
