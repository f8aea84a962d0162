//! Ablation studies for the design choices the paper calls out
//! (experiments A1–A5 in DESIGN.md).
//!
//! ```sh
//! cargo run --release -p cmcc-bench --bin repro_ablations            # all
//! cargo run --release -p cmcc-bench --bin repro_ablations -- --width # one
//! ```
//!
//! * `--corner-skip` — §5.1: skipping the corner-exchange step for
//!   patterns with no diagonal taps.
//! * `--comm` — §4.1: the new simultaneous four-neighbor primitive vs the
//!   old one-direction-at-a-time primitive.
//! * `--width` — §5.3: multistencil width 8/4/2/1.
//! * `--rings` — §5.4: per-column ring buffers vs naive bounding-box row
//!   rings.
//! * `--half-strips` — §5.2: half-strips (simple microcode, double
//!   startup) vs full strips.
//! * `--pairing` — §5.3: paired-result thread interleave vs one chain at
//!   a time.

use cmcc_bench::Workload;
use cmcc_cm2::config::{MachineConfig, FPU_REGISTERS};
use cmcc_cm2::news::ExchangePrimitive;
use cmcc_core::columns::plan_rings;
use cmcc_core::compiler::Compiler;
use cmcc_core::multistencil::Multistencil;
use cmcc_core::patterns::PaperPattern;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "--all");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);

    if want("--corner-skip") {
        corner_skip();
    }
    if want("--comm") {
        comm_primitive();
    }
    if want("--width") {
        width_sweep();
    }
    if want("--rings") {
        ring_strategies();
    }
    if want("--half-strips") {
        half_strips();
    }
    if want("--pairing") {
        pairing();
    }
}

fn cfg() -> MachineConfig {
    MachineConfig::test_board_16()
}

/// A6 — paired results (§5.3): "we compute the results in pairs in order
/// to exploit the timing of the WTL3164 chip; two chained multiply-add
/// threads are interleaved." The counterfactual runs one chain at a time
/// against a dummy partner thread.
fn pairing() {
    println!("A6: paired vs single-thread multiply-add chains (256x256 subgrids)\n");
    println!(
        "{:<18} {:>14} {:>14} {:>8}",
        "pattern", "paired Mflops", "single Mflops", "ratio"
    );
    for pattern in PaperPattern::TABLE {
        let mut w = Workload::new(cfg(), pattern, (256, 256));
        let paired = w.measure();
        let single_compiler = Compiler::new(cfg()).with_paired_results(false);
        w.compiled = single_compiler
            .compile_assignment(&pattern.fortran())
            .expect("compiles unpaired");
        let single = w.measure();
        let p = paired.mflops(w.machine.config());
        let s = single.mflops(w.machine.config());
        println!(
            "{:<18} {:>14.1} {:>14.1} {:>7.2}x",
            pattern.name(),
            p,
            s,
            p / s
        );
    }
    println!("\n(the interleave is what lets both FPU threads stay busy: dropping it\n roughly halves the multiply-add throughput)\n");
}

/// A1 — corner-exchange skip (§5.1): "This saves only a very small amount
/// of time for very large arrays, but ... does save a noticeable amount
/// of time for smaller arrays."
fn corner_skip() {
    println!("A1: corner-exchange skip (comm cycles per iteration)\n");
    println!(
        "{:<18} {:>9} {:>12} {:>12} {:>9}",
        "pattern", "subgrid", "with corners", "skipped", "saved"
    );
    for pattern in [PaperPattern::Cross5, PaperPattern::Square9] {
        for subgrid in [(64usize, 64usize), (256, 256)] {
            let skip = Workload::new(cfg(), pattern, subgrid).measure();
            let noskip = Workload::new(
                MachineConfig {
                    skip_corners_when_possible: false,
                    ..cfg()
                },
                pattern,
                subgrid,
            )
            .measure();
            let saved = noskip.cycles.comm.saturating_sub(skip.cycles.comm);
            println!(
                "{:<18} {:>4}x{:<4} {:>12} {:>12} {:>9}",
                pattern.name(),
                subgrid.0,
                subgrid.1,
                noskip.cycles.comm,
                skip.cycles.comm,
                saved
            );
        }
    }
    println!("\n(the square pattern has diagonal taps, so its corner step can never be skipped)\n");
}

/// A2 — new vs old grid primitive (§4.1).
fn comm_primitive() {
    println!("A2: four-neighbor simultaneous exchange vs per-direction exchange\n");
    println!(
        "{:<28} {:>7} {:>12} {:>12} {:>8}",
        "pattern", "border", "new (cycles)", "old (cycles)", "ratio"
    );
    let wide3 = "R = C1 * CSHIFT(X, 1, -3) + C2 * X + C3 * CSHIFT(X, 2, +3)";
    let cases: [(&str, String); 3] = [
        ("5-point cross (border 1)", PaperPattern::Cross5.fortran()),
        ("9-point star (border 2)", PaperPattern::Star9.fortran()),
        ("axis pattern (border 3)", wide3.to_owned()),
    ];
    for (name, source) in cases {
        let mut w = Workload::from_source(cfg(), &source, (128, 128));
        let new = w.measure();
        let old = Workload::from_source(
            MachineConfig {
                primitive: ExchangePrimitive::OldPerDirection,
                ..cfg()
            },
            &source,
            (128, 128),
        )
        .measure();
        println!(
            "{:<28} {:>7} {:>12} {:>12} {:>7.2}x",
            name,
            w.compiled.stencil().borders().max_width(),
            new.cycles.comm,
            old.cycles.comm,
            old.cycles.comm as f64 / new.cycles.comm.max(1) as f64
        );
    }
    println!();
}

/// A3 — multistencil width (§5.3): wider strips amortize loads and
/// stores over more results.
fn width_sweep() {
    println!("A3: multistencil width sweep (256x256 subgrids, Mflops on 16 nodes)\n");
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8}",
        "pattern", "w=8", "w=4", "w=2", "w=1"
    );
    for pattern in PaperPattern::TABLE {
        let mut row = format!("{:<18}", pattern.name());
        for width in [8usize, 4, 2, 1] {
            let compiler = Compiler::new(cfg()).with_widths([width]);
            match compiler.compile_assignment(&pattern.fortran()) {
                Ok(compiled) => {
                    let mut w = Workload::new(cfg(), pattern, (256, 256));
                    w.compiled = compiled;
                    let m = w.measure();
                    row.push_str(&format!(" {:>8.1}", m.mflops(w.machine.config())));
                }
                Err(_) => row.push_str(&format!(" {:>8}", "-")),
            }
        }
        println!("{row}");
    }
    println!("\n(\"-\" = no kernel at that width: register file exhausted)\n");
}

/// A4 — ring-buffer strategy (§5.4): per-column rings vs the naive
/// bounding-box-row scheme.
fn ring_strategies() {
    println!("A4: register demand, per-column rings vs bounding-box rows\n");
    println!(
        "{:<18} {:>5} {:>10} {:>12} {:>12} {:>8}",
        "pattern", "width", "bbox rows", "rows demand", "rings demand", "unroll"
    );
    for pattern in PaperPattern::TABLE {
        let stencil = pattern.stencil();
        let budget = FPU_REGISTERS - 1 - usize::from(stencil.needs_one_register());
        for width in [8usize, 4] {
            let ms = Multistencil::new(&stencil, width);
            let cols = ms.columns();
            let bbox_cols = cols.len();
            let lo = cols.iter().map(|c| c.lo).min().expect("nonempty");
            let hi = cols.iter().map(|c| c.hi).max().expect("nonempty");
            let bbox_rows = (hi - lo + 1) as usize;
            let rows_demand = bbox_cols * bbox_rows;
            match plan_rings(&ms, budget, 512) {
                Ok(plan) => println!(
                    "{:<18} {:>5} {:>10} {:>12} {:>12} {:>8}",
                    pattern.name(),
                    width,
                    bbox_rows,
                    rows_demand,
                    plan.registers_used(),
                    plan.unroll()
                ),
                Err(_) => println!(
                    "{:<18} {:>5} {:>10} {:>12} {:>12} {:>8}",
                    pattern.name(),
                    width,
                    bbox_rows,
                    rows_demand,
                    "reject",
                    "-"
                ),
            }
        }
    }
    println!(
        "\n(the diamond at width 4: bounding-box rows would need 40 registers — \"dividing \
         it into five equal rows of eight positions each would require 40 registers\" — \
         while per-column rings fit; §5.4)\n"
    );
}

/// A5 — half-strips vs full strips (§5.2): half-strips double the
/// startup count but keep the microcode simple; full strips are the
/// counterfactual.
fn half_strips() {
    println!("A5: half-strips vs full strips (compute + front-end cycles per iteration)\n");
    println!(
        "{:<9} {:>14} {:>14} {:>10}",
        "subgrid", "half-strips", "full strips", "overhead"
    );
    for subgrid in [(16usize, 16usize), (64, 64), (256, 256)] {
        let half = Workload::new(cfg(), PaperPattern::Cross5, subgrid).measure();
        let full = Workload::new(
            MachineConfig {
                half_strips: false,
                ..cfg()
            },
            PaperPattern::Cross5,
            subgrid,
        )
        .measure();
        let h = half.cycles.compute + half.cycles.frontend;
        let f = full.cycles.compute + full.cycles.frontend;
        println!(
            "{:>4}x{:<4} {:>14} {:>14} {:>9.1}%",
            subgrid.0,
            subgrid.1,
            h,
            f,
            100.0 * (h as f64 - f as f64) / f as f64
        );
    }
    println!(
        "\n(\"The price of this is additional overhead for having to start up the microcode \
         loop twice as many times; this overhead is relatively small when operating on \
         medium to large arrays\" — §5.2)\n"
    );
}
