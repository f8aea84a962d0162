//! Assertions of the paper's concrete, checkable claims — the repository
//! fails to build trust if any of these drifts.

use cmcc::core::columns::plan_rings;
use cmcc::core::multistencil::Multistencil;
use cmcc::prelude::*;
use cmcc_bench::{paper_reference, Workload, TABLE_SUBGRIDS};

/// §5.3: "It spans only 26 array positions; therefore only 26 data
/// elements need be loaded in order to compute eight results" (vs the
/// naive 40 loads).
#[test]
fn claim_cross_multistencil_saves_loads() {
    let cross = PaperPattern::Cross5.stencil();
    let ms = Multistencil::new(&cross, 8);
    assert_eq!(ms.cell_count(), 26);
    assert_eq!(8 * cross.taps().len(), 40);
}

/// §5.3: "A width-8 multistencil would require 48 registers, but the
/// width-4 multistencil requires only 28 registers and therefore works
/// just fine."
#[test]
fn claim_diamond_register_demands() {
    let diamond = PaperPattern::Diamond13.stencil();
    assert_eq!(Multistencil::new(&diamond, 8).natural_register_demand(), 48);
    assert_eq!(Multistencil::new(&diamond, 4).natural_register_demand(), 28);
    let compiled = Compiler::default()
        .compile_assignment(&PaperPattern::Diamond13.fortran())
        .unwrap();
    assert_eq!(compiled.widths(), vec![4, 2, 1]);
}

/// §5.4: "The compiler must unroll the loop of register access patterns
/// 15 times in this example, because 15 is the LCM of the ring buffers'
/// sizes 5, 3, and 1."
#[test]
fn claim_diamond_unrolls_fifteen() {
    let diamond = PaperPattern::Diamond13.stencil();
    let ms = Multistencil::new(&diamond, 4);
    let plan = plan_rings(&ms, 31, 512).unwrap();
    let sizes: std::collections::BTreeSet<usize> = plan.rings().iter().map(|r| r.size).collect();
    assert_eq!(sizes, [1usize, 3, 5].into_iter().collect());
    assert_eq!(plan.unroll(), 15);
}

/// §7: the 5-point cross "is counted as 9 floating-point operations
/// (5 multiplies and 4 adds), despite the fact that it is executed on the
/// CM-2 as 5 multiply-add steps."
#[test]
fn claim_flop_counting_rule() {
    assert_eq!(PaperPattern::Cross5.stencil().useful_flops_per_point(), 9);
    assert_eq!(PaperPattern::Cross5.stencil().chain_len(), 5);
}

/// §5.3: "a subgrid one of whose axes is of length 21 might be processed
/// as two strips of width 8, one strip of width 4, and one strip of
/// width 1" — and for the diamond, "five strips of width 4 and a strip
/// of width 1."
#[test]
fn claim_strip_shaving_examples() {
    let cross = Compiler::default()
        .compile_assignment(&PaperPattern::Cross5.fortran())
        .unwrap();
    let widths: Vec<usize> = cmcc::runtime::plan_strips(&cross, 21)
        .iter()
        .map(|s| s.width)
        .collect();
    assert_eq!(widths, vec![8, 8, 4, 1]);

    let diamond = Compiler::default()
        .compile_assignment(&PaperPattern::Diamond13.fortran())
        .unwrap();
    let widths: Vec<usize> = cmcc::runtime::plan_strips(&diamond, 21)
        .iter()
        .map(|s| s.width)
        .collect();
    assert_eq!(widths, vec![4, 4, 4, 4, 4, 1]);
}

/// §5.1: the asymmetric example's border widths: East 1, North 2,
/// South 0, West 3.
#[test]
fn claim_asymmetric_border_widths() {
    // The §5.1 figure's pattern (distinct from §2's asymmetric example):
    // East 1, North 2, South 0, West 3.
    let s = cmcc::core::Stencil::from_offsets(
        [(0, 1), (-2, 0), (-1, -1), (0, -3), (0, 0)],
        cmcc::core::Boundary::Circular,
    )
    .unwrap();
    let b = s.borders();
    assert_eq!(b.east, 1);
    assert_eq!(b.north, 2);
    assert_eq!(b.south, 0);
    assert_eq!(b.west, 3);
}

/// Headline: "a large number of stencil-based applications will run
/// faster than 10 gigaflops with this technology" — our simulated
/// machine reproduces >10 Gflops (extrapolated to 2,048 nodes) for the
/// dense 9-point and 13-point patterns at the largest table subgrid.
#[test]
fn claim_ten_gigaflops() {
    for pattern in [PaperPattern::Square9, PaperPattern::Diamond13] {
        let mut w = Workload::new(MachineConfig::test_board_16(), pattern, (256, 256));
        let m = w.measure().extrapolate(2048);
        let gflops = m.gflops(w.machine.config());
        assert!(gflops > 10.0, "{pattern} reached only {gflops:.2} Gflops");
    }
}

/// Table shape: within every pattern block, the sustained rate grows
/// with the subgrid area (communication and startup amortize — the §4.1
/// square-root argument).
#[test]
fn claim_rates_grow_with_subgrid_area() {
    for pattern in PaperPattern::TABLE {
        let mut last = 0.0;
        for subgrid in [(64usize, 64usize), (128, 128), (256, 256)] {
            let mut w = Workload::new(MachineConfig::test_board_16(), pattern, subgrid);
            let rate = w.measure().mflops(w.machine.config());
            assert!(
                rate > last,
                "{pattern} at {subgrid:?}: {rate:.1} did not improve on {last:.1}"
            );
            last = rate;
        }
    }
}

/// Table agreement: every simulated cell lands within 25% of the paper's
/// measured value — except the paper's own 64×128 rows, which are
/// internally inconsistent with their blocks (see EXPERIMENTS.md §T1's
/// shape assessment) and get a loose 45% sanity bound — and the
/// large-subgrid cells land within 10%.
#[test]
fn claim_table_rates_track_the_paper() {
    for pattern in PaperPattern::TABLE {
        for subgrid in TABLE_SUBGRIDS {
            let Some((paper_mflops, _)) = paper_reference(pattern, subgrid) else {
                continue;
            };
            let mut w = Workload::new(MachineConfig::test_board_16(), pattern, subgrid);
            let sim = w.measure().mflops(w.machine.config());
            let rel = (sim - paper_mflops).abs() / paper_mflops;
            let bound = if subgrid == (64, 128) { 0.45 } else { 0.25 };
            assert!(
                rel < bound,
                "{pattern} {subgrid:?}: simulated {sim:.1} vs paper {paper_mflops:.1} ({:.0}% off)",
                rel * 100.0
            );
            if subgrid == (256, 256) {
                assert!(
                    rel < 0.10,
                    "{pattern} 256x256: simulated {sim:.1} vs paper {paper_mflops:.1}"
                );
            }
        }
    }
}

/// History ladder: generic slicewise < 1989 hand library < compiler, at
/// roughly the paper's factors (4 : 5.6 : >10).
#[test]
fn claim_three_generation_ladder() {
    use cmcc::baseline::{handlib_convolve, slicewise_convolve};
    let cfg = MachineConfig::test_board_16();
    let spec = PaperPattern::Star9.spec().unwrap();
    let mut machine = Machine::new(cfg.clone()).unwrap();
    let (rows, cols) = (4 * 256, 4 * 256);
    let x = CmArray::new(&mut machine, rows, cols).unwrap();
    let r = CmArray::new(&mut machine, rows, cols).unwrap();
    let coeffs: Vec<CmArray> = (0..9)
        .map(|_| CmArray::new(&mut machine, rows, cols).unwrap())
        .collect();
    let refs: Vec<&CmArray> = coeffs.iter().collect();
    let slice = slicewise_convolve(&mut machine, &spec, &r, &x, &refs)
        .unwrap()
        .extrapolate(2048)
        .gflops(&cfg);
    let hand = handlib_convolve(&mut machine, &spec, &r, &x, &refs)
        .unwrap()
        .extrapolate(2048)
        .gflops(&cfg);
    let mut w = Workload::new(cfg.clone(), PaperPattern::Star9, (256, 256));
    let compiled = w.measure().extrapolate(2048).gflops(&cfg);
    assert!(
        slice < hand && hand < compiled,
        "{slice:.2} / {hand:.2} / {compiled:.2}"
    );
    assert!((3.0..5.5).contains(&slice), "slicewise {slice:.2}");
    assert!((4.5..7.0).contains(&hand), "hand library {hand:.2}");
    assert!(compiled > 9.0, "compiler {compiled:.2}");
}

/// §7 Gordon Bell rows: unrolling the main loop by three beats the
/// copy-based loop (paper: 14.88 vs 11.62 Gflops).
#[test]
fn claim_unrolled_seismic_loop_wins() {
    use cmcc::baseline::{elementwise_copy, elementwise_multiply_add};
    let mut w = Workload::new(
        MachineConfig::test_board_16(),
        PaperPattern::Star9,
        (64, 128),
    );
    let stencil_only = w.measure();
    let rows = w.x.rows();
    let cols = w.x.cols();
    let c10 = CmArray::new(&mut w.machine, rows, cols).unwrap();
    let p2 = CmArray::new(&mut w.machine, rows, cols).unwrap();
    let tenth = elementwise_multiply_add(&mut w.machine, &w.r, &c10, &p2).unwrap();
    let copies = elementwise_copy(&mut w.machine, &p2, &w.x)
        .unwrap()
        .combine(&elementwise_copy(&mut w.machine, &w.x, &w.r).unwrap());
    let v1 = stencil_only.combine(&tenth).combine(&copies);
    let v2 = stencil_only.combine(&tenth);
    let cfg = w.machine.config();
    assert!(v2.mflops(cfg) / v1.mflops(cfg) > 1.08);
}

/// §5.1: corner exchange skipped for the cross saves communication; the
/// saving is flat while total communication grows with the subgrid (so
/// it matters more for small arrays — the paper's observation).
#[test]
fn claim_corner_skip_matters_more_for_small_arrays() {
    let noskip = MachineConfig {
        skip_corners_when_possible: false,
        ..MachineConfig::test_board_16()
    };
    let comm = |cfg: MachineConfig, subgrid| {
        Workload::new(cfg, PaperPattern::Cross5, subgrid)
            .measure()
            .cycles
            .comm
    };
    let s_skip = comm(MachineConfig::test_board_16(), (64, 64));
    let s_noskip = comm(noskip.clone(), (64, 64));
    let b_skip = comm(MachineConfig::test_board_16(), (256, 256));
    let b_noskip = comm(noskip, (256, 256));
    let saved_small = (s_noskip - s_skip) as f64 / s_noskip as f64;
    let saved_big = (b_noskip - b_skip) as f64 / b_noskip as f64;
    assert!(saved_small > saved_big);
    assert!(s_noskip > s_skip);
}
