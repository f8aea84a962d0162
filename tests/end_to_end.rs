//! Integration tests spanning every crate: Fortran text in, verified
//! distributed results out, through all three front ends and all
//! execution options.

use cmcc::core::recognize::CoeffSpec;
use cmcc::prelude::*;
use cmcc::runtime::reference::{reference_convolve, CoeffValue};
use cmcc::runtime::ExchangePrimitive;
use cmcc::ExecOptions as Opts;

/// Builds arrays for a spec, runs the compiled stencil, and checks every
/// element against the reference evaluator, bit for bit. Returns the
/// measurement.
fn run_and_verify(session: &mut Session, compiled: &CompiledStencil, opts: &Opts) -> Measurement {
    let (rows, cols) = (12usize, 16usize);
    let x = session.array(rows, cols).unwrap();
    x.fill_with(&mut session.machine_mut(), |r, c| {
        ((r * 29 + c * 13) % 19) as f32 * 0.21 - 1.7
    });
    let mut arrays = Vec::new();
    for (i, c) in compiled.spec().coeffs.iter().enumerate() {
        if matches!(c, CoeffSpec::Named(_)) {
            let a = session.array(rows, cols).unwrap();
            a.fill_with(&mut session.machine_mut(), move |r, c| {
                ((r * 5 + c * 3 + i * 7) % 9) as f32 * 0.4 - 1.1
            });
            arrays.push(a);
        }
    }
    let r = session.array(rows, cols).unwrap();
    let refs: Vec<&CmArray> = arrays.iter().collect();
    let measurement = session.run_with(compiled, &r, &x, &refs, opts).unwrap();

    let x_host = x.gather(&session.machine());
    let hosts: Vec<Vec<f32>> = arrays
        .iter()
        .map(|a| a.gather(&session.machine()))
        .collect();
    let mut it = hosts.iter();
    let values: Vec<CoeffValue<'_>> = compiled
        .spec()
        .coeffs
        .iter()
        .map(|c| match c {
            CoeffSpec::Named(_) => CoeffValue::Array(it.next().unwrap()),
            CoeffSpec::Literal(v) => CoeffValue::Literal(*v),
        })
        .collect();
    let want = reference_convolve(compiled.stencil(), rows, cols, &x_host, &values);
    let got = r.gather(&session.machine());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "element ({}, {}): got {g}, want {w}",
            i / cols,
            i % cols
        );
    }
    measurement
}

#[test]
fn fortran_assignment_end_to_end() {
    let mut session = Session::tiny().unwrap();
    let compiled = session.compile(&PaperPattern::Cross5.fortran()).unwrap();
    let m = run_and_verify(&mut session, &compiled, &Opts::default());
    assert!(m.mflops(session.config()) > 0.0);
}

#[test]
fn subroutine_front_end_end_to_end() {
    // The paper's second implementation: the statement isolated in a
    // subroutine of its own (§6).
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
    let mut session = Session::tiny().unwrap();
    let compiled = session.compiler().compile_subroutine(src).unwrap();
    run_and_verify(&mut session, &compiled, &Opts::default());
}

#[test]
fn defstencil_front_end_end_to_end() {
    // The paper's first (Lisp) implementation front end.
    let src = "(defstencil cross (r x c1 c2 c3 c4 c5)
       (single-float single-float)
       (:= r (+ (* c1 (cshift x 1 -1))
                (* c2 (cshift x 2 -1))
                (* c3 x)
                (* c4 (cshift x 2 +1))
                (* c5 (cshift x 1 +1)))))";
    let mut session = Session::tiny().unwrap();
    let compiled = session.compiler().compile_defstencil(src).unwrap();
    run_and_verify(&mut session, &compiled, &Opts::default());
}

#[test]
fn three_front_ends_agree() {
    // The same stencil through all three front ends produces identical
    // results on identical inputs.
    let assignment = "R = C1 * CSHIFT(X, 1, -1) + C2 * X";
    let subroutine = "SUBROUTINE S (R, X, C1, C2)\nREAL, ARRAY(:,:) :: R, X, C1, C2\n\
                      R = C1 * CSHIFT(X, 1, -1) + C2 * X\nEND";
    let defstencil = "(defstencil s (r x c1 c2) (single-float single-float) \
          (:= r (+ (* c1 (cshift x 1 -1)) (* c2 x))))";
    let mut outputs = Vec::new();
    for (i, compiled) in [
        Session::tiny()
            .unwrap()
            .compiler()
            .compile_assignment(assignment)
            .unwrap(),
        Session::tiny()
            .unwrap()
            .compiler()
            .compile_subroutine(subroutine)
            .unwrap(),
        Session::tiny()
            .unwrap()
            .compiler()
            .compile_defstencil(defstencil)
            .unwrap(),
    ]
    .into_iter()
    .enumerate()
    {
        let mut session = Session::tiny().unwrap();
        let x = session.array(8, 8).unwrap();
        x.fill_with(&mut session.machine_mut(), |r, c| (r * 8 + c) as f32 * 0.3);
        let c1 = session.array(8, 8).unwrap();
        c1.fill(&mut session.machine_mut(), 0.7);
        let c2 = session.array(8, 8).unwrap();
        c2.fill(&mut session.machine_mut(), -0.4);
        let r = session.array(8, 8).unwrap();
        session.run(&compiled, &r, &x, &[&c1, &c2]).unwrap();
        outputs.push((i, r.gather(&session.machine())));
    }
    assert_eq!(outputs[0].1, outputs[1].1);
    assert_eq!(outputs[1].1, outputs[2].1);
}

#[test]
fn every_option_combination_is_functionally_identical() {
    let mut session = Session::tiny().unwrap();
    let compiled = session.compile(&PaperPattern::Square9.fortran()).unwrap();
    let mut baseline: Option<Vec<u32>> = None;
    for mode in [cmcc::cm2::ExecMode::Cycle, cmcc::cm2::ExecMode::Fast] {
        for half_strips in [true, false] {
            for primitive in [ExchangePrimitive::News, ExchangePrimitive::OldPerDirection] {
                for skip in [true, false] {
                    for threads in [1usize, 8] {
                        for engine in [cmcc::ExecEngine::Scalar, cmcc::ExecEngine::Lockstep] {
                            let opts = Opts {
                                mode,
                                engine,
                                half_strips,
                                primitive,
                                skip_corners_when_possible: skip,
                                threads,
                                temporal_depth: 1,
                            };
                            let (rows, cols) = (8usize, 8usize);
                            let x = session.array(rows, cols).unwrap();
                            x.fill_with(&mut session.machine_mut(), |r, c| {
                                ((r * 3 + c) % 7) as f32
                            });
                            let coeffs: Vec<CmArray> = (0..9)
                                .map(|i| {
                                    let a = session.array(rows, cols).unwrap();
                                    a.fill(&mut session.machine_mut(), (i as f32 - 4.0) * 0.1);
                                    a
                                })
                                .collect();
                            let refs: Vec<&CmArray> = coeffs.iter().collect();
                            let r = session.array(rows, cols).unwrap();
                            session.run_with(&compiled, &r, &x, &refs, &opts).unwrap();
                            let bits: Vec<u32> = r
                                .gather(&session.machine())
                                .iter()
                                .map(|v| v.to_bits())
                                .collect();
                            match &baseline {
                                None => baseline = Some(bits),
                                Some(b) => {
                                    assert_eq!(b, &bits, "options {opts:?} changed the result")
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn iterated_application_stays_exact() {
    // Apply a contraction stencil 50 times; compare against 50 host-side
    // reference applications, bit for bit.
    let mut session = Session::tiny().unwrap();
    let compiled = session
        .compile("R = 0.2 * CSHIFT(X, 1, -1) + 0.55 * X + 0.2 * CSHIFT(X, 2, +1)")
        .unwrap();
    let (rows, cols) = (8usize, 12usize);
    let x = session.array(rows, cols).unwrap();
    let r = session.array(rows, cols).unwrap();
    x.fill_with(&mut session.machine_mut(), |i, j| {
        ((i * j) % 13) as f32 - 6.0
    });
    let mut host = x.gather(&session.machine());

    let mut cur = x;
    let mut next = r;
    for _ in 0..50 {
        session
            .run_with(&compiled, &next, &cur, &[], &Opts::fast())
            .unwrap();
        std::mem::swap(&mut cur, &mut next);
        host = reference_convolve(
            compiled.stencil(),
            rows,
            cols,
            &host,
            &[CoeffValue::Literal(0.2), CoeffValue::Literal(0.55)],
        );
    }
    let got = cur.gather(&session.machine());
    for (g, w) in got.iter().zip(&host) {
        assert_eq!(g.to_bits(), w.to_bits());
    }
}

#[test]
fn eoshift_and_cshift_differ_only_at_global_edges() {
    let mut session = Session::tiny().unwrap();
    let circular = session.compile("R = 1.0 * CSHIFT(X, 1, -1)").unwrap();
    let zerofill = session.compile("R = 1.0 * EOSHIFT(X, 1, -1)").unwrap();
    let (rows, cols) = (8usize, 8usize);
    let x = session.array(rows, cols).unwrap();
    x.fill_with(&mut session.machine_mut(), |r, c| {
        (r * cols + c) as f32 + 1.0
    });
    let rc = session.array(rows, cols).unwrap();
    let rz = session.array(rows, cols).unwrap();
    session.run(&circular, &rc, &x, &[]).unwrap();
    session.run(&zerofill, &rz, &x, &[]).unwrap();
    let hc = rc.gather(&session.machine());
    let hz = rz.gather(&session.machine());
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            if r == 0 {
                assert_eq!(hz[i], 0.0, "zero-fill at the top edge");
                assert_eq!(hc[i], x.get(&session.machine(), rows - 1, c), "wraparound");
            } else {
                assert_eq!(hc[i].to_bits(), hz[i].to_bits(), "interior agrees");
            }
        }
    }
}

#[test]
fn awkward_shapes_run_correctly() {
    // Subgrids that are not multiples of 8 exercise the strip-shaving
    // rule (§5.3's "a subgrid one of whose axes is of length 21").
    let mut session = Session::tiny().unwrap();
    let compiled = session.compile(&PaperPattern::Cross5.fortran()).unwrap();
    for (rows, cols) in [(2usize, 42usize), (6, 26), (14, 10), (2, 2)] {
        let x = session.array(rows, cols).unwrap();
        x.fill_with(&mut session.machine_mut(), |r, c| ((r + 2 * c) % 5) as f32);
        let coeffs: Vec<CmArray> = (0..5)
            .map(|i| {
                let a = session.array(rows, cols).unwrap();
                a.fill(&mut session.machine_mut(), 0.2 * (i + 1) as f32);
                a
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let r = session.array(rows, cols).unwrap();
        session.run(&compiled, &r, &x, &refs).unwrap();

        let x_host = x.gather(&session.machine());
        let hosts: Vec<Vec<f32>> = coeffs
            .iter()
            .map(|a| a.gather(&session.machine()))
            .collect();
        let values: Vec<CoeffValue<'_>> = hosts.iter().map(|h| CoeffValue::Array(h)).collect();
        let want = reference_convolve(compiled.stencil(), rows, cols, &x_host, &values);
        let got = r.gather(&session.machine());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "{rows}x{cols}");
        }
    }
}

#[test]
fn measurements_accumulate_consistently() {
    let mut session = Session::tiny().unwrap();
    let compiled = session.compile("R = 0.5 * X").unwrap();
    let x = session.array(8, 8).unwrap();
    let r = session.array(8, 8).unwrap();
    let one = session.run(&compiled, &r, &x, &[]).unwrap();
    let hundred = one.repeated(100);
    assert_eq!(hundred.useful_flops, one.useful_flops * 100);
    // Rates are invariant under repetition and scale linearly under
    // extrapolation.
    let rate1 = one.mflops(session.config());
    let rate100 = hundred.mflops(session.config());
    assert!((rate1 - rate100).abs() < 1e-9);
    let big = one.extrapolate(2048);
    assert!((big.mflops(session.config()) / rate1 - 512.0).abs() < 1e-6);
}
