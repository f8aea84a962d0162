//! Property-based tests: for *arbitrary* stencils in the compiler's
//! domain, compiled execution on the simulated machine must match the
//! host-side reference evaluator bit for bit, across widths, walks,
//! boundaries, subgrid shapes — and host thread counts.

use cmcc::cm2::{Machine, MachineConfig};
use cmcc::core::columns::{gcd, lcm, plan_rings};
use cmcc::core::multistencil::Multistencil;
use cmcc::core::stencil::{Boundary, CoeffRef, Stencil, Tap};
use cmcc::core::{CompileError, Compiler};
use cmcc::runtime::reference::{reference_convolve, reference_convolve_multi, CoeffValue};
use cmcc::runtime::{convolve, convolve_multi, CmArray, ExecOptions, RuntimeError};
use cmcc_testkit::{property, Rng};

/// An arbitrary stencil: 1..=8 taps (duplicates allowed — they are legal
/// terms), coefficient arrays or unit coefficients, optional bias, either
/// boundary.
fn gen_stencil(rng: &mut Rng) -> (Stencil, usize) {
    let n_taps = rng.usize_in(1, 9);
    let mut taps = Vec::new();
    let mut n_coeffs = 0;
    for _ in 0..n_taps {
        let dr = rng.i32_in(-2, 2);
        let dc = rng.i32_in(-2, 2);
        if rng.bool() {
            taps.push(Tap::unit(dr, dc));
        } else {
            taps.push(Tap::new(dr, dc, n_coeffs));
            n_coeffs += 1;
        }
    }
    let bias_terms = if rng.bool() {
        n_coeffs += 1;
        vec![n_coeffs - 1]
    } else {
        Vec::new()
    };
    let boundary = if rng.bool() {
        Boundary::Circular
    } else {
        Boundary::ZeroFill
    };
    let stencil =
        Stencil::new(taps, bias_terms, boundary, n_coeffs).expect("nonempty by construction");
    (stencil, n_coeffs)
}

/// Renders a stencil back to Fortran so the test exercises the whole
/// pipeline, front end included (the production unparser).
fn to_fortran(stencil: &Stencil) -> String {
    cmcc::core::unparse::unparse_stencil(stencil)
}

/// Deterministic per-element data: a hash mix, not the RNG, so reruns of
/// the same case see the same arrays regardless of call order.
fn mix(i: usize, s: u64) -> f32 {
    let h = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(s);
    ((h >> 32) as i32 % 1000) as f32 * 0.01
}

/// Compiles an arbitrary stencil and runs it on random data with the
/// given options; returns `(source, got, want)` unless the case hit a
/// legal refusal (register exhaustion, halo deeper than the subgrid).
fn run_arbitrary_stencil(
    rng: &mut Rng,
    opts: &ExecOptions,
) -> Option<(String, Stencil, Vec<f32>, Vec<f32>)> {
    let (stencil, n_coeffs) = gen_stencil(rng);
    let seed = rng.u64_below(1000);
    let source = to_fortran(&stencil);
    let compiler = Compiler::new(MachineConfig::tiny_4());
    let compiled = match compiler.compile_assignment(&source) {
        Ok(c) => c,
        // Register exhaustion is a legal outcome for big footprints.
        Err(CompileError::NoFeasibleWidth { .. }) => return None,
        Err(e) => panic!("unexpected compile error on `{source}`: {e}"),
    };
    // The recognizer must reconstruct the same taps.
    assert_eq!(compiled.stencil().taps(), stencil.taps());
    // The boundary discipline is only observable (and only rendered)
    // when some tap actually shifts.
    if stencil
        .taps()
        .iter()
        .any(|t| t.offset != cmcc::core::Offset::CENTER)
    {
        assert_eq!(compiled.stencil().boundary(), stencil.boundary());
    }

    let mut machine = Machine::new(MachineConfig::tiny_4()).unwrap();
    let (rows, cols) = (8usize, 12usize);
    let x = CmArray::new(&mut machine, rows, cols).unwrap();
    let data: Vec<f32> = (0..rows * cols).map(|i| mix(i, seed)).collect();
    x.scatter(&mut machine, &data);
    let coeff_arrays: Vec<CmArray> = (0..n_coeffs)
        .map(|a| {
            let arr = CmArray::new(&mut machine, rows, cols).unwrap();
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| mix(i + a * 7919, seed ^ 0xABCD))
                .collect();
            arr.scatter(&mut machine, &data);
            arr
        })
        .collect();
    let r = CmArray::new(&mut machine, rows, cols).unwrap();
    let refs: Vec<&CmArray> = coeff_arrays.iter().collect();

    match convolve(&mut machine, &compiled, &r, &x, &refs, opts) {
        Ok(_) => {}
        // Halo deeper than the subgrid is a legal refusal.
        Err(RuntimeError::SubgridTooSmall { .. }) => return None,
        Err(e) => panic!("runtime error on `{source}`: {e}"),
    }

    let hosts: Vec<Vec<f32>> = coeff_arrays.iter().map(|a| a.gather(&machine)).collect();
    let values: Vec<CoeffValue<'_>> = hosts.iter().map(|h| CoeffValue::Array(h)).collect();
    let want = reference_convolve(&stencil, rows, cols, &data, &values);
    let got = r.gather(&machine);
    Some((source, stencil, got, want))
}

/// The central soundness property: compile(fortran(stencil)) executed
/// on the machine equals the reference evaluation, bit for bit.
#[test]
fn compiled_execution_matches_reference() {
    property("compiled_execution_matches_reference", 48, |rng| {
        let Some((source, _, got, want)) = run_arbitrary_stencil(rng, &ExecOptions::default())
        else {
            return;
        };
        let cols = 12;
        for i in 0..want.len() {
            assert_eq!(
                got[i].to_bits(),
                want[i].to_bits(),
                "`{}` at ({}, {}): got {}, want {}",
                source,
                i / cols,
                i % cols,
                got[i],
                want[i]
            );
        }
    });
}

/// The tentpole's soundness property: the *threaded* executor matches
/// the reference evaluator bit for bit too, at several thread counts
/// (including more threads than nodes).
#[test]
fn parallel_execution_matches_reference() {
    property("parallel_execution_matches_reference", 32, |rng| {
        let threads = *rng.pick(&[2usize, 3, 8]);
        let opts = ExecOptions::default().with_threads(threads);
        let Some((source, _, got, want)) = run_arbitrary_stencil(rng, &opts) else {
            return;
        };
        for i in 0..want.len() {
            assert_eq!(
                got[i].to_bits(),
                want[i].to_bits(),
                "`{source}` with {threads} threads at flat index {i}"
            );
        }
    });
}

/// Repeated runs of the same workload yield *identical* `Measurement`s,
/// whatever the thread count: cycle accounting is deterministic and
/// thread-count invariant.
#[test]
fn measurements_are_thread_count_invariant() {
    property("measurements_are_thread_count_invariant", 16, |rng| {
        let (stencil, n_coeffs) = gen_stencil(rng);
        let source = to_fortran(&stencil);
        let compiler = Compiler::new(MachineConfig::tiny_4());
        let Ok(compiled) = compiler.compile_assignment(&source) else {
            return;
        };
        let mut machine = Machine::new(MachineConfig::tiny_4()).unwrap();
        let (rows, cols) = (8usize, 8usize);
        let x = CmArray::new(&mut machine, rows, cols).unwrap();
        x.fill_with(&mut machine, |r, c| ((r * 13 + c * 3) % 19) as f32 - 9.0);
        let coeffs: Vec<CmArray> = (0..n_coeffs)
            .map(|a| {
                let arr = CmArray::new(&mut machine, rows, cols).unwrap();
                arr.fill_with(&mut machine, move |r, c| {
                    ((r + 2 * c + a) % 5) as f32 * 0.25
                });
                arr
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let r = CmArray::new(&mut machine, rows, cols).unwrap();

        let Ok(serial) = convolve(
            &mut machine,
            &compiled,
            &r,
            &x,
            &refs,
            &ExecOptions::serial(),
        ) else {
            return;
        };
        let serial_out = r.gather(&machine);
        for threads in [2usize, 8] {
            let opts = ExecOptions::default().with_threads(threads);
            let a = convolve(&mut machine, &compiled, &r, &x, &refs, &opts).unwrap();
            let b = convolve(&mut machine, &compiled, &r, &x, &refs, &opts).unwrap();
            assert_eq!(
                a, serial,
                "`{source}`: measurement differs at {threads} threads"
            );
            assert_eq!(
                a, b,
                "`{source}`: repeated run differs at {threads} threads"
            );
            let out = r.gather(&machine);
            assert_eq!(
                serial_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "`{source}`: results differ at {threads} threads"
            );
        }
    });
}

/// Cycle-accurate and fast execution agree exactly (the pipeline
/// discipline never depends on timing for correctness).
#[test]
fn cycle_and_fast_modes_agree() {
    property("cycle_and_fast_modes_agree", 48, |rng| {
        let (stencil, n_coeffs) = gen_stencil(rng);
        let source = to_fortran(&stencil);
        let compiler = Compiler::new(MachineConfig::tiny_4());
        let Ok(compiled) = compiler.compile_assignment(&source) else {
            return;
        };
        let mut machine = Machine::new(MachineConfig::tiny_4()).unwrap();
        let (rows, cols) = (8usize, 8usize);
        let x = CmArray::new(&mut machine, rows, cols).unwrap();
        x.fill_with(&mut machine, |r, c| ((r * 17 + c * 5) % 23) as f32 - 11.0);
        let coeffs: Vec<CmArray> = (0..n_coeffs)
            .map(|a| {
                let arr = CmArray::new(&mut machine, rows, cols).unwrap();
                arr.fill_with(&mut machine, move |r, c| ((r + c + a) % 7) as f32 * 0.3);
                arr
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let r = CmArray::new(&mut machine, rows, cols).unwrap();

        let cycle_opts = ExecOptions::default();
        let fast_opts = ExecOptions::fast();
        if convolve(&mut machine, &compiled, &r, &x, &refs, &cycle_opts).is_err() {
            return;
        }
        let cycle_out = r.gather(&machine);
        convolve(&mut machine, &compiled, &r, &x, &refs, &fast_opts).unwrap();
        let fast_out = r.gather(&machine);
        assert_eq!(cycle_out, fast_out);
    });
}

/// Ring plans always fit their budget, cover every column, and unroll
/// by a multiple of every ring size.
#[test]
fn ring_plans_are_well_formed() {
    property("ring_plans_are_well_formed", 100, |rng| {
        let (stencil, _) = gen_stencil(rng);
        let width = rng.usize_in(1, 9);
        let budget = rng.usize_in(8, 32);
        let ms = Multistencil::new(&stencil, width);
        match plan_rings(&ms, budget, 4096) {
            Ok(plan) => {
                assert!(plan.registers_used() <= budget);
                assert_eq!(plan.rings().len(), ms.columns().len());
                for ring in plan.rings() {
                    assert!(ring.size >= ring.span.height());
                    assert_eq!(plan.unroll() % ring.size, 0);
                }
            }
            Err(_) => {
                // Only legal when the natural demand truly exceeds the
                // budget (the 4096 cap is never hit at radius ≤ 2).
                assert!(ms.natural_register_demand() > budget);
            }
        }
    });
}

/// lcm/gcd sanity.
#[test]
fn lcm_gcd_laws() {
    property("lcm_gcd_laws", 256, |rng| {
        let a = rng.usize_in(1, 500);
        let b = rng.usize_in(1, 500);
        let g = gcd(a, b);
        assert_eq!(a % g, 0);
        assert_eq!(b % g, 0);
        let l = lcm(a, b);
        assert_eq!(l % a, 0);
        assert_eq!(l % b, 0);
        assert_eq!(g * l, a * b);
    });
}

/// Strip plans tile the subgrid exactly, in order, with compiled
/// widths only.
#[test]
fn strip_plans_tile_exactly() {
    let compiler = Compiler::new(MachineConfig::tiny_4());
    let compiled = compiler
        .compile_assignment(&cmcc::PaperPattern::Diamond13.fortran())
        .unwrap();
    property("strip_plans_tile_exactly", 100, |rng| {
        let cols = rng.usize_in(1, 200);
        let strips = cmcc::runtime::plan_strips(&compiled, cols);
        let mut at = 0;
        for s in &strips {
            assert_eq!(s.col0, at);
            assert!(compiled.widths().contains(&s.width));
            at += s.width;
        }
        assert_eq!(at, cols);
        // Greedy widest-first: no two adjacent strips could merge into a
        // wider compiled width … equivalently every strip except possibly
        // trailing ones is the widest that fits.
        let mut remaining = cols;
        for s in &strips {
            let widest = compiled.widest_kernel_for(remaining).unwrap().width;
            assert_eq!(s.width, widest);
            remaining -= s.width;
        }
    });
}

/// Multi-source stencils (the §9 extension): compiled fused execution
/// equals the multi-source reference, bit for bit, for arbitrary tap
/// assignments across 2–3 source arrays.
#[test]
fn multi_source_execution_matches_reference() {
    property("multi_source_execution_matches_reference", 32, |rng| {
        let n_terms = rng.usize_in(2, 8);
        let raw: Vec<(u16, i32, i32)> = (0..n_terms)
            .map(|_| {
                (
                    rng.u64_below(3) as u16,
                    rng.i32_in(-2, 2),
                    rng.i32_in(-2, 2),
                )
            })
            .collect();
        let seed = rng.u64_below(500);
        // Build the statement with explicit zero-shift CSHIFTs so every
        // source is a *shifted* variable for the recognizer.
        // Distinct sources actually referenced (ids may be sparse).
        let n_sources = raw.iter().map(|&(s, _, _)| s as usize + 1).max().unwrap();
        let n_distinct = {
            let mut ids: Vec<u16> = raw.iter().map(|&(s, _, _)| s).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };
        let mut terms = Vec::new();
        for (i, &(src, dr, dc)) in raw.iter().enumerate() {
            terms.push(format!(
                "K{i} * CSHIFT(CSHIFT(S{src}, 1, {dr:+}), 2, {dc:+})"
            ));
        }
        let source_text = format!("R = {}", terms.join(" + "));
        let compiler = Compiler::new(MachineConfig::tiny_4());
        let compiled = match compiler.compile_assignment_extended(&source_text) {
            Ok(c) => c,
            Err(CompileError::NoFeasibleWidth { .. }) => return,
            Err(e) => panic!("unexpected compile error on `{source_text}`: {e}"),
        };
        // Recognizer source order is by first shift appearance, which
        // follows term order; remap arrays accordingly.
        let order: Vec<usize> = compiled
            .spec()
            .sources
            .iter()
            .map(|name| name[1..].parse::<usize>().unwrap())
            .collect();
        assert_eq!(order.len(), n_distinct);

        let mut machine = Machine::new(MachineConfig::tiny_4()).unwrap();
        let (rows, cols) = (8usize, 8usize);
        let mix2 = |i: usize, s: u64| -> f32 {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(s);
            ((h >> 33) as i32 % 500) as f32 * 0.02
        };
        let source_arrays: Vec<CmArray> = (0..n_sources)
            .map(|k| {
                let a = CmArray::new(&mut machine, rows, cols).unwrap();
                let data: Vec<f32> = (0..rows * cols)
                    .map(|i| mix2(i + k * 104_729, seed))
                    .collect();
                a.scatter(&mut machine, &data);
                a
            })
            .collect();
        let coeff_arrays: Vec<CmArray> = (0..raw.len())
            .map(|k| {
                let a = CmArray::new(&mut machine, rows, cols).unwrap();
                let data: Vec<f32> = (0..rows * cols)
                    .map(|i| mix2(i + k * 7919, seed ^ 0xBEEF))
                    .collect();
                a.scatter(&mut machine, &data);
                a
            })
            .collect();
        let r = CmArray::new(&mut machine, rows, cols).unwrap();
        // Bind sources in the recognizer's order.
        let bound_sources: Vec<&CmArray> = order.iter().map(|&k| &source_arrays[k]).collect();
        let coeff_refs: Vec<&CmArray> = coeff_arrays.iter().collect();
        match convolve_multi(
            &mut machine,
            &compiled,
            &r,
            &bound_sources,
            &coeff_refs,
            &ExecOptions::default(),
        ) {
            Ok(_) => {}
            Err(RuntimeError::SubgridTooSmall { .. }) => return,
            Err(e) => panic!("runtime error on `{source_text}`: {e}"),
        }

        let source_hosts: Vec<Vec<f32>> =
            bound_sources.iter().map(|a| a.gather(&machine)).collect();
        let source_slices: Vec<&[f32]> = source_hosts.iter().map(Vec::as_slice).collect();
        let coeff_hosts: Vec<Vec<f32>> = coeff_arrays.iter().map(|a| a.gather(&machine)).collect();
        let values: Vec<CoeffValue<'_>> =
            coeff_hosts.iter().map(|h| CoeffValue::Array(h)).collect();
        let want =
            reference_convolve_multi(compiled.stencil(), rows, cols, &source_slices, &values);
        let got = r.gather(&machine);
        for i in 0..want.len() {
            assert_eq!(
                got[i].to_bits(),
                want[i].to_bits(),
                "`{}` at ({}, {})",
                source_text,
                i / cols,
                i % cols
            );
        }
    });
}

/// The halo exchange is exact: after the three-step protocol, every
/// halo cell of every node holds the torus-wrapped global element
/// (circular), or the fill value beyond global edges (end-off).
#[test]
fn halo_exchange_matches_global_semantics() {
    property("halo_exchange_matches_global_semantics", 64, |rng| {
        use cmcc::core::Boundary;
        use cmcc::runtime::HaloBuffer;
        let sub = rng.usize_in(2, 6);
        let pad = rng.usize_in(1, 3);
        let zerofill = rng.bool();
        let fill = rng.i32_in(-2000, 2000) as f32 * 0.001;
        if pad > sub {
            return;
        }
        let mut machine = Machine::new(MachineConfig::tiny_4()).unwrap();
        let rows = 2 * sub;
        let cols = 2 * sub;
        let a = CmArray::new(&mut machine, rows, cols).unwrap();
        a.fill_with(&mut machine, |r, c| (r * 100 + c) as f32);
        let halo = HaloBuffer::new(&mut machine, sub, sub, pad).unwrap();
        halo.fill_interior(&mut machine, &a);
        let boundary = if zerofill {
            Boundary::ZeroFill
        } else {
            Boundary::Circular
        };
        halo.exchange_with_fill(&mut machine, boundary, fill, true);

        let layout = halo.layout();
        for node in machine.grid().iter().collect::<Vec<_>>() {
            let (gr, gc) = machine.grid().coords(node);
            for lr in -(pad as i64)..(sub + pad) as i64 {
                for lc in -(pad as i64)..(sub + pad) as i64 {
                    let global_r = gr as i64 * sub as i64 + lr;
                    let global_c = gc as i64 * sub as i64 + lc;
                    let want = match boundary {
                        Boundary::Circular => {
                            let r = global_r.rem_euclid(rows as i64) as usize;
                            let c = global_c.rem_euclid(cols as i64) as usize;
                            (r * 100 + c) as f32
                        }
                        Boundary::ZeroFill => {
                            if global_r < 0
                                || global_c < 0
                                || global_r >= rows as i64
                                || global_c >= cols as i64
                            {
                                fill
                            } else {
                                (global_r * 100 + global_c) as f32
                            }
                        }
                    };
                    let got = machine.mem(node).read(layout.addr(lr, lc));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "node ({gr}, {gc}) local ({lr}, {lc}): got {got}, want {want}"
                    );
                }
            }
        }
    });
}

/// Useful-flop accounting: multiplies for array-coefficient taps plus
/// (terms − 1) adds.
#[test]
fn flop_accounting_matches_definition() {
    property("flop_accounting_matches_definition", 100, |rng| {
        let (stencil, _) = gen_stencil(rng);
        let mults = stencil
            .taps()
            .iter()
            .filter(|t| matches!(t.coeff, CoeffRef::Array(_)))
            .count() as u64;
        let terms = (stencil.taps().len() + stencil.bias().len()) as u64;
        assert_eq!(stencil.useful_flops_per_point(), mults + terms - 1);
    });
}
