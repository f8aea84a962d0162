//! Kernel schedule generation: turning a stencil + ring plan into the
//! per-cycle dynamic instruction parts.
//!
//! Each unrolled line of the kernel does, in order (§5.3–5.4):
//!
//! 1. **Leading-edge loads** — one load per multistencil column, into the
//!    column ring's current slot.
//! 2. **Multiply-add bursts** — results computed in pairs, left to right,
//!    the two chains interleaved cycle by cycle to exploit the WTL3164's
//!    adder latency. Each chain starts by adding the zero register and
//!    ends by writing its sum into the register holding the *tagged*
//!    data element of its own stencil instance.
//! 3. **Drain bubbles** — just enough idle cycles that the first store
//!    does not read a sum still in the writeback pipeline.
//! 4. **Stores** — all `w` results stored consecutively ("it is more
//!    efficient to compute all eight results and then store all eight
//!    consecutively", §5.3).
//!
//! The register-access pattern repeats with period LCM(ring sizes), so the
//! body is unrolled that many lines; "the unrolling factor is passed as a
//! parameter to the microcode at run time" (§5.4) — here it is simply the
//! body length of the emitted [`Kernel`].

use crate::columns::{plan_rings, PlanError, RingPlan};
use crate::multistencil::Multistencil;
use crate::regalloc::{RegisterFile, Walk};
use crate::stencil::{CoeffRef, Stencil};
use cmcc_cm2::config::{MachineConfig, FPU_REGISTERS};
use cmcc_cm2::isa::{DynamicPart, Kernel, MacAcc, MemRef, Reg, StaticPart};

/// Summary of one compiled kernel, for reporting and ablation studies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelInfo {
    /// Strip width.
    pub width: usize,
    /// Walk direction.
    pub walk: Walk,
    /// Distinct multistencil cells (elements resident per line).
    pub cells: usize,
    /// Ring sizes, left to right.
    pub ring_sizes: Vec<usize>,
    /// Registers in use including reserved ones.
    pub registers_used: usize,
    /// Unroll factor (LCM of ring sizes).
    pub unroll: usize,
    /// Loads per line.
    pub loads_per_line: usize,
    /// Multiply-adds per line (including dummy-thread padding).
    pub macs_per_line: usize,
    /// Stores per line.
    pub stores_per_line: usize,
    /// Drain/safety bubbles per line (averaged over the unrolled block,
    /// rounded up).
    pub nops_per_line: usize,
}

/// Emits the kernel for `stencil` at strip width `width`, walking `walk`.
///
/// # Errors
///
/// Returns a [`PlanError`] when the width's multistencil does not fit the
/// register file or its unroll factor exceeds `max_unroll` — the caller
/// then falls back to a narrower width (§5.3: "it is all right if some of
/// these don't work").
pub fn emit_kernel(
    stencil: &Stencil,
    width: usize,
    walk: Walk,
    cfg: &MachineConfig,
    max_unroll: usize,
) -> Result<(Kernel, KernelInfo), PlanError> {
    emit_kernel_with(stencil, width, walk, cfg, max_unroll, true)
}

/// [`emit_kernel`] with the result-pairing choice exposed.
///
/// The paper computes "the results in pairs in order to exploit the
/// timing of the WTL3164 chip; two chained multiply-add threads are
/// interleaved" (§5.3). `paired = false` emits the counterfactual for
/// the pairing ablation: one real chain at a time, its partner slot
/// filled by the dummy thread — half the multiply-add throughput.
///
/// # Errors
///
/// As [`emit_kernel`].
pub fn emit_kernel_with(
    stencil: &Stencil,
    width: usize,
    walk: Walk,
    cfg: &MachineConfig,
    max_unroll: usize,
    paired: bool,
) -> Result<(Kernel, KernelInfo), PlanError> {
    assert!(width > 0, "strip width must be nonzero");
    if stencil.taps().is_empty() {
        return emit_bias_only(stencil, width, walk, cfg);
    }
    let ms = {
        let _span = cmcc_obs::span(cmcc_obs::Phase::Multistencil);
        Multistencil::new(stencil, width)
    };
    let reserved = 1 + usize::from(stencil.needs_one_register());
    let budget = FPU_REGISTERS - reserved;
    let (plan, regs) = {
        let _span = cmcc_obs::span(cmcc_obs::Phase::Regalloc);
        let plan = plan_rings(&ms, budget, max_unroll)?;
        let regs = RegisterFile::assign(&plan, stencil.needs_one_register())
            .expect("ring plan was budgeted to fit the register file");
        (plan, regs)
    };

    let unroll_span = cmcc_obs::span(cmcc_obs::Phase::Unroll);
    let emitter = Emitter {
        stencil,
        width,
        walk,
        regs: &regs,
        cfg,
        paired,
    };
    let body: Vec<Vec<DynamicPart>> = (0..plan.unroll()).map(|l| emitter.line(l)).collect();
    let prologue = emitter.prologue();
    drop(unroll_span);

    let kernel = Kernel {
        static_part: StaticPart::ChainedMac,
        width,
        row_step: walk.row_step(),
        prologue,
        body,
        useful_flops_per_line: width as u64 * stencil.useful_flops_per_point(),
    };
    assert_eq!(kernel.validate(), Ok(()));
    let info = info_for(&kernel, &plan, &regs, width, walk, ms.cell_count());
    Ok((kernel, info))
}

fn info_for(
    kernel: &Kernel,
    plan: &RingPlan,
    regs: &RegisterFile,
    width: usize,
    walk: Walk,
    cells: usize,
) -> KernelInfo {
    let count = |pred: fn(&DynamicPart) -> bool| -> usize {
        let total: usize = kernel
            .body
            .iter()
            .map(|line| line.iter().filter(|p| pred(p)).count())
            .sum();
        total.div_ceil(kernel.body.len())
    };
    KernelInfo {
        width,
        walk,
        cells,
        ring_sizes: plan.rings().iter().map(|r| r.size).collect(),
        registers_used: regs.registers_used(),
        unroll: kernel.body.len(),
        loads_per_line: count(|p| matches!(p, DynamicPart::Load { .. })),
        macs_per_line: count(|p| matches!(p, DynamicPart::Mac { .. })),
        stores_per_line: count(|p| matches!(p, DynamicPart::Store { .. })),
        nops_per_line: count(|p| matches!(p, DynamicPart::Nop)),
    }
}

struct Emitter<'a> {
    stencil: &'a Stencil,
    width: usize,
    walk: Walk,
    regs: &'a RegisterFile,
    cfg: &'a MachineConfig,
    paired: bool,
}

impl Emitter<'_> {
    /// Prologue: load every ring element *except* each column's leading
    /// edge (line 0's own load burst brings that in), placing elements as
    /// if loaded by the virtual lines before line 0. Trailing bubbles let
    /// the last load commit before line 0 begins.
    fn prologue(&self) -> Vec<DynamicPart> {
        let mut parts = Vec::new();
        for ring in self.regs.rings() {
            let span = ring.spec.span;
            let size = ring.regs.len() as i64;
            for age in 1..span.height() {
                let drow = match self.walk {
                    Walk::North => span.lo + age as i32,
                    Walk::South => span.hi - age as i32,
                };
                let slot = (-(age as i64)).rem_euclid(size) as usize;
                parts.push(DynamicPart::Load {
                    src: MemRef::Source {
                        array: span.source,
                        drow,
                        dcol: span.dcol,
                    },
                    dest: ring.regs[slot],
                });
            }
        }
        for _ in 0..self.cfg.load_commit_latency {
            parts.push(DynamicPart::Nop);
        }
        parts
    }

    /// One unrolled line: loads, safety bubbles, interleaved MAC pairs,
    /// drain bubbles, stores.
    fn line(&self, l: usize) -> Vec<DynamicPart> {
        let mut parts = Vec::new();
        // 1. Leading-edge loads; remember where each register was loaded.
        let mut load_pos: Vec<(Reg, usize)> = Vec::new();
        for ring in self.regs.rings() {
            let span = ring.spec.span;
            let dest = self.regs.edge_reg(span.source, span.dcol, l);
            load_pos.push((dest, parts.len()));
            parts.push(DynamicPart::Load {
                src: MemRef::Source {
                    array: span.source,
                    drow: self.walk.edge_row(&span),
                    dcol: span.dcol,
                },
                dest,
            });
        }
        let loads_len = parts.len();

        // 2. Build the MAC burst and the per-result final-MAC positions.
        let (macs, final_mac) = self.mac_burst(l);

        // Safety bubbles: no MAC may read a register loaded fewer than
        // `load_commit_latency` cycles earlier.
        let lat = self.cfg.load_commit_latency as usize;
        let mut safety = 0usize;
        for (t, mac) in macs.iter().enumerate() {
            if let DynamicPart::Mac { data, .. } = mac {
                if let Some(&(_, p)) = load_pos.iter().find(|(r, _)| r == data) {
                    let earliest = p + lat;
                    let at = loads_len + t;
                    safety = safety.max(earliest.saturating_sub(at));
                }
            }
        }
        parts.extend(std::iter::repeat_n(DynamicPart::Nop, safety));
        let mac_base = parts.len();
        let macs_len = macs.len();
        parts.extend(macs);

        // 3. Drain bubbles: store `i` (at index `end + drain + i`) must
        //    not read its sum before the writeback commits at
        //    `final_mac[i] + mac_commit_latency`.
        let mac_lat = self.cfg.mac_commit_latency as usize;
        let mut drain = 0usize;
        for (i, &f_rel) in final_mac.iter().enumerate() {
            let commit = mac_base + f_rel + mac_lat;
            let store_at = mac_base + macs_len + i;
            drain = drain.max(commit.saturating_sub(store_at));
        }
        parts.extend(std::iter::repeat_n(DynamicPart::Nop, drain));

        // 4. Stores, left to right.
        for i in 0..self.width {
            parts.push(DynamicPart::Store {
                src: self.acc_reg(i, l),
                dest: MemRef::Result { col: i as u16 },
            });
        }
        parts
    }

    /// The accumulator for result `i` recycles the register of the tagged
    /// data element of stencil instance `i` (§5.3).
    fn acc_reg(&self, i: usize, l: usize) -> Reg {
        let (source, tag) = self
            .stencil
            .tagged_sourced_cell(self.walk == Walk::North)
            .expect("taps are nonempty on this path");
        self.regs
            .element_reg(self.walk, l, source, tag.drow, tag.dcol + i as i32)
    }

    /// Emits the interleaved MAC pairs for all `width` results of line
    /// `l`. Returns the instructions and, per result, the index of its
    /// final (writeback) MAC within the burst.
    fn mac_burst(&self, l: usize) -> (Vec<DynamicPart>, Vec<usize>) {
        let k = self.stencil.chain_len();
        let mut parts = Vec::new();
        let mut final_mac = vec![0usize; self.width];
        let lanes = if self.paired { 2 } else { 1 };
        for pair in 0..self.width.div_ceil(lanes) {
            let left = lanes * pair;
            let right = if self.paired { left + 1 } else { self.width };
            for t in 0..k {
                parts.push(self.mac_step(left, t, k, l));
                if t == k - 1 {
                    final_mac[left] = parts.len() - 1;
                }
                if right < self.width {
                    parts.push(self.mac_step(right, t, k, l));
                    if t == k - 1 {
                        final_mac[right] = parts.len() - 1;
                    }
                } else {
                    // Odd tail: a dummy partner thread keeps the two-thread
                    // interleave intact, multiplying zero by zero into the
                    // zero register ("there is no way not to store the
                    // result!", §5.3).
                    parts.push(DynamicPart::Mac {
                        coeff: MemRef::Zeros,
                        data: Reg::ZERO,
                        acc: if t == 0 {
                            MacAcc::Start(Reg::ZERO)
                        } else {
                            MacAcc::Chain
                        },
                        dest: (t == k - 1).then_some(Reg::ZERO),
                    });
                }
            }
        }
        (parts, final_mac)
    }

    /// The `t`-th chained MAC of result `i`: taps first (in statement
    /// order), then bias terms.
    fn mac_step(&self, i: usize, t: usize, k: usize, l: usize) -> DynamicPart {
        let taps = self.stencil.taps();
        let (coeff, data) = if t < taps.len() {
            let tap = &taps[t];
            let coeff = match tap.coeff {
                CoeffRef::Array(a) => MemRef::Coeff {
                    array: a as u16,
                    col: i as u16,
                },
                CoeffRef::Unit => MemRef::Ones,
            };
            let data = self.regs.element_reg(
                self.walk,
                l,
                tap.source,
                tap.offset.drow,
                tap.offset.dcol + i as i32,
            );
            (coeff, data)
        } else {
            let array = self.stencil.bias()[t - taps.len()];
            (
                MemRef::Coeff {
                    array: array as u16,
                    col: i as u16,
                },
                Reg::ONE,
            )
        };
        DynamicPart::Mac {
            coeff,
            data,
            acc: if t == 0 {
                MacAcc::Start(Reg::ZERO)
            } else {
                MacAcc::Chain
            },
            dest: (t == k - 1).then_some(self.acc_reg(i, l)),
        }
    }
}

/// Kernel for a stencil with no taps at all (`R = C1 + C2 + …`): no data
/// rings, one dedicated accumulator per result.
fn emit_bias_only(
    stencil: &Stencil,
    width: usize,
    walk: Walk,
    cfg: &MachineConfig,
) -> Result<(Kernel, KernelInfo), PlanError> {
    let regs = RegisterFile::assign_bias_only(width, stencil.needs_one_register()).map_err(
        |overflow| PlanError::NotEnoughRegisters {
            needed: overflow.needed,
            available: FPU_REGISTERS,
        },
    )?;
    let k = stencil.chain_len();
    let mut parts = Vec::new();
    let mut final_mac = vec![0usize; width];
    for pair in 0..width.div_ceil(2) {
        let left = 2 * pair;
        for t in 0..k {
            for lane in 0..2 {
                let i = left + lane;
                if i < width {
                    let array = stencil.bias()[t];
                    parts.push(DynamicPart::Mac {
                        coeff: MemRef::Coeff {
                            array: array as u16,
                            col: i as u16,
                        },
                        data: Reg::ONE,
                        acc: if t == 0 {
                            MacAcc::Start(Reg::ZERO)
                        } else {
                            MacAcc::Chain
                        },
                        dest: (t == k - 1).then_some(regs.acc_pool()[i]),
                    });
                    if t == k - 1 {
                        final_mac[i] = parts.len() - 1;
                    }
                } else {
                    parts.push(DynamicPart::Mac {
                        coeff: MemRef::Zeros,
                        data: Reg::ZERO,
                        acc: if t == 0 {
                            MacAcc::Start(Reg::ZERO)
                        } else {
                            MacAcc::Chain
                        },
                        dest: (t == k - 1).then_some(Reg::ZERO),
                    });
                }
            }
        }
    }
    let macs_len = parts.len();
    let mac_lat = cfg.mac_commit_latency as usize;
    let mut drain = 0usize;
    for (i, &f) in final_mac.iter().enumerate() {
        drain = drain.max((f + mac_lat).saturating_sub(macs_len + i));
    }
    parts.extend(std::iter::repeat_n(DynamicPart::Nop, drain));
    for (i, &acc) in regs.acc_pool().iter().enumerate() {
        parts.push(DynamicPart::Store {
            src: acc,
            dest: MemRef::Result { col: i as u16 },
        });
    }
    let kernel = Kernel {
        static_part: StaticPart::ChainedMac,
        width,
        row_step: walk.row_step(),
        prologue: Vec::new(),
        body: vec![parts],
        useful_flops_per_line: width as u64 * stencil.useful_flops_per_point(),
    };
    assert_eq!(kernel.validate(), Ok(()));
    let info = KernelInfo {
        width,
        walk,
        cells: 0,
        ring_sizes: Vec::new(),
        registers_used: regs.registers_used(),
        unroll: 1,
        loads_per_line: 0,
        macs_per_line: kernel.body[0]
            .iter()
            .filter(|p| matches!(p, DynamicPart::Mac { .. }))
            .count(),
        stores_per_line: width,
        nops_per_line: drain,
    };
    Ok((kernel, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::{Boundary, Tap};
    use cmcc_cm2::exec::{run_strip, ExecMode, FieldLayout, StripContext};

    fn cfg() -> MachineConfig {
        MachineConfig::test_board_16()
    }

    fn cross5() -> Stencil {
        Stencil::from_offsets(
            [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)],
            Boundary::Circular,
        )
        .unwrap()
    }

    #[test]
    fn cross_width8_structure_matches_paper() {
        let (kernel, info) = emit_kernel(&cross5(), 8, Walk::North, &cfg(), 512).unwrap();
        assert_eq!(info.cells, 26);
        assert_eq!(info.loads_per_line, 10); // one per column
        assert_eq!(info.macs_per_line, 40); // 8 results × 5-step chains
        assert_eq!(info.stores_per_line, 8);
        assert_eq!(info.unroll, 3); // rings 1,3,…,3,1 → LCM 3
        assert_eq!(kernel.useful_flops_per_line, 72);
        kernel.validate().unwrap();
    }

    #[test]
    fn register_pattern_rotates_across_unrolled_lines() {
        let (kernel, _) = emit_kernel(&cross5(), 4, Walk::North, &cfg(), 512).unwrap();
        assert_eq!(kernel.body.len(), 3);
        // The same structural pattern with different registers: line 0 and
        // line 1 must differ somewhere in register usage.
        assert_ne!(kernel.body[0], kernel.body[1]);
        assert_eq!(kernel.body[0].len(), kernel.body[1].len());
    }

    #[test]
    fn odd_width_pads_with_dummy_thread() {
        let (kernel, info) = emit_kernel(&cross5(), 1, Walk::North, &cfg(), 512).unwrap();
        // 1 real chain + 1 dummy chain = 10 MACs.
        assert_eq!(info.macs_per_line, 10);
        let dummies = kernel.body[0]
            .iter()
            .filter(|p| {
                matches!(
                    p,
                    DynamicPart::Mac {
                        coeff: MemRef::Zeros,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(dummies, 5);
    }

    #[test]
    fn south_walk_mirrors_sources() {
        let (north, _) = emit_kernel(&cross5(), 2, Walk::North, &cfg(), 512).unwrap();
        let (south, _) = emit_kernel(&cross5(), 2, Walk::South, &cfg(), 512).unwrap();
        assert_eq!(north.row_step, -1);
        assert_eq!(south.row_step, 1);
        // Northward kernels load the top row as the leading edge; the
        // southward kernel loads the bottom row.
        let edge_rows = |k: &Kernel| -> Vec<i32> {
            k.body[0]
                .iter()
                .filter_map(|p| match p {
                    DynamicPart::Load {
                        src: MemRef::Source { drow, .. },
                        ..
                    } => Some(*drow),
                    _ => None,
                })
                .collect()
        };
        // Cross columns: arms have height 1 (edge row 0); the three
        // middle columns span -1..1.
        let north_edges = edge_rows(&north);
        let south_edges = edge_rows(&south);
        assert!(north_edges.contains(&-1));
        assert!(!north_edges.contains(&1));
        assert!(south_edges.contains(&1));
        assert!(!south_edges.contains(&-1));
    }

    #[test]
    fn prologue_fills_everything_but_the_edge() {
        let (kernel, info) = emit_kernel(&cross5(), 8, Walk::North, &cfg(), 512).unwrap();
        let prologue_loads = kernel
            .prologue
            .iter()
            .filter(|p| matches!(p, DynamicPart::Load { .. }))
            .count();
        // cells - columns = 26 - 10 = 16.
        assert_eq!(prologue_loads, info.cells - info.loads_per_line);
    }

    /// Executes the compiled kernel on a hand-built padded buffer and
    /// compares against direct evaluation — both walks, several widths.
    #[test]
    fn kernel_computes_the_convolution() {
        let stencil = cross5();
        for walk in [Walk::North, Walk::South] {
            for width in [1usize, 2, 4, 8] {
                check_kernel(&stencil, width, walk);
            }
        }
    }

    /// A tougher pattern: 13-point diamond with its 5/3/1 rings (LCM 15).
    #[test]
    fn diamond_kernel_computes_the_convolution() {
        let mut offsets = Vec::new();
        for dr in -2i32..=2 {
            for dc in -2i32..=2 {
                if dr.abs() + dc.abs() <= 2 {
                    offsets.push((dr, dc));
                }
            }
        }
        let stencil = Stencil::from_offsets(offsets, Boundary::Circular).unwrap();
        assert!(matches!(
            emit_kernel(&stencil, 8, Walk::North, &cfg(), 512),
            Err(PlanError::NotEnoughRegisters { needed: 48, .. })
        ));
        check_kernel(&stencil, 4, Walk::North);
        check_kernel(&stencil, 4, Walk::South);
        check_kernel(&stencil, 2, Walk::North);
    }

    /// Unit taps and bias terms together.
    #[test]
    fn unit_and_bias_kernel_computes() {
        let stencil = Stencil::new(
            vec![Tap::unit(0, 0), Tap::new(-1, 0, 0), Tap::new(0, 1, 1)],
            vec![2],
            Boundary::Circular,
            3,
        )
        .unwrap();
        check_kernel(&stencil, 4, Walk::North);
        check_kernel(&stencil, 3, Walk::South);
    }

    /// The pairing ablation's counterfactual: single-thread chains give
    /// identical results with twice the multiply-add slots.
    #[test]
    fn unpaired_kernel_matches_but_doubles_macs() {
        let stencil = cross5();
        let (paired, pi) = emit_kernel_with(&stencil, 4, Walk::North, &cfg(), 512, true).unwrap();
        let (unpaired, ui) =
            emit_kernel_with(&stencil, 4, Walk::North, &cfg(), 512, false).unwrap();
        assert_eq!(ui.macs_per_line, 2 * pi.macs_per_line);
        let a = exec_on_test_grid(&stencil, &paired).unwrap();
        let b = exec_on_test_grid(&stencil, &unpaired).unwrap();
        assert_eq!(a, b, "pairing must not change results");
    }

    /// Failure injection: stripping the compiler's drain bubbles makes a
    /// store read its accumulator inside the writeback window — the
    /// cycle-level executor must refuse the kernel as hazardous rather
    /// than silently compute garbage.
    #[test]
    fn stripped_drain_bubbles_trip_the_hazard_detector() {
        let stencil = cross5();
        let (mut kernel, _) = emit_kernel(&stencil, 2, Walk::North, &cfg(), 512).unwrap();
        let before: usize = kernel.body.iter().map(Vec::len).sum();
        for line in &mut kernel.body {
            line.retain(|p| !matches!(p, DynamicPart::Nop));
        }
        let after: usize = kernel.body.iter().map(Vec::len).sum();
        assert!(after < before, "the compiler emitted no bubbles to strip");
        // Execute under a 1-cycle-per-instruction machine, where the
        // bubbles are load-bearing (the default 2-cycle multiply-add pace
        // happens to stretch the timeline past the writeback window).
        let mut tight = cfg();
        tight.mac_issue_cycles = 1;
        tight.pipe_reversal_penalty = 0;
        // The clean kernel stays correct even on the tight machine…
        let (clean, _) = emit_kernel(&stencil, 2, Walk::North, &tight, 512).unwrap();
        exec_on_test_grid_with(&stencil, &clean, &tight).unwrap();
        // …but the stripped one trips the hazard detector.
        let err = exec_on_test_grid_with(&stencil, &kernel, &tight).unwrap_err();
        assert!(err.to_string().contains("hazard"), "{err}");
    }

    /// Failure injection: corrupting one register operand produces results
    /// that differ from the clean kernel's — the differential harness
    /// would catch a register-allocation bug.
    #[test]
    fn corrupted_register_operand_changes_results() {
        let stencil = cross5();
        let (clean, _) = emit_kernel(&stencil, 2, Walk::North, &cfg(), 512).unwrap();
        let mut broken = clean.clone();
        // Redirect the data operand of the first multiply-add to a
        // different (also live) data register.
        let mut patched = false;
        'outer: for line in &mut broken.body {
            for part in line.iter_mut() {
                if let DynamicPart::Mac { data, .. } = part {
                    let other = if data.0 == 1 { Reg(2) } else { Reg(1) };
                    *data = other;
                    patched = true;
                    break 'outer;
                }
            }
        }
        assert!(patched);
        let want = exec_on_test_grid(&stencil, &clean).unwrap();
        // A hazard report would be an equally valid catch; a clean run
        // must at least produce different output.
        if let Ok(got) = exec_on_test_grid(&stencil, &broken) {
            assert_ne!(got, want, "corruption must change the output");
        }
    }

    /// Runs a kernel over a small padded grid, returning the result bits
    /// or the hazard error.
    fn exec_on_test_grid(
        stencil: &Stencil,
        kernel: &Kernel,
    ) -> Result<Vec<u32>, cmcc_cm2::exec::HazardError> {
        exec_on_test_grid_with(stencil, kernel, &cfg())
    }

    fn exec_on_test_grid_with(
        stencil: &Stencil,
        kernel: &Kernel,
        machine_cfg: &MachineConfig,
    ) -> Result<Vec<u32>, cmcc_cm2::exec::HazardError> {
        let rows = 6usize;
        let cols = kernel.width;
        let pad = stencil.borders().max_width() as usize;
        let src_stride = cols + 2 * pad;
        let src_words = (rows + 2 * pad) * src_stride;
        let n_coeffs = stencil.coeff_count();
        let res_base = src_words;
        let res_words = rows * cols;
        let coeff_base = res_base + res_words;
        let words = coeff_base + n_coeffs * res_words + 2;
        let mut mem = vec![0.0f32; words];
        for (i, word) in mem[..src_words].iter_mut().enumerate() {
            *word = (i % 17) as f32 * 0.25 - 2.0;
        }
        for (i, word) in mem[coeff_base..][..n_coeffs * res_words]
            .iter_mut()
            .enumerate()
        {
            *word = (i % 5) as f32 * 0.5 + 0.1;
        }
        mem[words - 2] = 1.0;
        mem[words - 1] = 0.0;
        let src = FieldLayout {
            base: 0,
            row_stride: src_stride,
            row_offset: pad as i64,
            col_offset: pad as i64,
        };
        let res = FieldLayout {
            base: res_base,
            row_stride: cols,
            row_offset: 0,
            col_offset: 0,
        };
        let coeffs: Vec<FieldLayout> = (0..n_coeffs)
            .map(|a| FieldLayout {
                base: coeff_base + a * res_words,
                row_stride: cols,
                row_offset: 0,
                col_offset: 0,
            })
            .collect();
        let srcs = [src];
        let ctx = StripContext {
            srcs: &srcs,
            res,
            coeffs: &coeffs,
            ones_addr: words - 2,
            zeros_addr: words - 1,
            start_row: rows as i64 - 1,
            lines: rows,
            col0: 0,
        };
        run_strip(kernel, &ctx, &mut mem, machine_cfg, ExecMode::Cycle)?;
        Ok((res_base..res_base + res_words)
            .map(|a| mem[a].to_bits())
            .collect())
    }

    #[test]
    fn bias_only_kernel_computes() {
        let stencil = Stencil::new(vec![], vec![0, 1], Boundary::Circular, 2).unwrap();
        let (kernel, info) = emit_kernel(&stencil, 4, Walk::North, &cfg(), 512).unwrap();
        assert_eq!(info.loads_per_line, 0);
        assert_eq!(info.unroll, 1);
        kernel.validate().unwrap();
        check_kernel(&stencil, 4, Walk::North);
    }

    /// Builds a (rows+2B)×(cols+2B) padded source, runs the kernel over
    /// a strip, and checks every result against direct evaluation. Also
    /// cross-checks cycle-accurate vs fast execution.
    fn check_kernel(stencil: &Stencil, width: usize, walk: Walk) {
        let (kernel, _) = emit_kernel(stencil, width, walk, &cfg(), 512).unwrap();
        kernel.validate().unwrap();

        let rows = 9usize;
        let cols = width; // one strip exactly
        let pad = stencil.borders().max_width() as usize;
        let src_stride = cols + 2 * pad;
        let src_words = (rows + 2 * pad) * src_stride;
        let n_coeffs = stencil.coeff_count();
        let res_base = src_words;
        let res_words = rows * cols;
        let coeff_base = res_base + res_words;
        let words = coeff_base + n_coeffs * res_words + 2;
        let ones_addr = words - 2;
        let zeros_addr = words - 1;

        let mut mem = vec![0.0f32; words];
        // Source: a deterministic non-symmetric pattern, including halo.
        let src_at = |r: i64, c: i64| (3 + 2 * r + 5 * c + r * c) as f32 * 0.125;
        for r in -(pad as i64)..(rows + pad) as i64 {
            for c in -(pad as i64)..(cols + pad) as i64 {
                let addr = ((r + pad as i64) * src_stride as i64 + (c + pad as i64)) as usize;
                mem[addr] = src_at(r, c);
            }
        }
        let coeff_at = |a: usize, r: i64, c: i64| (1 + a) as f32 * 0.5 + (r - c) as f32 * 0.0625;
        for a in 0..n_coeffs {
            for r in 0..rows as i64 {
                for c in 0..cols as i64 {
                    let addr = coeff_base + a * res_words + (r * cols as i64 + c) as usize;
                    mem[addr] = coeff_at(a, r, c);
                }
            }
        }
        mem[ones_addr] = 1.0;
        mem[zeros_addr] = 0.0;

        let src = FieldLayout {
            base: 0,
            row_stride: src_stride,
            row_offset: pad as i64,
            col_offset: pad as i64,
        };
        let res = FieldLayout {
            base: res_base,
            row_stride: cols,
            row_offset: 0,
            col_offset: 0,
        };
        let coeffs: Vec<FieldLayout> = (0..n_coeffs)
            .map(|a| FieldLayout {
                base: coeff_base + a * res_words,
                row_stride: cols,
                row_offset: 0,
                col_offset: 0,
            })
            .collect();
        let start_row = match walk {
            Walk::North => rows as i64 - 1,
            Walk::South => 0,
        };
        let srcs = [src];
        let ctx = StripContext {
            srcs: &srcs,
            res,
            coeffs: &coeffs,
            ones_addr,
            zeros_addr,
            start_row,
            lines: rows,
            col0: 0,
        };

        let mut fast_mem = mem.clone();
        let run = run_strip(&kernel, &ctx, &mut mem, &cfg(), ExecMode::Cycle)
            .unwrap_or_else(|e| panic!("width {width} {walk:?}: {e}"));
        assert!(run.cycles > 0);
        run_strip(&kernel, &ctx, &mut fast_mem, &cfg(), ExecMode::Fast).unwrap();

        for r in 0..rows as i64 {
            for c in 0..cols as i64 {
                // Direct evaluation in the same accumulation order.
                let mut want = 0.0f32;
                for tap in stencil.taps() {
                    let x = src_at(r + tap.offset.drow as i64, c + tap.offset.dcol as i64);
                    let coeff = match tap.coeff {
                        CoeffRef::Array(a) => coeff_at(a, r, c),
                        CoeffRef::Unit => 1.0,
                    };
                    want += coeff * x;
                }
                for &a in stencil.bias() {
                    want += coeff_at(a, r, c);
                }
                let addr = res_base + (r * cols as i64 + c) as usize;
                let got = mem[addr];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "width {width} {walk:?} at ({r}, {c}): got {got}, want {want}"
                );
                assert_eq!(got.to_bits(), fast_mem[addr].to_bits());
            }
        }
    }
}
