//! The per-layer time ledger: self times computed from flight-recorder
//! events.
//!
//! A thread's begin/end events nest into a tree of slices. A slice's
//! *self time* is its duration minus the durations of its direct
//! children, so over any subtree the self times add up to the root's
//! duration exactly (integer nanoseconds, no rounding). The benchmark
//! roots a subtree at every `execute` slice it measures and splits the
//! execute's wall time into halo refresh, halo exchange, kernel sweeps,
//! and the execute's own residual.

use cmcc::obs::trace::{TraceEvent, TraceKind, TraceOp, TRACE_OP_COUNT};

/// One closed duration slice on a thread's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    pub op: TraceOp,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The argument word of the slice's end event.
    pub end_arg: u64,
    /// Index of the enclosing slice, if any.
    pub parent: Option<usize>,
}

impl Slice {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nests one thread's events into slices, in begin order. Instants and
/// async marks are skipped. Fails on an end event that does not close
/// the innermost open slice, on a clock that runs backwards, or on a
/// slice still open at the end of the list.
pub fn slices(events: &[TraceEvent]) -> Result<Vec<Slice>, String> {
    let mut out: Vec<Slice> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    for e in events {
        match e.kind {
            TraceKind::Begin => {
                out.push(Slice {
                    op: e.op,
                    start_ns: e.ts_ns,
                    end_ns: e.ts_ns,
                    end_arg: 0,
                    parent: open.last().copied(),
                });
                open.push(out.len() - 1);
            }
            TraceKind::End => {
                let top = open
                    .pop()
                    .ok_or_else(|| format!("`{}` ends with no open slice", e.op.name()))?;
                let s = &mut out[top];
                if s.op != e.op {
                    return Err(format!(
                        "`{}` ends while `{}` is the innermost open slice",
                        e.op.name(),
                        s.op.name()
                    ));
                }
                if e.ts_ns < s.start_ns {
                    return Err(format!("`{}` ends before it begins", e.op.name()));
                }
                s.end_ns = e.ts_ns;
                s.end_arg = e.arg;
            }
            TraceKind::Instant | TraceKind::AsyncBegin | TraceKind::AsyncEnd => {}
        }
    }
    match open.last() {
        Some(&i) => Err(format!("`{}` never ends", out[i].op.name())),
        None => Ok(out),
    }
}

/// Self time of every slice: its duration minus its direct children's.
pub fn self_times(slices: &[Slice]) -> Result<Vec<u64>, String> {
    let mut child_ns = vec![0u64; slices.len()];
    for s in slices {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    slices
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| {
            s.dur_ns()
                .checked_sub(c)
                .ok_or_else(|| format!("children of `{}` outlast it", s.op.name()))
        })
        .collect()
}

/// Execute wall time split by the operation that spent it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Execute slices added.
    pub executes: u64,
    /// Their summed durations.
    pub execute_ns: u64,
    /// Self time per operation over those executes' subtrees (the
    /// execute's own self time is the residual).
    pub self_ns: [u64; TRACE_OP_COUNT],
}

impl Ledger {
    /// Adds the subtree rooted at `slices[root]` (an execute slice).
    pub fn add(&mut self, slices: &[Slice], self_ns: &[u64], root: usize) {
        self.executes += 1;
        self.execute_ns += slices[root].dur_ns();
        self.self_ns[slices[root].op as usize] += self_ns[root];
        // Slices are in begin order, so a subtree is the contiguous run
        // after its root whose parent chains lead back to it.
        for j in root + 1..slices.len() {
            let mut p = slices[j].parent;
            while let Some(i) = p {
                if i <= root {
                    break;
                }
                p = slices[i].parent;
            }
            if p != Some(root) {
                break;
            }
            self.self_ns[slices[j].op as usize] += self_ns[j];
        }
    }

    pub fn op_ns(&self, op: TraceOp) -> u64 {
        self.self_ns[op as usize]
    }

    /// The layers of an execute: interior refresh, halo exchange, kernel
    /// sweeps (with the sweep workers that run on the executing thread),
    /// the execute's residual, and anything else nested inside it.
    pub fn layers(&self) -> Layers {
        let refresh = self.op_ns(TraceOp::InteriorRefresh);
        let exchange = self.op_ns(TraceOp::HaloExchange);
        let sweep = self.op_ns(TraceOp::KernelSweep) + self.op_ns(TraceOp::ExecuteWorkers);
        let residual = self.op_ns(TraceOp::Execute);
        let total: u64 = self.self_ns.iter().sum();
        Layers {
            refresh,
            exchange,
            sweep,
            residual,
            other: total - refresh - exchange - sweep - residual,
        }
    }

    /// The ledger identity: the layers add up to the execute spans.
    pub fn check(&self) -> Result<(), String> {
        let l = self.layers();
        let sum = l.refresh + l.exchange + l.sweep + l.residual + l.other;
        if sum == self.execute_ns {
            Ok(())
        } else {
            Err(format!(
                "ledger identity broken: layers sum to {sum} ns, execute spans to {} ns",
                self.execute_ns
            ))
        }
    }
}

/// Nanoseconds per execute layer (see [`Ledger::layers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layers {
    pub refresh: u64,
    pub exchange: u64,
    pub sweep: u64,
    pub residual: u64,
    pub other: u64,
}

/// Everything a traced window recorded: the execute ledger plus the
/// durations of the slices around executes.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub ledger: Ledger,
    pub build_ns: Vec<u64>,
    pub rebind_ns: Vec<u64>,
    pub commit_ns: Vec<u64>,
    pub lease_wait_ns: Vec<u64>,
    /// Lease requests that waited on a conflicting lease.
    pub conflicted: u64,
}

impl Window {
    /// Adds one thread's events. The `k`-th execute slice on the thread
    /// enters the ledger when `keep_execute(k)` holds; every other slice
    /// of interest is always recorded. Returns the number of execute
    /// slices seen.
    pub fn add_thread(
        &mut self,
        events: &[TraceEvent],
        mut keep_execute: impl FnMut(usize) -> bool,
    ) -> Result<usize, String> {
        let s = slices(events)?;
        let st = self_times(&s)?;
        let mut executes = 0;
        for (i, slice) in s.iter().enumerate() {
            match slice.op {
                TraceOp::Execute => {
                    if keep_execute(executes) {
                        self.ledger.add(&s, &st, i);
                    }
                    executes += 1;
                }
                TraceOp::PlanBuild => self.build_ns.push(slice.dur_ns()),
                TraceOp::PlanRebind => self.rebind_ns.push(slice.dur_ns()),
                TraceOp::RegionCommit => self.commit_ns.push(slice.dur_ns()),
                TraceOp::LeaseAcquire => self.lease_wait_ns.push(slice.dur_ns()),
                _ => {}
            }
        }
        self.conflicted += conflicted_acquires(&s);
        Ok(executes)
    }
}

/// Lease requests that had to wait for a conflicting lease: the
/// `lease_acquire` end events whose argument is 1.
pub fn conflicted_acquires(slices: &[Slice]) -> u64 {
    slices
        .iter()
        .filter(|s| s.op == TraceOp::LeaseAcquire && s.end_arg == 1)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind, op: TraceOp, ts_ns: u64, arg: u64) -> TraceEvent {
        TraceEvent {
            kind,
            op,
            tenant: None,
            ts_ns,
            arg,
        }
    }

    fn b(op: TraceOp, ts: u64) -> TraceEvent {
        ev(TraceKind::Begin, op, ts, 0)
    }

    fn e(op: TraceOp, ts: u64) -> TraceEvent {
        ev(TraceKind::End, op, ts, 0)
    }

    /// lease_acquire [0,5) (conflicted), then lease_held [5,130) holding
    /// execute [10,110) and region_commit [112,120); inside the execute:
    /// interior_refresh [20,30), halo_exchange [30,45), kernel_sweep
    /// [50,100) holding execute_workers [51,99).
    fn synthetic() -> Vec<TraceEvent> {
        vec![
            b(TraceOp::LeaseAcquire, 0),
            ev(TraceKind::End, TraceOp::LeaseAcquire, 5, 1),
            b(TraceOp::LeaseHeld, 5),
            b(TraceOp::Execute, 10),
            b(TraceOp::InteriorRefresh, 20),
            e(TraceOp::InteriorRefresh, 30),
            b(TraceOp::HaloExchange, 30),
            e(TraceOp::HaloExchange, 45),
            ev(TraceKind::Instant, TraceOp::Statement, 46, 0),
            b(TraceOp::KernelSweep, 50),
            b(TraceOp::ExecuteWorkers, 51),
            e(TraceOp::ExecuteWorkers, 99),
            e(TraceOp::KernelSweep, 100),
            e(TraceOp::Execute, 110),
            b(TraceOp::RegionCommit, 112),
            e(TraceOp::RegionCommit, 120),
            e(TraceOp::LeaseHeld, 130),
        ]
    }

    #[test]
    fn self_times_split_an_execute_exactly() {
        let s = slices(&synthetic()).unwrap();
        let st = self_times(&s).unwrap();
        let root = s.iter().position(|x| x.op == TraceOp::Execute).unwrap();
        let mut ledger = Ledger::default();
        ledger.add(&s, &st, root);
        let l = ledger.layers();
        assert_eq!(l.refresh, 10);
        assert_eq!(l.exchange, 15);
        assert_eq!(l.sweep, 2 + 48);
        assert_eq!(l.residual, 100 - 10 - 15 - 50);
        assert_eq!(l.other, 0);
        assert_eq!(ledger.execute_ns, 100);
        assert_eq!(ledger.executes, 1);
        ledger.check().unwrap();
        // The commit after the execute is not part of its subtree.
        assert_eq!(ledger.op_ns(TraceOp::RegionCommit), 0);
        // The lease slice holds the execute and the commit.
        let held = s.iter().position(|x| x.op == TraceOp::LeaseHeld).unwrap();
        assert_eq!(st[held], 125 - 100 - 8);
        assert_eq!(conflicted_acquires(&s), 1);
        let mut w = Window::default();
        assert_eq!(w.add_thread(&synthetic(), |_| true).unwrap(), 1);
        assert_eq!(w.ledger, ledger);
        assert_eq!(w.commit_ns, vec![8]);
        assert_eq!(w.lease_wait_ns, vec![5]);
        assert_eq!(w.conflicted, 1);
    }

    #[test]
    fn nested_unknown_ops_land_in_other_and_keep_the_identity() {
        let events = vec![
            b(TraceOp::Execute, 0),
            b(TraceOp::PlanRebind, 3),
            e(TraceOp::PlanRebind, 7),
            e(TraceOp::Execute, 10),
        ];
        let s = slices(&events).unwrap();
        let st = self_times(&s).unwrap();
        let mut ledger = Ledger::default();
        ledger.add(&s, &st, 0);
        assert_eq!(ledger.layers().other, 4);
        assert_eq!(ledger.layers().residual, 6);
        ledger.check().unwrap();
    }

    #[test]
    fn malformed_traces_are_rejected() {
        let crossed = vec![
            b(TraceOp::Execute, 0),
            b(TraceOp::KernelSweep, 1),
            e(TraceOp::Execute, 2),
            e(TraceOp::KernelSweep, 3),
        ];
        assert!(slices(&crossed).is_err());
        assert!(slices(&[b(TraceOp::Execute, 0)]).is_err());
        assert!(slices(&[e(TraceOp::Execute, 0)]).is_err());
        assert!(slices(&[b(TraceOp::Execute, 5), e(TraceOp::Execute, 4)]).is_err());
    }
}
