//! The simulated machine: a SIMD array of nodes plus the shared field
//! allocator and the node grid.
//!
//! # Node memory
//!
//! Every node's words live in zeroed slabs of whole nodes, each at most
//! 1 GiB: the 16-node test board is one 256 MiB allocation, the
//! 2,048-node machine 32 of 1 GiB. An allocation that large comes back
//! from the host allocator as fresh demand-zero pages (glibc maps
//! anything past its 32 MiB mmap ceiling afresh), so building a machine
//! costs microseconds and resident memory follows only the words a
//! workload touches. One zeroed buffer per node would instead be served,
//! once an earlier machine in the process has freed its nodes, from heap
//! blocks the allocator must zero word by word. The machine hands out
//! each node's memory as a plain `&[f32]` or `&mut [f32]`.
//!
//! # Parallel execution
//!
//! The real CM-2 runs every node *simultaneously*; this simulator can
//! too. Node memories are disjoint slices of the slabs
//! (`chunks_exact_mut`), so the borrow checker proves that node
//! executions cannot alias: [`Machine::run_resolved_all`] fans a
//! pre-resolved strip schedule out across host threads over contiguous,
//! disjoint chunks of nodes — one SIMD instruction stream, many cores.
//! The strips and machine configuration are plain shared data
//! (`Send + Sync`), so no locks are needed and results are bit-identical
//! to the serial path by construction.

use crate::config::MachineConfig;
use crate::exec::{run_resolved_strip, ExecMode, HazardError, ResolvedStrip, StripRun};
use crate::grid::{NodeGrid, NodeId};
use crate::memory::{Field, FieldAllocator, OutOfMemory, WriteStamps};
use std::ops::Range;

/// Words of node memory one slab holds at most: 1 GiB of `f32`, 64 of
/// the full machine's 16 MiB nodes. A node larger than that takes a slab
/// of its own.
const SLAB_WORDS: usize = 1 << 28;

/// A simulated CM-2: `rows × cols` nodes, each with its own memory,
/// executing identical instruction streams (SIMD).
///
/// Every write to node memory leaves a word-exact write stamp: a
/// monotone epoch per written address span, split exactly at write
/// boundaries, in bounded memory. Writers that can name their ranges go
/// through [`Machine::write_nodes`] and stamp exactly those; the raw
/// accessor that cannot ([`Machine::mem_mut`]) stamps all of memory.
/// Readers that keep snapshots — execution plans' lane mirrors — compare
/// the stamps against the [`Machine::write_epoch`] they synced at
/// ([`Machine::written_since`]) and re-read only what moved on.
///
/// # Examples
///
/// ```
/// use cmcc_cm2::config::MachineConfig;
/// use cmcc_cm2::grid::NodeId;
/// use cmcc_cm2::machine::Machine;
///
/// let mut machine = Machine::new(MachineConfig::tiny_4())?;
/// let field = machine.alloc_field(64)?;
/// machine.mem_mut(NodeId(0))[field.range()].fill(3.0);
/// assert_eq!(machine.mem(NodeId(0))[field.base()], 3.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    grid: NodeGrid,
    /// Every node's memory in node order, `config.node_memory_words`
    /// words per node, whole nodes packed into zeroed slabs of at most
    /// [`SLAB_WORDS`] words. Only the last slab may hold fewer nodes.
    slabs: Vec<Vec<f32>>,
    allocator: FieldAllocator,
    /// Word-exact stamps of every write to node memory. Resident
    /// execution plans compare them against the epoch their lane mirror
    /// was last synced at, so a write by anyone — host, another plan,
    /// this plan — to a range a mirror holds is seen at the next execute.
    stamps: WriteStamps,
}

/// Every node's memory in `slabs` of whole `words`-word nodes, mutably,
/// in node order.
fn node_slices(slabs: &mut [Vec<f32>], words: usize) -> Vec<&mut [f32]> {
    slabs
        .iter_mut()
        .flat_map(|slab| slab.chunks_exact_mut(words))
        .collect()
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration's own validation message if it is
    /// inconsistent.
    pub fn new(config: MachineConfig) -> Result<Self, String> {
        config.validate()?;
        let grid = NodeGrid::new(config.grid_rows, config.grid_cols);
        let words = config.node_memory_words;
        let slab_nodes = (SLAB_WORDS / words).max(1);
        let slabs = (0..grid.len())
            .step_by(slab_nodes)
            .map(|first| vec![0.0; slab_nodes.min(grid.len() - first) * words])
            .collect();
        let allocator = FieldAllocator::new(words);
        Ok(Machine {
            config,
            grid,
            slabs,
            allocator,
            stamps: WriteStamps::default(),
        })
    }

    /// The epoch of the newest write stamp. A reader records it when it
    /// snapshots node memory and later asks
    /// [`Machine::written_since`] whether its words moved on.
    pub fn write_epoch(&self) -> u64 {
        self.stamps.epoch()
    }

    /// Whether any address in `range` (on any node) was written after
    /// `epoch`.
    pub fn written_since(&self, range: Range<usize>, epoch: u64) -> bool {
        self.stamps.written_since(range, epoch)
    }

    /// Every node's memory, mutably and in node order, for stores
    /// confined to `ranges`: stamps exactly those address ranges as
    /// written. The caller promises to store nowhere else — this is the
    /// accessor every writer that can name its ranges goes through (array
    /// scatter, plan build, halo refresh and exchange, the commit), so a
    /// write to one array never invalidates snapshots of another.
    pub fn write_nodes(
        &mut self,
        ranges: impl IntoIterator<Item = Range<usize>>,
    ) -> Vec<&mut [f32]> {
        for range in ranges {
            self.stamps.stamp(range);
        }
        node_slices(&mut self.slabs, self.config.node_memory_words)
    }

    /// Stamps all of node memory: what a raw accessor that cannot name
    /// its range records.
    fn stamp_all(&mut self) {
        self.stamps.stamp(0..self.config.node_memory_words);
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The node grid.
    pub fn grid(&self) -> NodeGrid {
        self.grid
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.grid.len()
    }

    /// Allocates a field of `len` words on every node (SIMD addressing:
    /// the same addresses are valid machine-wide).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when node memory is exhausted.
    pub fn alloc_field(&mut self, len: usize) -> Result<Field, OutOfMemory> {
        self.allocator.alloc(len)
    }

    /// Allocates a plan-lifetime field on every node from the persistent
    /// arena at the top of memory. Unlike [`Machine::alloc_field`], the
    /// allocation survives [`Machine::release_to`] and must be returned
    /// with [`Machine::free_field_persistent`].
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when node memory is exhausted.
    pub fn alloc_field_persistent(&mut self, len: usize) -> Result<Field, OutOfMemory> {
        self.allocator.alloc_persistent(len)
    }

    /// Returns a persistent field to the arena.
    ///
    /// # Panics
    ///
    /// Panics if `field` was not allocated with
    /// [`Machine::alloc_field_persistent`].
    pub fn free_field_persistent(&mut self, field: Field) {
        self.allocator.free_persistent(field);
    }

    /// Total successful field allocations so far (temporary and
    /// persistent). Subtract two readings to assert a code path performs
    /// no allocations.
    pub fn alloc_count(&self) -> u64 {
        self.allocator.alloc_count()
    }

    /// Words currently held by the persistent arena (per node).
    pub fn persistent_used(&self) -> usize {
        self.allocator.persistent_used()
    }

    /// Checkpoint for LIFO release of temporary fields.
    pub fn alloc_mark(&self) -> usize {
        self.allocator.mark()
    }

    /// Releases all fields allocated after `mark` (on every node).
    pub fn release_to(&mut self, mark: usize) {
        self.allocator.release_to(mark);
    }

    /// Node `id`'s slab and the words it spans there. For an `id` past
    /// the last node, one of the two lies beyond the slabs, so indexing
    /// with them panics.
    fn locate(&self, id: NodeId) -> (usize, Range<usize>) {
        let words = self.config.node_memory_words;
        let slab_nodes = self.slabs[0].len() / words;
        let first = id.0 % slab_nodes * words;
        (id.0 / slab_nodes, first..first + words)
    }

    /// One node's memory.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn mem(&self, id: NodeId) -> &[f32] {
        let (slab, words) = self.locate(id);
        &self.slabs[slab][words]
    }

    /// One node's memory, mutably. Stamps all of memory as written;
    /// writers that know their range use [`Machine::write_nodes`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn mem_mut(&mut self, id: NodeId) -> &mut [f32] {
        self.stamp_all();
        let (slab, words) = self.locate(id);
        &mut self.slabs[slab][words]
    }

    /// The configuration plus every node's memory, read-only and in node
    /// order. This is the view a region-leased execute runs against —
    /// many tenants may hold it simultaneously under a shared machine
    /// lock, because a lane-resident execute only *reads* node memory
    /// (gathers into its private mirror) and defers its one write, the
    /// result, to a commit made later.
    pub fn exec_parts(&self) -> (&MachineConfig, Vec<&[f32]>) {
        let words = self.config.node_memory_words;
        let nodes = self
            .slabs
            .iter()
            .flat_map(|slab| slab.chunks_exact(words))
            .collect();
        (&self.config, nodes)
    }

    /// Executes a pre-resolved strip sequence on every node, fanning the
    /// nodes out over up to `threads` host threads (`1` = the serial
    /// path; clamped to `1..=node_count`) — the scalar engine.
    ///
    /// The reduction over nodes is deterministic and thread-count
    /// invariant: the machine is a lockstep SIMD array, so per-node
    /// counters agree (checked in every build) and the reduced cycle
    /// count is the maximum — the array advances at the pace of its
    /// slowest node. Nodes are reduced in node order regardless of which
    /// thread ran them, so the result is bit-identical for every
    /// `threads` value.
    ///
    /// `writes` names the address ranges the strips store into (an
    /// execution plan passes its writable lease ranges); exactly those
    /// are stamped.
    ///
    /// # Errors
    ///
    /// Returns [`HazardError`] if a strip is miscompiled (cycle mode);
    /// when several nodes fault, the lowest-numbered node's error wins,
    /// independent of thread count.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (a kernel addressing bug).
    pub fn run_resolved_all(
        &mut self,
        strips: &[ResolvedStrip],
        writes: impl IntoIterator<Item = Range<usize>>,
        mode: ExecMode,
        threads: usize,
    ) -> Result<StripRun, HazardError> {
        if strips.is_empty() {
            return Ok(StripRun::default());
        }
        for range in writes {
            self.stamps.stamp(range);
        }
        let _t = cmcc_obs::trace::scope(cmcc_obs::trace::TraceOp::KernelSweep, strips.len() as u64);
        cmcc_obs::add(
            cmcc_obs::Counter::ScalarSteps,
            strips.iter().map(|s| s.steps()).sum(),
        );
        let config = &self.config;
        let mut nodes = node_slices(&mut self.slabs, config.node_memory_words);
        let threads = threads.clamp(1, nodes.len());
        let run_node = |mem: &mut [f32]| -> Result<StripRun, HazardError> {
            let mut total = StripRun::default();
            for strip in strips {
                total.absorb(&run_resolved_strip(strip, mem, config, mode)?);
            }
            Ok(total)
        };
        let per_node: Vec<Result<StripRun, HazardError>> = if threads == 1 {
            let _cpu = cmcc_obs::span(cmcc_obs::Phase::ExecuteWorkers);
            nodes.into_iter().map(run_node).collect()
        } else {
            let run_node = &run_node;
            let chunk = nodes.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = nodes
                    .chunks_mut(chunk)
                    .map(|mems| {
                        scope.spawn(move || {
                            let _cpu = cmcc_obs::span(cmcc_obs::Phase::ExecuteWorkers);
                            mems.iter_mut().map(|mem| run_node(mem)).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("node worker panicked"))
                    .collect()
            })
        };
        let mut reduced: Option<StripRun> = None;
        for result in per_node {
            let run = result?;
            match &mut reduced {
                None => reduced = Some(run),
                Some(acc) => {
                    assert_eq!(*acc, run, "SIMD nodes must agree on cycle counts");
                    acc.cycles = acc.cycles.max(run.cycles);
                }
            }
        }
        Ok(reduced.expect("machine has at least one node"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::tiny_4()).unwrap()
    }

    #[test]
    fn construction_matches_config() {
        let m = machine();
        assert_eq!(m.node_count(), 4);
        assert_eq!(m.grid().rows(), 2);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = MachineConfig::tiny_4();
        cfg.grid_cols = 0;
        assert!(Machine::new(cfg).is_err());
    }

    #[test]
    fn fields_are_shared_addresses_private_data() {
        let mut m = machine();
        let f = m.alloc_field(8).unwrap();
        let n0 = m.grid().id(0, 0);
        let n1 = m.grid().id(0, 1);
        m.mem_mut(n0)[f.range()].fill(1.0);
        m.mem_mut(n1)[f.range()].fill(2.0);
        assert_eq!(m.mem(n0)[f.base()], 1.0);
        assert_eq!(m.mem(n1)[f.base()], 2.0);
    }

    #[test]
    fn exec_parts_expose_all_nodes() {
        let m = machine();
        let (cfg, nodes) = m.exec_parts();
        assert_eq!(cfg.node_count(), nodes.len());
        assert!(nodes.iter().all(|n| n.len() == cfg.node_memory_words));
    }

    /// The test board's 16 nodes of 16 MiB are one 256 MiB slab.
    #[test]
    fn test_board_memory_is_one_allocation() {
        let m = Machine::new(MachineConfig::test_board_16()).unwrap();
        assert_eq!(m.slabs.len(), 1);
        assert_eq!(m.slabs[0].len(), 16 << 22);
    }

    /// The full machine's 2,048 nodes of 16 MiB take 32 slabs of 64
    /// nodes (one 32 GiB buffer would not allocate on a 16 GiB host).
    /// Words read zero, and a word at the last address of node 63 and
    /// one at the first address of node 64 — the first slab seam — are
    /// seen on those two nodes only, through `mem` and `exec_parts`
    /// alike.
    #[test]
    fn full_machine_slabs_split_at_whole_nodes() {
        let mut m = Machine::new(MachineConfig::full_machine_2048()).unwrap();
        assert_eq!(m.slabs.len(), 32);
        assert!(m.slabs.iter().all(|slab| slab.len() == SLAB_WORDS));
        let last = m.config().node_memory_words - 1;
        m.mem_mut(NodeId(63))[last] = 1.0;
        m.mem_mut(NodeId(64))[0] = 2.0;
        let (_, nodes) = m.exec_parts();
        assert_eq!(nodes.len(), 2048);
        for (n, node) in nodes.iter().enumerate() {
            let want = match n {
                63 => (0.0, 1.0),
                64 => (2.0, 0.0),
                _ => (0.0, 0.0),
            };
            let mem = m.mem(NodeId(n));
            assert_eq!((mem[0], mem[last]), want, "mem, node {n}");
            assert_eq!((node[0], node[last]), want, "exec_parts, node {n}");
        }
    }

    #[test]
    fn shared_execution_inputs_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MachineConfig>();
        assert_send_sync::<crate::isa::Kernel>();
        assert_send_sync::<crate::exec::StripContext<'static>>();
        assert_send_sync::<ResolvedStrip>();
    }

    /// A minimal strip (one store of the ones page into the result field
    /// per line) whose execution writes real data on every node — enough
    /// to observe that serial and threaded runs agree bitwise.
    fn store_strip_fixture(m: &mut Machine) -> (Field, ResolvedStrip) {
        use crate::exec::{FieldLayout, StripContext};
        use crate::isa::{DynamicPart, Kernel, MemRef, Reg, StaticPart};
        let consts = m.alloc_field(2).unwrap();
        let res = m.alloc_field(4).unwrap();
        for mem in m.write_nodes([consts.range()]) {
            mem[consts.addr(0)] = 1.0;
            mem[consts.addr(1)] = 0.0;
        }
        let kernel = Kernel {
            static_part: StaticPart::ChainedMac,
            width: 1,
            row_step: -1,
            prologue: vec![],
            body: vec![vec![
                DynamicPart::Load {
                    src: MemRef::Ones,
                    dest: Reg(2),
                },
                DynamicPart::Nop,
                DynamicPart::Nop,
                DynamicPart::Nop,
                DynamicPart::Store {
                    src: Reg(2),
                    dest: MemRef::Result { col: 0 },
                },
            ]],
            useful_flops_per_line: 0,
        };
        let ctx = StripContext {
            srcs: &[],
            res: FieldLayout {
                base: res.base(),
                row_stride: 1,
                row_offset: 0,
                col_offset: 0,
            },
            coeffs: &[],
            ones_addr: consts.addr(0),
            zeros_addr: consts.addr(1),
            start_row: 3,
            lines: 4,
            col0: 0,
        };
        (res, ResolvedStrip::new(&kernel, &ctx))
    }

    #[test]
    fn resolved_runs_are_thread_count_invariant() {
        let mut runs_by_threads = Vec::new();
        for threads in [1usize, 2, 3, 8] {
            let mut m = machine();
            let (res, strip) = store_strip_fixture(&mut m);
            let strips = vec![strip; 3];
            let run = m
                .run_resolved_all(&strips, [res.range()], ExecMode::Cycle, threads)
                .unwrap();
            assert_eq!(run.stores, 12);
            for n in 0..m.node_count() {
                assert_eq!(&m.mem(NodeId(n))[res.range()], &[1.0; 4]);
            }
            runs_by_threads.push(run);
        }
        for other in &runs_by_threads[1..] {
            assert_eq!(&runs_by_threads[0], other);
        }
    }

    #[test]
    fn empty_schedule_is_a_no_op() {
        let mut m = machine();
        let run = m
            .run_resolved_all(&[], std::iter::empty(), ExecMode::Cycle, 8)
            .unwrap();
        assert_eq!(run, StripRun::default());
    }

    #[test]
    fn release_to_reclaims_temporaries() {
        let mut m = machine();
        let _persistent = m.alloc_field(16).unwrap();
        let mark = m.alloc_mark();
        let t1 = m.alloc_field(100).unwrap();
        m.release_to(mark);
        let t2 = m.alloc_field(10).unwrap();
        assert_eq!(t1.base(), t2.base());
    }
}
