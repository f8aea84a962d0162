//! Machine configuration: sizes, clock rate, and the latency/overhead
//! constants of the cycle model.
//!
//! Every constant is motivated by a sentence of the PLDI 1991 paper; the
//! citation is given next to each field. Two presets are provided:
//! [`MachineConfig::test_board_16`], the 16-node single-board machine on
//! which the paper's measurements were taken, and
//! [`MachineConfig::full_machine_2048`], the full 65,536-processor CM-2
//! (2,048 floating-point nodes) to which the paper extrapolates.
//!
//! Three fields are choices of the machine's microcode and run-time
//! library rather than constants: the grid primitive, the half-strip
//! split and the corner-exchange skip. Every preset takes the paper's
//! choice; an ablation builds a second config with one of them flipped.

use crate::news::ExchangePrimitive;

/// Number of 32-bit registers in the Weitek WTL3164 register file.
///
/// Paper §5.3: "The 32 internal registers of the floating-point unit".
pub const FPU_REGISTERS: usize = 32;

/// Configuration of a simulated CM-2.
///
/// # Examples
///
/// ```
/// use cmcc_cm2::config::MachineConfig;
///
/// let cfg = MachineConfig::test_board_16();
/// assert_eq!(cfg.node_count(), 16);
/// let full = MachineConfig::full_machine_2048();
/// assert_eq!(full.node_count(), 2048);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Node grid rows (nodes are arranged in a 2-D grid; paper §5:
    /// "if there were only 16 nodes, they would be arranged as a 4×4 grid").
    pub grid_rows: usize,
    /// Node grid columns.
    pub grid_cols: usize,
    /// Clock rate in Hz. Paper §7: "In all cases the clock rate of the
    /// Connection Machine system was 7 MHz."
    pub clock_hz: f64,
    /// Per-node memory size in 32-bit words (slicewise format).
    pub node_memory_words: usize,
    /// Cycles between issuing a load and the value being readable from the
    /// register file. Paper §5.3: "the presence of the interface chip
    /// between the floating-point unit and memory introduces a cycle of
    /// latency. This latency is overcome by pipelining."
    pub load_commit_latency: u32,
    /// Cycles between issuing the final multiply-add of a chain and the sum
    /// being readable in its destination register. Paper §4.2: "a
    /// multiplication started on cycle k will become an operand of the
    /// addition started on cycle k+2; the result of that addition will be
    /// stored into the destination register on cycle k+4."
    pub mac_commit_latency: u32,
    /// Issue cycles per chained multiply-add step. **Calibrated, not
    /// cited**: the paper's sustained rates (9-point patterns at 85–92
    /// Mflops on 16 nodes, i.e. ≈21 cycles per point at width 8) are only
    /// reachable if each multiply-add paces at two clocks — consistent
    /// with the coefficient stream and the dynamic-part issue sharing the
    /// path to memory. Loads and stores remain single transfers. See
    /// EXPERIMENTS.md for the calibration derivation.
    pub mac_issue_cycles: u32,
    /// Penalty cycles whenever the memory-interface pipe changes direction
    /// (loads/coefficient streaming vs. stores). Paper §5.3: "there is a
    /// penalty every time the direction of this pipe is reversed."
    pub pipe_reversal_penalty: u32,
    /// Sequencer cycles per microcode line iteration (loop bookkeeping).
    /// Paper §4.3: "changing the counter to a new value ties up the ALU for
    /// one cycle" and "one cannot perform a simple conditional branch ...
    /// on the same cycle that one is issuing a dynamic floating-point
    /// instruction part" — the loop-back branch needs its own cycle.
    pub line_loop_overhead: u32,
    /// Sequencer cycles to start up the microcode loop for one half-strip
    /// (latch the static instruction part, set counters, compute base
    /// addresses from run-time parameters). Paper §5.2: "additional
    /// overhead for having to start up the microcode loop twice as many
    /// times" — this is that per-startup cost.
    pub halfstrip_startup_cycles: u32,
    /// Front-end (host) cycles, expressed in CM clock cycles, to dispatch
    /// one microcode call. Paper §7: "the microcode loops are so fast that
    /// the front end computer is hard pressed to keep up."
    pub frontend_dispatch_cycles: u32,
    /// Front-end cycles of fixed overhead per whole stencil call (argument
    /// checking, temporary allocation bookkeeping in the run-time library).
    pub call_overhead_cycles: u32,
    /// Communication: startup cycles per grid-exchange step.
    pub comm_startup_cycles: u32,
    /// Communication: cycles per 32-bit element per hop. One bit-serial
    /// wire pair per hypercube edge at twice the single-wire bandwidth
    /// (paper §3: nodes form an 11-cube "where each edge ... has two
    /// communications wires along it"); a 32-bit word therefore costs on
    /// the order of 16 cycles per element per direction.
    pub comm_cycles_per_element: u32,
    /// Which grid primitive the halo exchange uses. Paper §4.1: the new
    /// microcoded primitive "allows each node to pass data to all four
    /// neighbors simultaneously"; [`ExchangePrimitive::OldPerDirection`]
    /// is the older one-direction-at-a-time primitive (the communication
    /// ablation and the 1989 library baseline).
    pub primitive: ExchangePrimitive,
    /// Whether the run-time library runs each strip as two half-strips.
    /// Paper §5.2: the microcode is kept simple "at the cost of having
    /// to start up the microcode loop twice as many times"; `false` is
    /// the full-strip ablation.
    pub half_strips: bool,
    /// Whether the run-time library skips the corner-exchange step for
    /// stencils without diagonal taps. Paper §5.1: the step "may be
    /// omitted", and "the test is very easy and quick"; `false` is the
    /// corner ablation.
    pub skip_corners_when_possible: bool,
}

impl MachineConfig {
    /// The 16-node single-board machine used for the paper's measurements
    /// (§7: "small 16-node single-board machines that are used within
    /// Thinking Machines Corporation for software testing").
    pub fn test_board_16() -> Self {
        MachineConfig {
            grid_rows: 4,
            grid_cols: 4,
            clock_hz: 7.0e6,
            node_memory_words: 1 << 22,
            load_commit_latency: 2,
            mac_commit_latency: 4,
            mac_issue_cycles: 2,
            pipe_reversal_penalty: 2,
            line_loop_overhead: 2,
            halfstrip_startup_cycles: 40,
            frontend_dispatch_cycles: 600,
            call_overhead_cycles: 4000,
            comm_startup_cycles: 64,
            comm_cycles_per_element: 16,
            primitive: ExchangePrimitive::News,
            half_strips: true,
            skip_corners_when_possible: true,
        }
    }

    /// A full-size CM-2: 65,536 bit-serial processors = 2,048 FPU nodes,
    /// arranged here as a 64×32 node grid (paper §3).
    pub fn full_machine_2048() -> Self {
        MachineConfig {
            grid_rows: 64,
            grid_cols: 32,
            ..Self::test_board_16()
        }
    }

    /// A tiny 2×2 machine for fast unit tests.
    pub fn tiny_4() -> Self {
        MachineConfig {
            grid_rows: 2,
            grid_cols: 2,
            node_memory_words: 1 << 18,
            ..Self::test_board_16()
        }
    }

    /// Total number of floating-point nodes.
    pub fn node_count(&self) -> usize {
        self.grid_rows * self.grid_cols
    }

    /// Peak flop rate: two floating-point operations (one multiply and one
    /// add) per node per cycle (paper §4.2: "chained multiply-add
    /// operations ... allowing two floating-point operations to occur per
    /// clock cycle").
    pub fn peak_flops(&self) -> f64 {
        2.0 * self.clock_hz * self.node_count() as f64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message if any dimension is zero or a latency is
    /// implausible (a MAC that commits before it issues, say).
    pub fn validate(&self) -> Result<(), String> {
        if self.grid_rows == 0 || self.grid_cols == 0 {
            return Err("node grid dimensions must be nonzero".to_owned());
        }
        if self.clock_hz <= 0.0 {
            return Err("clock rate must be positive".to_owned());
        }
        if self.node_memory_words == 0 {
            return Err("node memory must be nonzero".to_owned());
        }
        if self.mac_commit_latency == 0 {
            return Err("multiply-add commit latency must be at least 1".to_owned());
        }
        if self.mac_issue_cycles == 0 {
            return Err("multiply-add issue cost must be at least 1 cycle".to_owned());
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    /// Defaults to the measurement platform, the 16-node test board.
    fn default() -> Self {
        Self::test_board_16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        MachineConfig::test_board_16().validate().unwrap();
        MachineConfig::full_machine_2048().validate().unwrap();
        MachineConfig::tiny_4().validate().unwrap();
    }

    #[test]
    fn node_counts_match_paper() {
        assert_eq!(MachineConfig::test_board_16().node_count(), 16);
        assert_eq!(MachineConfig::full_machine_2048().node_count(), 2048);
    }

    #[test]
    fn peak_rate_of_full_machine_is_about_28_gigaflops() {
        // 2048 nodes × 7 MHz × 2 flops = 28.7 Gflops; the paper's 14.88
        // Gflops sustained is ~52% of this peak.
        let peak = MachineConfig::full_machine_2048().peak_flops();
        assert!((peak - 28.672e9).abs() < 1e6, "peak = {peak}");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = MachineConfig::test_board_16();
        cfg.grid_rows = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::test_board_16();
        cfg.clock_hz = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::test_board_16();
        cfg.mac_commit_latency = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_is_test_board() {
        assert_eq!(MachineConfig::default(), MachineConfig::test_board_16());
    }
}
