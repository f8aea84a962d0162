//! Grid communication primitives and their cost models.
//!
//! The paper microcodes a *new* grid communication primitive that
//! "organizes nodes, not processors, into a two-dimensional grid, and
//! allows each node to pass data to all four neighbors simultaneously"
//! (§4.1), replacing the older primitive that moved one datum per
//! processor in a single direction at a time. This module models both:
//! the new primitive's cost is governed by the *largest* per-direction
//! transfer (all four proceed in parallel over distinct hypercube wires),
//! while the old primitive pays for each direction in sequence.
//!
//! Actual data movement between node memories is performed by
//! [`crate::memory::copy_between`], one copy of a run-time library's
//! exchange program at a time; this module prices it.
//! Which primitive a machine has is a property of its microcode,
//! [`MachineConfig::primitive`]; [`exchange_cycles`] prices an exchange
//! under it.

use crate::config::MachineConfig;

/// Which grid-communication primitive a machine's run-time library uses
/// for the halo exchange (the data moved is identical; §4.1 describes
/// the new primitive's advantage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExchangePrimitive {
    /// The paper's new microcoded primitive: all four neighbors at once.
    #[default]
    News,
    /// The older primitive: one direction at a time.
    OldPerDirection,
}

/// Element counts to exchange with each of the four neighbors in one
/// communication step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeShape {
    /// Words sent to (and received from) the north neighbor.
    pub north: usize,
    /// Words sent south.
    pub south: usize,
    /// Words sent east.
    pub east: usize,
    /// Words sent west.
    pub west: usize,
}

impl ExchangeShape {
    /// A symmetric exchange of `rows`/`cols` words on each axis.
    pub fn symmetric(vertical: usize, horizontal: usize) -> Self {
        ExchangeShape {
            north: vertical,
            south: vertical,
            east: horizontal,
            west: horizontal,
        }
    }

    /// The largest single-direction transfer.
    pub fn max_transfer(&self) -> usize {
        self.north.max(self.south).max(self.east).max(self.west)
    }

    /// Total words moved (all directions).
    pub fn total(&self) -> usize {
        self.north + self.south + self.east + self.west
    }

    /// Whether nothing is exchanged.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

/// Cycles for one step of the *new* four-neighbor simultaneous exchange.
///
/// All four directions proceed in parallel, so the cost is the startup
/// plus the largest per-direction transfer. This is why "the
/// communications time will be proportional to the length of the longer
/// side" of the subgrid (§5.1).
pub fn news_exchange_cycles(cfg: &MachineConfig, shape: ExchangeShape) -> u64 {
    if shape.is_empty() {
        return 0;
    }
    u64::from(cfg.comm_startup_cycles)
        + u64::from(cfg.comm_cycles_per_element) * shape.max_transfer() as u64
}

/// Cycles for the *old* primitive: one direction at a time, each with its
/// own startup. Used by the hand-library baseline and the communication
/// ablation.
pub fn old_exchange_cycles(cfg: &MachineConfig, shape: ExchangeShape) -> u64 {
    [shape.north, shape.south, shape.east, shape.west]
        .into_iter()
        .filter(|&n| n > 0)
        .map(|n| {
            u64::from(cfg.comm_startup_cycles) + u64::from(cfg.comm_cycles_per_element) * n as u64
        })
        .sum()
}

/// Cycles for one edge-exchange step on `cfg`'s machine, priced by the
/// primitive it has ([`MachineConfig::primitive`]).
pub fn exchange_cycles(cfg: &MachineConfig, shape: ExchangeShape) -> u64 {
    match cfg.primitive {
        ExchangePrimitive::News => news_exchange_cycles(cfg, shape),
        ExchangePrimitive::OldPerDirection => old_exchange_cycles(cfg, shape),
    }
}

/// Cycles for the third (corner) exchange step: each node forwards corner
/// blocks so that diagonal-neighbor data arrives in two hops. The step
/// "may be omitted" when the stencil needs no corner data (§5.1); callers
/// simply skip calling this.
pub fn corner_exchange_cycles(cfg: &MachineConfig, corner_words: usize) -> u64 {
    if corner_words == 0 {
        return 0;
    }
    u64::from(cfg.comm_startup_cycles)
        + u64::from(cfg.comm_cycles_per_element) * corner_words as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::test_board_16()
    }

    #[test]
    fn new_primitive_costs_the_longest_side_only() {
        let shape = ExchangeShape {
            north: 256,
            south: 256,
            east: 64,
            west: 64,
        };
        let cycles = news_exchange_cycles(&cfg(), shape);
        assert_eq!(
            cycles,
            u64::from(cfg().comm_startup_cycles) + 256 * u64::from(cfg().comm_cycles_per_element)
        );
    }

    #[test]
    fn old_primitive_pays_per_direction() {
        let shape = ExchangeShape::symmetric(100, 50);
        let new = news_exchange_cycles(&cfg(), shape);
        let old = old_exchange_cycles(&cfg(), shape);
        assert!(old > new, "old {old} must exceed new {new}");
        assert_eq!(
            old,
            4 * u64::from(cfg().comm_startup_cycles)
                + 300 * u64::from(cfg().comm_cycles_per_element)
        );
    }

    #[test]
    fn empty_exchanges_are_free() {
        assert_eq!(news_exchange_cycles(&cfg(), ExchangeShape::default()), 0);
        assert_eq!(old_exchange_cycles(&cfg(), ExchangeShape::default()), 0);
        assert_eq!(corner_exchange_cycles(&cfg(), 0), 0);
    }

    #[test]
    fn old_primitive_skips_zero_directions() {
        let shape = ExchangeShape {
            north: 10,
            south: 0,
            east: 0,
            west: 0,
        };
        assert_eq!(
            old_exchange_cycles(&cfg(), shape),
            u64::from(cfg().comm_startup_cycles) + 10 * u64::from(cfg().comm_cycles_per_element)
        );
    }

    #[test]
    fn corner_step_is_priced_like_a_small_exchange() {
        let c = corner_exchange_cycles(&cfg(), 9);
        assert!(c > 0);
        assert!(c < news_exchange_cycles(&cfg(), ExchangeShape::symmetric(256, 256)));
    }

    #[test]
    fn shape_accessors() {
        let s = ExchangeShape::symmetric(3, 7);
        assert_eq!(s.max_transfer(), 7);
        assert_eq!(s.total(), 20);
        assert!(!s.is_empty());
    }
}
