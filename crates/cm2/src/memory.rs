//! Per-node memory and the SIMD field allocator.
//!
//! Every node of the CM-2 carries its own memory, but because the machine
//! is SIMD, all nodes use the *same* addresses for the same arrays: the
//! run-time library allocates a "field" (a named region) once and every
//! node interprets the address identically. [`FieldAllocator`] hands out
//! those shared addresses; a node's storage is a plain `[f32]` slice of
//! the machine's node memory ([`crate::machine::Machine::mem`]).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// A shared per-node memory region descriptor.
///
/// The same `Field` is valid on every node of a machine (SIMD addressing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Field {
    base: usize,
    len: usize,
}

impl Field {
    /// Base address of the field in node memory.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Length of the field in 32-bit words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the field is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The node-memory addresses the field occupies.
    pub fn range(&self) -> Range<usize> {
        self.base..self.base + self.len
    }

    /// The address of word `offset` within the field.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds.
    pub fn addr(&self, offset: usize) -> usize {
        assert!(
            offset < self.len,
            "field offset {offset} out of bounds ({})",
            self.len
        );
        self.base + offset
    }
}

/// Allocator for per-node memory fields.
///
/// The paper's run-time library "takes care of allocating temporary memory
/// space" (§5); this allocator plays that role. It manages two regions:
///
/// * a **bump region** growing up from address 0 — stencil calls allocate
///   temporaries and release them in LIFO order via
///   [`FieldAllocator::mark`] / [`FieldAllocator::release_to`];
/// * a **persistent arena** growing down from the top of memory — used
///   for plan-lifetime allocations (cached execution plans) that outlive
///   any single call and are freed out of order via
///   [`FieldAllocator::free_persistent`], backed by a coalescing
///   first-fit free list.
///
/// Every successful allocation (either region) increments a counter
/// readable through [`FieldAllocator::alloc_count`], which tests and
/// benches use to assert that steady-state plan execution performs zero
/// field allocations.
///
/// # Examples
///
/// ```
/// use cmcc_cm2::memory::FieldAllocator;
///
/// let mut alloc = FieldAllocator::new(1024);
/// let a = alloc.alloc(100)?;
/// let mark = alloc.mark();
/// let tmp = alloc.alloc(200)?;
/// assert_ne!(a.base(), tmp.base());
/// alloc.release_to(mark);
/// let tmp2 = alloc.alloc(50)?;
/// assert_eq!(tmp.base(), tmp2.base()); // temporaries reuse the region
/// # Ok::<(), cmcc_cm2::memory::OutOfMemory>(())
/// ```
#[derive(Debug, Clone)]
pub struct FieldAllocator {
    capacity: usize,
    next: usize,
    /// Lower boundary of the persistent arena: `[floor, capacity)` is
    /// persistent territory, `[0, floor)` belongs to the bump region.
    floor: usize,
    /// Free blocks inside the persistent arena, sorted by base address.
    free: Vec<Field>,
    /// Count of successful allocations, both regions.
    allocs: u64,
}

/// Error returned when node memory is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Words requested.
    pub requested: usize,
    /// Words remaining.
    pub available: usize,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node memory exhausted: requested {} words, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

impl FieldAllocator {
    /// Creates an allocator over `capacity` words of node memory.
    pub fn new(capacity: usize) -> Self {
        FieldAllocator {
            capacity,
            next: 0,
            floor: capacity,
            free: Vec::new(),
            allocs: 0,
        }
    }

    /// Allocates a field of `len` words from the bump region.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the request does not fit below the
    /// persistent arena.
    pub fn alloc(&mut self, len: usize) -> Result<Field, OutOfMemory> {
        if self.floor - self.next < len {
            return Err(OutOfMemory {
                requested: len,
                available: self.floor - self.next,
            });
        }
        let field = Field {
            base: self.next,
            len,
        };
        self.next += len;
        self.allocs += 1;
        Ok(field)
    }

    /// Allocates a plan-lifetime field from the persistent arena at the
    /// top of memory.
    ///
    /// Unlike [`FieldAllocator::alloc`], persistent fields survive
    /// [`FieldAllocator::release_to`] and are returned individually with
    /// [`FieldAllocator::free_persistent`]. Freed blocks are recycled
    /// first-fit before the arena grows downward.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when neither a free block nor the gap
    /// above the bump region can satisfy the request.
    pub fn alloc_persistent(&mut self, len: usize) -> Result<Field, OutOfMemory> {
        if len == 0 {
            self.allocs += 1;
            return Ok(Field {
                base: self.floor,
                len: 0,
            });
        }
        // First fit from recycled blocks.
        if let Some(i) = self.free.iter().position(|f| f.len >= len) {
            let block = self.free[i];
            let field = Field {
                base: block.base,
                len,
            };
            if block.len == len {
                self.free.remove(i);
            } else {
                self.free[i] = Field {
                    base: block.base + len,
                    len: block.len - len,
                };
            }
            self.allocs += 1;
            return Ok(field);
        }
        // Grow the arena downward toward the bump region.
        if self.floor - self.next < len {
            return Err(OutOfMemory {
                requested: len,
                available: self.floor - self.next,
            });
        }
        self.floor -= len;
        self.allocs += 1;
        Ok(Field {
            base: self.floor,
            len,
        })
    }

    /// Returns a persistent field to the arena.
    ///
    /// Adjacent free blocks coalesce; free space touching the arena
    /// boundary is given back to the bump region.
    ///
    /// # Panics
    ///
    /// Panics if `field` does not lie inside the persistent arena.
    pub fn free_persistent(&mut self, field: Field) {
        if field.len == 0 {
            return;
        }
        assert!(
            field.base >= self.floor && field.base + field.len <= self.capacity,
            "free_persistent of field at {}..{} outside arena {}..{}",
            field.base,
            field.base + field.len,
            self.floor,
            self.capacity
        );
        let pos = self
            .free
            .iter()
            .position(|f| f.base > field.base)
            .unwrap_or(self.free.len());
        self.free.insert(pos, field);
        // Coalesce with the following block, then with the preceding one.
        if pos + 1 < self.free.len()
            && self.free[pos].base + self.free[pos].len == self.free[pos + 1].base
        {
            self.free[pos].len += self.free[pos + 1].len;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].base + self.free[pos - 1].len == self.free[pos].base {
            self.free[pos - 1].len += self.free[pos].len;
            self.free.remove(pos);
        }
        // Give the lowest free block back to the bump region when it
        // touches the arena boundary.
        if let Some(first) = self.free.first().copied() {
            if first.base == self.floor {
                self.floor += first.len;
                self.free.remove(0);
            }
        }
    }

    /// Total successful allocations so far (bump and persistent).
    ///
    /// Tests subtract two readings of this counter to assert a code path
    /// allocates no fields.
    pub fn alloc_count(&self) -> u64 {
        self.allocs
    }

    /// Words currently allocated in the bump region.
    pub fn used(&self) -> usize {
        self.next
    }

    /// Words currently held by the persistent arena (including
    /// fragmentation holes awaiting reuse).
    pub fn persistent_used(&self) -> usize {
        self.capacity - self.floor
    }

    /// A checkpoint for LIFO release of temporaries.
    pub fn mark(&self) -> usize {
        self.next
    }

    /// Releases every allocation made after `mark`.
    ///
    /// # Panics
    ///
    /// Panics if `mark` is in the future (greater than the current
    /// allocation point).
    pub fn release_to(&mut self, mark: usize) {
        assert!(
            mark <= self.next,
            "release mark {mark} is ahead of allocator at {}",
            self.next
        );
        self.next = mark;
    }
}

/// Stamped spans beyond which [`WriteStamps`] merges neighbors.
const MAX_STAMP_SPANS: usize = 4096;

/// Word-exact write stamps over node-memory addresses.
///
/// Every write to node memory is recorded as a span of addresses plus a
/// monotone epoch (SIMD addressing: one stamp covers that span on every
/// node). A holder of a snapshot — a lane mirror, a packed coefficient
/// stream — remembers the [`WriteStamps::epoch`] it was taken at and later
/// asks [`WriteStamps::written_since`] whether any of its words moved on.
///
/// Spans are disjoint and split exactly at write boundaries, so stamping
/// one array never makes an adjacent array look written. Memory stays
/// bounded: past `MAX_STAMP_SPANS` spans, neighbors merge pairwise under
/// the newer epoch — a conservative answer (a reader may re-read words
/// nobody wrote), never a missed write.
#[derive(Debug, Clone, Default)]
pub(crate) struct WriteStamps {
    epoch: u64,
    /// Disjoint stamped spans keyed by start address: `start → (end, epoch)`.
    spans: BTreeMap<usize, (usize, u64)>,
}

impl WriteStamps {
    /// The epoch of the newest stamp (0 before the first). A reader that
    /// syncs now records this value and passes it to
    /// [`WriteStamps::written_since`] later.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records a write to every address in `range` under a fresh epoch.
    pub(crate) fn stamp(&mut self, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        self.epoch += 1;
        // A span straddling the start keeps its head (and, if it also
        // straddles the end, its tail).
        if let Some((&start, &(end, epoch))) = self.spans.range(..range.start).next_back() {
            if end > range.start {
                self.spans.insert(start, (range.start, epoch));
                if end > range.end {
                    self.spans.insert(range.end, (end, epoch));
                }
            }
        }
        // Spans starting inside the range go; the last one's tail stays.
        while let Some((&start, &(end, epoch))) = self.spans.range(range.clone()).next() {
            self.spans.remove(&start);
            if end > range.end {
                self.spans.insert(range.end, (end, epoch));
            }
        }
        self.spans.insert(range.start, (range.end, self.epoch));
        if self.spans.len() > MAX_STAMP_SPANS {
            self.merge_pairs();
        }
    }

    /// Whether any address in `range` was stamped after `epoch`.
    pub(crate) fn written_since(&self, range: Range<usize>, epoch: u64) -> bool {
        if range.is_empty() {
            return false;
        }
        let straddles = self
            .spans
            .range(..range.start)
            .next_back()
            .is_some_and(|(_, &(end, e))| end > range.start && e > epoch);
        straddles || self.spans.range(range).any(|(_, &(_, e))| e > epoch)
    }

    /// Halves the span count by merging neighbors pairwise (gap included)
    /// under the newer epoch.
    fn merge_pairs(&mut self) {
        let spans = std::mem::take(&mut self.spans);
        let mut it = spans.into_iter();
        while let Some((start, (end, epoch))) = it.next() {
            let merged = match it.next() {
                Some((_, (end2, epoch2))) => (end2, epoch.max(epoch2)),
                None => (end, epoch),
            };
            self.spans.insert(start, merged);
        }
    }
}

/// Copies `len` words from `src_addr` on node `src` to `dst_addr` on node
/// `dst` — one grid-exchange copy over a machine's node memories, one
/// slice per node. The two nodes may coincide (the runs may then
/// overlap).
///
/// # Panics
///
/// Panics on out-of-range nodes or addresses.
pub fn copy_between(
    mems: &mut [&mut [f32]],
    src: usize,
    src_addr: usize,
    dst: usize,
    dst_addr: usize,
    len: usize,
) {
    if src == dst {
        mems[src].copy_within(src_addr..src_addr + len, dst_addr);
    } else {
        let [from, to] = mems
            .get_disjoint_mut([src, dst])
            .expect("exchange nodes in range");
        to[dst_addr..dst_addr + len].copy_from_slice(&from[src_addr..src_addr + len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_sequential_and_bounded() {
        let mut a = FieldAllocator::new(10);
        let f1 = a.alloc(4).unwrap();
        let f2 = a.alloc(6).unwrap();
        assert_eq!(f1.base(), 0);
        assert_eq!(f2.base(), 4);
        let err = a.alloc(1).unwrap_err();
        assert_eq!(err.available, 0);
        assert!(err.to_string().contains("exhausted"));
    }

    #[test]
    fn release_to_mark_reuses_space() {
        let mut a = FieldAllocator::new(100);
        a.alloc(10).unwrap();
        let mark = a.mark();
        a.alloc(50).unwrap();
        a.release_to(mark);
        assert_eq!(a.used(), 10);
        let f = a.alloc(20).unwrap();
        assert_eq!(f.base(), 10);
    }

    #[test]
    #[should_panic(expected = "ahead of allocator")]
    fn future_mark_panics() {
        let mut a = FieldAllocator::new(100);
        a.release_to(5);
    }

    #[test]
    fn field_addr_checks_bounds() {
        let mut a = FieldAllocator::new(100);
        let f = a.alloc(10).unwrap();
        assert_eq!(f.addr(9), 9);
        let result = std::panic::catch_unwind(|| f.addr(10));
        assert!(result.is_err());
    }

    #[test]
    fn persistent_arena_grows_down_and_is_invisible_to_marks() {
        let mut a = FieldAllocator::new(100);
        let tmp = a.alloc(10).unwrap();
        assert_eq!(tmp.base(), 0);
        let mark = a.mark();
        let p = a.alloc_persistent(20).unwrap();
        assert_eq!(p.base(), 80);
        assert_eq!(a.persistent_used(), 20);
        // Persistent allocations do not move the bump pointer.
        assert_eq!(a.mark(), mark);
        a.release_to(mark);
        assert_eq!(a.persistent_used(), 20);
        a.free_persistent(p);
        assert_eq!(a.persistent_used(), 0);
    }

    #[test]
    fn regions_share_capacity() {
        let mut a = FieldAllocator::new(100);
        a.alloc(40).unwrap();
        a.alloc_persistent(40).unwrap();
        let err = a.alloc(30).unwrap_err();
        assert_eq!(err.available, 20);
        let err = a.alloc_persistent(30).unwrap_err();
        assert_eq!(err.available, 20);
        a.alloc(20).unwrap();
    }

    #[test]
    fn free_persistent_coalesces_and_reuses() {
        let mut a = FieldAllocator::new(100);
        let p1 = a.alloc_persistent(10).unwrap(); // 90..100
        let p2 = a.alloc_persistent(10).unwrap(); // 80..90
        let p3 = a.alloc_persistent(10).unwrap(); // 70..80
        a.free_persistent(p2); // hole in the middle
        assert_eq!(a.persistent_used(), 30);
        // First fit reuses the hole.
        let p4 = a.alloc_persistent(6).unwrap();
        assert_eq!(p4.base(), 80);
        a.free_persistent(p4);
        a.free_persistent(p1);
        a.free_persistent(p3);
        // All blocks coalesced and handed back to the bump region.
        assert_eq!(a.persistent_used(), 0);
        let full = a.alloc(100).unwrap();
        assert_eq!(full.len(), 100);
    }

    #[test]
    fn alloc_count_tracks_both_regions() {
        let mut a = FieldAllocator::new(100);
        let before = a.alloc_count();
        a.alloc(5).unwrap();
        a.alloc_persistent(5).unwrap();
        assert_eq!(a.alloc_count() - before, 2);
        let before = a.alloc_count();
        a.alloc(1000).unwrap_err();
        assert_eq!(a.alloc_count(), before); // failures don't count
    }

    #[test]
    fn write_stamps_are_word_exact_between_adjacent_ranges() {
        let mut s = WriteStamps::default();
        s.stamp(0..10);
        let a = s.epoch();
        s.stamp(10..20);
        // The adjacent range is newer; the first is not.
        assert!(!s.written_since(0..10, a));
        assert!(s.written_since(10..20, a));
        assert!(s.written_since(9..11, a));
        assert!(!s.written_since(20..30, 0), "never-written words");
        // A write inside an older span splits it exactly.
        s.stamp(3..5);
        let b = s.epoch();
        assert!(s.written_since(4..5, a));
        assert!(!s.written_since(0..3, a) && !s.written_since(5..10, a));
        assert!(!s.written_since(0..20, b));
        // A covering write replaces everything beneath it.
        s.stamp(0..100);
        assert_eq!(s.spans.len(), 1);
        assert!(s.written_since(50..51, b));
    }

    #[test]
    fn write_stamps_stay_bounded_and_conservative() {
        let mut s = WriteStamps::default();
        for i in 0..3 * MAX_STAMP_SPANS {
            s.stamp(2 * i..2 * i + 1);
        }
        assert!(s.spans.len() <= MAX_STAMP_SPANS);
        let before = s.epoch();
        s.stamp(1..2);
        // Merging may over-report, but every real write is still seen.
        assert!(s.written_since(1..2, before));
        assert!(s.written_since(0..1, before - 1));
        assert!(!s.written_since(0..6 * MAX_STAMP_SPANS, s.epoch()));
    }

    #[test]
    fn copy_between_handles_either_node_order() {
        let (mut n0, mut n1) = ([0.0f32; 4], [5.0f32, 0.0, 0.0, 0.0]);
        let mut mems: [&mut [f32]; 2] = [&mut n0, &mut n1];
        copy_between(&mut mems, 1, 0, 0, 2, 1);
        assert_eq!(mems[0][2], 5.0);
        copy_between(&mut mems, 0, 2, 1, 3, 1);
        assert_eq!(mems[1][3], 5.0);
        copy_between(&mut mems, 1, 3, 1, 1, 1);
        assert_eq!(mems[1][1], 5.0);
    }

    #[test]
    fn field_views_window_the_memory() {
        let mut a = FieldAllocator::new(16);
        let _pad = a.alloc(2).unwrap();
        let f = a.alloc(3).unwrap();
        let mut m = [0.0f32; 16];
        m[f.range()].fill(7.0);
        assert_eq!(&m[f.range()], &[7.0, 7.0, 7.0]);
        assert_eq!(m[1], 0.0); // padding untouched
        assert_eq!(m[2], 7.0);
        assert_eq!(m[5], 0.0);
    }
}
