//! The Interleave Override Table (IOT) — Table 1 of the paper.
//!
//! Each L2/L3 cache controller holds a small table of physical ranges whose
//! L3-bank interleave differs from the machine default. Because every
//! interleave pool is backed by *contiguous* physical addresses, one entry
//! per pool suffices; the paper provisions 16 entries (Table 2).

use crate::addr::PAddr;

/// One IOT entry: physical `[start, end)` uses interleave `intrlv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IotEntry {
    /// Start of the overridden physical range (inclusive).
    pub start: PAddr,
    /// End of the overridden physical range (exclusive).
    pub end: PAddr,
    /// Interleave in bytes for addresses in the range.
    pub intrlv: u64,
}

/// Error returned when the IOT is full or an insert overlaps existing ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IotError {
    /// All hardware entries are occupied.
    Full {
        /// The configured capacity that was exceeded.
        capacity: u32,
    },
    /// The new range overlaps an installed entry.
    Overlap,
}

impl std::fmt::Display for IotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IotError::Full { capacity } => write!(f, "interleave override table full ({capacity} entries)"),
            IotError::Overlap => write!(f, "physical range overlaps an existing IOT entry"),
        }
    }
}

impl std::error::Error for IotError {}

/// The Interleave Override Table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Iot {
    capacity: u32,
    entries: Vec<IotEntry>,
}

impl Iot {
    /// New table with `capacity` hardware entries (paper: 16).
    pub fn new(capacity: u32) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
        }
    }

    /// Install an override for `[start, end)`.
    ///
    /// # Errors
    ///
    /// [`IotError::Full`] when `capacity` entries are already installed;
    /// [`IotError::Overlap`] when the range intersects an existing entry.
    pub fn insert(&mut self, start: PAddr, end: PAddr, intrlv: u64) -> Result<(), IotError> {
        assert!(start < end, "empty IOT range");
        if self.entries.len() as u32 >= self.capacity {
            return Err(IotError::Full {
                capacity: self.capacity,
            });
        }
        if self
            .entries
            .iter()
            .any(|e| start < e.end && e.start < end)
        {
            return Err(IotError::Overlap);
        }
        self.entries.push(IotEntry { start, end, intrlv });
        Ok(())
    }

    /// Grow an installed entry's end (pool expansion keeps physical
    /// contiguity, so the existing entry just stretches).
    ///
    /// # Errors
    ///
    /// [`IotError::Overlap`] if the grown range would collide with another
    /// entry. Returns `Ok(false)` when no entry starts at `start`.
    pub fn grow(&mut self, start: PAddr, new_end: PAddr) -> Result<bool, IotError> {
        let Some(pos) = self.entries.iter().position(|e| e.start == start) else {
            return Ok(false);
        };
        if self
            .entries
            .iter()
            .enumerate()
            .any(|(i, e)| i != pos && start < e.end && e.start < new_end)
        {
            return Err(IotError::Overlap);
        }
        self.entries[pos].end = self.entries[pos].end.max(new_end);
        Ok(true)
    }

    /// The override covering `paddr`, if any. This is the query each L2 miss
    /// and L3 access performs.
    pub fn lookup(&self, paddr: PAddr) -> Option<&IotEntry> {
        self.entries
            .iter()
            .find(|e| e.start <= paddr && paddr < e.end)
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no overrides are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hardware capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Installed entries (diagnostics / area accounting).
    pub fn entries(&self) -> &[IotEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_hits_and_misses() {
        let mut iot = Iot::new(16);
        iot.insert(PAddr(0x1000), PAddr(0x2000), 64).unwrap();
        assert_eq!(iot.lookup(PAddr(0x1000)).unwrap().intrlv, 64);
        assert_eq!(iot.lookup(PAddr(0x1fff)).unwrap().intrlv, 64);
        assert!(iot.lookup(PAddr(0x2000)).is_none());
        assert!(iot.lookup(PAddr(0xfff)).is_none());
    }

    #[test]
    fn rejects_overlap() {
        let mut iot = Iot::new(16);
        iot.insert(PAddr(0x1000), PAddr(0x2000), 64).unwrap();
        assert_eq!(
            iot.insert(PAddr(0x1800), PAddr(0x2800), 128),
            Err(IotError::Overlap)
        );
        // Adjacent is fine.
        iot.insert(PAddr(0x2000), PAddr(0x3000), 128).unwrap();
    }

    #[test]
    fn rejects_when_full() {
        let mut iot = Iot::new(2);
        iot.insert(PAddr(0x0), PAddr(0x1000), 64).unwrap();
        iot.insert(PAddr(0x1000), PAddr(0x2000), 64).unwrap();
        assert_eq!(
            iot.insert(PAddr(0x2000), PAddr(0x3000), 64),
            Err(IotError::Full { capacity: 2 })
        );
    }

    #[test]
    fn grow_stretches_entry() {
        let mut iot = Iot::new(16);
        iot.insert(PAddr(0x1000), PAddr(0x2000), 64).unwrap();
        assert_eq!(iot.grow(PAddr(0x1000), PAddr(0x4000)), Ok(true));
        assert_eq!(iot.lookup(PAddr(0x3fff)).unwrap().intrlv, 64);
        assert_eq!(iot.grow(PAddr(0x9000), PAddr(0xa000)), Ok(false));
    }

    #[test]
    fn grow_cannot_collide() {
        let mut iot = Iot::new(16);
        iot.insert(PAddr(0x1000), PAddr(0x2000), 64).unwrap();
        iot.insert(PAddr(0x3000), PAddr(0x4000), 128).unwrap();
        assert_eq!(iot.grow(PAddr(0x1000), PAddr(0x3800)), Err(IotError::Overlap));
    }

    #[test]
    fn paper_provisioning_is_enough_for_seven_pools() {
        // 7 power-of-two pools fit comfortably in 16 entries (§8 discusses
        // fragmentation schemes that would need more).
        let mut iot = Iot::new(16);
        let mut base = 0u64;
        for intrlv in [64u64, 128, 256, 512, 1024, 2048, 4096] {
            iot.insert(PAddr(base), PAddr(base + 0x10_0000), intrlv).unwrap();
            base += 0x10_0000;
        }
        assert_eq!(iot.len(), 7);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever sequence of non-overlapping inserts succeeds, every
        /// address inside an accepted range resolves to its interleave and
        /// addresses outside all ranges resolve to nothing.
        #[test]
        fn lookup_consistency(
            ranges in proptest::collection::vec((0u64..1000, 1u64..100, 64u64..4096), 0..24),
            probe in 0u64..120_000,
        ) {
            let mut iot = Iot::new(16);
            let mut accepted: Vec<(u64, u64, u64)> = Vec::new();
            for (start_kb, len_kb, intrlv) in ranges {
                let start = start_kb * 100;
                let end = start + len_kb * 100;
                if iot.insert(PAddr(start), PAddr(end), intrlv).is_ok() {
                    accepted.push((start, end, intrlv));
                }
            }
            prop_assert!(iot.len() <= 16);
            let hit = iot.lookup(PAddr(probe));
            let expect = accepted.iter().find(|&&(s, e, _)| s <= probe && probe < e);
            match (hit, expect) {
                (Some(entry), Some(&(_, _, intrlv))) => prop_assert_eq!(entry.intrlv, intrlv),
                (None, None) => {}
                (got, want) => prop_assert!(false, "lookup {got:?} vs expected {want:?}"),
            }
        }
    }
}
