//! Lock striping for the process-global tables: the [`crate::Sym`]
//! arena and the [`crate::Istr`] interner.
//!
//! A table is split into [`SHARDS`] independently locked shards, so
//! threads that intern different values rarely wait on one another.
//! The caller picks a shard by a cheap unkeyed [`mix`] of the value;
//! each shard's own map keeps the standard library's randomly keyed
//! SipHash, so input crafted to collide can at worst send every value
//! to one shard — the cost of a single global lock, no worse.
//!
//! Every shard counts the lookups it serves inside its own lock, so
//! the counts are exact without a shared atomic that every lookup
//! would contend on.

use std::sync::{Mutex, MutexGuard};

/// Number of shards: a power of two, so the top bits of a [`mix`]
/// pick one.
pub(crate) const SHARDS: usize = 64;

/// One shard: its part of the table and the lookups it has served.
#[derive(Default)]
pub(crate) struct Shard<T> {
    pub(crate) table: T,
    lookups: u64,
}

/// A shard's lock on cache lines of its own (128 bytes covers the
/// adjacent-line prefetch of x86-64), so threads busy on neighbouring
/// shards do not bounce one line between cores.
#[repr(align(128))]
#[derive(Default)]
struct Slot<T>(Mutex<Shard<T>>);

/// A table split into [`SHARDS`] locked shards.
pub(crate) struct Sharded<T> {
    slots: Box<[Slot<T>]>,
}

impl<T: Default> Sharded<T> {
    /// Empty shards. No table is pre-sized: each grows on first insert.
    pub(crate) fn new() -> Self {
        Sharded { slots: (0..SHARDS).map(|_| Slot::default()).collect() }
    }
}

impl<T> Sharded<T> {
    /// Locks the shard that `hash` (a [`mix`] result) selects and
    /// counts one lookup on it.
    pub(crate) fn lookup(&self, hash: u64) -> MutexGuard<'_, Shard<T>> {
        let shift = u64::BITS - SHARDS.trailing_zeros();
        let mut shard = lock(&self.slots[(hash >> shift) as usize]);
        shard.lookups += 1;
        shard
    }

    /// Sum of `f` over every shard's table, each read under its lock.
    pub(crate) fn sum(&self, f: impl Fn(&T) -> usize) -> usize {
        self.slots.iter().map(|slot| f(&lock(slot).table)).sum()
    }

    /// Total lookups served by every shard.
    pub(crate) fn lookups(&self) -> u64 {
        self.slots.iter().map(|slot| lock(slot).lookups).sum()
    }
}

// A panic cannot leave a shard half-updated: a lookup either inserted
// its value or did not, so a poisoned lock is safe to reuse.
fn lock<T>(slot: &Slot<T>) -> MutexGuard<'_, Shard<T>> {
    slot.0.lock().unwrap_or_else(|e| e.into_inner())
}

/// Folds `x` into the running shard hash `h`: xor, then multiply by
/// an odd constant (2^64 / golden ratio), which carries every input
/// bit into the top bits that [`Sharded::lookup`] reads.
pub(crate) fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_integers_spread_over_shards() {
        // Child ids and temporaries are small dense integers; they
        // must not all land in a handful of shards.
        let shift = u64::BITS - SHARDS.trailing_zeros();
        let mut used = [false; SHARDS];
        for x in 0..1024u64 {
            used[(mix(1, x) >> shift) as usize] = true;
        }
        assert_eq!(used.iter().filter(|&&u| u).count(), SHARDS);
    }

    #[test]
    fn lookups_are_counted_per_shard() {
        let table: Sharded<Vec<u32>> = Sharded::new();
        table.lookup(0).table.push(1);
        table.lookup(u64::MAX).table.push(2);
        drop(table.lookup(0));
        assert_eq!(table.lookups(), 3);
        assert_eq!(table.sum(Vec::len), 2);
    }
}
