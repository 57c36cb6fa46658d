//! Global string interner.
//!
//! Input, temporary, field, and callee names recur across every path of
//! every function in a unit — and across units, since kernel code keeps
//! re-using the same identifiers (`gfp_mask`, `ret`, `flags`). The
//! extractor used to `clone()` those `String`s into every event, every
//! environment binding, and every constraint key. [`Istr`] replaces
//! that with an interned `&'static str`: each distinct spelling is
//! leaked exactly once, handles are `Copy`, and equality is a pointer
//! comparison.
//!
//! The interner is process-global because interned names flow into
//! [`crate::Sym`] nodes that outlive any single extraction: they sit in
//! the engine's bounded unit cache, in persisted path databases, and
//! cross worker threads in the daemon. Memory grows with the number of
//! *distinct* identifiers seen, which is small and bounded by the
//! source under analysis.
//!
//! The interner is sharded like the symbol arena ([`crate::sym`]): a
//! string's shard is a cheap mix of its length and end bytes, and each
//! shard keeps its own SipHash-keyed set. [`Istr::interned_count`] and
//! [`Istr::lookup_count`] sum the shards, so both are exact.

use crate::shard::{mix, Sharded};
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

/// An interned, immutable string. `Copy`, pointer-compared.
///
/// Two `Istr`s are equal iff their contents are equal: the interner
/// guarantees each distinct spelling has exactly one address, so `==`
/// is a single pointer comparison.
#[derive(Clone, Copy)]
pub struct Istr(&'static str);

/// The interner's shards, built on first use.
fn interner() -> &'static Sharded<HashSet<&'static str>> {
    static INTERNER: OnceLock<Sharded<HashSet<&'static str>>> = OnceLock::new();
    INTERNER.get_or_init(Sharded::new)
}

/// The shard hash of a string: its length and its first and last
/// eight bytes. Identifiers differ mostly at their ends; two strings
/// that differ only in the middle share a shard, which costs nothing
/// but contention.
fn shard_hash(s: &str) -> u64 {
    let b = s.as_bytes();
    let word = |bytes: &[u8]| bytes.iter().fold(0u64, |w, &x| w << 8 | u64::from(x));
    let head = word(&b[..b.len().min(8)]);
    let tail = word(&b[b.len().saturating_sub(8)..]);
    mix(mix(mix(0, b.len() as u64), head), tail)
}

impl Istr {
    /// Interns `s`, returning the canonical handle for its contents.
    pub fn new(s: &str) -> Istr {
        let mut shard = interner().lookup(shard_hash(s));
        if let Some(found) = shard.table.get(s) {
            return Istr(found);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        shard.table.insert(leaked);
        Istr(leaked)
    }

    /// The interned contents.
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// The address of the interned contents: equal iff the strings
    /// are, so it stands in for them when the arena picks a shard.
    pub(crate) fn addr(self) -> usize {
        self.0.as_ptr() as usize
    }

    /// The interner's shard hash of the contents: unlike the address,
    /// the same in every run.
    pub(crate) fn stable_hash(self) -> u64 {
        shard_hash(self.0)
    }

    /// Number of distinct strings interned so far (for diagnostics).
    pub fn interned_count() -> usize {
        interner().sum(HashSet::len)
    }

    /// Number of interner lookups so far: every [`Istr::new`] call,
    /// whether it found its string or inserted it.
    pub fn lookup_count() -> u64 {
        interner().lookups()
    }
}

impl PartialEq for Istr {
    fn eq(&self, other: &Istr) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Istr {}

// Hash the contents, not the address: addresses vary run to run (and
// with interning order), and hashing short identifiers is cheap. This
// keeps any `HashMap<Istr, _>` iteration order as deterministic as the
// old `String`-keyed maps were.
impl std::hash::Hash for Istr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialOrd for Istr {
    fn partial_cmp(&self, other: &Istr) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Istr {
    fn cmp(&self, other: &Istr) -> std::cmp::Ordering {
        self.0.cmp(other.0)
    }
}

impl PartialEq<str> for Istr {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Istr {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl std::ops::Deref for Istr {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl From<&str> for Istr {
    fn from(s: &str) -> Istr {
        Istr::new(s)
    }
}

impl From<&String> for Istr {
    fn from(s: &String) -> Istr {
        Istr::new(s)
    }
}

impl From<String> for Istr {
    fn from(s: String) -> Istr {
        Istr::new(&s)
    }
}

impl fmt::Display for Istr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for Istr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_contents_share_one_address() {
        let a = Istr::new("gfp_mask");
        // A dynamically built string must land on the same address as
        // the literal.
        let owned = String::from("gfp_") + "mask";
        let b = Istr::new(owned.as_str());
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_contents_are_unequal() {
        assert_ne!(Istr::new("a"), Istr::new("b"));
        assert_eq!(Istr::new("x"), *"x");
        assert!(Istr::new("x") == "x");
    }

    #[test]
    fn orders_and_hashes_by_contents() {
        use std::collections::HashMap;
        assert!(Istr::new("a") < Istr::new("b"));
        let mut m = HashMap::new();
        m.insert(Istr::new("k"), 1);
        assert_eq!(m.get(&Istr::new("k")), Some(&1));
    }
}
